// Lock-free single-producer/single-consumer ring buffer for hot
// intra-host handoffs (the client's prefetch lane -> caller remainders
// and credits-as-slots, per-thread trace event rings). The design
// follows firedancer's fd_mcache fragment rings: power-of-two slot
// count, every slot stamped with the sequence number of the value it
// holds, and the producer/consumer cursors on their own cache lines so
// the two sides never false-share.
//
// Per-slot sequence protocol (Vyukov bounded queue, specialized to one
// producer and one consumer):
//   slot.seq == index          slot is EMPTY, awaiting value #index
//   slot.seq == index + 1      slot is FULL, holding value #index
// The producer claims slot (head & mask) only when its seq equals
// head (release-stores seq = head + 1 after moving the value in); the
// consumer takes slot (tail & mask) only when its seq equals tail + 1
// (release-stores seq = tail + capacity when done, marking the slot
// empty for the producer's next lap). Because each side owns exactly
// one cursor, try_push/try_pop are wait-free; a reader that ever
// observes a slot seq ahead of what its own cursor implies has been
// overrun (only possible through misuse: two producers, or a consumer
// cursor manipulated externally) — sequence_of() exposes the raw slot
// seq so tests can assert exactly that invariant.
//
// Memory ordering: the seq store is the publication point (release),
// matched by the acquire load on the opposite side; head_/tail_ are
// only advanced by their owning thread and read relaxed by the other
// side for size estimates.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace deepsecure {

// Fixed rather than std::hardware_destructive_interference_size: that
// constant may differ between compilers and -mtune settings, so GCC
// warns on every use in a header (-Winterference-size), and 64 bytes
// is the line size of every x86-64 and mainstream ARM core.
inline constexpr size_t kCacheLine = 64;

template <typename T>
class SpscRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit SpscRing(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::vector<Slot>(cap);
    for (size_t i = 0; i < cap; ++i)
      slots_[i].seq.store(i, std::memory_order_relaxed);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return mask_ + 1; }

  /// Producer side. Returns false when the ring is full (the consumer
  /// has not yet freed the slot this value would land in).
  bool try_push(T&& v) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[head & mask_];
    if (s.seq.load(std::memory_order_acquire) != head) return false;  // full
    s.value = std::move(v);
    s.seq.store(head + 1, std::memory_order_release);  // publish
    head_.store(head + 1, std::memory_order_release);
    return true;
  }
  bool try_push(const T& v) {
    T copy = v;
    return try_push(std::move(copy));
  }

  /// Consumer side: borrow the oldest value without consuming it, or
  /// nullptr when empty. Only the consumer thread may call this; the
  /// slot stays FULL, so the producer cannot touch it until try_pop.
  T* front() {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    Slot& s = slots_[tail & mask_];
    if (s.seq.load(std::memory_order_acquire) != tail + 1) return nullptr;
    return &s.value;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool try_pop(T& out) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    Slot& s = slots_[tail & mask_];
    if (s.seq.load(std::memory_order_acquire) != tail + 1) return false;  // empty
    out = std::move(s.value);
    s.value = T{};  // drop payload now, not a full lap later
    s.seq.store(tail + capacity(), std::memory_order_release);  // free slot
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Values pushed minus values popped. Exact on either owning thread;
  /// a racing reader sees a value at most one handoff stale.
  size_t size() const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    return head >= tail ? static_cast<size_t>(head - tail) : 0;
  }
  bool empty() const { return size() == 0; }
  bool full() const { return size() >= capacity(); }

  /// Total values ever pushed / popped (monotonic cursors).
  std::atomic<uint64_t>& head() { return head_; }
  std::atomic<uint64_t>& tail() { return tail_; }
  const std::atomic<uint64_t>& head() const { return head_; }
  const std::atomic<uint64_t>& tail() const { return tail_; }

  /// Raw sequence stamp of the slot that value #`cursor` occupies —
  /// the overrun-detection hook: a consumer at cursor c observing
  /// sequence_of(c) > c + 1 has been lapped. Test/diagnostic use.
  uint64_t sequence_of(uint64_t cursor) const {
    return slots_[cursor & mask_].seq.load(std::memory_order_acquire);
  }

 private:
  // Slot: the per-slot sequence stamp doubles as the full/empty flag
  // and the overrun detector (see file header).
  struct Slot {
    std::atomic<uint64_t> seq{0};
    T value{};
  };

  size_t mask_ = 0;
  std::vector<Slot> slots_;
  alignas(kCacheLine) std::atomic<uint64_t> head_{0};  // producer cursor
  alignas(kCacheLine) std::atomic<uint64_t> tail_{0};  // consumer cursor
};

}  // namespace deepsecure
