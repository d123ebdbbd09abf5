// Shared driver for the batched hashing pipeline's gate walk. Garbler
// and Evaluator defer exactly the same AND gates, so the flush schedule
// and capacity policy must stay in lock-step between them — this template
// is the single place that logic lives.
//
// Under GcOptions::schedule both endpoints pass the circuit's scheduled
// view (Circuit::gc_scheduled) here instead of the construction order;
// the walked circuit defines the table/tweak order, so the caller must
// hand both parties the identical view — the runtime handshake's
// fingerprint over the scheduled view enforces that across machines.
// The view's wires are recycled label slots, so a gate's output slot may
// have held another wire before: the walk reads inputs at enqueue time
// and a window writes its outputs when it drains, and the slot pass
// (circuit/schedule.h) never hands a pending AND's slot to a later gate.
#pragma once

#include <cstdlib>
#include <memory>
#include <new>

#include "circuit/circuit.h"
#include "gc/garble.h"

namespace deepsecure {

// ---------------------------------------------------------------------
// Dense window staging lines. One window's operands live in a single
// 64-byte-aligned allocation with power-of-two gate capacity; each
// operand class (labels, tweaks, hashes, table rows, output wires) is a
// contiguous segment starting on a cache-line boundary. The hash
// backends sweep the segments as flat arrays — no per-gate structs to
// gather from — and the same layout is what a launch-per-window GPU
// kernel would DMA: one linear copy in, one out.
// ---------------------------------------------------------------------

namespace detail {
struct WindowLineFree {
  void operator()(void* p) const { std::free(p); }
};
using WindowLineMem = std::unique_ptr<void, WindowLineFree>;

inline WindowLineMem window_line_alloc(size_t bytes) {
  // aligned_alloc requires the size be a multiple of the alignment.
  bytes = (bytes + 63) & ~size_t{63};
  void* p = std::aligned_alloc(64, bytes);
  if (p == nullptr) throw std::bad_alloc();
  return WindowLineMem(p);
}
}  // namespace detail

/// Garbler-side staging line: per gate, the two input zero-labels, two
/// tweaks, four hashes (gc_hash_and_quads output), two table rows, and
/// the output wire. Segment order puts the 16-byte Block segments
/// first, so every segment is cache-line aligned for any power-of-two
/// capacity >= 4.
struct GarbleWindowLine {
  explicit GarbleWindowLine(size_t cap) : capacity(cap) {
    static_assert(sizeof(Block) == 16);
    const size_t bytes = cap * (9 * sizeof(Block) + 2 * sizeof(uint64_t) +
                                sizeof(Wire));
    mem_ = detail::window_line_alloc(bytes);
    auto* base = static_cast<uint8_t*>(mem_.get());
    a0 = reinterpret_cast<Block*>(base);
    b0 = a0 + cap;
    hashes = b0 + cap;        // 4 per gate
    tabs = hashes + 4 * cap;  // 2 per gate
    tweaks = reinterpret_cast<uint64_t*>(tabs + 2 * cap);  // 2 per gate
    outs = reinterpret_cast<Wire*>(tweaks + 2 * cap);
  }

  Block* a0;
  Block* b0;
  Block* hashes;
  Block* tabs;
  uint64_t* tweaks;
  Wire* outs;
  size_t size = 0;
  const size_t capacity;

 private:
  detail::WindowLineMem mem_;
};

/// Evaluator-side staging line: two active input labels, two tweaks,
/// two table rows, two hashes, one output wire per gate.
struct EvalWindowLine {
  explicit EvalWindowLine(size_t cap) : capacity(cap) {
    static_assert(sizeof(Block) == 16);
    const size_t bytes = cap * (6 * sizeof(Block) + 2 * sizeof(uint64_t) +
                                sizeof(Wire));
    mem_ = detail::window_line_alloc(bytes);
    auto* base = static_cast<uint8_t*>(mem_.get());
    ins = reinterpret_cast<Block*>(base);  // 2 per gate
    tabs = ins + 2 * cap;                  // 2 per gate
    hashes = tabs + 2 * cap;               // 2 per gate
    tweaks = reinterpret_cast<uint64_t*>(hashes + 2 * cap);  // 2 per gate
    outs = reinterpret_cast<Wire*>(tweaks + 2 * cap);
  }

  Block* ins;
  Block* tabs;
  Block* hashes;
  uint64_t* tweaks;
  Wire* outs;
  size_t size = 0;
  const size_t capacity;

 private:
  detail::WindowLineMem mem_;
};

/// Walk `c.gates` in order. XOR gates invoke `on_xor(g)` immediately
/// (free-XOR). AND gates invoke `on_and(g)` to enqueue into the pending
/// window; `flush(bool level_boundary)` drains it — called at the
/// circuit's precomputed dependency flush points and after the last
/// gate (level_boundary = true: a real barrier in the gate order, under
/// the width scheduler an AND-level boundary), and at
/// `kGcMaxBatchWindow` pending gates (level_boundary = false: a
/// capacity drain mid-level). The distinction only matters to consumers
/// that align a downstream unit to levels — table frame sizing — and
/// never changes which gates drain when, so both endpoints stay in
/// lock-step regardless of how they use it. `flush(...)` must be a
/// no-op on an empty window.
template <typename XorFn, typename AndFn, typename FlushFn>
void gc_batched_walk(const Circuit& c, XorFn&& on_xor, AndFn&& on_and,
                     FlushFn&& flush) {
  const auto flush_points = c.gc_flush_points();
  const uint32_t* fp = flush_points->data();
  const uint32_t* fp_end = fp + flush_points->size();

  size_t window = 0;
  for (uint32_t i = 0; i < static_cast<uint32_t>(c.gates.size()); ++i) {
    if (fp != fp_end && *fp == i) {
      flush(/*level_boundary=*/true);
      window = 0;
      ++fp;
    }
    const Gate& g = c.gates[i];
    if (g.op == GateOp::kXor) {
      on_xor(g);
      continue;
    }
    on_and(g);
    if (++window == kGcMaxBatchWindow) {
      flush(/*level_boundary=*/false);
      window = 0;
    }
  }
  flush(/*level_boundary=*/true);
}

}  // namespace deepsecure
