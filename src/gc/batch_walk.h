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
// Each AND's kind (one or two table rows) comes from the walked view's
// own plan (Circuit::gc_walk_plan), whose forward pass sees a slot
// recycled away from an evaluator input; a walk-time lookup of "is this
// slot an evaluator input" could not.
#pragma once

#include <cstdlib>
#include <memory>
#include <new>
#include <utility>

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

/// Garbler-side staging line. A window's gates expand to hash pairs in
/// gate order — two per two-row AND (a0, then b0), one per one-row AND
/// (b0, its evaluator-input operand) — and table row k belongs to pair
/// k. Per pair: the zero-label, its tweak, two hashes (gc_hash_pairs
/// output) and one row; a one-row gate parks its other operand's
/// zero-label a0 in its row until the drain computes the row. Per gate:
/// the first pair index (first[size] is the pair count, so a gate's
/// pair count gives its kind) and the output slot. Segment order puts
/// the 16-byte Block segments first, so every segment up to `outs` is
/// cache-line aligned for any power-of-two capacity >= 4.
struct GarbleWindowLine {
  explicit GarbleWindowLine(size_t cap) : capacity(cap) {
    static_assert(sizeof(Block) == 16);
    const size_t bytes = cap * (8 * sizeof(Block) + 2 * sizeof(uint64_t) +
                                sizeof(Wire) + sizeof(uint32_t)) +
                         sizeof(uint32_t);
    mem_ = detail::window_line_alloc(bytes);
    auto* base = static_cast<uint8_t*>(mem_.get());
    x0 = reinterpret_cast<Block*>(base);  // 2 per gate
    hashes = x0 + 2 * cap;                // 4 per gate
    tabs = hashes + 4 * cap;              // 2 per gate
    tweaks = reinterpret_cast<uint64_t*>(tabs + 2 * cap);  // 2 per gate
    outs = reinterpret_cast<Wire*>(tweaks + 2 * cap);
    first = reinterpret_cast<uint32_t*>(outs + cap);  // cap + 1
    first[0] = 0;
  }

  Block* x0;
  Block* hashes;
  Block* tabs;
  uint64_t* tweaks;
  Wire* outs;
  uint32_t* first;
  size_t size = 0;  // gates; first[size] is the pair count
  const size_t capacity;

 private:
  detail::WindowLineMem mem_;
};

/// Evaluator-side staging line, laid out like the garbler's: per row
/// (two per two-row AND, one per one-row AND, gate order) the hash
/// input label, its tweak, the hash, and the term the row adds to the
/// gate's output besides its hash (the table row as selected at enqueue
/// time, see evaluator.cpp); per gate the first row index and the
/// output slot.
struct EvalWindowLine {
  explicit EvalWindowLine(size_t cap) : capacity(cap) {
    static_assert(sizeof(Block) == 16);
    const size_t bytes = cap * (6 * sizeof(Block) + 2 * sizeof(uint64_t) +
                                sizeof(Wire) + sizeof(uint32_t)) +
                         sizeof(uint32_t);
    mem_ = detail::window_line_alloc(bytes);
    auto* base = static_cast<uint8_t*>(mem_.get());
    ins = reinterpret_cast<Block*>(base);  // 2 per gate
    terms = ins + 2 * cap;                 // 2 per gate
    hashes = terms + 2 * cap;              // 2 per gate
    tweaks = reinterpret_cast<uint64_t*>(hashes + 2 * cap);  // 2 per gate
    outs = reinterpret_cast<Wire*>(tweaks + 2 * cap);
    first = reinterpret_cast<uint32_t*>(outs + cap);  // cap + 1
    first[0] = 0;
  }

  Block* ins;
  Block* terms;
  Block* hashes;
  uint64_t* tweaks;
  Wire* outs;
  uint32_t* first;
  size_t size = 0;  // gates; first[size] is the row count
  const size_t capacity;

 private:
  detail::WindowLineMem mem_;
};

/// `g` with its operands ordered for garbling: a one-row AND's
/// evaluator-input operand is always `b` (AndKind::kKnownA swaps).
inline Gate gc_oriented(Gate g, AndKind kind) {
  if (kind == AndKind::kKnownA) std::swap(g.a, g.b);
  return g;
}

/// Walk `c.gates` in order without batching (the scalar pipelines):
/// `on_xor(g)` per XOR, `on_and(g, one_row)` per AND with `g` oriented
/// by its kind from the circuit's walk plan.
template <typename XorFn, typename AndFn>
void gc_walk(const Circuit& c, XorFn&& on_xor, AndFn&& on_and) {
  const auto plan = c.gc_walk_plan();
  const AndKind* kind = plan->and_kinds.data();
  for (const Gate& g : c.gates) {
    if (g.op == GateOp::kXor) {
      on_xor(g);
      continue;
    }
    const AndKind k = *kind++;
    on_and(gc_oriented(g, k), k != AndKind::kFull);
  }
}

/// Walk `c.gates` in order. XOR gates invoke `on_xor(g)` immediately
/// (free-XOR). AND gates invoke `on_and(g, one_row)` (oriented as in
/// gc_walk) to enqueue into the pending window; `flush(bool
/// level_boundary)` drains it — called at the circuit's precomputed
/// dependency flush points and after the last gate (level_boundary =
/// true: a real barrier in the gate order, under the width scheduler an
/// AND-level boundary), and at `kGcMaxBatchWindow` pending gates
/// (level_boundary = false: a capacity drain mid-level). The
/// distinction only matters to consumers that align a downstream unit
/// to levels — table frame sizing — and never changes which gates drain
/// when, so both endpoints stay in lock-step regardless of how they use
/// it. `flush(...)` must be a no-op on an empty window.
template <typename XorFn, typename AndFn, typename FlushFn>
void gc_batched_walk(const Circuit& c, XorFn&& on_xor, AndFn&& on_and,
                     FlushFn&& flush) {
  const auto plan = c.gc_walk_plan();
  const uint32_t* fp = plan->flush_points.data();
  const uint32_t* fp_end = fp + plan->flush_points.size();
  const AndKind* kind = plan->and_kinds.data();

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
    const AndKind k = *kind++;
    on_and(gc_oriented(g, k), k != AndKind::kFull);
    if (++window == kGcMaxBatchWindow) {
      flush(/*level_boundary=*/false);
      window = 0;
    }
  }
  flush(/*level_boundary=*/true);
}

}  // namespace deepsecure
