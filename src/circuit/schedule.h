// Width-aware netlist rescheduling and label-slot allocation — the
// compiler stage between circuit construction and garbling.
//
// The batched hashing pipeline (gc/batch_walk.h) drains its pending
// AND-gate window whenever a gate reads a wire produced by a
// still-pending AND. Builders and the synth layer emit gates in
// construction order — lane by lane, carry chain by carry chain — so on
// arithmetic netlists the window flushes every few gates and the AES
// pipeline never fills. schedule_circuit rewrites a
// topologically-ordered Circuit into a width-maximizing order:
//
//   * levelized list scheduling: every gate is assigned an AND-depth
//     level and gates are emitted level by level. All AND gates of one
//     level are mutually independent — one matvec's carry chains
//     interleave across all lanes/bit-slices into a single wide batch
//     window. Gates are placed as late as possible (ALAP): at the
//     latest level their consumers allow, so a value is produced just
//     before it is read and few labels are live at once.
//   * window fill: a level's ANDs drain in kScheduleWindow-wide
//     windows, so its last window is usually partial; it is topped up
//     with ANDs of the next level whose inputs are already readable.
//   * deferred free-XOR: within a level, XOR gates are emitted before
//     the level's ANDs. An XOR consuming a previous level's AND output
//     therefore lands exactly at the level boundary where the window
//     must drain anyway — XOR consumers never force an extra flush.
//
// The result is one dependency flush per AND level (the netlist's
// multiplicative depth) instead of one per construction-order hazard.
//
// A circuit has one wire per gate output, so a label array indexed by
// wire id grows with the netlist (150 MB per party for a 9.35M-wire
// layer) and a scheduled walk touches it all over. allocate_label_slots
// renumbers the wires of a gate order onto a recycled slot array sized
// by the peak number of live labels, so the walk runs from cache.
// Circuit::gc_scheduled() is the two composed: the view both GC
// endpoints walk.
//
// Invariants:
//   * schedule_circuit keeps wire ids — only the gate list is permuted —
//     so validate() and Circuit::eval hold on its result. The slot view
//     of gc_scheduled() rebinds inputs, outputs, state_next and gates
//     onto slots; a slot is written again, so validate() does not hold
//     on it, but Circuit::eval (a sequential walk) still gives the
//     original semantics, and GC endpoints bind and read labels through
//     the view's own inputs/outputs.
//   * a slot is recycled only after the last read of its owner, and the
//     output of an AND that nothing reads keeps a slot no later gate
//     uses (a pending window writes AND outputs only when it drains).
//     So the view's dependency flush points equal those of the same
//     order on wire ids, and its tables are byte-identical to them.
//   * both passes are pure, deterministic functions of the gate list
//     (plus optional lane tags), so two endpoints that compiled the
//     same netlist compute the same view. The protocol's table stream
//     and tweak sequence follow gate order, so both parties MUST walk
//     the same view — the chain fingerprint is computed over it and
//     cross-checked in the runtime handshake.
//   * scheduling happens behind GcOptions::schedule (default on); the
//     unscheduled construction order, on wire ids, is retained as the
//     correctness oracle (DEEPSECURE_NO_SCHEDULE=1 forces it
//     process-wide).
#pragma once

#include <vector>

#include "circuit/circuit.h"

namespace deepsecure {

/// AND gates per batch window (kGcMaxBatchWindow in the GC pipeline):
/// the scheduler fills each level's last window up to it.
inline constexpr size_t kScheduleWindow = 1024;

struct ScheduleResult {
  /// Same circuit, gates permuted into the levelized order (gate_lanes
  /// permuted alongside). validate() holds on the result.
  Circuit circuit;
  /// gate_map[i] = original index of the gate at scheduled position i.
  std::vector<uint32_t> gate_map;
};

/// Reschedule `c` (see file header). O(gates + wires) time and memory.
ScheduleResult schedule_circuit(const Circuit& c);

/// The gates of `c` in `order` (a topological permutation of gate
/// indices, e.g. ScheduleResult::gate_map), with every wire renumbered
/// onto a recycled label slot (see file header). Constants keep slots 0
/// and 1; num_wires of the result is the slot count. Lane tags are not
/// carried. O(gates + wires) time and memory.
Circuit allocate_label_slots(const Circuit& c,
                             const std::vector<uint32_t>& order);

/// Batch-window shape of a gate order: simulates the batched walk
/// (dependency flush points + a `capacity` cap, kGcMaxBatchWindow in
/// the real pipeline) and reports the AND-gate width of every drained
/// window. The schedule quality metric for benches and regressions.
struct WindowStats {
  size_t and_gates = 0;
  size_t windows = 0;       // drain events with at least one AND
  size_t flush_points = 0;  // dependency flushes in the gate order
  double mean = 0.0;        // AND gates per window
  size_t p50 = 0;
  size_t p95 = 0;
  size_t max = 0;
};

WindowStats window_stats(const Circuit& c, size_t capacity);

}  // namespace deepsecure
