// Boolean circuit intermediate representation ("netlist").
//
// The GC protocol requires the function to be a topologically-sorted list
// of 2-input gates. With the free-XOR optimization the only gate classes
// that matter are XOR (free) and AND (half-gates: 2 ciphertexts, or 1
// when an operand is an evaluator input — see AndKind); the builder
// lowers NOT/OR/XNOR/... onto this basis. Wires 0 and 1 are the public
// constants 0 and 1.
//
// Inputs are partitioned by owner, matching the paper's roles:
//   * garbler inputs   — the client's private data sample (Alice)
//   * evaluator inputs — the server's private model parameters (Bob)
// plus `state` inputs for sequential (folded) circuits, which carry values
// across clock cycles (TinyGarble-style, Section 3.5 of the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/bits.h"

namespace deepsecure {

using Wire = uint32_t;

inline constexpr Wire kConst0 = 0;
inline constexpr Wire kConst1 = 1;

enum class GateOp : uint8_t { kXor = 0, kAnd = 1 };

struct Gate {
  Wire a = 0;
  Wire b = 0;
  Wire out = 0;
  GateOp op = GateOp::kXor;
};

/// How the GC engine garbles one AND gate (gc/garble.h). The evaluator
/// holds its own input bits in plaintext, so an AND reading an
/// evaluator input needs only the evaluator half of a half-gate: one
/// ciphertext instead of two. The kind is a pure function of the gate
/// list and the evaluator-input binding, so both parties derive it.
enum class AndKind : uint8_t {
  kFull = 0,    // two-row half-gate
  kKnownB = 1,  // one row: operand b is an evaluator input
  kKnownA = 2,  // one row: operand a is an evaluator input, b is not
};

struct CircuitStats {
  uint64_t num_xor = 0;          // free under free-XOR
  uint64_t num_and = 0;          // non-XOR gates, both AndKinds
  uint64_t num_and_one_row = 0;  // of which read an evaluator input: 1 row
  uint64_t num_wires = 0;
  uint64_t num_inputs = 0;
  uint64_t num_outputs = 0;

  uint64_t non_xor() const { return num_and; }
  /// Garbled-table rows: 2 per two-row AND, 1 per one-row AND.
  uint64_t table_rows() const { return 2 * num_and - num_and_one_row; }
  /// Bytes of garbled tables transferred (16 B per row).
  uint64_t table_bytes() const { return table_rows() * 16; }
};

/// What a GC walk of one circuit needs besides its gates, computed in
/// one forward pass and cached on the circuit (Circuit::gc_walk_plan).
struct GcWalkPlan {
  /// Sorted gate indices before which a pending AND-hash window must
  /// drain: the gate reads a wire produced by a still-pending AND.
  std::vector<uint32_t> flush_points;
  /// One kind per AND gate, in gate order. An operand is "known" when
  /// its wire still holds an evaluator input: marked where an
  /// evaluator input is bound, cleared by any gate writing the wire.
  /// On a slot view that clearing is what keeps a recycled slot from
  /// passing as an evaluator input.
  std::vector<AndKind> and_kinds;
  /// Rows in the garbled-table stream (CircuitStats::table_rows).
  uint64_t table_rows = 0;
};

class Circuit {
 public:
  Circuit() = default;
  // Copies do NOT inherit the walk-plan cache: reading another
  // circuit's mutable cache members outside gc_walk_plan()'s lock
  // would race with a concurrent garbler warming that cache. The copy
  // recomputes lazily on first batched garbling. Moves transfer it
  // (moving an object in concurrent use is already a caller bug).
  Circuit(const Circuit& o) { *this = o; }
  Circuit& operator=(const Circuit& o);
  Circuit(Circuit&&) = default;
  Circuit& operator=(Circuit&&) = default;

  std::string name;

  std::vector<Gate> gates;               // topological order
  /// Optional lane tags, parallel to `gates` (empty = untagged). A lane
  /// groups gates belonging to one independent unit of work — a matvec
  /// column, an FC output neuron, a conv output pixel — and the
  /// scheduling pass (circuit/schedule.h) interleaves same-level AND
  /// gates round-robin across lanes. Set via Builder::set_lane.
  std::vector<uint32_t> gate_lanes;
  std::vector<Wire> garbler_inputs;      // client data wires
  std::vector<Wire> evaluator_inputs;    // server parameter wires
  std::vector<Wire> state_inputs;        // sequential state (cycle t-1)
  std::vector<Wire> state_next;          // wires feeding state at cycle t+1
  std::vector<Wire> outputs;

  Wire num_wires = 2;  // wires 0/1 reserved for constants

  CircuitStats stats() const;

  /// Plaintext evaluation: reference semantics for every consumer
  /// (tests, gate-level debugging, the GC engine correctness oracle).
  /// `state` is both input (cycle t-1 values) and output (state_next).
  BitVec eval(const BitVec& garbler_bits, const BitVec& evaluator_bits,
              BitVec* state = nullptr) const;

  /// Throws std::logic_error when gates are not topologically ordered,
  /// reference out-of-range wires, or inputs alias each other.
  void validate() const;

  /// Walk plan for the GC engine (flush schedule and AND kinds, see
  /// GcWalkPlan). Computed lazily from `gates` and cached (thread-safe),
  /// so repeated garblings of the same netlist — the online phase —
  /// skip the scan. A gate-count change (e.g. appending gates after a
  /// garbling) invalidates the cache, but in-place edits that keep the
  /// count are undetected — treat `gates` as frozen once garbling starts.
  std::shared_ptr<const GcWalkPlan> gc_walk_plan() const;

  /// Scheduled view of this circuit (circuit/schedule.h): the gates in
  /// the levelized batch-window-maximizing order, with every wire
  /// renumbered onto a recycled label slot (inputs, outputs and
  /// state_next rebound alongside; num_wires is the slot count). Label
  /// arrays for a walk of the view are indexed by its slots, so bind
  /// and read them through the view, not through this circuit.
  /// Computed lazily and cached with the same thread-safety and
  /// invalidation rules as gc_walk_plan(); the returned circuit
  /// carries its own (lazily cached) walk plan, so repeated garblings
  /// reuse both.
  std::shared_ptr<const Circuit> gc_scheduled() const;

 private:
  mutable std::shared_ptr<const GcWalkPlan> gc_plan_cache_;
  mutable size_t gc_plan_cache_gates_ = 0;
  mutable std::shared_ptr<const Circuit> gc_sched_cache_;
  mutable size_t gc_sched_cache_gates_ = 0;
};

/// Multi-cycle (sequential) execution of a folded circuit. The state is
/// initialized to all zeros at cycle 0. Per-cycle inputs are concatenated
/// slices: garbler_bits/evaluator_bits hold `cycles` consecutive blocks.
BitVec eval_sequential(const Circuit& step, size_t cycles,
                       const BitVec& garbler_bits,
                       const BitVec& evaluator_bits);

}  // namespace deepsecure
