#include "circuit/circuit.h"

#include <mutex>
#include <stdexcept>

namespace deepsecure {
namespace {

// The kind rule of GcWalkPlan::and_kinds. `known[w]` is set while w
// holds an evaluator input.
AndKind and_kind(const std::vector<uint8_t>& known, const Gate& g) {
  if (known[g.b]) return AndKind::kKnownB;
  if (known[g.a]) return AndKind::kKnownA;
  return AndKind::kFull;
}

std::vector<uint8_t> evaluator_input_marks(const Circuit& c) {
  std::vector<uint8_t> known(c.num_wires, 0);
  for (Wire w : c.evaluator_inputs) known[w] = 1;
  return known;
}

// The scan behind Circuit::gc_walk_plan(), one forward pass.
//
// Flush points: simulates the batched garbling walk with an unbounded
// window: a gate that reads the output of a still-pending AND forces a
// drain right before it runs. Runtime capacity flushes only shrink the
// pending set, so this schedule stays sufficient (extra flushes are
// harmless no-ops for correctness and never change the table byte
// stream, which is emitted in gate order).
//
// AND kinds: a gate reads its operands before writing its output, so
// the kind is taken before the output clears its wire's mark.
GcWalkPlan compute_walk_plan(const Circuit& c) {
  GcWalkPlan p;
  size_t ands = 0;
  for (const Gate& g : c.gates) ands += g.op == GateOp::kAnd;
  p.and_kinds.reserve(ands);
  std::vector<uint8_t> known = evaluator_input_marks(c);
  std::vector<uint8_t> pending(c.num_wires, 0);
  std::vector<Wire> marked;  // wires set since the last flush point
  for (uint32_t i = 0; i < c.gates.size(); ++i) {
    const Gate& g = c.gates[i];
    if (!marked.empty() && (pending[g.a] || pending[g.b])) {
      p.flush_points.push_back(i);
      for (Wire w : marked) pending[w] = 0;
      marked.clear();
    }
    if (g.op == GateOp::kAnd) {
      const AndKind k = and_kind(known, g);
      p.and_kinds.push_back(k);
      p.table_rows += k == AndKind::kFull ? 2 : 1;
      pending[g.out] = 1;
      marked.push_back(g.out);
    }
    known[g.out] = 0;
  }
  return p;
}

}  // namespace

std::shared_ptr<const GcWalkPlan> Circuit::gc_walk_plan() const {
  // The mutex is process-wide (Circuit must stay copyable) but is never
  // held across the O(gates) scan, so unrelated circuits initializing
  // concurrently only contend for pointer reads/writes. Concurrent first
  // calls may both compute; one result wins, both are correct.
  static std::mutex mu;
  {
    std::lock_guard<std::mutex> lock(mu);
    if (gc_plan_cache_ && gc_plan_cache_gates_ == gates.size())
      return gc_plan_cache_;
  }
  auto computed = std::make_shared<const GcWalkPlan>(compute_walk_plan(*this));
  std::lock_guard<std::mutex> lock(mu);
  if (!gc_plan_cache_ || gc_plan_cache_gates_ != gates.size()) {
    gc_plan_cache_ = std::move(computed);
    gc_plan_cache_gates_ = gates.size();
  }
  return gc_plan_cache_;
}

Circuit& Circuit::operator=(const Circuit& o) {
  if (this == &o) return *this;
  name = o.name;
  gates = o.gates;
  gate_lanes = o.gate_lanes;
  garbler_inputs = o.garbler_inputs;
  evaluator_inputs = o.evaluator_inputs;
  state_inputs = o.state_inputs;
  state_next = o.state_next;
  outputs = o.outputs;
  num_wires = o.num_wires;
  gc_plan_cache_.reset();  // recomputed lazily; see header
  gc_plan_cache_gates_ = 0;
  gc_sched_cache_.reset();
  gc_sched_cache_gates_ = 0;
  return *this;
}

CircuitStats Circuit::stats() const {
  CircuitStats s;
  std::vector<uint8_t> known = evaluator_input_marks(*this);
  for (const Gate& g : gates) {
    if (g.op == GateOp::kXor) {
      ++s.num_xor;
    } else {
      ++s.num_and;
      if (and_kind(known, g) != AndKind::kFull) ++s.num_and_one_row;
    }
    known[g.out] = 0;
  }
  s.num_wires = num_wires;
  s.num_inputs = garbler_inputs.size() + evaluator_inputs.size() +
                 state_inputs.size();
  s.num_outputs = outputs.size();
  return s;
}

BitVec Circuit::eval(const BitVec& garbler_bits, const BitVec& evaluator_bits,
                     BitVec* state) const {
  if (garbler_bits.size() != garbler_inputs.size())
    throw std::invalid_argument("garbler input size mismatch");
  if (evaluator_bits.size() != evaluator_inputs.size())
    throw std::invalid_argument("evaluator input size mismatch");
  if (state != nullptr && !state->empty() &&
      state->size() != state_inputs.size())
    throw std::invalid_argument("state size mismatch");

  BitVec w(num_wires, 0);
  w[kConst1] = 1;
  for (size_t i = 0; i < garbler_inputs.size(); ++i)
    w[garbler_inputs[i]] = garbler_bits[i] & 1u;
  for (size_t i = 0; i < evaluator_inputs.size(); ++i)
    w[evaluator_inputs[i]] = evaluator_bits[i] & 1u;
  if (state != nullptr && !state->empty())
    for (size_t i = 0; i < state_inputs.size(); ++i)
      w[state_inputs[i]] = (*state)[i] & 1u;

  for (const Gate& g : gates) {
    const uint8_t a = w[g.a];
    const uint8_t b = w[g.b];
    w[g.out] = (g.op == GateOp::kXor) ? (a ^ b) : (a & b);
  }

  if (state != nullptr) {
    state->resize(state_next.size());
    for (size_t i = 0; i < state_next.size(); ++i)
      (*state)[i] = w[state_next[i]];
  }

  BitVec out(outputs.size());
  for (size_t i = 0; i < outputs.size(); ++i) out[i] = w[outputs[i]];
  return out;
}

void Circuit::validate() const {
  if (state_inputs.size() != state_next.size())
    throw std::logic_error("state_inputs/state_next size mismatch");
  if (!gate_lanes.empty() && gate_lanes.size() != gates.size())
    throw std::logic_error("gate_lanes/gates size mismatch");
  std::vector<uint8_t> defined(num_wires, 0);
  defined[kConst0] = defined[kConst1] = 1;
  auto mark_input = [&](Wire wid) {
    if (wid >= num_wires) throw std::logic_error("input wire out of range");
    if (defined[wid]) throw std::logic_error("input wire aliased");
    defined[wid] = 1;
  };
  for (Wire wid : garbler_inputs) mark_input(wid);
  for (Wire wid : evaluator_inputs) mark_input(wid);
  for (Wire wid : state_inputs) mark_input(wid);

  for (const Gate& g : gates) {
    if (g.a >= num_wires || g.b >= num_wires || g.out >= num_wires)
      throw std::logic_error("gate wire out of range");
    if (!defined[g.a] || !defined[g.b])
      throw std::logic_error("gate input not yet defined (not topological)");
    if (defined[g.out]) throw std::logic_error("gate output redefined");
    defined[g.out] = 1;
  }
  for (Wire wid : outputs)
    if (wid >= num_wires || !defined[wid])
      throw std::logic_error("undefined output wire");
  for (Wire wid : state_next)
    if (wid >= num_wires || !defined[wid])
      throw std::logic_error("undefined state_next wire");
}

BitVec eval_sequential(const Circuit& step, size_t cycles,
                       const BitVec& garbler_bits,
                       const BitVec& evaluator_bits) {
  const size_t g_per = step.garbler_inputs.size();
  const size_t e_per = step.evaluator_inputs.size();
  if (garbler_bits.size() != g_per * cycles)
    throw std::invalid_argument("sequential garbler input size mismatch");
  if (evaluator_bits.size() != e_per * cycles)
    throw std::invalid_argument("sequential evaluator input size mismatch");

  BitVec state(step.state_inputs.size(), 0);
  BitVec out;
  for (size_t t = 0; t < cycles; ++t) {
    const BitVec g_slice(garbler_bits.begin() + t * g_per,
                         garbler_bits.begin() + (t + 1) * g_per);
    const BitVec e_slice(evaluator_bits.begin() + t * e_per,
                         evaluator_bits.begin() + (t + 1) * e_per);
    out = step.eval(g_slice, e_slice, &state);
  }
  return out;
}

}  // namespace deepsecure
