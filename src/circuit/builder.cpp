#include "circuit/builder.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace deepsecure {
namespace {

constexpr size_t kCseMinSlots = 1024;

// Hash of a CSE key (a, b, op); callers mask it to the table size.
inline size_t cse_hash(GateOp op, Wire a, Wire b) {
  uint64_t x = ((uint64_t{a} << 32) | b) +
               static_cast<uint64_t>(op) * 0x9E3779B97F4A7C15ull;
  x ^= x >> 32;
  x *= 0xD6E8FEB86659FD93ull;
  x ^= x >> 32;
  return static_cast<size_t>(x);
}

}  // namespace

Builder::Builder(std::string name, bool enable_cse) : cse_(enable_cse) {
  c_.name = std::move(name);
}

Wire Builder::new_wire() {
  if (c_.num_wires == std::numeric_limits<Wire>::max())
    throw std::length_error("builder: wire ids exhausted (2^32 - 1 wires)");
  return c_.num_wires++;
}

Wire Builder::input(Party p) {
  const Wire w = new_wire();
  (p == Party::kGarbler ? c_.garbler_inputs : c_.evaluator_inputs).push_back(w);
  return w;
}

std::vector<Wire> Builder::inputs(Party p, size_t n) {
  std::vector<Wire> ws(n);
  for (auto& w : ws) w = input(p);
  return ws;
}

Wire Builder::state_input() {
  const Wire w = new_wire();
  c_.state_inputs.push_back(w);
  return w;
}

std::vector<Wire> Builder::state_inputs(size_t n) {
  std::vector<Wire> ws(n);
  for (auto& w : ws) w = state_input();
  return ws;
}

void Builder::set_state_next(const std::vector<Wire>& next) {
  c_.state_next = next;
}

void Builder::set_lane(uint32_t lane) {
  if (!lanes_used_) {
    lanes_used_ = true;
    // Backfill: gates emitted before the first tag land in lane 0.
    c_.gate_lanes.assign(c_.gates.size(), 0);
  }
  lane_ = lane;
}

Wire Builder::emit(GateOp op, Wire a, Wire b) {
  // Canonicalize commutative operand order for CSE.
  if (a > b) std::swap(a, b);

  // Constant folding and algebraic identities — this is the netlist
  // optimization pass that stands in for synthesis-tool minimization.
  if (op == GateOp::kXor) {
    if (a == b) return kConst0;
    if (a == kConst0) return b;
    // XOR with const1 (NOT) is kept: free in GC, needed for inversion.
  } else {  // AND
    if (a == b) return a;
    if (a == kConst0) return kConst0;
    if (a == kConst1) return b;
  }

  if (!cse_) return push_gate(op, a, b);
  // Grow before probing, so the empty slot found is the one to fill.
  if (4 * (c_.gates.size() + 1) > 3 * cse_slots_.size()) grow_cse();
  const size_t mask = cse_slots_.size() - 1;
  for (size_t i = cse_hash(op, a, b) & mask;; i = (i + 1) & mask) {
    const uint32_t slot = cse_slots_[i];
    if (slot == 0) {
      const Wire out = push_gate(op, a, b);
      cse_slots_[i] = static_cast<uint32_t>(c_.gates.size());
      return out;
    }
    const Gate& g = c_.gates[slot - 1];
    if (g.a == a && g.b == b && g.op == op) return g.out;
  }
}

Wire Builder::push_gate(GateOp op, Wire a, Wire b) {
  // A CSE slot stores the gate index + 1 in 32 bits.
  if (c_.gates.size() >= std::numeric_limits<uint32_t>::max())
    throw std::length_error("builder: more than 2^32 - 1 gates");
  const Wire out = new_wire();
  c_.gates.push_back(Gate{a, b, out, op});
  if (lanes_used_) c_.gate_lanes.push_back(lane_);
  if (op == GateOp::kAnd)
    ++and_count_;
  else
    ++xor_count_;
  return out;
}

void Builder::grow_cse() {
  // Every emitted gate is a distinct key, so a rehash only needs an
  // empty slot per gate, no comparisons.
  std::vector<uint32_t> slots(std::max(kCseMinSlots, 2 * cse_slots_.size()));
  const size_t mask = slots.size() - 1;
  for (size_t g = 0; g < c_.gates.size(); ++g) {
    const Gate& gate = c_.gates[g];
    size_t i = cse_hash(gate.op, gate.a, gate.b) & mask;
    while (slots[i] != 0) i = (i + 1) & mask;
    slots[i] = static_cast<uint32_t>(g + 1);
  }
  cse_slots_ = std::move(slots);
}

Wire Builder::xor_(Wire a, Wire b) { return emit(GateOp::kXor, a, b); }
Wire Builder::and_(Wire a, Wire b) { return emit(GateOp::kAnd, a, b); }

Wire Builder::or_(Wire a, Wire b) {
  // a | b = (a ^ b) ^ (a & b); one non-XOR gate.
  return xor_(xor_(a, b), and_(a, b));
}

Wire Builder::mux(Wire sel, Wire t, Wire f) {
  // f ^ sel*(t^f): one AND gate per mux.
  if (t == f) return t;
  return xor_(f, and_(sel, xor_(t, f)));
}

void Builder::output(Wire w) { c_.outputs.push_back(w); }

void Builder::outputs(const std::vector<Wire>& ws) {
  for (Wire w : ws) output(w);
}

Circuit Builder::build() {
  if (c_.state_inputs.size() != c_.state_next.size())
    throw std::logic_error(
        "builder: set_state_next must cover all state_inputs");
  c_.validate();
  return std::move(c_);
}

}  // namespace deepsecure
