// Circuit builder — the "logic synthesis" front end.
//
// The paper feeds Verilog through Synopsys Design Compiler with a custom
// library whose XOR area is 0 and non-XOR area is 1, so the synthesizer
// minimizes non-XOR gates. This builder plays the same role for our C++
// block generators: it lowers the {XOR, AND, NOT, OR, XNOR, MUX} basis to
// {XOR, AND}, constant-folds, and structurally hashes (CSE) so shared
// logic is emitted once — the same objective, implemented as a compiler
// instead of a commercial tool (see DESIGN.md substitution #1).
#pragma once

#include "circuit/circuit.h"

namespace deepsecure {

enum class Party : uint8_t { kGarbler, kEvaluator };

class Builder {
 public:
  explicit Builder(std::string name = "", bool enable_cse = true);

  // --- inputs ---------------------------------------------------------
  Wire input(Party p);
  std::vector<Wire> inputs(Party p, size_t n);
  /// Sequential state element: returns the cycle-(t-1) value wire; the
  /// wire driving cycle t is registered later via set_state_next.
  Wire state_input();
  std::vector<Wire> state_inputs(size_t n);
  void set_state_next(const std::vector<Wire>& next);

  // --- scheduling hints -------------------------------------------------
  /// Tag gates emitted from here on with a lane id — one independent
  /// unit of parallel work (a matvec column, an FC output neuron, a
  /// conv output pixel). The scheduling pass (circuit/schedule.h)
  /// interleaves same-level AND gates round-robin across lanes. Gates
  /// emitted before the first set_lane call carry lane 0; CSE-shared
  /// gates keep the lane of their first emission.
  void set_lane(uint32_t lane);

  // --- logic ------------------------------------------------------------
  Wire const_bit(bool v) { return v ? kConst1 : kConst0; }
  Wire xor_(Wire a, Wire b);
  Wire and_(Wire a, Wire b);
  Wire not_(Wire a) { return xor_(a, kConst1); }
  Wire xnor_(Wire a, Wire b) { return not_(xor_(a, b)); }
  Wire or_(Wire a, Wire b);   // lowered: a^b^(a&b)
  Wire nand_(Wire a, Wire b) { return not_(and_(a, b)); }
  Wire nor_(Wire a, Wire b) { return not_(or_(a, b)); }
  /// 2:1 multiplexer, one AND gate: sel ? t : f.
  Wire mux(Wire sel, Wire t, Wire f);

  // --- outputs ----------------------------------------------------------
  void output(Wire w);
  void outputs(const std::vector<Wire>& ws);

  /// Finalize. The builder must not be reused afterwards.
  Circuit build();

  /// Gate tallies so far (useful while composing large blocks).
  uint64_t and_count() const { return and_count_; }
  uint64_t xor_count() const { return xor_count_; }

 private:
  Wire new_wire();
  Wire emit(GateOp op, Wire a, Wire b);
  Wire push_gate(GateOp op, Wire a, Wire b);
  void grow_cse();

  Circuit c_;
  bool cse_;
  uint32_t lane_ = 0;
  bool lanes_used_ = false;
  uint64_t and_count_ = 0;
  uint64_t xor_count_ = 0;
  // Structural-hashing table (src/circuit/README.md): open addressing
  // with linear probing over a power-of-two slot array. A slot holds a
  // gate index + 1 into c_.gates (0 = empty); the key (a, b, op) is
  // re-read from that gate, so a slot costs 4 bytes.
  std::vector<uint32_t> cse_slots_;
};

}  // namespace deepsecure
