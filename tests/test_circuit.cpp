#include <gtest/gtest.h>

#include "circuit/builder.h"
#include "circuit/netlist_io.h"
#include "circuit/sequential.h"

namespace deepsecure {
namespace {

TEST(Builder, BasicGates) {
  Builder b("basic");
  const Wire x = b.input(Party::kGarbler);
  const Wire y = b.input(Party::kEvaluator);
  b.output(b.xor_(x, y));
  b.output(b.and_(x, y));
  b.output(b.or_(x, y));
  b.output(b.not_(x));
  b.output(b.xnor_(x, y));
  b.output(b.nand_(x, y));
  b.output(b.nor_(x, y));
  const Circuit c = b.build();

  for (int xv = 0; xv < 2; ++xv) {
    for (int yv = 0; yv < 2; ++yv) {
      const BitVec out = c.eval({static_cast<uint8_t>(xv)},
                                {static_cast<uint8_t>(yv)});
      EXPECT_EQ(out[0], xv ^ yv);
      EXPECT_EQ(out[1], xv & yv);
      EXPECT_EQ(out[2], xv | yv);
      EXPECT_EQ(out[3], 1 - xv);
      EXPECT_EQ(out[4], 1 - (xv ^ yv));
      EXPECT_EQ(out[5], 1 - (xv & yv));
      EXPECT_EQ(out[6], 1 - (xv | yv));
    }
  }
}

TEST(Builder, MuxTruthTable) {
  Builder b;
  const Wire s = b.input(Party::kGarbler);
  const Wire t = b.input(Party::kGarbler);
  const Wire f = b.input(Party::kGarbler);
  b.output(b.mux(s, t, f));
  const Circuit c = b.build();
  for (int sv = 0; sv < 2; ++sv)
    for (int tv = 0; tv < 2; ++tv)
      for (int fv = 0; fv < 2; ++fv) {
        const BitVec out = c.eval({static_cast<uint8_t>(sv),
                                   static_cast<uint8_t>(tv),
                                   static_cast<uint8_t>(fv)},
                                  {});
        EXPECT_EQ(out[0], sv ? tv : fv);
      }
}

TEST(Builder, ConstantFolding) {
  Builder b;
  const Wire x = b.input(Party::kGarbler);
  EXPECT_EQ(b.and_(x, b.const_bit(false)), kConst0);
  EXPECT_EQ(b.and_(x, b.const_bit(true)), x);
  EXPECT_EQ(b.xor_(x, b.const_bit(false)), x);
  EXPECT_EQ(b.xor_(x, x), kConst0);
  EXPECT_EQ(b.and_(x, x), x);
  EXPECT_EQ(b.and_count(), 0u);
  EXPECT_EQ(b.xor_count(), 0u);
}

TEST(Builder, StructuralHashingDedupes) {
  Builder b;
  const Wire x = b.input(Party::kGarbler);
  const Wire y = b.input(Party::kGarbler);
  const Wire g1 = b.and_(x, y);
  const Wire g2 = b.and_(y, x);  // commuted
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(b.and_count(), 1u);
  const Wire x1 = b.xor_(x, y);
  const Wire x2 = b.xor_(x, y);
  EXPECT_EQ(x1, x2);
  EXPECT_EQ(b.xor_count(), 1u);
}

TEST(Circuit, StatsCountGateClasses) {
  Builder b;
  const Wire x = b.input(Party::kGarbler);
  const Wire y = b.input(Party::kEvaluator);
  b.output(b.or_(x, y));  // 1 AND + 2 XOR
  const Circuit c = b.build();
  const auto s = c.stats();
  EXPECT_EQ(s.num_and, 1u);
  EXPECT_EQ(s.num_xor, 2u);
  // The AND reads the evaluator input y: one 16-byte row.
  EXPECT_EQ(s.num_and_one_row, 1u);
  EXPECT_EQ(s.table_bytes(), 16u);

  Builder b2;
  const Wire p = b2.input(Party::kGarbler);
  const Wire q = b2.input(Party::kGarbler);
  b2.output(b2.or_(p, q));  // no evaluator operand: two rows
  const auto s2 = b2.build().stats();
  EXPECT_EQ(s2.num_and_one_row, 0u);
  EXPECT_EQ(s2.table_bytes(), 32u);
}

TEST(Circuit, ValidateRejectsUnordered) {
  Circuit c;
  c.num_wires = 4;
  c.garbler_inputs = {2};
  // Gate uses wire 3 before it is defined.
  c.gates.push_back(Gate{3, 2, 3, GateOp::kXor});
  EXPECT_THROW(c.validate(), std::logic_error);
}

TEST(Sequential, AccumulatorCountsOnes) {
  // 4-bit counter: state += garbler bit each cycle.
  Builder b("counter");
  const Wire in = b.input(Party::kGarbler);
  std::vector<Wire> acc = b.state_inputs(4);
  // Increment by `in`: ripple add of a 1-bit value.
  Wire carry = in;
  std::vector<Wire> next(4);
  for (int i = 0; i < 4; ++i) {
    next[i] = b.xor_(acc[i], carry);
    carry = b.and_(acc[i], carry);
  }
  b.set_state_next(next);
  b.outputs(next);
  const Circuit step = b.build();

  const BitVec bits = {1, 1, 0, 1, 1, 1};  // six cycles, sum = 5
  const BitVec out = eval_sequential(step, bits.size(), bits, {});
  EXPECT_EQ(from_bits(out), 5u);
}

TEST(NetlistIo, RoundTrip) {
  Builder b("roundtrip");
  const Wire x = b.input(Party::kGarbler);
  const Wire y = b.input(Party::kEvaluator);
  const Wire s = b.state_input();
  const Wire z = b.and_(b.xor_(x, y), s);
  b.set_state_next({z});
  b.output(z);
  const Circuit c = b.build();

  const std::string text = netlist_to_string(c);
  const Circuit c2 = netlist_from_string(text);
  EXPECT_EQ(c2.name, "roundtrip");
  EXPECT_EQ(c2.gates.size(), c.gates.size());
  EXPECT_EQ(c2.num_wires, c.num_wires);

  BitVec st1{1}, st2{1};
  EXPECT_EQ(c.eval({1}, {0}, &st1), c2.eval({1}, {0}, &st2));
  EXPECT_EQ(st1, st2);
}

TEST(NetlistIo, RejectsMalformed) {
  EXPECT_THROW(netlist_from_string("gate AND 1 2 3\n"), std::runtime_error);
  EXPECT_THROW(netlist_from_string("netlist x\nwires 4\ngate FOO 0 1 2\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace deepsecure
