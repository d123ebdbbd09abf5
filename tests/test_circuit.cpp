#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "circuit/builder.h"
#include "circuit/netlist_io.h"
#include "circuit/sequential.h"
#include "core/benchmark_zoo.h"
#include "gc/material.h"
#include "support/rng.h"
#include "synth/layer_circuits.h"

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

// Reference for the Builder's structural hashing: the same folding,
// canonicalization and lane rules over an ordered map, one node per
// gate. The Builder must emit exactly what this emits.
class RefBuilder {
 public:
  explicit RefBuilder(bool cse) : cse_(cse) {}

  Wire input(Party p) {
    const Wire w = c_.num_wires++;
    (p == Party::kGarbler ? c_.garbler_inputs : c_.evaluator_inputs)
        .push_back(w);
    return w;
  }
  void set_lane(uint32_t lane) {
    if (!lanes_used_) c_.gate_lanes.assign(c_.gates.size(), 0);
    lanes_used_ = true;
    lane_ = lane;
  }
  Wire xor_(Wire a, Wire b) { return emit(GateOp::kXor, a, b); }
  Wire and_(Wire a, Wire b) { return emit(GateOp::kAnd, a, b); }
  Wire not_(Wire a) { return xor_(a, kConst1); }
  Wire or_(Wire a, Wire b) { return xor_(xor_(a, b), and_(a, b)); }
  Wire mux(Wire s, Wire t, Wire f) {
    return t == f ? t : xor_(f, and_(s, xor_(t, f)));
  }
  const Circuit& circuit() const { return c_; }

 private:
  Wire emit(GateOp op, Wire a, Wire b) {
    if (a > b) std::swap(a, b);
    if (op == GateOp::kXor) {
      if (a == b) return kConst0;
      if (a == kConst0) return b;
    } else {
      if (a == b) return a;
      if (a == kConst0) return kConst0;
      if (a == kConst1) return b;
    }
    const auto key = std::make_tuple(a, b, op);
    if (cse_) {
      if (auto it = map_.find(key); it != map_.end()) return it->second;
    }
    const Wire out = c_.num_wires++;
    c_.gates.push_back(Gate{a, b, out, op});
    if (lanes_used_) c_.gate_lanes.push_back(lane_);
    if (cse_) map_.emplace(key, out);
    return out;
  }

  bool cse_;
  Circuit c_;
  uint32_t lane_ = 0;
  bool lanes_used_ = false;
  std::map<std::tuple<Wire, Wire, GateOp>, Wire> map_;
};

// Drives one seeded random op stream through the Builder and the
// reference: xor/and/or/mux/not over inputs, constants and earlier
// results, with replayed and commuted operand pairs (CSE hits) and lane
// switches. Long enough to grow the CSE table many times.
void expect_matches_reference(uint64_t seed, bool cse, size_t ops) {
  Rng rng(seed);
  Builder b("oracle", cse);
  RefBuilder ref(cse);
  std::vector<Wire> pool = {kConst0, kConst1};
  std::vector<std::pair<Wire, Wire>> recent;
  const auto pick = [&] {
    // Mostly recent wires, so replayed pairs share structure.
    const size_t n = pool.size();
    const size_t window = std::min<size_t>(n, 64);
    return rng.next_below(4) == 0 ? pool[rng.next_below(n)]
                                  : pool[n - 1 - rng.next_below(window)];
  };
  for (size_t i = 0; i < ops; ++i) {
    Wire x = pick(), y = pick();
    if (!recent.empty() && rng.next_below(3) == 0) {
      std::tie(x, y) = recent[rng.next_below(recent.size())];
      if (rng.next_bool()) std::swap(x, y);  // commuted replay
    }
    Wire got = 0, want = 0;
    switch (rng.next_below(8)) {
      case 0: {
        const Party p = rng.next_bool() ? Party::kGarbler : Party::kEvaluator;
        got = b.input(p);
        want = ref.input(p);
        break;
      }
      case 1: {
        const auto lane = static_cast<uint32_t>(rng.next_below(16));
        b.set_lane(lane);
        ref.set_lane(lane);
        continue;
      }
      case 2: got = b.xor_(x, y); want = ref.xor_(x, y); break;
      case 3: got = b.and_(x, y); want = ref.and_(x, y); break;
      case 4: got = b.or_(x, y); want = ref.or_(x, y); break;
      case 5: got = b.not_(x); want = ref.not_(x); break;
      default: {
        const Wire s = pick();
        got = b.mux(s, x, y);
        want = ref.mux(s, x, y);
        break;
      }
    }
    ASSERT_EQ(got, want) << "op " << i;
    pool.push_back(got);
    if (recent.size() < 256)
      recent.emplace_back(x, y);
    else
      recent[rng.next_below(recent.size())] = {x, y};
  }
  const Circuit& r = ref.circuit();
  const Circuit c = b.build();
  EXPECT_EQ(c.num_wires, r.num_wires);
  EXPECT_EQ(c.gate_lanes, r.gate_lanes);
  EXPECT_EQ(c.garbler_inputs, r.garbler_inputs);
  EXPECT_EQ(c.evaluator_inputs, r.evaluator_inputs);
  ASSERT_EQ(c.gates.size(), r.gates.size());
  for (size_t g = 0; g < c.gates.size(); ++g) {
    const Gate& x = c.gates[g];
    const Gate& y = r.gates[g];
    ASSERT_TRUE(x.a == y.a && x.b == y.b && x.out == y.out && x.op == y.op)
        << "gate " << g;
  }
}

TEST(Builder, StructuralHashingMatchesMapReference) {
  for (uint64_t seed : {1u, 2u, 3u})
    expect_matches_reference(seed, /*cse=*/true, 200000);
  expect_matches_reference(4, /*cse=*/false, 20000);
}

// Golden netlist of benchmark 3 compact, taken from the compiler before
// the CSE table was rewritten: a change to any gate, wire id, lane tag
// or input binding of the chain fails here, not only downstream as a
// different table size.
TEST(Builder, PaperBenchmark3CompactNetlistIsPinned) {
  const auto chain =
      synth::compile_model_layers(core::paper_zoo()[2].compact);
  uint64_t ands = 0, xors = 0;
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t v) {  // FNV-1a over the u64's bytes
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  for (const Circuit& c : chain) {
    ands += c.stats().num_and;
    xors += c.stats().num_xor;
    mix(c.gate_lanes.size());
    for (uint32_t lane : c.gate_lanes) mix(lane);
    for (Wire w : c.garbler_inputs) mix(w);
  }
  EXPECT_EQ(ands, 3311005u);
  EXPECT_EQ(xors, 7349373u);
  EXPECT_EQ(chain_fingerprint(chain), 0x7a13a2d5d4e99636ull);
  EXPECT_EQ(h, 0x5ad35df9b18e96d8ull);  // lanes and garbler inputs
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
