// Regression tests for the batched fixed-key hashing pipeline: the
// batched garbler/evaluator must be byte- and label-identical to the
// retained scalar reference path for the same seed, including circuits
// with AND->AND chains that force mid-window flushes and circuits wide
// enough to overflow the batch window.
#include <gtest/gtest.h>

#include <stdexcept>

#include "circuit/bench_circuits.h"
#include "circuit/builder.h"
#include "gc/garble.h"
#include "net/party.h"
#include "support/rng.h"

namespace deepsecure {
namespace {

// Sink channel that records every byte the garbler sends. The garbling
// pass itself never receives, so recv is a hard error.
class RecordChannel : public Channel {
 public:
  void send_bytes(const void* data, size_t n) override {
    const auto* p = static_cast<const uint8_t*>(data);
    bytes.insert(bytes.end(), p, p + n);
  }
  void recv_bytes(void*, size_t) override {
    throw std::logic_error("RecordChannel: recv not supported");
  }
  uint64_t bytes_sent() const override { return bytes.size(); }
  uint64_t bytes_received() const override { return 0; }
  void reset_counters() override { bytes.clear(); }

  std::vector<uint8_t> bytes;
};

struct GarbleTrace {
  std::vector<uint8_t> stream;  // constants + garbled tables, in order
  Labels outputs;
  Labels state_next;
};

GarbleTrace garble_trace(const Circuit& c, Block seed, GcPipeline pipeline) {
  RecordChannel ch;
  Garbler g(ch, seed, pipeline);
  GarbleTrace t;
  const Labels gz = g.fresh_zeros(c.garbler_inputs.size());
  const Labels ez = g.fresh_zeros(c.evaluator_inputs.size());
  const Labels sz = g.fresh_zeros(c.state_inputs.size());
  t.outputs = g.garble(c, gz, ez, sz, &t.state_next);
  t.stream = std::move(ch.bytes);
  return t;
}

void expect_pipelines_identical(const Circuit& c, Block seed) {
  const GarbleTrace scalar = garble_trace(c, seed, GcPipeline::kScalar);
  const GarbleTrace batched = garble_trace(c, seed, GcPipeline::kBatched);
  EXPECT_EQ(scalar.stream, batched.stream) << "table byte stream diverged";
  EXPECT_EQ(scalar.outputs, batched.outputs) << "output labels diverged";
  EXPECT_EQ(scalar.state_next, batched.state_next);
}

Circuit random_mixed_circuit(Rng& rng, int n_gates) {
  Builder b;
  std::vector<Wire> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(b.input(Party::kGarbler));
  for (int i = 0; i < 8; ++i) pool.push_back(b.input(Party::kEvaluator));
  for (int g = 0; g < n_gates; ++g) {
    const Wire a = pool[rng.next_below(pool.size())];
    const Wire y = pool[rng.next_below(pool.size())];
    switch (rng.next_below(4)) {
      case 0: pool.push_back(b.xor_(a, y)); break;
      case 1: pool.push_back(b.and_(a, y)); break;
      case 2: pool.push_back(b.or_(a, y)); break;
      default: pool.push_back(b.not_(a)); break;
    }
  }
  for (int o = 0; o < 10; ++o)
    b.output(pool[pool.size() - 1 - static_cast<size_t>(o)]);
  return b.build();
}

TEST(GarbleBatch, AndChainForcesFlushEveryGate) {
  const Circuit c = bench_circuits::and_chain(64);
  // Every AND after the first reads a pending AND output (via the XOR),
  // so the schedule must contain a flush point per chained gate.
  EXPECT_GE(c.gc_walk_plan()->flush_points.size(), 63u);
  expect_pipelines_identical(c, Block{11, 22});
}

TEST(GarbleBatch, WideCircuitHasNoDependencyFlushes) {
  const Circuit c = bench_circuits::wide_and(3 * kGcMaxBatchWindow + 17);
  EXPECT_TRUE(c.gc_walk_plan()->flush_points.empty());
  // Exercises capacity flushes (> 3 windows) and the non-multiple tail.
  expect_pipelines_identical(c, Block{33, 44});
}

TEST(GarbleBatch, RandomMixedCircuitsByteIdentical) {
  Rng rng(2026);
  for (int trial = 0; trial < 10; ++trial) {
    const Circuit c = random_mixed_circuit(rng, 400);
    expect_pipelines_identical(c, Block{rng.next_u64(), rng.next_u64()});
  }
}

TEST(GarbleBatch, SequentialStateCircuitByteIdentical) {
  // Ripple accumulator: carries make AND outputs feed the next gates.
  Builder b;
  std::vector<Wire> in(4);
  for (auto& w : in) w = b.input(Party::kGarbler);
  std::vector<Wire> acc = b.state_inputs(8);
  std::vector<Wire> next(8);
  Wire carry = b.const_bit(false);
  for (int i = 0; i < 8; ++i) {
    const Wire ai = i < 4 ? in[i] : b.const_bit(false);
    const Wire axc = b.xor_(acc[i], carry);
    const Wire bxc = b.xor_(ai, carry);
    next[i] = b.xor_(axc, ai);
    carry = b.xor_(carry, b.and_(axc, bxc));
  }
  b.set_state_next(next);
  b.outputs(next);
  expect_pipelines_identical(b.build(), Block{55, 66});
}

// Byte-identity means the pipelines interoperate: run every combination
// of {scalar,batched} garbler x evaluator end-to-end and decode.
TEST(GarbleBatch, CrossPipelineTwoPartyAgreesWithPlaintext) {
  Rng rng(31337);
  const Circuit c = random_mixed_circuit(rng, 300);
  BitVec g_bits(8), e_bits(8);
  for (auto& v : g_bits) v = rng.next_bool();
  for (auto& v : e_bits) v = rng.next_bool();
  const BitVec expect = c.eval(g_bits, e_bits);

  for (const GcPipeline gp : {GcPipeline::kScalar, GcPipeline::kBatched}) {
    for (const GcPipeline ep : {GcPipeline::kScalar, GcPipeline::kBatched}) {
      BitVec decoded;
      run_two_party(
          [&](Channel& ch) {
            Garbler g(ch, Block{42, 42}, gp);
            const Labels gz = g.fresh_zeros(g_bits.size());
            const Labels ez = g.fresh_zeros(e_bits.size());
            g.send_active(g_bits, gz);
            std::vector<Block> active(e_bits.size());
            for (size_t i = 0; i < e_bits.size(); ++i)
              active[i] = e_bits[i] ? (ez[i] ^ g.delta()) : ez[i];
            ch.send_bytes(active.data(), active.size() * sizeof(Block));
            const Labels out = g.garble(c, gz, ez, {});
            decoded = g.decode_outputs(out);
          },
          [&](Channel& ch) {
            Evaluator e(ch, ep);
            const Labels gl = e.recv_active(g_bits.size());
            const Labels el = e.recv_active(e_bits.size());
            const Labels out = e.evaluate(c, gl, el, {});
            e.send_outputs(out);
          });
      EXPECT_EQ(decoded, expect)
          << "garbler=" << int(gp) << " evaluator=" << int(ep);
    }
  }
}

TEST(GarbleBatch, FlushScheduleIsCachedAcrossCalls) {
  const Circuit c = bench_circuits::and_chain(8);
  const auto first = c.gc_walk_plan();
  const auto second = c.gc_walk_plan();
  EXPECT_EQ(first.get(), second.get());  // same cached plan
}

}  // namespace
}  // namespace deepsecure
