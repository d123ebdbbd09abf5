// One-row ANDs: an AND with an evaluator-input operand is garbled as the
// evaluator half of a half-gate alone (gc/garble.h). These tests pin
// which gates qualify (the walk plan's kind pass, including label slots
// recycled away from an evaluator input), that every pipeline, shard
// pool, hash backend and walk order produces the same stream of the
// size gc_stream_bytes predicts, and that the evaluator decodes the
// plaintext result from it — streamed, framed and from pooled material.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>

#include "circuit/schedule.h"
#include "crypto/hash_backend.h"
#include "gc/garble.h"
#include "gc/material.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "synth/layer_circuits.h"

namespace deepsecure {
namespace {

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
  void reset_counters() override {}

  std::vector<uint8_t> bytes;
};

class ReplayChannel : public Channel {
 public:
  explicit ReplayChannel(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}
  void send_bytes(const void*, size_t) override {
    throw std::logic_error("ReplayChannel: send not supported");
  }
  void recv_bytes(void* data, size_t n) override {
    if (pos_ + n > bytes_.size())
      throw std::runtime_error("ReplayChannel: stream exhausted");
    std::memcpy(data, bytes_.data() + pos_, n);
    pos_ += n;
  }
  uint64_t bytes_sent() const override { return 0; }
  uint64_t bytes_received() const override { return pos_; }
  void reset_counters() override {}
  size_t consumed() const { return pos_; }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
};

struct GarbleRun {
  std::vector<uint8_t> stream;
  Block delta;
  Labels g_zeros, e_zeros, out_zeros;
};

GarbleRun garble_run(const Circuit& c, const GcOptions& opt) {
  RecordChannel ch;
  Garbler g(ch, Block{0x0E, 0x1207}, opt);
  GarbleRun r;
  r.delta = g.delta();
  r.g_zeros = g.fresh_zeros(c.garbler_inputs.size());
  r.e_zeros = g.fresh_zeros(c.evaluator_inputs.size());
  r.out_zeros = g.garble(c, r.g_zeros, r.e_zeros, {});
  r.stream = std::move(ch.bytes);
  return r;
}

Labels active(const Labels& zeros, const BitVec& bits, Block delta) {
  Labels out(zeros.size());
  for (size_t i = 0; i < zeros.size(); ++i)
    out[i] = bits[i] ? zeros[i] ^ delta : zeros[i];
  return out;
}

BitVec decode(const Labels& out, const Labels& zeros, Block delta) {
  BitVec bits(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i] == zeros[i])
      bits[i] = 0;
    else if (out[i] == (zeros[i] ^ delta))
      bits[i] = 1;
    else
      throw std::runtime_error("decode: label not in wire range");
  }
  return bits;
}

// Evaluate a recorded stream with `opt` and decode it.
BitVec replay_decode(const Circuit& c, const GarbleRun& run,
                     const GcOptions& opt, const BitVec& g_bits,
                     const BitVec& e_bits) {
  ReplayChannel replay(run.stream);
  Evaluator e(replay, opt);
  const Labels out =
      e.evaluate(c, active(run.g_zeros, g_bits, run.delta),
                 active(run.e_zeros, e_bits, run.delta), {});
  EXPECT_EQ(replay.consumed(), run.stream.size());
  return decode(out, run.out_zeros, run.delta);
}

uint64_t one_row_ands(const Circuit& c) { return c.stats().num_and_one_row; }

// Garble `c` on every path — scalar, batched, and batched on a 4-thread
// shard pool, under every available hash backend, on both walk orders —
// and require one stream per walk order, sized by gc_stream_bytes, that
// every evaluator path (and the framed format) decodes to c.eval.
void expect_all_paths_agree(const Circuit& c, Rng& rng, ThreadPool& pool) {
  BitVec g_bits(c.garbler_inputs.size()), e_bits(c.evaluator_inputs.size());
  for (auto& b : g_bits) b = rng.next_bool();
  for (auto& b : e_bits) b = rng.next_bool();
  const BitVec expect = c.eval(g_bits, e_bits);

  for (const bool sched : {false, true}) {
    GcOptions ref_opt;
    ref_opt.schedule = sched;
    ref_opt.pipeline = GcPipeline::kScalar;
    const GarbleRun ref = garble_run(c, ref_opt);
    ASSERT_EQ(ref.stream.size(), gc_stream_bytes(c)) << c.name;

    GcOptions scalar = ref_opt, batched, sharded;
    batched.schedule = sharded.schedule = sched;
    sharded.pool = &pool;
    sharded.min_shard_gates = 1;  // small windows still shard here
    for (const HashBackend* be : compiled_hash_backends()) {
      if (!be->available()) continue;
      for (GcOptions* opt : {&scalar, &batched, &sharded}) {
        opt->hash_backend = be;
        const std::string what =
            c.name + " sched=" + std::to_string(sched) + " backend=" +
            be->name + " pipeline=" + std::to_string(int(opt->pipeline)) +
            (opt->pool ? " sharded" : "");
        const GarbleRun run = garble_run(c, *opt);
        ASSERT_EQ(run.stream, ref.stream) << what;
        ASSERT_EQ(run.out_zeros, ref.out_zeros) << what;
        ASSERT_EQ(replay_decode(c, run, *opt, g_bits, e_bits), expect)
            << what;
      }
    }

    GcOptions framed;
    framed.schedule = sched;
    framed.framed_tables = true;
    const GarbleRun run = garble_run(c, framed);
    ASSERT_EQ(replay_decode(c, run, framed, g_bits, e_bits), expect)
        << c.name << " framed sched=" << sched;
  }
}

// Random netlist, written gate by gate past the Builder, in which
// evaluator inputs feed ANDs as operand a, as operand b and as both;
// one evaluator input fans out to many ANDs; evaluator inputs also flow
// through XORs (ANDs on those stay two-row) and are outputs.
// `*expect_one_row` receives the number of one-row ANDs built.
Circuit weight_and_dag(Rng& rng, int n_gates, uint64_t* expect_one_row) {
  Circuit c;
  c.name = "weight_and_dag";
  Wire next = 2;
  std::vector<Wire> pool = {kConst0, kConst1};
  for (int i = 0; i < 6; ++i) {
    c.garbler_inputs.push_back(next);
    pool.push_back(next++);
  }
  for (int i = 0; i < 10; ++i) c.evaluator_inputs.push_back(next++);
  auto weight = [&]() -> Wire {
    // Input 0 is the high fan-out weight bit.
    return c.evaluator_inputs[rng.next_below(3) == 0
                                  ? 0
                                  : rng.next_below(c.evaluator_inputs.size())];
  };
  auto pick = [&]() -> Wire {
    if (rng.next_below(3) == 0) return pool[rng.next_below(pool.size())];
    return pool[pool.size() - 1 -
                rng.next_below(std::min<size_t>(pool.size(), 12))];
  };
  uint64_t one_row = 0;
  for (int i = 0; i < n_gates; ++i) {
    Gate g;
    g.op = GateOp::kAnd;
    switch (rng.next_below(7)) {
      case 0: g.a = pick(); g.b = weight(); ++one_row; break;
      case 1: g.a = weight(); g.b = pick(); ++one_row; break;
      case 2: g.a = weight(); g.b = weight(); ++one_row; break;
      case 3: g.a = pick(); g.b = pick(); break;
      case 4:  // weight-derived wire: ANDs reading it stay two-row
        g.op = GateOp::kXor;
        g.a = weight();
        g.b = pick();
        break;
      default:
        g.op = GateOp::kXor;
        g.a = pick();
        g.b = pick();
        break;
    }
    g.out = next++;
    c.gates.push_back(g);
    pool.push_back(g.out);
  }
  c.num_wires = next;
  for (int o = 0; o < 12; ++o) c.outputs.push_back(pool[pool.size() - 1 - o]);
  c.outputs.push_back(c.evaluator_inputs[0]);
  c.outputs.push_back(c.evaluator_inputs[7]);
  c.validate();
  *expect_one_row = one_row;
  return c;
}

TEST(OneRowAnd, KindsFollowEvaluatorInputs) {
  // Wire ids: 2 = garbler x, 3, 4 = evaluator w, v.
  Circuit c;
  c.num_wires = 12;
  c.garbler_inputs = {2};
  c.evaluator_inputs = {3, 4};
  c.gates = {
      {2, 3, 5, GateOp::kAnd},   // x & w: b known
      {3, 2, 6, GateOp::kAnd},   // w & x: a known
      {3, 4, 7, GateOp::kAnd},   // w & v: both known, b taken
      {3, 2, 8, GateOp::kXor},   // w ^ x: not an evaluator input
      {8, 2, 9, GateOp::kAnd},   // two-row
      {2, 2, 10, GateOp::kAnd},  // two-row
      {9, 4, 11, GateOp::kAnd},  // b known
  };
  c.outputs = {5, 6, 7, 9, 10, 11, 3};
  c.validate();

  const auto plan = c.gc_walk_plan();
  const std::vector<AndKind> want = {AndKind::kKnownB, AndKind::kKnownA,
                                     AndKind::kKnownB, AndKind::kFull,
                                     AndKind::kFull,   AndKind::kKnownB};
  EXPECT_EQ(plan->and_kinds, want);
  EXPECT_EQ(plan->table_rows, 8u);
  const CircuitStats s = c.stats();
  EXPECT_EQ(s.num_and, 6u);
  EXPECT_EQ(s.num_and_one_row, 4u);
  EXPECT_EQ(s.table_rows(), 8u);
  EXPECT_EQ(s.table_bytes(), 8u * 16);
  // Two constants, one permute-bit block, eight rows.
  EXPECT_EQ(gc_stream_bytes(c), (2 + 1 + 8) * 16u);
  EXPECT_EQ(gc_permute_blocks(0), 0u);
  EXPECT_EQ(gc_permute_blocks(128), 1u);
  EXPECT_EQ(gc_permute_blocks(129), 2u);

  // The scheduled view renumbers wires but keeps every AND's kind.
  EXPECT_EQ(c.gc_scheduled()->gc_walk_plan()->table_rows, 8u);

  Rng rng(7);
  ThreadPool pool(4);
  expect_all_paths_agree(c, rng, pool);
}

// A label slot that held an evaluator input and was then overwritten by
// a gate no longer holds a plaintext-known bit: an AND reading it after
// the overwrite must be two-row. Written as a slot circuit (wire ids
// reused, as in the scheduled view), walked as given.
TEST(OneRowAnd, RecycledEvaluatorSlotIsTwoRow) {
  Circuit c;
  c.name = "recycled_slot";
  c.num_wires = 5;
  c.garbler_inputs = {2, 4};
  c.evaluator_inputs = {3};
  c.gates = {
      {2, 3, 3, GateOp::kAnd},  // x & w, written over w's slot
      {4, 3, 2, GateOp::kAnd},  // y & (x & w): slot 3 is no longer w
      {3, 2, 4, GateOp::kXor},
  };
  c.outputs = {2, 3, 4};
  const auto plan = c.gc_walk_plan();
  EXPECT_EQ(plan->and_kinds,
            (std::vector<AndKind>{AndKind::kKnownB, AndKind::kFull}));
  EXPECT_EQ(c.stats().num_and_one_row, 1u);

  ThreadPool pool(4);
  for (uint8_t x = 0; x < 2; ++x)
    for (uint8_t y = 0; y < 2; ++y)
      for (uint8_t w = 0; w < 2; ++w) {
        const BitVec g_bits{x, y}, e_bits{w};
        const BitVec expect = c.eval(g_bits, e_bits);
        for (const GcPipeline p : {GcPipeline::kScalar, GcPipeline::kBatched}) {
          GcOptions opt;
          opt.schedule = false;  // walk the slot circuit itself
          opt.pipeline = p;
          opt.pool = p == GcPipeline::kBatched ? &pool : nullptr;
          opt.min_shard_gates = 1;
          const GarbleRun run = garble_run(c, opt);
          EXPECT_EQ(run.stream.size(), gc_stream_bytes(c));
          EXPECT_EQ(replay_decode(c, run, opt, g_bits, e_bits), expect)
              << "x=" << int(x) << " y=" << int(y) << " w=" << int(w);
        }
      }
}

TEST(OneRowAnd, RandomDagsAgreeOnEveryPath) {
  Rng rng(20261019);
  ThreadPool pool(4);
  bool saw_recycled_evaluator_slot = false;
  for (int trial = 0; trial < 8; ++trial) {
    uint64_t want_one_row = 0;
    const Circuit c =
        weight_and_dag(rng, 600 + int(rng.next_below(900)), &want_one_row);
    ASSERT_EQ(one_row_ands(c), want_one_row);
    ASSERT_GT(want_one_row, 0u);

    // The slot view must find the same gates, though its slots are
    // recycled: some evaluator input's slot is later a gate's output.
    const auto view = c.gc_scheduled();
    ASSERT_EQ(view->gc_walk_plan()->table_rows, c.stats().table_rows());
    std::vector<uint8_t> eval_slot(view->num_wires, 0);
    for (Wire w : view->evaluator_inputs) eval_slot[w] = 1;
    for (const Gate& g : view->gates)
      saw_recycled_evaluator_slot |= eval_slot[g.out] != 0;

    expect_all_paths_agree(c, rng, pool);
  }
  EXPECT_TRUE(saw_recycled_evaluator_slot);
}

// Wider than a batch window: capacity drains whose windows mix one-row
// and two-row gates, split across shards mid-window.
TEST(OneRowAnd, WideMixedWindowsAgreeOnEveryPath) {
  Rng rng(99);
  Circuit c;
  c.name = "wide_mixed";
  Wire next = 2;
  for (int i = 0; i < 40; ++i) c.garbler_inputs.push_back(next++);
  for (int i = 0; i < 40; ++i) c.evaluator_inputs.push_back(next++);
  const size_t n = 3 * kGcMaxBatchWindow + 17;
  for (size_t i = 0; i < n; ++i) {
    const Wire x = c.garbler_inputs[rng.next_below(40)];
    const Wire w = c.evaluator_inputs[rng.next_below(40)];
    const Wire y = c.garbler_inputs[rng.next_below(40)];
    Gate g{x, y, next++, GateOp::kAnd};
    switch (rng.next_below(3)) {
      case 0: g.b = w; break;
      case 1: g.a = w; break;
      default: break;
    }
    c.gates.push_back(g);
    c.outputs.push_back(g.out);
  }
  c.num_wires = next;
  c.validate();
  EXPECT_GT(one_row_ands(c), n / 2);
  EXPECT_LT(one_row_ands(c), n);
  ThreadPool pool(4);
  expect_all_paths_agree(c, rng, pool);
}

// Pooled material: the artifact's table stream is exactly the sum of
// gc_stream_bytes over the chain (the size the server checks a push
// against), and evaluating it decodes to the plaintext model.
TEST(OneRowAnd, PooledMaterialSizeMatchesHelper) {
  synth::ModelSpec spec;
  spec.name = "one_row_mlp";
  spec.input = synth::Shape3{1, 1, 5};
  spec.layers.push_back(synth::FcLayer{4, {}, true});
  spec.layers.push_back(synth::ActLayer{synth::ActKind::kReLU});
  spec.layers.push_back(synth::FcLayer{3, {}, true});
  const std::vector<Circuit> chain = synth::compile_model_layers(spec);
  const Circuit mono = synth::compile_model(spec);

  uint64_t want = 0, one_row = 0;
  for (const Circuit& c : chain) {
    want += gc_stream_bytes(c);
    one_row += one_row_ands(c);
  }
  EXPECT_GT(one_row, 0u);

  Rng rng(5);
  BitVec data(chain.front().garbler_inputs.size());
  BitVec weights(mono.evaluator_inputs.size());
  for (auto& b : data) b = rng.next_bool();
  for (auto& b : weights) b = rng.next_bool();
  const BitVec expect = mono.eval(data, weights);

  for (const bool sched : {false, true}) {
    GcOptions opt;
    opt.schedule = sched;
    const GarbledMaterial mat = garble_offline(chain, Block{3, 4}, opt);
    EXPECT_EQ(mat.tables.size(), want) << "sched=" << sched;

    EvalMaterial em;
    em.tables = mat.tables;
    em.decode_bits = mat.decode_bits;
    em.eval_labels = active(mat.eval_zeros, weights, mat.delta);
    EXPECT_EQ(evaluate_material(chain, em,
                                active(mat.data_zeros, data, mat.delta), opt),
              expect)
        << "sched=" << sched;
  }
}

}  // namespace
}  // namespace deepsecure
