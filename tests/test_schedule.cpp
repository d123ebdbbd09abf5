// Width-aware netlist scheduling pass (circuit/schedule.h): the
// scheduled order must stay a valid topological order with unchanged
// plaintext semantics on randomized DAGs, must widen AND-batch windows
// on the arithmetic netlists it was built for (>= 2x mean width on
// matvec/layer circuits — the PR's acceptance bar), and the GC protocol
// over scheduled circuits must agree with plaintext and with the
// unscheduled oracle path, with both parties fingerprinting the same
// scheduled netlist.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "circuit/bench_circuits.h"
#include "circuit/builder.h"
#include "circuit/schedule.h"
#include "core/benchmark_zoo.h"
#include "gc/batch_walk.h"
#include "gc/garble.h"
#include "gc/material.h"
#include "net/party.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "synth/layer_circuits.h"
#include "synth/matvec.h"

namespace deepsecure {
namespace {

// Random DAG over the full gate basis, optionally lane-tagged, with
// deliberately hazard-heavy structure (fresh gates feed later gates).
Circuit random_dag(Rng& rng, int n_gates, bool with_lanes) {
  Builder b;
  std::vector<Wire> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(b.input(Party::kGarbler));
  for (int i = 0; i < 8; ++i) pool.push_back(b.input(Party::kEvaluator));
  for (int g = 0; g < n_gates; ++g) {
    if (with_lanes && g % 7 == 0)
      b.set_lane(static_cast<uint32_t>(rng.next_below(5)));
    const Wire a = pool[rng.next_below(pool.size())];
    const Wire y = pool[rng.next_below(pool.size())];
    switch (rng.next_below(5)) {
      case 0: pool.push_back(b.xor_(a, y)); break;
      case 1: pool.push_back(b.and_(a, y)); break;
      case 2: pool.push_back(b.or_(a, y)); break;
      case 3: pool.push_back(b.mux(a, y, pool[rng.next_below(pool.size())]));
        break;
      default: pool.push_back(b.not_(a)); break;
    }
  }
  for (int o = 0; o < 12; ++o)
    b.output(pool[pool.size() - 1 - static_cast<size_t>(o)]);
  return b.build();
}

TEST(Schedule, FuzzPreservesTopologyAndSemantics) {
  Rng rng(20260727);
  for (int trial = 0; trial < 25; ++trial) {
    const Circuit c = random_dag(rng, 300 + int(rng.next_below(300)),
                                 /*with_lanes=*/trial % 2 == 0);
    const ScheduleResult r = schedule_circuit(c);

    // Still a valid netlist: topological, no redefinitions, in-range.
    ASSERT_NO_THROW(r.circuit.validate());

    // gate_map is a permutation of [0, gates).
    ASSERT_EQ(r.gate_map.size(), c.gates.size());
    std::vector<uint32_t> sorted = r.gate_map;
    std::sort(sorted.begin(), sorted.end());
    for (uint32_t i = 0; i < sorted.size(); ++i) ASSERT_EQ(sorted[i], i);

    // Same gates, same interface, same tallies.
    EXPECT_EQ(r.circuit.stats().num_and, c.stats().num_and);
    EXPECT_EQ(r.circuit.stats().num_xor, c.stats().num_xor);
    EXPECT_EQ(r.circuit.outputs, c.outputs);
    EXPECT_EQ(r.circuit.garbler_inputs, c.garbler_inputs);

    // Plaintext oracle unchanged on random inputs.
    for (int round = 0; round < 4; ++round) {
      BitVec g_bits(8), e_bits(8);
      for (auto& v : g_bits) v = rng.next_bool();
      for (auto& v : e_bits) v = rng.next_bool();
      ASSERT_EQ(r.circuit.eval(g_bits, e_bits), c.eval(g_bits, e_bits));
    }
  }
}

TEST(Schedule, NeverNarrowsWindowsOnRandomDags) {
  Rng rng(515);
  for (int trial = 0; trial < 10; ++trial) {
    const Circuit c = random_dag(rng, 500, /*with_lanes=*/false);
    const WindowStats before = window_stats(c, kGcMaxBatchWindow);
    const WindowStats after =
        window_stats(*c.gc_scheduled(), kGcMaxBatchWindow);
    EXPECT_EQ(after.and_gates, before.and_gates);
    // Levelization bounds dependency flushes by the AND depth, which
    // construction order can only match or exceed.
    EXPECT_LE(after.flush_points, before.flush_points);
    EXPECT_GE(after.mean, before.mean);
  }
}

// The acceptance bar: >= 2x mean AND-window width on matvec and on the
// compiled per-layer model netlists (the carry-chain-heavy regime the
// pass exists for).
TEST(Schedule, DoublesMeanWindowWidthOnMatvec) {
  const Circuit c = synth::make_matvec_circuit(16, 8, kDefaultFormat);
  const WindowStats before = window_stats(c, kGcMaxBatchWindow);
  const WindowStats after = window_stats(*c.gc_scheduled(), kGcMaxBatchWindow);
  EXPECT_EQ(after.and_gates, before.and_gates);
  EXPECT_GE(after.mean, 2.0 * before.mean)
      << "unscheduled mean " << before.mean << ", scheduled " << after.mean;
}

TEST(Schedule, DoublesMeanWindowWidthOnModelLayers) {
  synth::ModelSpec spec;
  spec.name = "sched_cnn";
  spec.input = synth::Shape3{6, 6, 1};
  spec.layers.push_back(synth::ConvLayer{3, 1, 2, true});
  spec.layers.push_back(synth::ActLayer{synth::ActKind::kReLU});
  spec.layers.push_back(synth::FcLayer{4, {}, true});
  const auto chain = synth::compile_model_layers(spec);
  ASSERT_FALSE(chain.empty());
  for (const Circuit& c : chain) {
    const WindowStats before = window_stats(c, kGcMaxBatchWindow);
    const WindowStats after =
        window_stats(*c.gc_scheduled(), kGcMaxBatchWindow);
    if (before.and_gates == 0) continue;  // nothing to widen
    if (before.flush_points == 0) {
      // Already a single full-width window (e.g. the elementwise ReLU
      // layer): scheduling must not regress it.
      EXPECT_GE(after.mean, before.mean) << c.name;
      continue;
    }
    EXPECT_GE(after.mean, 2.0 * before.mean)
        << c.name << ": unscheduled mean " << before.mean << ", scheduled "
        << after.mean;
  }
}

// Deferred free-XOR falls out of the reorder: on a netlist whose XOR
// consumers force a flush per AND under construction order, the
// scheduled order needs exactly one dependency flush per AND level.
TEST(Schedule, XorConsumersNoLongerForceFlushes) {
  const Circuit c = synth::make_matvec_circuit(8, 4, kDefaultFormat);
  const auto sched = c.gc_scheduled();
  // One flush point per AND level (minus the implicit first window).
  std::vector<uint32_t> wire_level(c.num_wires, 0);
  uint32_t depth = 0;
  for (const Gate& g : c.gates) {
    const uint32_t lvl = std::max(wire_level[g.a], wire_level[g.b]);
    wire_level[g.out] = lvl + (g.op == GateOp::kAnd ? 1 : 0);
    depth = std::max(depth, wire_level[g.out]);
  }
  EXPECT_LE(sched->gc_walk_plan()->flush_points.size(), depth);
}

// Record the constant-labels + table stream of one garbling.
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

std::vector<uint8_t> garble_stream(const Circuit& c, Block seed,
                                   const GcOptions& opt) {
  RecordChannel ch;
  Garbler g(ch, seed, opt);
  const Labels gz = g.fresh_zeros(c.garbler_inputs.size());
  const Labels ez = g.fresh_zeros(c.evaluator_inputs.size());
  g.garble(c, gz, ez, {});
  return ch.bytes;
}

// Scalar and batched pipelines must stay byte-identical under the
// scheduled order too (tweaks and tables both follow the walked order).
TEST(Schedule, ScalarAndBatchedByteIdenticalOnScheduledOrder) {
  Rng rng(99);
  const Circuit c = random_dag(rng, 400, /*with_lanes=*/true);
  for (const bool sched : {false, true}) {
    GcOptions scalar, batched;
    scalar.pipeline = GcPipeline::kScalar;
    scalar.schedule = sched;
    batched.pipeline = GcPipeline::kBatched;
    batched.schedule = sched;
    EXPECT_EQ(garble_stream(c, Block{5, 7}, scalar),
              garble_stream(c, Block{5, 7}, batched))
        << "schedule=" << sched;
  }
  // Scheduling changes the stream order on this netlist (it is not the
  // identity permutation here) — the two modes are distinct wire formats.
  GcOptions on, off;
  on.schedule = true;
  off.schedule = false;
  EXPECT_NE(garble_stream(c, Block{5, 7}, on),
            garble_stream(c, Block{5, 7}, off));
}

// Full GC protocol equality over MemChannel: scheduled and unscheduled
// executions decode to the same plaintext result on random DAGs and on
// a real matvec netlist.
TEST(Schedule, TwoPartyScheduledMatchesPlaintextAndOracle) {
  Rng rng(777);
  std::vector<Circuit> circuits;
  for (int t = 0; t < 3; ++t)
    circuits.push_back(random_dag(rng, 350, /*with_lanes=*/t == 0));
  circuits.push_back(synth::make_matvec_circuit(4, 3, kDefaultFormat));

  for (const Circuit& c : circuits) {
    BitVec g_bits(c.garbler_inputs.size()), e_bits(c.evaluator_inputs.size());
    for (auto& v : g_bits) v = rng.next_bool();
    for (auto& v : e_bits) v = rng.next_bool();
    const BitVec expect = c.eval(g_bits, e_bits);

    for (const bool sched : {true, false}) {
      GcOptions opt;
      opt.schedule = sched;
      BitVec decoded;
      run_two_party(
          [&](Channel& ch) {
            Garbler g(ch, Block{42, 42}, opt);
            const Labels gz = g.fresh_zeros(g_bits.size());
            const Labels ez = g.fresh_zeros(e_bits.size());
            g.send_active(g_bits, gz);
            std::vector<Block> active(e_bits.size());
            for (size_t i = 0; i < e_bits.size(); ++i)
              active[i] = e_bits[i] ? (ez[i] ^ g.delta()) : ez[i];
            if (!active.empty())
              ch.send_bytes(active.data(), active.size() * sizeof(Block));
            decoded = g.decode_outputs(g.garble(c, gz, ez, {}));
          },
          [&](Channel& ch) {
            Evaluator e(ch, opt);
            const Labels gl = e.recv_active(g_bits.size());
            const Labels el = e.recv_active(e_bits.size());
            e.send_outputs(e.evaluate(c, gl, el, {}));
          });
      EXPECT_EQ(decoded, expect) << c.name << " schedule=" << sched;
    }
  }
}

// Evaluator-side window sharding: a pooled evaluator must produce the
// same decoded outputs as a single-threaded one (the shards reuse the
// garbler's per-shard tweak/table-order invariant).
TEST(Schedule, EvaluatorShardPoolMatchesSingleThreaded) {
  const Circuit c = synth::make_matvec_circuit(12, 6, kDefaultFormat);
  Rng rng(4242);
  BitVec g_bits(c.garbler_inputs.size()), e_bits(c.evaluator_inputs.size());
  for (auto& v : g_bits) v = rng.next_bool();
  for (auto& v : e_bits) v = rng.next_bool();
  const BitVec expect = c.eval(g_bits, e_bits);

  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    GcOptions eopt;
    eopt.pool = p;
    eopt.min_shard_gates = 8;  // tiny windows still shard in this test
    BitVec decoded;
    run_two_party(
        [&](Channel& ch) {
          Garbler g(ch, Block{7, 9});
          const Labels gz = g.fresh_zeros(g_bits.size());
          const Labels ez = g.fresh_zeros(e_bits.size());
          g.send_active(g_bits, gz);
          std::vector<Block> active(e_bits.size());
          for (size_t i = 0; i < e_bits.size(); ++i)
            active[i] = e_bits[i] ? (ez[i] ^ g.delta()) : ez[i];
          ch.send_bytes(active.data(), active.size() * sizeof(Block));
          decoded = g.decode_outputs(g.garble(c, gz, ez, {}));
        },
        [&](Channel& ch) {
          Evaluator e(ch, eopt);
          const Labels gl = e.recv_active(g_bits.size());
          const Labels el = e.recv_active(e_bits.size());
          e.send_outputs(e.evaluate(c, gl, el, {}));
        });
    EXPECT_EQ(decoded, expect) << "eval pool=" << (p != nullptr);
  }
}

// Fingerprint regression: two independently compiled copies of the same
// model agree on the scheduled fingerprint (what the runtime handshake
// compares), and the offline artifact stamps that same value.
TEST(Schedule, FingerprintAgreesAcrossCompilesAndMaterial) {
  synth::ModelSpec spec;
  spec.name = "fp_model";
  spec.input = synth::Shape3{4, 4, 1};
  spec.layers.push_back(synth::ConvLayer{3, 1, 2, true});
  spec.layers.push_back(synth::ActLayer{synth::ActKind::kReLU});
  spec.layers.push_back(synth::FcLayer{3, {}, true});
  spec.layers.push_back(synth::ArgmaxLayer{});

  const auto garbler_side = synth::compile_model_layers(spec);
  const auto evaluator_side = synth::compile_model_layers(spec);
  EXPECT_EQ(chain_fingerprint(garbler_side, true),
            chain_fingerprint(evaluator_side, true));
  EXPECT_EQ(chain_fingerprint(garbler_side, false),
            chain_fingerprint(evaluator_side, false));
  // Scheduling actually reorders these netlists, so the two fingerprint
  // spaces differ — a scheduled endpoint cannot shake hands with an
  // unscheduled one.
  EXPECT_NE(chain_fingerprint(garbler_side, true),
            chain_fingerprint(garbler_side, false));

  GcOptions opt;
  opt.schedule = true;
  const GarbledMaterial mat = garble_offline(garbler_side, Block{1, 2}, opt);
  EXPECT_EQ(mat.fingerprint, chain_fingerprint(evaluator_side, true));
}

// window_stats (circuit/, can't see gc/) mirrors gc_batched_walk's
// drain policy rather than calling it. This guard keeps the two in
// lock-step: the widths window_stats reports must be exactly the
// window sizes an instrumented real walk drains.
TEST(Schedule, WindowStatsMatchesRealBatchedWalk) {
  Rng rng(606);
  std::vector<Circuit> circuits;
  circuits.push_back(synth::make_matvec_circuit(8, 4, kDefaultFormat));
  circuits.push_back(bench_circuits::and_chain(64));
  circuits.push_back(bench_circuits::wide_and(3 * kGcMaxBatchWindow + 17));
  circuits.push_back(random_dag(rng, 600, /*with_lanes=*/true));

  for (const Circuit& base : circuits) {
    for (const bool sched : {false, true}) {
      std::shared_ptr<const Circuit> keep;
      const Circuit& c = sched ? *(keep = base.gc_scheduled()) : base;

      std::vector<size_t> walked_widths;
      size_t pending = 0;
      gc_batched_walk(
          c, [](const Gate&) {},
          [&](const Gate&, bool) { ++pending; },
          [&](bool /*level_boundary*/) {
            if (pending > 0) walked_widths.push_back(pending);
            pending = 0;
          });

      const WindowStats ws = window_stats(c, kGcMaxBatchWindow);
      ASSERT_EQ(ws.windows, walked_widths.size())
          << base.name << " sched=" << sched;
      size_t ands = 0, widest = 0;
      for (size_t w : walked_widths) {
        ands += w;
        widest = std::max(widest, w);
      }
      EXPECT_EQ(ws.and_gates, ands);
      EXPECT_EQ(ws.max, widest);
    }
  }
}

TEST(Schedule, ScheduledViewIsCachedAndInvalidated) {
  Circuit c = synth::make_matvec_circuit(4, 2, kDefaultFormat);
  const auto first = c.gc_scheduled();
  const auto second = c.gc_scheduled();
  EXPECT_EQ(first.get(), second.get());  // shared cached instance

  // Copies recompute (cache not inherited), same result.
  const Circuit copy = c;
  const auto copied = copy.gc_scheduled();
  EXPECT_NE(copied.get(), first.get());
  EXPECT_EQ(copied->gates.size(), first->gates.size());
  for (size_t i = 0; i < first->gates.size(); ++i) {
    EXPECT_EQ(copied->gates[i].out, first->gates[i].out);
  }
}

TEST(Schedule, LaneTagsSurviveSchedulingAndValidate) {
  Builder b;
  const Wire x = b.input(Party::kGarbler);
  const Wire y = b.input(Party::kEvaluator);
  b.set_lane(3);
  const Wire u = b.and_(x, y);
  b.set_lane(9);
  const Wire v = b.and_(b.xor_(x, y), y);
  b.output(b.xor_(u, v));
  const Circuit c = b.build();
  ASSERT_EQ(c.gate_lanes.size(), c.gates.size());

  const ScheduleResult r = schedule_circuit(c);
  ASSERT_EQ(r.circuit.gate_lanes.size(), r.circuit.gates.size());
  for (size_t i = 0; i < r.gate_map.size(); ++i)
    EXPECT_EQ(r.circuit.gate_lanes[i], c.gate_lanes[r.gate_map[i]]);
}


// Random netlist written gate by gate, past the Builder (whose CSE and
// folding would remove them), so it carries the cases the slot pass
// must get right: AND outputs nothing reads, gates whose two inputs are
// one wire, outputs that are inputs or constants, and — when `folded` —
// state inputs with state_next wires, one of them a pass-through.
Circuit raw_random_dag(Rng& rng, int n_gates, bool folded) {
  Circuit c;
  c.name = folded ? "raw_folded" : "raw";
  Wire next = 2;
  std::vector<Wire> pool = {kConst0, kConst1};
  auto add_input = [&](std::vector<Wire>& v) {
    v.push_back(next);
    pool.push_back(next++);
  };
  for (int i = 0; i < 6; ++i) add_input(c.garbler_inputs);
  for (int i = 0; i < 6; ++i) add_input(c.evaluator_inputs);
  if (folded)
    for (int i = 0; i < 5; ++i) add_input(c.state_inputs);
  // Mostly recent wires (deep, hazard-heavy chains), sometimes any
  // (wide levels, long live ranges).
  auto pick = [&]() -> Wire {
    if (rng.next_below(3) == 0) return pool[rng.next_below(pool.size())];
    return pool[pool.size() - 1 -
                rng.next_below(std::min<size_t>(pool.size(), 16))];
  };
  for (int i = 0; i < n_gates; ++i) {
    Gate g;
    g.a = pick();
    g.b = rng.next_below(8) == 0 ? g.a : pick();
    g.op = rng.next_bool() ? GateOp::kAnd : GateOp::kXor;
    g.out = next++;
    c.gates.push_back(g);
    // A quarter of the gates never enter the pool: nothing reads them.
    if (rng.next_below(4) != 0) pool.push_back(g.out);
  }
  c.num_wires = next;
  for (int o = 0; o < 10; ++o) c.outputs.push_back(pool[pool.size() - 1 - o]);
  c.outputs.push_back(kConst0);
  c.outputs.push_back(kConst1);
  c.outputs.push_back(c.garbler_inputs[0]);
  c.outputs.push_back(c.evaluator_inputs[1]);
  c.outputs.push_back(c.outputs.front());  // read twice
  for (size_t i = 0; i < c.state_inputs.size(); ++i)
    c.state_next.push_back(i == 0 ? c.state_inputs[1]
                                  : pool[rng.next_below(pool.size())]);
  c.validate();
  return c;
}

// Plays a recorded stream back to an Evaluator.
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

 private:
  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
};

// One garbling: the stream it sends and every label it hands back.
struct GarbleRun {
  std::vector<uint8_t> stream;
  Block delta;
  Labels g_zeros, e_zeros, s_zeros, out_zeros, next_zeros;
};

GarbleRun garble_run(const Circuit& c, const GcOptions& opt) {
  RecordChannel ch;
  Garbler g(ch, Block{11, 13}, opt);
  GarbleRun r;
  r.delta = g.delta();
  r.g_zeros = g.fresh_zeros(c.garbler_inputs.size());
  r.e_zeros = g.fresh_zeros(c.evaluator_inputs.size());
  r.s_zeros = g.fresh_zeros(c.state_inputs.size());
  r.out_zeros = g.garble(c, r.g_zeros, r.e_zeros, r.s_zeros, &r.next_zeros);
  r.stream = ch.bytes;
  return r;
}

Labels active(const Labels& zeros, const BitVec& bits, Block delta) {
  Labels out(zeros.size());
  for (size_t i = 0; i < zeros.size(); ++i)
    out[i] = bits[i] ? zeros[i] ^ delta : zeros[i];
  return out;
}

// The slot view (gc_scheduled) walks the same gate order as
// schedule_circuit, only on recycled label slots. Garbled with either
// pipeline, with or without a shard pool, its table stream and labels
// must be those of the same order on wire ids, its flush points and
// AND kinds the same, and its plaintext semantics the original's; a
// sharded evaluator walking it must decode to the plaintext result.
TEST(Schedule, SlotViewMatchesWireIdWalk) {
  Rng rng(20261018);
  ThreadPool pool(4);
  for (int trial = 0; trial < 24; ++trial) {
    const bool folded = trial % 3 == 2;
    const Circuit c =
        raw_random_dag(rng, 1500 + int(rng.next_below(1500)), folded);
    const Circuit ids = schedule_circuit(c).circuit;
    const auto view = c.gc_scheduled();
    ASSERT_EQ(view->gates.size(), ids.gates.size());
    for (size_t i = 0; i < ids.gates.size(); ++i)
      ASSERT_EQ(view->gates[i].op, ids.gates[i].op) << "gate " << i;
    EXPECT_LT(view->num_wires, c.num_wires);
    EXPECT_EQ(view->gc_walk_plan()->flush_points,
              ids.gc_walk_plan()->flush_points);
    EXPECT_EQ(view->gc_walk_plan()->and_kinds,
              ids.gc_walk_plan()->and_kinds);

    BitVec g_bits(c.garbler_inputs.size()), e_bits(c.evaluator_inputs.size()),
        s_bits(c.state_inputs.size());
    for (BitVec* v : {&g_bits, &e_bits, &s_bits})
      for (auto& b : *v) b = rng.next_bool();
    BitVec expect_next = s_bits, view_next = s_bits;
    const BitVec expect = c.eval(g_bits, e_bits, &expect_next);
    ASSERT_EQ(view->eval(g_bits, e_bits, &view_next), expect);
    ASSERT_EQ(view_next, expect_next);

    GcOptions oracle;
    oracle.schedule = false;
    oracle.pipeline = GcPipeline::kScalar;
    const GarbleRun ref = garble_run(ids, oracle);

    GcOptions scalar, batched, sharded;
    scalar.pipeline = GcPipeline::kScalar;
    sharded.pool = &pool;
    sharded.min_shard_gates = 1;  // small windows still shard here
    for (GcOptions* opt : {&scalar, &batched, &sharded}) {
      opt->schedule = true;
      const GarbleRun run = garble_run(c, *opt);
      const std::string what = c.name + " trial " + std::to_string(trial) +
                               " pipeline " +
                               std::to_string(int(opt->pipeline)) +
                               (opt->pool ? " pooled" : "");
      ASSERT_EQ(run.stream, ref.stream) << what;
      ASSERT_EQ(run.out_zeros, ref.out_zeros) << what;
      ASSERT_EQ(run.next_zeros, ref.next_zeros) << what;

      ReplayChannel replay(run.stream);
      Evaluator e(replay, *opt);
      Labels next_active;
      const Labels out = e.evaluate(c, active(run.g_zeros, g_bits, run.delta),
                                    active(run.e_zeros, e_bits, run.delta),
                                    active(run.s_zeros, s_bits, run.delta),
                                    &next_active);
      ASSERT_EQ(out, active(run.out_zeros, expect, run.delta)) << what;
      ASSERT_EQ(next_active, active(run.next_zeros, expect_next, run.delta))
          << what;
    }
  }
}

// Real netlists: the slot view holds at most a quarter as many labels
// as the netlist has wires, and the scheduled order's windows are no
// worse than before the pass placed gates as late as possible and
// filled partial windows. The bounds are the scheduled flush points and
// mean window width of each netlist before that change (matvec 27 /
// 818.2, conv 27 / 964.8, b3 FC 27 / 961.5 ANDs, rounded down); now
// they are 27 / 1008.8, 27 / 1012.0 and 27 / 1016.9.
TEST(Schedule, SlotViewBoundsLiveLabelsOnRealNetlists) {
  struct Case {
    Circuit c;
    size_t flush_points;
    double mean;
  };
  std::vector<Case> cases;
  cases.push_back({synth::make_matvec_circuit(16, 8, kDefaultFormat), 27,
                   818.2});
  {
    synth::ModelSpec spec;
    spec.name = "conv";
    spec.input = synth::Shape3{6, 6, 1};
    spec.layers.push_back(synth::ConvLayer{3, 1, 2, true});
    cases.push_back({synth::compile_model_layers(spec)[0], 27, 964.8});
  }
  {
    // Benchmark 3 compact's second FC layer: 50 -> 26, pruned to 33%.
    const synth::ModelSpec b3 = core::paper_zoo()[2].compact;
    synth::ModelSpec spec;
    spec.name = "b3_fc";
    spec.input = synth::Shape3{1, 1, 50};
    spec.layers.push_back(b3.layers[2]);
    cases.push_back({synth::compile_model_layers(spec)[0], 27, 961.5});
  }
  for (const Case& k : cases) {
    const auto view = k.c.gc_scheduled();
    EXPECT_LE(4 * size_t{view->num_wires}, size_t{k.c.num_wires})
        << k.c.name << ": " << view->num_wires << " slots for "
        << k.c.num_wires << " wires";
    const WindowStats ws = window_stats(*view, kGcMaxBatchWindow);
    EXPECT_EQ(ws.and_gates, k.c.stats().num_and) << k.c.name;
    EXPECT_LE(ws.flush_points, k.flush_points) << k.c.name;
    EXPECT_GE(ws.mean, k.mean) << k.c.name;
  }
}

}  // namespace
}  // namespace deepsecure
