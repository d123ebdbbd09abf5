// Microbenchmarks of the substrates: AES rates, fixed-key hash, curve
// operations (base-OT cost), OT extension, netlist construction, and
// the width-scheduling pass (batch-width histograms + garble rates,
// scheduled vs construction order).
#include <benchmark/benchmark.h>

#include "circuit/bench_circuits.h"
#include "circuit/schedule.h"
#include "core/benchmark_zoo.h"
#include "cost/calibration.h"
#include "crypto/aes128.h"
#include "crypto/hash_backend.h"
#include "crypto/ed25519.h"
#include "crypto/prg.h"
#include "crypto/sha256.h"
#include "gc/garble.h"
#include "gc/ot.h"
#include "net/null_channel.h"
#include "net/party.h"
#include "synth/activation.h"
#include "synth/layer_circuits.h"
#include "synth/matvec.h"
#include "synth/mult.h"

using namespace deepsecure;

namespace {

void BM_Aes128Batch(benchmark::State& state) {
  const Aes128Key key = aes128_expand(Block{1, 2});
  std::vector<Block> blocks(1024);
  Prg prg(Block{3, 4});
  prg.next_blocks(blocks.data(), blocks.size());
  for (auto _ : state) {
    aes128_encrypt_batch(key, blocks.data(), blocks.size());
    benchmark::DoNotOptimize(blocks.data());
  }
  state.counters["blocks/s"] = benchmark::Counter(
      static_cast<double>(blocks.size()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Aes128Batch);

void BM_GcHash(benchmark::State& state) {
  Block x{5, 6};
  uint64_t tweak = 0;
  for (auto _ : state) {
    x = gc_hash(x, tweak++);
    benchmark::DoNotOptimize(x);
  }
  state.counters["hashes/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GcHash);

void BM_GcHashBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Block> in(n), out(n);
  Prg prg(Block{5, 6});
  prg.next_blocks(in.data(), n);
  std::vector<uint64_t> tweaks(n);
  for (size_t i = 0; i < n; ++i) tweaks[i] = i;
  for (auto _ : state) {
    gc_hash_batch(in.data(), tweaks.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["hashes/s"] = benchmark::Counter(
      static_cast<double>(n) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GcHashBatch)->Arg(1024);

// Garbling throughput in AND-gates/s, scalar vs batched pipeline, on two
// circuit shapes: "wide" (independent ANDs, full batch windows — the
// matvec/popcount regime) and "chain" (each AND feeds the next, window
// size 1 — the ripple-carry worst case where batching cannot help).
void garble_throughput(benchmark::State& state, const Circuit& c,
                       const GcOptions& opt) {
  NullChannel ch;
  Garbler warm(ch, Block{1, 1}, opt);
  const Labels gz = warm.fresh_zeros(c.garbler_inputs.size());
  const Labels ez = warm.fresh_zeros(c.evaluator_inputs.size());
  // Compiler stages precomputed, as in the online phase: scheduled view
  // (when enabled) and the walked order's walk plan.
  std::shared_ptr<const Circuit> sched;
  const Circuit& walked = opt.schedule ? *(sched = c.gc_scheduled()) : c;
  (void)walked.gc_walk_plan();
  for (auto _ : state) {
    Garbler g(ch, Block{1, 1}, opt);
    benchmark::DoNotOptimize(g.garble(c, gz, ez, {}));
  }
  state.counters["ANDgates/s"] = benchmark::Counter(
      static_cast<double>(c.stats().num_and) * state.iterations(),
      benchmark::Counter::kIsRate);
  state.counters["mean_width"] =
      window_stats(walked, kGcMaxBatchWindow).mean;
}

void garble_throughput(benchmark::State& state, const Circuit& c,
                       GcPipeline pipeline) {
  GcOptions opt;
  opt.pipeline = pipeline;
  garble_throughput(state, c, opt);
}

void BM_GarbleWide(benchmark::State& state) {
  static const Circuit c = bench_circuits::wide_and(1 << 14);
  garble_throughput(state, c, state.range(0) ? GcPipeline::kBatched
                                             : GcPipeline::kScalar);
}
BENCHMARK(BM_GarbleWide)->Arg(0)->Arg(1)->ArgNames({"batched"});

void BM_GarbleChain(benchmark::State& state) {
  static const Circuit c = bench_circuits::and_chain(1 << 12);
  garble_throughput(state, c, state.range(0) ? GcPipeline::kBatched
                                             : GcPipeline::kScalar);
}
BENCHMARK(BM_GarbleChain)->Arg(0)->Arg(1)->ArgNames({"batched"});

// The scheduling payoff on a carry-chain-heavy netlist: a real matvec
// garbled in construction order (windows of ~1-2 ANDs, the BM_GarbleChain
// regime) vs the width-scheduled order (capacity-bound windows).
void BM_GarbleMatvec(benchmark::State& state) {
  static const Circuit c = synth::make_matvec_circuit(16, 8, kDefaultFormat);
  GcOptions opt;
  opt.schedule = state.range(0) != 0;
  garble_throughput(state, c, opt);
}
BENCHMARK(BM_GarbleMatvec)->Arg(0)->Arg(1)->ArgNames({"scheduled"})
    ->Unit(benchmark::kMillisecond);

// The same rate on a real model netlist: benchmark 3 compact's second
// FC layer (50 -> 26, pruned to 33%; 247k ANDs, 792k wires). Beside
// BM_GarbleMatvec it shows how far real netlists fall short of the
// micro ceiling; `slots` is the label array the scheduled walk uses.
void BM_GarbleModelLayer(benchmark::State& state) {
  static const Circuit c = [] {
    const synth::ModelSpec b3 = core::paper_zoo()[2].compact;
    synth::ModelSpec spec;
    spec.name = "b3_fc";
    spec.input = synth::Shape3{1, 1, 50};
    spec.layers.push_back(b3.layers[2]);
    return synth::compile_model_layers(spec).front();
  }();
  GcOptions opt;
  opt.schedule = state.range(0) != 0;
  garble_throughput(state, c, opt);
  state.counters["slots"] =
      opt.schedule ? c.gc_scheduled()->num_wires : c.num_wires;
}
BENCHMARK(BM_GarbleModelLayer)->Arg(0)->Arg(1)->ArgNames({"scheduled"})
    ->Unit(benchmark::kMillisecond);

// Compile speed of the same model: benchmark 3 compact's layer L0 (FC
// 308 -> 50, the bulk of the model's 10.7M gates) or L2, each on its
// own, through Builder lowering, folding and structural hashing.
void BM_CompileModelLayer(benchmark::State& state) {
  const synth::ModelSpec b3 = core::paper_zoo()[2].compact;
  const auto layer = static_cast<size_t>(state.range(0));
  synth::ModelSpec spec;
  spec.name = "b3_L" + std::to_string(layer);
  spec.input = b3.input;
  for (size_t i = 0; i < layer; ++i)
    spec.input = synth::layer_output_shape(spec.input, b3.layers[i]);
  spec.layers.push_back(b3.layers[layer]);
  size_t gates = 0;
  for (auto _ : state) {
    const std::vector<Circuit> chain = synth::compile_model_layers(spec);
    benchmark::DoNotOptimize(chain.data());
    gates = chain.front().gates.size();
  }
  state.counters["gates"] = static_cast<double>(gates);
  state.counters["gates/s"] = benchmark::Counter(
      static_cast<double>(gates) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CompileModelLayer)->Arg(0)->Arg(2)->ArgNames({"layer"})
    ->Unit(benchmark::kMillisecond);

// Batch-width histogram per netlist: mean/p50/p95/max AND gates per
// drained window, construction order vs scheduled. The timed body is
// the window_stats scan itself; the counters are the metric.
void batch_width(benchmark::State& state, const Circuit& base) {
  std::shared_ptr<const Circuit> sched;
  const Circuit& c = state.range(0) ? *(sched = base.gc_scheduled()) : base;
  for (auto _ : state)
    benchmark::DoNotOptimize(window_stats(c, kGcMaxBatchWindow));
  const WindowStats ws = window_stats(c, kGcMaxBatchWindow);
  state.counters["mean_width"] = ws.mean;
  state.counters["p50_width"] = static_cast<double>(ws.p50);
  state.counters["p95_width"] = static_cast<double>(ws.p95);
  state.counters["max_width"] = static_cast<double>(ws.max);
  state.counters["windows"] = static_cast<double>(ws.windows);
}

void BM_BatchWidthMatvec(benchmark::State& state) {
  static const Circuit c = synth::make_matvec_circuit(16, 8, kDefaultFormat);
  batch_width(state, c);
}
BENCHMARK(BM_BatchWidthMatvec)->Arg(0)->Arg(1)->ArgNames({"scheduled"});

void BM_BatchWidthAndChain(benchmark::State& state) {
  // Worst case: a pure AND chain has depth = gates; scheduling cannot
  // (and must not pretend to) widen it.
  static const Circuit c = bench_circuits::and_chain(1 << 12);
  batch_width(state, c);
}
BENCHMARK(BM_BatchWidthAndChain)->Arg(0)->Arg(1)->ArgNames({"scheduled"});

// Cost of the compiler stage itself (amortized once per netlist by the
// Circuit cache, paid on model load/reload).
void BM_ScheduleMatvec(benchmark::State& state) {
  static const Circuit c = synth::make_matvec_circuit(16, 8, kDefaultFormat);
  for (auto _ : state) benchmark::DoNotOptimize(schedule_circuit(c));
  state.counters["gates/s"] = benchmark::Counter(
      static_cast<double>(c.gates.size()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ScheduleMatvec)->Unit(benchmark::kMillisecond);

void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<uint8_t> data(1024, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_Ed25519ScalarMult(benchmark::State& state) {
  Ed25519Scalar k{};
  k[0] = 0xA7;
  k[31] = 0x12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519Point::base_mul(k));
  }
}
BENCHMARK(BM_Ed25519ScalarMult)->Unit(benchmark::kMicrosecond);

void BM_BaseOt(benchmark::State& state) {
  // The 128 Chou-Orlandi instances every OT-extension setup runs.
  std::vector<std::pair<Block, Block>> msgs(kOtExtKappa);
  BitVec choices(kOtExtKappa);
  for (size_t i = 0; i < kOtExtKappa; ++i) {
    msgs[i] = {Block{i, 0}, Block{i, 1}};
    choices[i] = i & 1;
  }
  for (auto _ : state) {
    run_two_party(
        [&](Channel& ch) {
          Prg prg(Block{5, 6});
          base_ot_send(ch, msgs, prg);
        },
        [&](Channel& ch) {
          Prg prg(Block{7, 8});
          benchmark::DoNotOptimize(base_ot_recv(ch, choices, prg));
        });
  }
}
BENCHMARK(BM_BaseOt)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_OtExtension(benchmark::State& state) {
  // Extension alone: each iteration's setup (base OTs) is excluded.
  const size_t m = static_cast<size_t>(state.range(0));
  for (auto _ : state) state.SetIterationTime(cost::time_ot_extension(m));
  state.counters["OT/s"] = benchmark::Counter(
      static_cast<double>(m) * state.iterations(),
      benchmark::Counter::kIsRate);
}
// 89,392 is benchmark 3 compact's weight-OT count per inference.
BENCHMARK(BM_OtExtension)
    ->Arg(1 << 14)
    ->Arg(89392)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

void BM_BuildMult16(benchmark::State& state) {
  using namespace synth;
  for (auto _ : state) {
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, kDefaultFormat);
    const Bus y = input_fixed(b, Party::kEvaluator, kDefaultFormat);
    b.outputs(mult_fixed(b, x, y, 12));
    benchmark::DoNotOptimize(b.build());
  }
}
BENCHMARK(BM_BuildMult16)->Unit(benchmark::kMicrosecond);

void BM_BuildTanhLut(benchmark::State& state) {
  using namespace synth;
  for (auto _ : state) {
    Builder b;
    const Bus x = input_fixed(b, Party::kGarbler, kDefaultFormat);
    b.outputs(activation(b, x, ActKind::kTanhLUT, kDefaultFormat));
    benchmark::DoNotOptimize(b.build());
  }
}
BENCHMARK(BM_BuildTanhLut)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Per-backend rows — the headline table of the pluggable-backend work.
// Registered at runtime (RegisterBenchmark in main) so only the
// backends this host can actually run appear, each under its registry
// name: BM_GcHashBatchBackend/<name>, BM_GarbleWideBackend/<name>.
// ---------------------------------------------------------------------

void hash_batch_backend(benchmark::State& state, const HashBackend* be) {
  constexpr size_t n = 1024;
  std::vector<Block> in(n), out(n);
  Prg prg(Block{5, 6});
  prg.next_blocks(in.data(), n);
  std::vector<uint64_t> tweaks(n);
  for (size_t i = 0; i < n; ++i) tweaks[i] = i;
  for (auto _ : state) {
    gc_hash_batch(*be, in.data(), tweaks.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["hashes/s"] = benchmark::Counter(
      static_cast<double>(n) * state.iterations(), benchmark::Counter::kIsRate);
}

// AND-gates/s through the full batched garbling pipeline with the
// window sweeps pinned to one backend: the scalar row is the old
// portable path, bitsliced8 the new portable floor, aesni8/vaes16 the
// hardware kernels.
void garble_wide_backend(benchmark::State& state, const HashBackend* be) {
  static const Circuit c = bench_circuits::wide_and(1 << 14);
  GcOptions opt;
  opt.hash_backend = be;
  garble_throughput(state, c, opt);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  for (const HashBackend* be : compiled_hash_backends()) {
    if (!be->available()) continue;
    benchmark::RegisterBenchmark(
        (std::string("BM_GcHashBatchBackend/") + be->name).c_str(),
        [be](benchmark::State& s) { hash_batch_backend(s, be); });
    benchmark::RegisterBenchmark(
        (std::string("BM_GarbleWideBackend/") + be->name).c_str(),
        [be](benchmark::State& s) { garble_wide_backend(s, be); });
  }
  benchmark::AddCustomContext("hash_backend", deepsecure::hash_backend().name);
  benchmark::AddCustomContext("cpu_features",
                              deepsecure::hash_backend_cpu_features());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
