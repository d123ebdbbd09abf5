// Serving benchmark: drives the public runtime API (an in-process
// runtime::InferenceServer and runtime::InferenceClient sessions over
// TCP loopback) on one workload, checks every answer against the
// compiled chain's plaintext Circuit::eval, and prints one JSON line of
// metrics. With --trace 1 it also replays one inference layer by layer
// (replay.h) and reports per-layer metrics from the benchmark's spans.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out FILE] [--git-sha SHA]
//
// Workloads (README.md gives the reasons):
//   b3c-ondemand  paper benchmark 3 compact, one closed-loop session,
//                 every request garbles on demand
//   b3c-pooled    same model through the offline/online split: rounds
//                 of prefetch(4), pool refill, then 4 online requests
//   toy-churn     loadgen's 8-6-3 MLP, 2 client threads each looping
//                 construct -> 2 inferences -> close
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/benchmark_zoo.h"
#include "crypto/hash_backend.h"
#include "fixed/fixed_point.h"
#include "obs/metrics.h"
#include "replay.h"
#include "runtime/client.h"
#include "runtime/server.h"
#include "spans.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "synth/layer_circuits.h"

using namespace deepsecure;
using servebench::ScopedSpan;
using servebench::SpanLog;

namespace {

// A request slower than this counts as failed (and misses the tail).
constexpr double kRequestTimeoutS = 30.0;
// b3c-pooled: artifacts per offline/online round (= pool_target).
constexpr size_t kPoolRound = 4;
// toy-churn: concurrent client threads, inferences per session, and the
// number of cold starts whose median is setup_s.
constexpr size_t kChurnThreads = 2;
constexpr size_t kChurnInferences = 2;
constexpr size_t kChurnSetups = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string git_sha = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::runtime_error("--trace expects 0|1");
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else {
      throw std::runtime_error("unknown flag " + k);
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  if (a.workload != "b3c-ondemand" && a.workload != "b3c-pooled" &&
      a.workload != "toy-churn")
    throw std::runtime_error("unknown workload " + a.workload);
  if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

// --- model, weights and inputs from the seed ---------------------------

struct Model {
  synth::ModelSpec spec;
  BitVec weights;  // evaluator (server) input bits, chain order
  size_t inputs = 0;
  bool has_paper = false;
  core::PaperRow paper;  // Table 5 row (benchmark 3 compact only)
};

// loadgen_inference's smoke model: 8-6-ReLU-3-argmax.
synth::ModelSpec toy_spec() {
  synth::ModelSpec spec;
  spec.name = "loadgen_mlp";
  spec.input = synth::Shape3{1, 1, 8};
  spec.layers.push_back(synth::FcLayer{6, {}, true});
  spec.layers.push_back(synth::ActLayer{synth::ActKind::kReLU});
  spec.layers.push_back(synth::FcLayer{3, {}, true});
  spec.layers.push_back(synth::ArgmaxLayer{});
  return spec;
}

void append_fixed(BitVec& bits, double v, FixedFormat fmt) {
  const BitVec b = Fixed::from_double(v, fmt).to_bits();
  bits.insert(bits.end(), b.begin(), b.end());
}

Model make_model(const std::string& workload, uint64_t seed) {
  Model m;
  if (workload == "toy-churn") {
    m.spec = toy_spec();
  } else {
    const core::ZooEntry b3 = core::paper_zoo()[2];
    m.spec = b3.compact;
    m.has_paper = true;
    m.paper = b3.paper_compact;
  }
  m.inputs = m.spec.input.flat();
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  for (size_t i = 0; i < synth::model_weight_count(m.spec); ++i)
    append_fixed(m.weights, rng.next_uniform(-0.25, 0.25), m.spec.fmt);
  return m;
}

BitVec make_input(Rng& rng, const Model& m) {
  BitVec bits;
  for (size_t i = 0; i < m.inputs; ++i)
    append_fixed(bits, rng.next_uniform(-1.0, 1.0), m.spec.fmt);
  return bits;
}

// The oracle: the compiled chain evaluated in plaintext on the same
// weight and input bits the secure run received.
BitVec plain_eval(const std::vector<Circuit>& chain, const BitVec& weights,
                  BitVec bits) {
  size_t consumed = 0;
  for (const Circuit& c : chain) {
    const size_t n = c.evaluator_inputs.size();
    const BitVec w(weights.begin() + static_cast<ptrdiff_t>(consumed),
                   weights.begin() + static_cast<ptrdiff_t>(consumed + n));
    consumed += n;
    bits = c.eval(bits, w);
  }
  return bits;
}

// --- statistics ---------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile with at least ten samples beyond it, never
// below the median: with n samples that is sorted[n - 11] when n >= 21.
struct Tail {
  double value = 0;
  double percentile = 50;
};
Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n < 21) {
    t.value = median(v);
    return t;
  }
  t.value = v[n - 11];
  t.percentile = 100.0 * double(n - 10) / double(n);
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

// Value of `"key":` in a flat JSON text (stats_json), as a string.
std::string json_field(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const size_t at = json.find(pat);
  if (at == std::string::npos) return "";
  size_t b = at + pat.size();
  if (b < json.size() && json[b] == '"') {
    const size_t e = json.find('"', b + 1);
    return json.substr(b + 1, e - b - 1);
  }
  size_t e = b;
  while (e < json.size() && json[e] != ',' && json[e] != '}') ++e;
  return json.substr(b, e - b);
}

// --- one run ------------------------------------------------------------

struct PhaseCount {
  uint64_t sent = 0, ok = 0, failed = 0;
};

struct Answer {
  BitVec in, out;
};

struct RunResult {
  PhaseCount setup, steady;
  std::vector<double> setup_s;       // one per cold start
  std::vector<double> connect_ms;    // client construct (compile+handshake)
  std::vector<double> first_ms;      // each session's first request
  std::vector<double> steady_ms;     // steady-state request latencies
  uint64_t steady_done = 0;          // inferences in the throughput window
  double steady_wall_s = 0;          // the throughput window
  double offline_s = 0;              // b3c-pooled: prefetch + refill
  uint64_t online = 0;               // b3c-pooled: online requests sent
  uint64_t online_pooled = 0;        // ... that hit prefetched material
  std::vector<double> session_ms;    // toy-churn: construct -> close
  std::vector<Answer> answers;       // every answer, for the oracle
  Answer replay_target;              // what the traced run's replay redoes
  // From the server that served the steady phase, after stop().
  uint64_t wire_bytes = 0, served = 0;
  double handshake_ms = 0, infer_phase_ms = 0, ot_online_ms = 0,
         eval_ms = 0, accounted = 0;
  std::string io = "epoll";
  // Process-wide data-plane counter deltas over the steady phase, and
  // the inferences completed between the two snapshots.
  uint64_t bytes_copied = 0, syscalls_send = 0, net_infers = 0;
  double peak_rss_mb = 0;
};

runtime::ServerConfig server_config() {
  runtime::ServerConfig c;
  c.max_sessions = kChurnThreads + 2;
  c.max_prefetch = 2 * kPoolRound;
  return c;
}

runtime::ClientConfig client_config(uint64_t seed, uint64_t session,
                                    bool pooled) {
  runtime::ClientConfig c;
  c.seed = Block{seed * 0x100000001B3ull + session + 1, 0xC1E17};
  if (pooled) {
    c.pool_target = kPoolRound;
    c.pool_producers = 2;
    c.auto_top_up = false;
  }
  return c;
}

void read_server(const runtime::InferenceServer& server, bool pooled,
                 RunResult& r) {
  const obs::Snapshot s = server.metrics().snapshot();
  r.wire_bytes = s.counter_value("server.bytes_in") +
                 s.counter_value("server.bytes_out");
  r.served = server.inferences_served();
  auto p50_ms = [&](const char* name) {
    const obs::Snapshot::Hist* h = s.find_hist(name);
    return h != nullptr && h->count > 0 ? h->quantile(0.5) / 1e6 : 0.0;
  };
  r.handshake_ms = p50_ms("phase.handshake");
  r.infer_phase_ms =
      p50_ms(pooled ? "phase.infer_online" : "phase.infer_ondemand");
  r.ot_online_ms = p50_ms("subphase.ot_online");
  r.eval_ms = p50_ms("subphase.eval");
  const std::string stats = server.stats_json();
  r.accounted = std::atof(json_field(stats, "accounted_fraction").c_str());
  const std::string io = json_field(stats, "io");
  if (!io.empty()) r.io = io;
}

struct NetSnap {
  uint64_t copied = 0, syscalls = 0;
  static NetSnap take() {
    auto& g = obs::Registry::global();
    return {g.counter("net.bytes_copied").value(),
            g.counter("net.syscalls_send").value()};
  }
};

// One timed request; returns false (and counts a failure) on a throw or
// a timeout.
bool timed_infer(runtime::InferenceClient& client, const BitVec& in,
                 PhaseCount& pc, RunResult& r, double& ms) {
  ++pc.sent;
  Stopwatch sw;
  BitVec out;
  try {
    out = client.infer_bits(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: request failed: %s\n", e.what());
    ++pc.failed;
    return false;
  }
  ms = sw.millis();
  if (ms > kRequestTimeoutS * 1e3) {
    ++pc.failed;
    return false;
  }
  ++pc.ok;
  r.answers.push_back({in, std::move(out)});
  return true;
}

struct Endpoints {
  std::unique_ptr<runtime::InferenceServer> server;
  std::unique_ptr<runtime::InferenceClient> client;
};

// One cold start: server construct (compile + schedule) -> client
// construct (compile + handshake) -> first answer (base OT + on-demand
// request). Records setup_s, connect_ms and first_ms into `r`.
Endpoints cold_start(const Args& a, const Model& m, bool pooled,
                     uint64_t session, Rng& rng, SpanLog& log, RunResult& r) {
  Endpoints e;
  const uint64_t req = log.next_req();
  ScopedSpan setup(log, "setup", 0, req);
  Stopwatch cold;
  {
    ScopedSpan s(log, "server.construct", setup.id(), req);
    e.server = std::make_unique<runtime::InferenceServer>(m.spec, m.weights,
                                                          server_config());
    e.server->start();
  }
  {
    ScopedSpan s(log, "client.construct", setup.id(), req);
    Stopwatch sw;
    e.client = std::make_unique<runtime::InferenceClient>(
        "127.0.0.1", e.server->port(), m.spec,
        client_config(a.seed, session, pooled));
    r.connect_ms.push_back(sw.millis());
  }
  ScopedSpan s(log, "infer.first", setup.id(), req);
  double ms = 0;
  if (timed_infer(*e.client, make_input(rng, m), r.setup, r, ms)) {
    r.setup_s.push_back(cold.seconds());
    r.first_ms.push_back(ms);
  }
  return e;
}

// b3c-ondemand and b3c-pooled: one cold start, then one closed-loop
// session for --seconds.
RunResult run_session(const Args& a, const Model& m, bool pooled,
                      SpanLog& log) {
  RunResult r;
  Rng rng(a.seed * 0xD1B54A32D192ED03ull + 7);
  auto [server, client] = cold_start(a, m, pooled, 0, rng, log, r);
  if (r.setup.failed > 0) throw std::runtime_error("cold start failed");

  const NetSnap net0 = NetSnap::take();
  const size_t answers0 = r.answers.size();
  Stopwatch run;
  // One steady request; false once the session is unusable.
  auto request = [&]() {
    const BitVec in = make_input(rng, m);
    const uint64_t span = log.begin("request", 0, log.next_req());
    const uint64_t pooled_before = client->pooled_inferences();
    double ms = 0;
    const bool ok = timed_infer(*client, in, r.steady, r, ms);
    log.end(span);
    if (!ok) return false;
    if (pooled) {
      ++r.online;
      if (client->pooled_inferences() == pooled_before) {
        // Fell back to on-demand: not the online request this workload
        // measures, so it counts as failed and stays out of the latency.
        ++r.steady.failed;
        --r.steady.ok;
        return true;
      }
      ++r.online_pooled;
    }
    if (r.replay_target.in.empty()) r.replay_target = r.answers.back();
    r.steady_ms.push_back(ms);
    return true;
  };

  bool alive = true;
  while (alive && run.seconds() < a.seconds) {
    if (pooled) {
      ScopedSpan off(log, "offline", 0, log.next_req());
      Stopwatch sw;
      if (client->prefetch(kPoolRound) < kPoolRound)
        throw std::runtime_error("prefetch fell short of the round");
      // Let the pool's background refill finish so no garbling runs
      // while the online requests are timed.
      while (client->pool_ready() < kPoolRound) {
        if (sw.seconds() > 120.0)
          throw std::runtime_error("pool refill stalled");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      r.offline_s += sw.seconds();
    }
    for (size_t j = 0; j < (pooled ? kPoolRound : 1) && alive; ++j)
      alive = request();
  }
  r.steady_wall_s = run.seconds();
  r.steady_done = r.steady_ms.size();
  const NetSnap net1 = NetSnap::take();
  r.bytes_copied = net1.copied - net0.copied;
  r.syscalls_send = net1.syscalls - net0.syscalls;
  r.net_infers = r.answers.size() - answers0;

  try {
    client->close();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: close failed: %s\n", e.what());
  }
  client.reset();
  server->stop();
  read_server(*server, pooled, r);
  server.reset();
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

// toy-churn: kChurnSetups cold starts (setup_s is their median), then
// kChurnThreads closed-loop threads, each looping construct ->
// kChurnInferences requests -> close against one server for --seconds.
RunResult run_churn(const Args& a, const Model& m, SpanLog& log) {
  RunResult r;
  Rng rng(a.seed * 0xD1B54A32D192ED03ull + 7);
  for (size_t i = 0; i < kChurnSetups; ++i) {
    Endpoints e = cold_start(a, m, false, 1000 + i, rng, log, r);
    e.client->close();
    e.server->stop();
  }

  runtime::InferenceServer server(m.spec, m.weights, server_config());
  server.start();
  // Early sessions run slower (allocator and cache warm-up), so the
  // first part of the run is excluded from every steady-state number.
  const double warmup_s = std::min(2.0, 0.2 * a.seconds);
  std::mutex mu;  // guards r's vectors and counters below
  std::atomic<uint64_t> session_ids{0};
  const NetSnap net0 = NetSnap::take();
  Stopwatch run;
  auto worker = [&](size_t t) {
    Rng trng(a.seed * 0x9E3779B97F4A7C15ull + 101 + t);
    RunResult local;
    std::vector<double> done_at;  // completion times of inferences
    while (run.seconds() < a.seconds) {
      const uint64_t sid = session_ids.fetch_add(1);
      const double start = run.seconds();
      const bool steady = start >= warmup_s;
      const uint64_t span = log.begin("session", 0, log.next_req());
      bool counted = false;  // a failed request already counted itself
      try {
        Stopwatch sw;
        runtime::InferenceClient client("127.0.0.1", server.port(), m.spec,
                                        client_config(a.seed, sid, false));
        for (size_t j = 0; j < kChurnInferences; ++j) {
          const BitVec in = make_input(trng, m);
          double ms = 0;
          if (!timed_infer(client, in, local.steady, local, ms)) {
            counted = true;
            throw std::runtime_error("request failed");
          }
          done_at.push_back(run.seconds());
          if (j == 0) {
            local.first_ms.push_back(ms);
          } else if (steady) {
            local.steady_ms.push_back(ms);
          }
        }
        client.close();
        if (steady) local.session_ms.push_back(sw.millis());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "servebench: session failed: %s\n", e.what());
        if (!counted) {
          ++local.steady.sent;
          ++local.steady.failed;
        }
      }
      log.end(span);
    }
    std::lock_guard<std::mutex> lock(mu);
    r.steady.sent += local.steady.sent;
    r.steady.ok += local.steady.ok;
    r.steady.failed += local.steady.failed;
    r.steady_ms.insert(r.steady_ms.end(), local.steady_ms.begin(),
                       local.steady_ms.end());
    r.first_ms.insert(r.first_ms.end(), local.first_ms.begin(),
                      local.first_ms.end());
    r.session_ms.insert(r.session_ms.end(), local.session_ms.begin(),
                        local.session_ms.end());
    for (double t : done_at)
      if (t >= warmup_s && t <= a.seconds) ++r.steady_done;
    r.net_infers += done_at.size();
    for (Answer& ans : local.answers) r.answers.push_back(std::move(ans));
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kChurnThreads; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();
  r.steady_wall_s = a.seconds - warmup_s;
  const NetSnap net1 = NetSnap::take();
  r.bytes_copied = net1.copied - net0.copied;
  r.syscalls_send = net1.syscalls - net0.syscalls;
  server.stop();
  read_server(server, false, r);
  r.peak_rss_mb = peak_rss_mb();
  if (!r.answers.empty()) r.replay_target = r.answers.front();
  return r;
}

// --- output -------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

void print_json(bool correct, uint64_t attempted, uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& a) {
  const bool pooled = a.workload == "b3c-pooled";
  const bool churn = a.workload == "toy-churn";
  SpanLog log(a.trace);
  const Model m = make_model(a.workload, a.seed);

  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
  std::fprintf(stderr,
               "\n**************************************************\n"
               "** servebench: NON-OPTIMIZED BUILD — numbers are  **\n"
               "** meaningless; build RelWithDebInfo or Release.  **\n"
               "**************************************************\n\n");
#endif

  RunResult r = churn ? run_churn(a, m, log) : run_session(a, m, pooled, log);

  // Oracle: compile the chain once more (the replay's compile doubles as
  // the oracle's in a traced run) and check every answer.
  servebench::ReplayResult rep;
  std::vector<Circuit> oracle_chain;
  if (a.trace) {
    rep = servebench::replay_inference(m.spec, m.weights, r.replay_target.in,
                                       a.seed, log);
  } else {
    oracle_chain = synth::compile_model_layers(m.spec);
  }
  const std::vector<Circuit>& chain = a.trace ? rep.chain : oracle_chain;
  bool correct = true;
  size_t mismatches = 0;
  for (const Answer& ans : r.answers)
    if (plain_eval(chain, m.weights, ans.in) != ans.out) ++mismatches;
  if (mismatches > 0) {
    correct = false;
    std::fprintf(stderr, "servebench: %zu of %zu answers differ from the "
                 "plaintext chain\n", mismatches, r.answers.size());
  }
  if (a.trace && rep.output != r.replay_target.out) {
    correct = false;
    std::fprintf(stderr, "servebench: replayed output differs from the "
                 "runtime's answer\n");
  }
  if (pooled && r.online_pooled != r.online) {
    std::fprintf(stderr, "servebench: %llu of %llu online requests missed "
                 "the pool\n",
                 static_cast<unsigned long long>(r.online - r.online_pooled),
                 static_cast<unsigned long long>(r.online));
  }

  uint64_t and_gates = 0, xor_gates = 0, table_bytes = 0;
  for (const Circuit& c : chain) {
    const CircuitStats st = c.stats();
    and_gates += st.num_and;
    xor_gates += st.num_xor;
    table_bytes += st.table_bytes();
  }

  // --- end-to-end numbers ---
  const double p50 = median(r.steady_ms);
  const Tail tail = tail_of(r.steady_ms);
  const double per_s =
      r.steady_wall_s > 0 ? double(r.steady_done) / r.steady_wall_s : 0;
  const double wire_mb =
      r.served > 0 ? double(r.wire_bytes) / 1e6 / double(r.served) : 0;

  std::printf("env: git=%s nproc=%u hash_backend=%s cpu=[%s] io=%s "
              "build=%s optimized=%s\n",
              a.git_sha.c_str(), std::thread::hardware_concurrency(),
              hash_backend().name, hash_backend_cpu_features().c_str(),
              r.io.c_str(), SERVEBENCH_BUILD_TYPE, optimized ? "yes" : "NO");
  std::printf("model: %s layers=%zu and=%llu xor=%llu table_mb=%.2f\n",
              m.spec.name.c_str(), chain.size(),
              static_cast<unsigned long long>(and_gates),
              static_cast<unsigned long long>(xor_gates),
              double(table_bytes) / 1e6);
  if (m.has_paper)
    std::printf("paper row (Table 5, benchmark 3 compact; recorded, not "
                "gated): non_xor=%.3g xor=%.3g comm_mb=%.1f exec_s=%.2f | "
                "measured: and=%.3g xor=%.3g table_mb=%.1f "
                "wire_mb_per_infer=%.1f infer_p50_s=%.3f\n",
                m.paper.num_non_xor, m.paper.num_xor, m.paper.comm_mb,
                m.paper.exec_s, double(and_gates), double(xor_gates),
                double(table_bytes) / 1e6, wire_mb, p50 / 1e3);
  std::printf("phase setup: sent=%llu succeeded=%llu failed=%llu\n",
              static_cast<unsigned long long>(r.setup.sent),
              static_cast<unsigned long long>(r.setup.ok),
              static_cast<unsigned long long>(r.setup.failed));
  std::printf("phase steady: sent=%llu succeeded=%llu failed=%llu\n",
              static_cast<unsigned long long>(r.steady.sent),
              static_cast<unsigned long long>(r.steady.ok),
              static_cast<unsigned long long>(r.steady.failed));
  std::printf("checked: %zu answers against the plaintext chain, %zu "
              "mismatches\n", r.answers.size(), mismatches);
  const uint64_t attempted = r.setup.sent + r.steady.sent;
  const uint64_t failed = r.setup.failed + r.steady.failed;
  std::printf("samples: setups=%zu steady=%zu; infer_tail_ms is p%.1f, the "
              "highest percentile with >=10 samples beyond it (floored at "
              "p50)\n",
              r.setup_s.size(), r.steady_ms.size(), tail.percentile);
  std::printf("peak_rss_mb: one process holds both parties\n");
  // Printed for every run but not part of the JSON result: each applies
  // to one workload only, or (the tail) is too noisy to bound.
  std::vector<Metric> report = {
      {"infer_tail_ms", "ms", tail.value},
      {"error_rate", "fraction",
       attempted ? double(failed) / double(attempted) : 0.0},
  };
  if (pooled) {
    report.push_back({"offline_s_per_infer", "s",
                      r.online ? r.offline_s / double(r.online) : 0.0});
    report.push_back({"pool_hit_rate", "fraction",
                      r.online ? double(r.online_pooled) / double(r.online)
                               : 0.0});
  }
  if (churn) {
    const Tail st = tail_of(r.session_ms);
    report.push_back({"session_p50_ms", "ms", median(r.session_ms)});
    report.push_back({"session_tail_ms", "ms", st.value});
    report.push_back({"sessions_per_s", "1/s",
                      per_s / double(kChurnInferences)});
    report.push_back({"first_infer_p50_ms", "ms", median(r.first_ms)});
    std::printf("sessions: %zu steady, session_tail_ms is p%.1f\n",
                r.session_ms.size(), st.percentile);
  }
  for (const Metric& mt : report)
    std::printf("report %s = %.6g %s\n", mt.name.c_str(), mt.value,
                mt.unit.c_str());

  std::vector<Metric> out;
  if (!a.trace) {
    out = {
        {"setup_s", "s", median(r.setup_s)},
        {"infer_p50_ms", "ms", p50},
        {"infer_per_s", "1/s", per_s},
        {"wire_mb_per_infer", "MB", wire_mb},
        {"peak_rss_mb", "MB", r.peak_rss_mb},
    };
  } else {
    for (const auto& [name, mv] : rep.metrics)
      out.push_back({name, mv.unit, mv.value});
    const double infers = double(std::max<uint64_t>(r.net_infers, 1));
    out.push_back({"net.bytes_copied_per_table_byte", "B/B",
                   double(r.bytes_copied) / (double(table_bytes) * infers)});
    out.push_back({"net.syscalls_send", "count",
                   double(r.syscalls_send) / infers});
    out.push_back({"runtime.connect_ms", "ms", median(r.connect_ms)});
    out.push_back({"runtime.first_infer_ms", "ms", median(r.first_ms)});
    out.push_back({"runtime.accounted_fraction", "fraction", r.accounted});
    out.push_back({"runtime.handshake_ms", "ms", r.handshake_ms});
    out.push_back({"runtime.infer_phase_ms", "ms", r.infer_phase_ms});
    out.push_back({"runtime.ot_online_ms", "ms", r.ot_online_ms});
    out.push_back({"runtime.eval_ms", "ms", r.eval_ms});
    out.push_back({"trace.infer_p50_ms", "ms", p50});
    // Not a bounded fraction: the replay times the blocking stages one
    // after another while the runtime overlaps them, so it can exceed 1.
    const double blocking_s =
        pooled ? rep.blocking_online_s : rep.blocking_ondemand_s;
    std::printf("report trace.blocking_coverage = %.6g ratio (replay's "
                "serial blocking stages %.6g s / infer_p50_ms)\n",
                p50 > 0 ? blocking_s * 1e3 / p50 : 0.0, blocking_s);

    const std::vector<servebench::Span> spans = log.spans();
    const std::vector<double> self = SpanLog::self_times(spans);
    std::map<std::string, std::pair<double, size_t>> by_name;
    for (size_t i = 0; i < spans.size(); ++i) {
      auto& e = by_name[spans[i].name];
      e.first += self[i];
      ++e.second;
    }
    std::printf("self time by span (s, summed over %zu spans):\n",
                spans.size());
    for (const auto& [name, e] : by_name)
      std::printf("  %-28s %10.6f  (%zu)\n", name.c_str(), e.first, e.second);
    if (!a.trace_out.empty() && !SpanLog::write_json(spans, a.trace_out))
      std::fprintf(stderr, "servebench: cannot write %s\n",
                   a.trace_out.c_str());
  }
  for (const Metric& mt : out)
    std::printf("metric %s = %.6g %s\n", mt.name.c_str(), mt.value,
                mt.unit.c_str());
  print_json(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
