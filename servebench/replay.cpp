#include "replay.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>

#include "circuit/schedule.h"
#include "crypto/hash_backend.h"
#include "crypto/prg.h"
#include "gc/garble.h"
#include "gc/material.h"
#include "gc/ot.h"
#include "net/tcp_channel.h"
#include "obs/metrics.h"
#include "support/stopwatch.h"

namespace servebench {

using namespace deepsecure;

namespace {

// Garbling target: collects the table stream in memory.
class ByteSink final : public Channel {
 public:
  void send_bytes(const void* data, size_t n) override {
    const auto* p = static_cast<const uint8_t*>(data);
    bytes.insert(bytes.end(), p, p + n);
  }
  void recv_bytes(void*, size_t) override {
    throw std::logic_error("replay: garbling cannot receive");
  }
  uint64_t bytes_sent() const override { return bytes.size(); }
  uint64_t bytes_received() const override { return 0; }
  void reset_counters() override {}

  std::vector<uint8_t> bytes;
};

// Evaluation source: replays the received table stream.
class ByteSource final : public Channel {
 public:
  explicit ByteSource(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}
  void send_bytes(const void*, size_t) override {
    throw std::logic_error("replay: evaluation cannot send");
  }
  void recv_bytes(void* data, size_t n) override {
    if (pos_ + n > bytes_.size())
      throw std::runtime_error("replay: table stream exhausted");
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

template <class F>
double timed(SpanLog& log, const std::string& name, uint64_t parent,
             uint64_t req, F&& f) {
  ScopedSpan span(log, name, parent, req);
  Stopwatch sw;
  f();
  return sw.seconds();
}

std::string layer_name(const char* stage, size_t k) {
  return std::string(stage) + ".L" + std::to_string(k);
}

// Blocks hashed per second by the selected backend's gc_hash_batch on a
// window-sized batch: the ceiling beside gc.garble_and_per_s. Median of
// five 50 ms sweeps.
double hash_blocks_per_s() {
  constexpr size_t kN = kGcMaxBatchWindow * 4;
  std::vector<Block> in(kN), out(kN);
  std::vector<uint64_t> tweaks(kN);
  Prg prg(Block{7, 11});
  prg.next_blocks(in.data(), kN);
  for (size_t i = 0; i < kN; ++i) tweaks[i] = i;
  const HashBackend& be = hash_backend();
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    uint64_t blocks = 0;
    Stopwatch sw;
    while (sw.seconds() < 0.05) {
      gc_hash_batch(be, in.data(), tweaks.data(), out.data(), kN);
      in[0] ^= out[kN - 1];  // keep each sweep dependent on the last
      blocks += kN;
    }
    rates.push_back(double(blocks) / sw.seconds());
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

}  // namespace

ReplayResult replay_inference(const synth::ModelSpec& spec,
                              const BitVec& weights, const BitVec& data_bits,
                              uint64_t seed, SpanLog& log) {
  ReplayResult r;
  auto& m = r.metrics;
  const uint64_t req = log.next_req();
  ScopedSpan root(log, "replay", 0, req);

  const double compile_s = timed(log, "synth.compile", root.id(), req, [&] {
    r.chain = synth::compile_model_layers(spec);
  });
  m["synth.compile_s"] = {compile_s, "s"};
  const std::vector<Circuit>& chain = r.chain;
  const size_t layers = chain.size();

  uint64_t and_gates = 0, xor_gates = 0, table_bytes = 0, windows = 0,
           flush_points = 0;
  size_t max_wires = 0, eval_inputs = 0;
  {
    ScopedSpan sched(log, "circuit.schedule", root.id(), req);
    double sched_s = 0;
    for (size_t k = 0; k < layers; ++k) {
      const Circuit& c = chain[k];
      std::shared_ptr<const Circuit> walked;
      sched_s += timed(log, layer_name("circuit.schedule", k), sched.id(),
                       req, [&] { walked = c.gc_scheduled(); });
      const WindowStats ws = window_stats(
          gc_schedule_default() ? *walked : c, kGcMaxBatchWindow);
      windows += ws.windows;
      flush_points += ws.flush_points;
      const CircuitStats st = c.stats();
      and_gates += st.num_and;
      xor_gates += st.num_xor;
      table_bytes += st.table_bytes();
      max_wires = std::max<size_t>(max_wires, c.num_wires);
      eval_inputs += c.evaluator_inputs.size();
    }
    m["circuit.schedule_s"] = {sched_s, "s"};
  }
  if (weights.size() != eval_inputs)
    throw std::invalid_argument("replay: weight bit count mismatch");
  m["synth.and_gates"] = {double(and_gates), "count"};
  m["synth.xor_gates"] = {double(xor_gates), "count"};
  m["circuit.window_mean_and"] = {
      windows > 0 ? double(and_gates) / double(windows) : 0.0, "count"};
  m["circuit.flush_points"] = {double(flush_points), "count"};
  m["gc.table_bytes"] = {double(table_bytes), "bytes"};
  // Computed, not measured: each party holds one 16-byte label per wire
  // of the widest layer.
  m["gc.label_mb_peak"] = {double(max_wires) * 16.0 / 1e6, "MB"};

  {
    ScopedSpan h(log, "crypto.hash", root.id(), req);
    m["crypto.hash_blocks_per_s"] = {hash_blocks_per_s(), "1/s"};
  }

  // --- the two parties over TCP loopback ------------------------------
  TcpListener listener(0);
  std::optional<TcpChannel> g_ch, e_ch;
  std::exception_ptr g_err, e_err;
  std::vector<double> garble_s(layers), eval_s(layers);
  double base_s = 0, transfer_s = 0, labels_s = 0, ext_s = 0, pre_s = 0,
         derand_s = 0;
  const size_t n_data = chain.front().garbler_inputs.size();
  if (data_bits.size() != n_data)
    throw std::invalid_argument("replay: data bit count mismatch");

  std::thread evaluator([&] {
    try {
      e_ch.emplace(listener.accept());
      TcpChannel& ch = *e_ch;
      ScopedSpan party(log, "evaluator", root.id(), req);
      Prg prg(Block{seed, 0xE});
      OtExtReceiver ot(ch);
      base_s = timed(log, "ot.base", party.id(), req, [&] { ot.setup(prg); });
      (void)ch.recv_u64();  // the garbler finished garbling
      EvalMaterial mat;
      transfer_s = timed(log, "net.transfer", party.id(), req,
                         [&] { mat = recv_material(ch); });
      Labels g_labels(n_data);
      labels_s = timed(log, "net.labels", party.id(), req,
                       [&] { ch.recv_blocks(g_labels.data(), n_data); });
      Labels e_labels;
      ext_s = timed(log, "ot.ext", party.id(), req,
                    [&] { e_labels = ot.recv(weights); });
      OtPrecompReceiver pre;
      pre_s = timed(log, "ot.precompute", party.id(), req,
                    [&] { pre = ot.precompute(weights.size(), prg); });
      Labels derand;
      derand_s = timed(log, "ot.derandomize", party.id(), req,
                       [&] { derand = ot.recv_derandomized(pre, weights); });
      if (derand != e_labels)
        throw std::runtime_error(
            "replay: derandomized OT labels differ from OT extension");

      ScopedSpan eval(log, "gc.eval", party.id(), req);
      ByteSource source(mat.tables);
      Evaluator ev(source, GcOptions{});
      Labels carried;
      size_t consumed = 0;
      for (size_t k = 0; k < layers; ++k) {
        const Circuit& c = chain[k];
        const size_t n_e = c.evaluator_inputs.size();
        const Labels e_k(e_labels.begin() + static_cast<ptrdiff_t>(consumed),
                         e_labels.begin() +
                             static_cast<ptrdiff_t>(consumed + n_e));
        consumed += n_e;
        const Labels& g_k = k == 0 ? g_labels : carried;
        eval_s[k] = timed(log, layer_name("gc.eval", k), eval.id(), req, [&] {
          carried = ev.evaluate(c, g_k, e_k, {});
        });
      }
      if (source.consumed() != mat.tables.size() ||
          carried.size() != mat.decode_bits.size())
        throw std::runtime_error("replay: table stream size mismatch");
      r.output.resize(carried.size());
      for (size_t i = 0; i < carried.size(); ++i)
        r.output[i] = (carried[i].lsb() ? 1u : 0u) ^ mat.decode_bits[i];
    } catch (...) {
      e_err = std::current_exception();
      if (e_ch) e_ch->shutdown();
    }
  });

  std::thread garbler([&] {
    try {
      g_ch.emplace(TcpChannel::connect("127.0.0.1", listener.port()));
      TcpChannel& ch = *g_ch;
      ScopedSpan party(log, "garbler", root.id(), req);
      Prg prg(Block{seed, 0x6});
      OtExtSender ot(ch);
      (void)timed(log, "ot.base", party.id(), req, [&] { ot.setup(prg); });

      ByteSink sink;
      Garbler gb(sink, Block{seed, 0x6B}, GcOptions{});
      GarbledMaterial mat;
      mat.delta = gb.delta();
      {
        ScopedSpan garble(log, "gc.garble", party.id(), req);
        Labels carried;
        for (size_t k = 0; k < layers; ++k) {
          const Circuit& c = chain[k];
          Labels g_zeros =
              k == 0 ? gb.fresh_zeros(c.garbler_inputs.size()) : carried;
          if (k == 0) mat.data_zeros = g_zeros;
          const Labels e_zeros = gb.fresh_zeros(c.evaluator_inputs.size());
          mat.eval_zeros.insert(mat.eval_zeros.end(), e_zeros.begin(),
                                e_zeros.end());
          garble_s[k] = timed(log, layer_name("gc.garble", k), garble.id(),
                              req, [&] {
                                carried = gb.garble(c, g_zeros, e_zeros, {});
                              });
        }
        mat.decode_bits.resize(carried.size());
        for (size_t i = 0; i < carried.size(); ++i)
          mat.decode_bits[i] = carried[i].lsb() ? 1u : 0u;
        mat.tables = std::move(sink.bytes);
      }
      ch.send_u64(1);
      (void)timed(log, "net.transfer", party.id(), req,
                  [&] { send_material(ch, mat); });
      Labels active(n_data);
      for (size_t i = 0; i < n_data; ++i)
        active[i] = data_bits[i] ? mat.data_zeros[i] ^ mat.delta
                                 : mat.data_zeros[i];
      (void)timed(log, "net.labels", party.id(), req,
                  [&] { ch.send_blocks(active.data(), n_data); });
      (void)timed(log, "ot.ext", party.id(), req,
                  [&] { ot.send_correlated(mat.eval_zeros, mat.delta); });
      OtPrecompSender pre;
      (void)timed(log, "ot.precompute", party.id(), req,
                  [&] { pre = ot.precompute(mat.eval_zeros.size()); });
      (void)timed(log, "ot.derandomize", party.id(), req, [&] {
        ot.send_correlated_derandomized(pre, mat.eval_zeros, mat.delta);
      });
    } catch (...) {
      g_err = std::current_exception();
      if (g_ch) g_ch->shutdown();
      else listener.close();  // unblocks the evaluator's accept
    }
  });
  garbler.join();
  evaluator.join();
  if (g_err) std::rethrow_exception(g_err);
  if (e_err) std::rethrow_exception(e_err);

  double garble_total = 0, eval_total = 0;
  for (size_t k = 0; k < layers; ++k) {
    m[layer_name("gc.garble_s", k)] = {garble_s[k], "s"};
    m[layer_name("gc.eval_s", k)] = {eval_s[k], "s"};
    garble_total += garble_s[k];
    eval_total += eval_s[k];
  }
  m["gc.garble_s"] = {garble_total, "s"};
  m["gc.eval_s"] = {eval_total, "s"};
  m["gc.garble_and_per_s"] = {double(and_gates) / garble_total, "1/s"};
  m["gc.eval_and_per_s"] = {double(and_gates) / eval_total, "1/s"};
  m["ot.base_s"] = {base_s, "s"};
  m["ot.ext_s"] = {ext_s, "s"};
  m["ot.ext_per_s"] = {double(weights.size()) / ext_s, "1/s"};
  m["ot.precompute_s"] = {pre_s, "s"};
  m["ot.derandomize_s"] = {derand_s, "s"};
  m["net.transfer_s"] = {transfer_s, "s"};
  m["net.transfer_mb_per_s"] = {double(table_bytes) / 1e6 / transfer_s,
                                "MB/s"};
  r.blocking_ondemand_s =
      garble_total + transfer_s + labels_s + ext_s + eval_total;
  r.blocking_online_s = labels_s + eval_total;
  return r;
}

}  // namespace servebench
