// Per-layer replay of one secure inference through the program's public
// layer functions, each call wrapped in a span of the benchmark's own:
//
//   synth    compile_model_layers
//   circuit  the gate schedule and its batch windows (kGcMaxBatchWindow)
//   crypto   gc_hash_batch on the selected backend (the AES ceiling)
//   gc       Garbler::garble / Evaluator::evaluate, per model layer
//   ot       base OT, IKNP extension, precompute + derandomize
//   net      send_material / recv_material over a loopback TcpChannel
//
// The garbler (client) and evaluator (server) run on two threads joined
// by a TCP loopback connection, exactly the roles the runtime gives them.
// Garbling writes into memory and the tables then cross the socket in
// one transfer, so garble, transfer and evaluate are timed apart instead
// of overlapping as they do in the streaming runtime.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "spans.h"
#include "synth/layer_circuits.h"

namespace servebench {

struct MetricValue {
  double value = 0;
  std::string unit;
};

struct ReplayResult {
  /// The chain the replay compiled; it is also the plaintext oracle.
  std::vector<deepsecure::Circuit> chain;
  /// Output bits as the evaluator decoded them.
  deepsecure::BitVec output;
  /// Per-layer metrics by name (the per_layer names of BENCHMARK.json).
  std::map<std::string, MetricValue> metrics;
  /// Seconds of the stages that block an on-demand request (garble,
  /// table transfer, garbler-label transfer, OT extension, evaluate) and
  /// an online request against stored material (label transfer,
  /// evaluate).
  double blocking_ondemand_s = 0;
  double blocking_online_s = 0;
};

ReplayResult replay_inference(const deepsecure::synth::ModelSpec& spec,
                              const deepsecure::BitVec& weights,
                              const deepsecure::BitVec& data_bits,
                              uint64_t seed, SpanLog& log);

}  // namespace servebench
