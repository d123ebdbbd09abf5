// DeepSecure public API — the end-to-end framework of Figure 2/3.
//
// Typical flow for a downstream user:
//
//   nn::Network model = ...train on private data...;            // server
//   auto outcome = preprocess_pipeline(...);                    // optional
//   SecureInferenceResult r = secure_infer(model, sample);      // client+server
//   r.label  -> the private inference result
//
// secure_infer runs both roles in-process over the in-memory channel
// (one thread per party) with the real protocol stack: label transfer,
// base OT + IKNP extension for the server's weights, free-XOR/half-gates
// garbling, label-carried layer chaining, output decoding at the client.
#pragma once

#include "baseline/cryptonets.h"
#include "cost/cost_model.h"
#include "gc/outsourcing.h"
#include "gc/protocol.h"
#include "nn/quantize.h"
#include "preprocess/projection.h"
#include "preprocess/pruning.h"
#include "synth/layer_circuits.h"

namespace deepsecure {

struct SecureInferenceOptions {
  FixedFormat fmt = kDefaultFormat;
  /// Circuit realization of Tanh/Sigmoid layers (paper uses CORDIC in
  /// Section 4.5; swap for LUT/Seg/PL to trade speed vs accuracy).
  synth::ActKind tanh_variant = synth::ActKind::kTanhCORDIC;
  synth::ActKind sigmoid_variant = synth::ActKind::kSigmoidCORDIC;
  /// Chain per-layer netlists (memory ~ largest layer) instead of one
  /// monolithic netlist.
  bool per_layer = true;
  /// Label-PRG seed; zero draws from OS entropy.
  Block seed{};
};

struct SecureInferenceResult {
  size_t label = 0;
  uint64_t client_to_server_bytes = 0;
  uint64_t server_to_client_bytes = 0;
  uint64_t table_bytes = 0;  // garbled-table rows, CircuitStats::table_bytes
  double wall_seconds = 0.0;
  SessionTrace garbler_trace;
  SessionTrace evaluator_trace;
  synth::GateCount gates;
};

/// Translate a trained float network into a circuit model spec
/// (activations mapped per options; Softmax realized as argmax).
synth::ModelSpec model_spec_from_network(const nn::Network& net,
                                         const SecureInferenceOptions& opt,
                                         const std::string& name = "model");

/// Client-side sample encoding: fixed-point bits in garbler-input order.
BitVec sample_bits(const nn::VecF& sample, FixedFormat fmt);

/// Server-side parameter encoding: fixed-point bits in evaluator-input
/// order (must match model_spec_from_network's traversal).
BitVec weight_bits(const nn::Network& net, FixedFormat fmt);

/// Run the full two-party protocol in-process; client = garbler (owns
/// `sample`), server = evaluator (owns `model`).
SecureInferenceResult secure_infer(const nn::Network& model,
                                   const nn::VecF& sample,
                                   const SecureInferenceOptions& opt = {});

/// Secure outsourcing mode (Section 3.3): the client only XOR-shares its
/// input; the proxy (garbler) and main server (evaluator) run the GC
/// protocol on the share-reconstructing circuit.
SecureInferenceResult secure_infer_outsourced(
    const nn::Network& model, const nn::VecF& sample,
    const SecureInferenceOptions& opt = {});

// ----------------------------------------------------------------------
// Off-line pre-processing pipeline (Figure 2, step 1).

struct PreprocessConfig {
  bool enable_projection = true;
  bool enable_pruning = true;
  preprocess::ProjectionConfig projection;
  preprocess::PruneConfig prune;
  nn::TrainConfig retrain;  // used for the post-projection retraining
  size_t hidden = 32;       // condensed model hidden width
};

struct PreprocessOutcome {
  preprocess::ProjectionResult projection;
  preprocess::PruneReport prune;
  nn::Network model;        // condensed, retrained network
  float baseline_accuracy = 0.0f;   // original model on test split
  float condensed_accuracy = 0.0f;  // condensed model on test split
  cost::NetworkCost cost_before;
  cost::NetworkCost cost_after;

  PreprocessOutcome() : model(nn::Shape{1, 1, 1}) {}
};

/// Builds a base FC model (hidden width cfg.hidden, given activation),
/// trains it, then applies projection (input-dimension reduction with
/// retraining on the embedding) and pruning (+ retraining), returning
/// the condensed model plus accuracy/cost bookkeeping.
PreprocessOutcome preprocess_pipeline(const nn::Dataset& train,
                                      const nn::Dataset& test,
                                      nn::Act activation,
                                      const PreprocessConfig& cfg,
                                      const SecureInferenceOptions& opt = {});

}  // namespace deepsecure
