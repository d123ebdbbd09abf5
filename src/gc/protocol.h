// Two-party GC session driver — the paper's core structure (Figure 3):
//
//   client (Alice) = garbler, owns the data sample
//   server (Bob)   = evaluator, owns the DL model parameters
//
//   (1) Alice garbles the netlist          (4) Bob returns output labels
//   (2) label transfer + OT                (5) Alice decodes ("merges")
//   (3) Bob evaluates
//
// Supports three execution shapes:
//   * single circuit (combinational)
//   * chained circuits (per-layer netlists; activations carried as
//     labels between layers — never revealed)
//   * sequential circuits (folded step circuit run for many cycles,
//     Section 3.5; state carried as labels between cycles)
//
// Two execution modes per shape-compatible chain:
//   * on-demand (run_chain / run_sequential): garbling, label transfer
//     and evaluation all happen on the request path — the PR 2
//     streaming pipeline.
//   * offline/online split: garble_offline (gc/material.h) produces a
//     GarbledMaterial ahead of time; precompute_ot + the derandomized
//     label transfer move the OTs offline as well; the *_online methods
//     then run the request-path remainder, which is just active-label
//     transfer plus evaluation. begin_online/finish_online expose the
//     send and receive halves separately so a client can queue several
//     online inferences back-to-back (cross-request pipelining).
//
// Phase timings of the latest run are recorded per step for the Figure 5
// reproduction.
#pragma once

#include <vector>

#include "gc/garble.h"
#include "gc/material.h"
#include "gc/ot.h"
#include "support/stopwatch.h"

namespace deepsecure {

struct PhaseSample {
  size_t step = 0;        // layer or clock-cycle index
  double garble_s = 0.0;  // garbler-side garbling time
  double ot_s = 0.0;      // label transfer / OT time (either side)
  double eval_s = 0.0;    // evaluator-side evaluation time
};

/// Phase timings of the session's LATEST run (run_chain, run_sequential,
/// run_online or begin_online): each run clears `phases` on entry and
/// assigns `total_s`, so a long-lived session's trace stays bounded.
struct SessionTrace {
  std::vector<PhaseSample> phases;
  double total_s = 0.0;
  double setup_s = 0.0;  // base-OT + extension setup (once per session)

  double sum_garble() const {
    double t = 0;
    for (const auto& p : phases) t += p.garble_s;
    return t;
  }
  double sum_eval() const {
    double t = 0;
    for (const auto& p : phases) t += p.eval_s;
    return t;
  }
  double sum_ot() const {
    double t = 0;
    for (const auto& p : phases) t += p.ot_s;
    return t;
  }
};

/// Client-side session (garbler).
class GarblerSession {
 public:
  /// `seed` feeds the label PRG (use Prg::from_os_entropy().next_block()
  /// outside tests). `opt` selects pipeline, table framing, and the
  /// garbling shard pool (see GcOptions); framing must match the peer.
  GarblerSession(Channel& ch, Block seed, const GcOptions& opt = {});

  /// Run a chain of circuits. `data_bits` feed circuit 0's garbler
  /// inputs; circuit k>0 garbler inputs are bound to circuit k-1 outputs.
  /// Every circuit's evaluator inputs are transferred via OT extension.
  /// Returns the decoded output bits of the final circuit.
  BitVec run_chain(const std::vector<Circuit>& chain, const BitVec& data_bits);

  /// Run a folded circuit for `cycles` cycles. Garbler inputs are fed
  /// per cycle from consecutive slices of `data_bits`; state is carried.
  BitVec run_sequential(const Circuit& step, size_t cycles,
                        const BitVec& data_bits);

  // --- offline/online split -------------------------------------------
  /// Offline: precompute `m` random OTs (interactive but
  /// input-independent; runs the base-OT setup first if needed).
  OtPrecompSender precompute_ot(size_t m);

  /// Offline: derandomized label transfer for the peer's static choice
  /// bits — receives one correction message, answers with the masked
  /// label pairs. `zeros`/`delta` come from the GarbledMaterial whose
  /// evaluator inputs are being resolved.
  void send_labels_derandomized(const OtPrecompSender& pre,
                                const Labels& zeros, Block delta);

  /// Online, send half: ship the active labels for `data_bits` against
  /// a material's circuit-0 garbler-input zero labels. Returns
  /// immediately after the send — pair with finish_online. Several
  /// begin_online calls may be in flight before the first
  /// finish_online (cross-request pipelining), as long as the calls
  /// are matched FIFO.
  void begin_online(Block delta, const Labels& data_zeros,
                    const BitVec& data_bits);

  /// Online, receive half: the decoded output bits of the oldest
  /// in-flight online inference (the evaluator decodes locally with the
  /// material's decode bits and shares the plaintext back).
  BitVec finish_online();

  /// One full online inference against `mat`: begin + finish.
  BitVec run_online(const GarbledMaterial& mat, const BitVec& data_bits);

  const SessionTrace& trace() const { return trace_; }

 private:
  void ensure_ot();

  Channel& ch_;
  Garbler garbler_;
  OtExtSender ot_;
  Prg prg_;
  bool ot_ready_ = false;
  size_t online_in_flight_ = 0;  // begin_online calls awaiting finish
  SessionTrace trace_;
};

/// Server-side session (evaluator).
class EvaluatorSession {
 public:
  explicit EvaluatorSession(Channel& ch, const GcOptions& opt = {});

  /// Counterpart of run_chain: `weight_bits` are consumed circuit by
  /// circuit in declaration order of each circuit's evaluator inputs.
  /// Returns the output bits as decoded by the garbler (sent back so
  /// both parties can report the inference result, as in the paper's
  /// optional final share step).
  BitVec run_chain(const std::vector<Circuit>& chain,
                   const BitVec& weight_bits);

  BitVec run_sequential(const Circuit& step, size_t cycles,
                        const BitVec& weight_bits);

  // --- offline/online split -------------------------------------------
  /// Offline: precompute `m` random OTs with random choice bits.
  OtPrecompReceiver precompute_ot(size_t m);

  /// Offline: resolve the active labels for `choices` (the evaluator's
  /// static input bits) from a precomputed batch — sends one correction
  /// message, receives the masked pairs.
  Labels recv_labels_derandomized(const OtPrecompReceiver& pre,
                                  const BitVec& choices);

  /// Online: one inference against locally-stored material — receive
  /// the active circuit-0 garbler labels, evaluate the chain from the
  /// artifact's tables, decode with its decode bits, and share the
  /// plaintext result back. Returns the decoded output bits.
  BitVec run_online(const std::vector<Circuit>& chain,
                    const EvalMaterial& mat);

  const SessionTrace& trace() const { return trace_; }
  /// True once this session's base-OT setup has run (trace().setup_s
  /// holds its time from then on).
  bool ot_ready() const { return ot_ready_; }

 private:
  void ensure_ot();

  Channel& ch_;
  Evaluator evaluator_;
  OtExtReceiver ot_;
  Prg prg_;
  GcOptions opt_;
  bool ot_ready_ = false;
  SessionTrace trace_;
};

}  // namespace deepsecure
