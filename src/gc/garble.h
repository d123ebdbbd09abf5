// Garbling engine: free-XOR (Kolesnikov-Schneider), half-gates
// (Zahur-Rosulek-Evans), point-and-permute, and fixed-key AES hashing
// (Bellare et al.) — the optimization stack from Section 2.3 of the
// paper. Row-reduction is subsumed by half-gates.
//
// Labels are 128-bit blocks; the wire's "zero" label W0 encodes FALSE,
// W1 = W0 ^ delta encodes TRUE, lsb(delta) = 1 (permute bit).
//
// AND gates come in two kinds (AndKind, circuit/circuit.h), fixed by
// the walked circuit's plan so both parties agree:
//   * two-row: a standard half-gate, a garbler half (row tg) and an
//     evaluator half (row te) — 2 ciphertexts, 4 garbler hashes and 2
//     evaluator hashes.
//   * one-row: operand b is an evaluator input (the server's weight
//     bits), whose permute bit r = lsb(W_b^0) the evaluator learns. The
//     garbler half, a AND r, is then the free term r·W_a, so only the
//     row te travels — 1 ciphertext, 2 garbler hashes, 1 evaluator hash.
// Each garble() streams the two constant labels, then the evaluator
// inputs' permute bits (bit i of the packed blocks is input i's r, see
// gc_permute_blocks), then the table rows in gate order.
#pragma once

#include <vector>

#include "circuit/circuit.h"
#include "circuit/schedule.h"
#include "crypto/prg.h"
#include "net/channel.h"

namespace deepsecure {

class BlockWriter;
class BlockReader;
class ThreadPool;
struct HashBackend;

/// Wire labels, indexed like the corresponding input/output vectors.
/// Inside a garbling or evaluation, the label array is indexed by the
/// walked circuit's wires: label slots under GcOptions::schedule.
using Labels = std::vector<Block>;

/// Hashing pipeline selection. kBatched accumulates AND gates into a
/// window and hashes it through the pipelined AES batch kernel; kScalar
/// is the retained per-gate reference path. Tweaks are assigned at
/// enqueue time and tables are emitted in gate order, so both pipelines
/// produce byte-identical garbled tables for the same seed.
enum class GcPipeline : uint8_t { kBatched, kScalar };

/// Max AND gates per batch window. Bounds scratch memory (the garbler
/// hashes up to 4 blocks per gate) while amortizing the AES pipeline
/// fill.
/// The scheduler fills levels to the same width.
inline constexpr size_t kGcMaxBatchWindow = kScheduleWindow;

/// Default for GcOptions::schedule / StreamConfig::schedule: true
/// unless the DEEPSECURE_NO_SCHEDULE environment variable is set to a
/// non-empty value other than "0" — the escape hatch CI uses to run the
/// whole suite on the unscheduled oracle path. Read once per process.
bool gc_schedule_default();

/// Blocks carrying `n_eval` evaluator-input permute bits: 128 per
/// block, bit i at bit i % 64 of the lo (i % 128 < 64) or hi word of
/// block i / 128 (gc_permute_word).
inline size_t gc_permute_blocks(size_t n_eval) { return (n_eval + 127) / 128; }

/// The word of packed permute-bit blocks that holds bit i % 64 for
/// evaluator input i.
inline uint64_t& gc_permute_word(Block* blocks, size_t i) {
  return (i & 64) ? blocks[i / 128].hi : blocks[i / 128].lo;
}

/// Bytes one monolithic Garbler::garble of `c` sends: the two constant
/// labels, the permute-bit blocks and the table rows. Equal under
/// either walk order.
uint64_t gc_stream_bytes(const Circuit& c);

/// Execution options for one GC endpoint. Both parties must agree on
/// `framed_tables` and `schedule` (they change the wire format/stream
/// order); `pipeline` and `pool` are local choices that never affect
/// the byte stream.
struct GcOptions {
  GcPipeline pipeline = GcPipeline::kBatched;
  /// Walk the scheduled view (circuit/schedule.h, cached on the
  /// Circuit) instead of construction order: the width-scheduled gate
  /// order on recycled label slots, so the label array is sized by the
  /// peak number of live labels, not by the wire count. Reorders the
  /// garbled tables and tweak sequence identically on both sides, so the
  /// peer must agree; the runtime handshake's chain fingerprint covers
  /// the scheduled view, catching any mismatch at session setup. Off =
  /// the retained construction-order correctness oracle, on wire ids.
  bool schedule = gc_schedule_default();
  /// Length-prefixed table frames aligned to batch windows (see
  /// block_io.h) — the streaming runtime's wire format. The framed
  /// payload is byte-identical to the monolithic stream.
  bool framed_tables = false;
  /// Shard pool for either endpoint: each batch window is split into
  /// contiguous per-thread shards (independent sub-windows), hashed
  /// concurrently, and emitted/consumed in gate order. Tweaks are
  /// assigned and table rows moved at enqueue time on the walking
  /// thread, so sharding is byte-identical to single-threaded execution
  /// on both sides. nullptr = single-threaded. Not owned.
  ThreadPool* pool = nullptr;
  /// Windows smaller than this are not worth sharding (pool dispatch
  /// overhead exceeds the hash work).
  size_t min_shard_gates = 128;
  /// Batch AES kernel for this endpoint's window sweeps. nullptr = the
  /// process-wide selection (crypto/hash_backend.h: env override, then
  /// CPUID auto-dispatch). Every backend produces byte-identical
  /// tables, so this is a local throughput knob like `pipeline`. Not
  /// owned; must outlive the endpoint (registry entries are static).
  const HashBackend* hash_backend = nullptr;
};

class Garbler {
 public:
  /// `seed` drives all label sampling (pass entropy for real use,
  /// a constant for reproducible tests).
  Garbler(Channel& ch, Block seed, GcPipeline pipeline = GcPipeline::kBatched);
  Garbler(Channel& ch, Block seed, const GcOptions& opt);

  Block delta() const { return delta_; }

  /// Fresh zero-labels for `n` wires.
  Labels fresh_zeros(size_t n);

  /// Garble `c`, streaming constant labels and garbled tables to the
  /// channel. Zero-labels for every input class must be supplied
  /// (fresh_zeros for new inputs, carried values for chained layers).
  /// Returns output zero-labels; `state_next` (if non-null) receives the
  /// zero-labels of the state_next wires for the next cycle.
  Labels garble(const Circuit& c, const Labels& garbler_zeros,
                const Labels& evaluator_zeros, const Labels& state_zeros,
                Labels* state_next = nullptr);

  /// Transfer the active labels for the garbler's own input bits.
  void send_active(const BitVec& bits, const Labels& zeros);

  /// Receive output labels from the evaluator and decode (paper step 4:
  /// "merging results" on the client).
  BitVec decode_outputs(const Labels& output_zeros);

  /// Alternative decode direction: send lsb decode bits so the evaluator
  /// can open the outputs itself.
  void send_decode_info(const Labels& output_zeros);

  /// AND gates garbled so far, either kind (each takes two tweaks).
  uint64_t gates_garbled() const { return tweak_ / 2; }

 private:
  void garble_gates_scalar(const Circuit& c, Labels& w, BlockWriter& tables);
  void garble_gates_batched(const Circuit& c, Labels& w, BlockWriter& tables);

  Channel& ch_;
  Prg prg_;
  Block delta_;
  GcOptions opt_;
  uint64_t tweak_ = 0;
};

class Evaluator {
 public:
  explicit Evaluator(Channel& ch, GcPipeline pipeline = GcPipeline::kBatched)
      : ch_(ch), opt_{.pipeline = pipeline} {}
  Evaluator(Channel& ch, const GcOptions& opt) : ch_(ch), opt_(opt) {}

  /// Evaluate `c` with active labels for all inputs, consuming the
  /// garbled tables from the channel. Returns active output labels.
  Labels evaluate(const Circuit& c, const Labels& garbler_labels,
                  const Labels& evaluator_labels, const Labels& state_labels,
                  Labels* state_next = nullptr);

  /// Receive the garbler's active input labels.
  Labels recv_active(size_t n);

  /// Send output labels back for decoding (paper flow).
  void send_outputs(const Labels& labels);

  /// Decode outputs locally from garbler-provided decode bits.
  BitVec decode_with_info(const Labels& labels);

 private:
  void evaluate_gates_scalar(const Circuit& c, Labels& w, BlockReader& tables);
  void evaluate_gates_batched(const Circuit& c, Labels& w, BlockReader& tables);

  Channel& ch_;
  GcOptions opt_;
  uint64_t tweak_ = 0;
  // Per label slot, the permute bit of the evaluator input bound there
  // in the current evaluate() (read only by one-row ANDs). Kept across
  // calls so each evaluation reuses one buffer.
  std::vector<uint8_t> r_;
};

}  // namespace deepsecure
