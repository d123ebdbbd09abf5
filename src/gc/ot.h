// Oblivious transfer (Section 2.2.1): the evaluator's input-wire labels
// are transferred with 1-out-of-2 OT.
//
//  * Base OT: Chou-Orlandi "simplest OT" over Edwards25519 (semi-honest
//    variant). Real elliptic-curve crypto, 128 instances per session.
//  * Extension: IKNP'03 semi-honest OT extension with stateful AES-CTR
//    column PRGs, so one base-OT setup serves any number of label
//    transfers across all layers of a model.
//  * Precomputation: the extension also exposes *random* OTs — the
//    sender gets uniform pairs (r0, r1), the receiver a random choice c
//    and r_c — which are input-independent and therefore run in the
//    offline phase. The online phase derandomizes them (Beaver '95):
//    the receiver sends one correction vector d = b ^ c, the sender
//    answers with masked messages, and no fresh extension rounds happen
//    on the request path.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "crypto/block.h"
#include "crypto/prg.h"
#include "net/channel.h"
#include "support/bits.h"

namespace deepsecure {

/// Base OT, sender side: transfers msgs[i].first for choice 0,
/// msgs[i].second for choice 1.
void base_ot_send(Channel& ch, const std::vector<std::pair<Block, Block>>& msgs,
                  Prg& prg);

/// Base OT, receiver side.
std::vector<Block> base_ot_recv(Channel& ch, const BitVec& choices, Prg& prg);

inline constexpr size_t kOtExtKappa = 128;  // base-OT security parameter

/// IKNP's matrix flip, one slice at a time. `cols` holds kOtExtKappa
/// bit-packed columns of `m` bits, column i at cols[i * ceil(m/128) ...]
/// in the Prg::next_bits_packed layout. Writes rows row0 .. row0+n-1 to
/// rows[0 .. n-1], row j's bit i being column i's bit j (bits 0-63 in
/// lo, 64-127 in hi). row0 must be a multiple of 64.
void iknp_transpose(const std::vector<Block>& cols, size_t m, size_t row0,
                    size_t n, Block* rows);

/// A batch of precomputed random OTs, sender side: uniform pairs
/// (r0[i], r1[i]) of which the receiver knows exactly one.
struct OtPrecompSender {
  std::vector<Block> r0, r1;
  size_t size() const { return r0.size(); }
};

/// Receiver side of the same batch: a random choice vector c and the
/// corresponding r_c blocks.
struct OtPrecompReceiver {
  BitVec choices;
  std::vector<Block> blocks;
  size_t size() const { return blocks.size(); }
};

class OtExtSender {
 public:
  explicit OtExtSender(Channel& ch) : ch_(ch) {}

  /// Runs kappa base OTs (as base-OT receiver with random choices s).
  void setup(Prg& prg);

  /// Send `msgs.size()` message pairs; receiver learns one of each.
  void send(const std::vector<std::pair<Block, Block>>& msgs);

  /// Correlated variant used for wire labels: pair i is
  /// (zeros[i], zeros[i] ^ delta). Saves building the pair vector.
  void send_correlated(const std::vector<Block>& zeros, Block delta);

  /// Offline phase: run `m` *random* OTs (one extension round, no
  /// payload message — the hashes themselves are the messages).
  OtPrecompSender precompute(size_t m);

  /// Online phase, general form: receive the peer's correction vector
  /// (must cover exactly `msgs.size()` OTs, else the batch is rejected)
  /// and send the masked pairs. Consumes `pre` logically; the caller
  /// must not reuse it.
  void send_derandomized(const OtPrecompSender& pre,
                         const std::vector<std::pair<Block, Block>>& msgs);

  /// Online phase, correlated form for wire labels.
  void send_correlated_derandomized(const OtPrecompSender& pre,
                                    const std::vector<Block>& zeros,
                                    Block delta);

 private:
  /// consume(j0, n, r0, r1): the random-OT pairs of OTs j0 .. j0+n-1.
  using PairChunkFn = std::function<void(size_t, size_t, const Block*,
                                         const Block*)>;
  /// One extension round of `m` OTs: receive the u columns, then hand
  /// the pairs (H(q_j, j), H(q_j ^ s, j)) to `consume` slice by slice.
  void extend(size_t m, const PairChunkFn& consume);

  Channel& ch_;
  BitVec s_;                       // kappa secret choice bits
  Block s_block_;                  // s packed into a block
  std::vector<std::unique_ptr<Prg>> col_prg_;  // PRG(k_i^{s_i})
  uint64_t hash_index_ = 0;
  bool ready_ = false;
};

class OtExtReceiver {
 public:
  explicit OtExtReceiver(Channel& ch) : ch_(ch) {}

  /// Runs kappa base OTs (as base-OT sender with random seed pairs).
  void setup(Prg& prg);

  /// Receive msgs[i] for choices[i].
  std::vector<Block> recv(const BitVec& choices);

  /// Offline phase: run `m` random OTs with choices drawn from `prg`.
  OtPrecompReceiver precompute(size_t m, Prg& prg);

  /// Online phase: derandomize `pre` to the real `choices` with a single
  /// correction message, then unmask the sender's payload. Rejects a
  /// choice vector whose size differs from the precomputed batch.
  /// Consumes `pre` logically; the caller must not reuse it.
  std::vector<Block> recv_derandomized(const OtPrecompReceiver& pre,
                                       const BitVec& choices);

 private:
  /// consume(j0, n, h): H(t_j, j) for OTs j0 .. j0+n-1.
  using RowChunkFn = std::function<void(size_t, size_t, const Block*)>;
  /// Extension round for `choices`: expand the column PRGs, ship the u
  /// columns as one packed bulk message, then hand the row hashes to
  /// `consume` slice by slice.
  void extend(const BitVec& choices, const RowChunkFn& consume);

  Channel& ch_;
  std::vector<std::unique_ptr<Prg>> col_prg0_;  // PRG(k_i^0)
  std::vector<std::unique_ptr<Prg>> col_prg1_;  // PRG(k_i^1)
  uint64_t hash_index_ = 0;
  bool ready_ = false;
};

}  // namespace deepsecure
