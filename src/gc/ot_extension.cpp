// IKNP oblivious-transfer extension, semi-honest.
//
// Roles are reversed in setup: the extension *sender* is a base-OT
// *receiver* with kappa secret choice bits s, obtaining one of each
// column-seed pair. For every batch of m OTs:
//   receiver: t_i = PRG(k_i^0, m), u_i = t_i ^ PRG(k_i^1, m) ^ r -> send
//   sender:   q_i = PRG(k_i^{s_i}, m) ^ s_i * u_i
//   rows:     q_j = t_j ^ r_j * s
//   sender:   y_j^b = x_j^b ^ H(q_j ^ b*s, j);   receiver: H(t_j, j)
// Column PRGs are stateful so repeated batches (per-layer label
// transfers) reuse the single setup. The kappa u columns travel as one
// packed bulk message, not kappa per-column sends.
//
// Columns stay bit-packed end to end: a column is its PRG's raw AES-CTR
// keystream (Prg::next_bits_packed) and u and q are combined with
// word-wise XOR. The rows never exist as a whole: each kRowChunk-row
// slice is transposed out of the columns (64x64 bit tiles), hashed
// through the batched fixed-key hash (gc_hash_batch) and consumed while
// it is still in L1.
//
// Random-OT precomputation reuses the same machinery but stops after
// the hashes: r_j^b = H(q_j ^ b*s, j) *are* the sender's random pairs
// and H(t_j, j) the receiver's chosen one. Derandomization (Beaver) is
// the only online step: the receiver reveals d = b ^ c in one
// correction message and the sender masks its real messages with
// (r_d, r_{1^d}) — so x_b = e_b ^ r_c on the receiving end.
#include "gc/ot.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/aes128.h"

namespace deepsecure {
namespace {

// Domain-separated hash for OT messages (distinct from garbling tweaks).
constexpr Block kOtDomain{0x6f742d657874656eull, 0x646565707365632dull};

// Rows per transpose + hash step: 8 KiB of rows, a multiple of the 64-row
// transpose tile.
constexpr size_t kRowChunk = 512;

// out[k] = H(rows[k] ^ offset ^ kOtDomain, first_index + k), n <= kRowChunk.
void ot_hash_rows(const Block* rows, size_t n, Block offset,
                  uint64_t first_index, Block* out) {
  Block in[kRowChunk];
  uint64_t tweaks[kRowChunk];
  const Block mask = offset ^ kOtDomain;
  for (size_t k = 0; k < n; ++k) {
    in[k] = rows[k] ^ mask;
    tweaks[k] = first_index + k;
  }
  gc_hash_batch(in, tweaks, out, n);
}

// One round of the 64x64 bit transpose: swap the off-diagonal J x J
// blocks of every 2J x 2J block (mask selects their low halves).
template <int J>
void transpose_round(uint64_t a[64], uint64_t mask) {
  for (int k0 = 0; k0 < 64; k0 += 2 * J) {
    for (int k = k0; k < k0 + J; ++k) {
      const uint64_t t = ((a[k] >> J) ^ a[k + J]) & mask;
      a[k] ^= t << J;
      a[k + J] ^= t;
    }
  }
}

// In-place transpose of a 64x64 bit matrix: bit k of a[i] <-> bit i of
// a[k]. Constant trip counts, so every round unrolls.
void transpose64(uint64_t a[64]) {
  transpose_round<32>(a, 0x00000000FFFFFFFFull);
  transpose_round<16>(a, 0x0000FFFF0000FFFFull);
  transpose_round<8>(a, 0x00FF00FF00FF00FFull);
  transpose_round<4>(a, 0x0F0F0F0F0F0F0F0Full);
  transpose_round<2>(a, 0x3333333333333333ull);
  transpose_round<1>(a, 0x5555555555555555ull);
}

size_t column_stride(size_t m) { return (m + 7) / 8; }
size_t column_blocks(size_t m) { return (m + 127) / 128; }

}  // namespace

void iknp_transpose(const std::vector<Block>& cols, size_t m, size_t row0,
                    size_t n, Block* rows) {
  const size_t nb = column_blocks(m);
  if (cols.size() != kOtExtKappa * nb || row0 % 64 != 0 || row0 > m ||
      n > m - row0)
    throw std::invalid_argument("iknp_transpose: bad column matrix or rows");
  uint64_t tile[64];
  // Word w of every column holds rows 64w..64w+63; columns 0-63 fill the
  // rows' lo halves, columns 64-127 their hi halves.
  for (size_t w = row0 / 64; 64 * w < row0 + n; ++w) {
    Block* out = rows + (64 * w - row0);
    const size_t nrows = std::min<size_t>(64, row0 + n - 64 * w);
    for (size_t half = 0; half < 2; ++half) {
      for (size_t i = 0; i < 64; ++i) {
        const Block& b = cols[(64 * half + i) * nb + w / 2];
        tile[i] = w % 2 == 0 ? b.lo : b.hi;
      }
      transpose64(tile);
      for (size_t k = 0; k < nrows; ++k)
        (half == 0 ? out[k].lo : out[k].hi) = tile[k];
    }
  }
}

void OtExtSender::setup(Prg& prg) {
  s_ = BitVec(kOtExtKappa);
  for (auto& bit : s_) bit = prg.next_u64() & 1u;
  s_block_ = kZeroBlock;
  for (size_t i = 0; i < kOtExtKappa; ++i) {
    const uint64_t bit = s_[i];
    if (i < 64)
      s_block_.lo |= bit << i;
    else
      s_block_.hi |= bit << (i - 64);
  }
  const std::vector<Block> seeds = base_ot_recv(ch_, s_, prg);
  col_prg_.clear();
  for (const Block& seed : seeds)
    col_prg_.push_back(std::make_unique<Prg>(seed));
  ready_ = true;
}

void OtExtReceiver::setup(Prg& prg) {
  std::vector<std::pair<Block, Block>> seed_pairs(kOtExtKappa);
  for (auto& p : seed_pairs) {
    p.first = prg.next_block();
    p.second = prg.next_block();
  }
  base_ot_send(ch_, seed_pairs, prg);
  col_prg0_.clear();
  col_prg1_.clear();
  for (const auto& p : seed_pairs) {
    col_prg0_.push_back(std::make_unique<Prg>(p.first));
    col_prg1_.push_back(std::make_unique<Prg>(p.second));
  }
  ready_ = true;
}

void OtExtSender::extend(size_t m, const PairChunkFn& consume) {
  if (!ready_) throw std::logic_error("OtExtSender: setup() not run");
  // All kappa u columns arrive as one packed bulk message. The leading
  // batch size guards against a sender/receiver m disagreement — the
  // raw packed read would otherwise desynchronize the stream silently.
  if (ch_.recv_u64() != m)
    throw std::runtime_error("OT ext: batch size mismatch");
  const size_t stride = column_stride(m);
  const size_t nb = column_blocks(m);
  std::vector<uint8_t> packed(kOtExtKappa * stride);
  ch_.recv_bytes(packed.data(), packed.size());
  // q_i = PRG(k_i^{s_i}) ^ s_i * u_i, with s_i applied as a mask.
  std::vector<Block> q(kOtExtKappa * nb);
  std::vector<Block> u(nb);
  for (size_t i = 0; i < kOtExtKappa; ++i) {
    Block* col = &q[i * nb];
    col_prg_[i]->next_bits_packed(col, m);
    u.back() = kZeroBlock;
    std::memcpy(u.data(), packed.data() + i * stride, stride);
    const uint64_t mask = 0 - static_cast<uint64_t>(s_[i] & 1u);
    for (size_t b = 0; b < nb; ++b) {
      col[b].lo ^= mask & u[b].lo;
      col[b].hi ^= mask & u[b].hi;
    }
  }
  // r0_j = H(q_j, j), r1_j = H(q_j ^ s, j): the sender's pair for OT j.
  std::vector<Block> buf(3 * kRowChunk);
  Block* rows = buf.data();
  Block* r0 = rows + kRowChunk;
  Block* r1 = r0 + kRowChunk;
  for (size_t j0 = 0; j0 < m; j0 += kRowChunk) {
    const size_t n = std::min(kRowChunk, m - j0);
    iknp_transpose(q, m, j0, n, rows);
    ot_hash_rows(rows, n, kZeroBlock, hash_index_ + j0, r0);
    ot_hash_rows(rows, n, s_block_, hash_index_ + j0, r1);
    consume(j0, n, r0, r1);
  }
  hash_index_ += m;
}

void OtExtReceiver::extend(const BitVec& choices, const RowChunkFn& consume) {
  if (!ready_) throw std::logic_error("OtExtReceiver: setup() not run");
  const size_t m = choices.size();
  ch_.send_u64(m);
  const size_t stride = column_stride(m);
  const size_t nb = column_blocks(m);
  // r: the choice bits packed like a column (zero past m).
  std::vector<Block> r(nb);
  for (size_t j = 0; j < m; ++j) {
    const uint64_t bit = choices[j] & 1u;
    if (j % 128 < 64)
      r[j / 128].lo |= bit << (j % 64);
    else
      r[j / 128].hi |= bit << (j % 64);
  }
  // t_i = PRG(k_i^0), u_i = t_i ^ PRG(k_i^1) ^ r. Both keystreams are
  // zeroed past m, so the padding bits of every u column are zero.
  std::vector<Block> t(kOtExtKappa * nb);
  std::vector<Block> u(nb);
  std::vector<uint8_t> packed(kOtExtKappa * stride);
  for (size_t i = 0; i < kOtExtKappa; ++i) {
    Block* col = &t[i * nb];
    col_prg0_[i]->next_bits_packed(col, m);
    col_prg1_[i]->next_bits_packed(u.data(), m);
    for (size_t b = 0; b < nb; ++b) u[b] ^= col[b] ^ r[b];
    std::memcpy(packed.data() + i * stride, u.data(), stride);
  }
  ch_.send_bytes(packed.data(), packed.size());
  // H(t_j, j) for every row.
  std::vector<Block> buf(2 * kRowChunk);
  Block* rows = buf.data();
  Block* h = rows + kRowChunk;
  for (size_t j0 = 0; j0 < m; j0 += kRowChunk) {
    const size_t n = std::min(kRowChunk, m - j0);
    iknp_transpose(t, m, j0, n, rows);
    ot_hash_rows(rows, n, kZeroBlock, hash_index_ + j0, h);
    consume(j0, n, h);
  }
  hash_index_ += m;
}

void OtExtSender::send(const std::vector<std::pair<Block, Block>>& msgs) {
  const size_t m = msgs.size();
  if (m == 0) return;
  std::vector<Block> payload(2 * m);
  extend(m, [&](size_t j0, size_t n, const Block* r0, const Block* r1) {
    for (size_t k = 0; k < n; ++k) {
      payload[2 * (j0 + k)] = msgs[j0 + k].first ^ r0[k];
      payload[2 * (j0 + k) + 1] = msgs[j0 + k].second ^ r1[k];
    }
  });
  ch_.send_bytes(payload.data(), payload.size() * sizeof(Block));
}

void OtExtSender::send_correlated(const std::vector<Block>& zeros,
                                  Block delta) {
  const size_t m = zeros.size();
  if (m == 0) return;
  std::vector<Block> payload(2 * m);
  extend(m, [&](size_t j0, size_t n, const Block* r0, const Block* r1) {
    for (size_t k = 0; k < n; ++k) {
      payload[2 * (j0 + k)] = zeros[j0 + k] ^ r0[k];
      payload[2 * (j0 + k) + 1] = zeros[j0 + k] ^ delta ^ r1[k];
    }
  });
  ch_.send_bytes(payload.data(), payload.size() * sizeof(Block));
}

std::vector<Block> OtExtReceiver::recv(const BitVec& choices) {
  const size_t m = choices.size();
  if (m == 0) {
    if (!ready_) throw std::logic_error("OtExtReceiver: setup() not run");
    return {};
  }
  std::vector<Block> out(m);
  extend(choices, [&](size_t j0, size_t n, const Block* h) {
    std::copy(h, h + n, out.begin() + static_cast<ptrdiff_t>(j0));
  });
  // The 2m payload blocks are read a chunk at a time.
  std::vector<Block> payload(2 * kRowChunk);
  for (size_t j0 = 0; j0 < m; j0 += kRowChunk) {
    const size_t n = std::min(kRowChunk, m - j0);
    ch_.recv_bytes(payload.data(), 2 * n * sizeof(Block));
    for (size_t k = 0; k < n; ++k)
      out[j0 + k] ^= payload[2 * k + (choices[j0 + k] ? 1 : 0)];
  }
  return out;
}

// --- precomputation (offline) + derandomization (online) --------------

OtPrecompSender OtExtSender::precompute(size_t m) {
  OtPrecompSender pre;
  if (m == 0) {
    if (!ready_) throw std::logic_error("OtExtSender: setup() not run");
    return pre;
  }
  pre.r0.resize(m);
  pre.r1.resize(m);
  extend(m, [&](size_t j0, size_t n, const Block* r0, const Block* r1) {
    std::copy(r0, r0 + n, pre.r0.begin() + static_cast<ptrdiff_t>(j0));
    std::copy(r1, r1 + n, pre.r1.begin() + static_cast<ptrdiff_t>(j0));
  });
  return pre;
}

OtPrecompReceiver OtExtReceiver::precompute(size_t m, Prg& prg) {
  OtPrecompReceiver pre;
  if (m == 0) {
    if (!ready_) throw std::logic_error("OtExtReceiver: setup() not run");
    return pre;
  }
  pre.choices = prg.expand_bits(m);  // batched: ~m/128 AES calls
  pre.blocks.resize(m);
  extend(pre.choices, [&](size_t j0, size_t n, const Block* h) {
    std::copy(h, h + n, pre.blocks.begin() + static_cast<ptrdiff_t>(j0));
  });
  return pre;
}

void OtExtSender::send_derandomized(
    const OtPrecompSender& pre,
    const std::vector<std::pair<Block, Block>>& msgs) {
  const size_t m = msgs.size();
  if (pre.size() != m)
    throw std::invalid_argument("OT derandomize: batch size mismatch");
  if (m == 0) return;
  const BitVec d = ch_.recv_bits_bounded(m);
  if (d.size() != m)
    throw std::runtime_error("OT derandomize: correction size mismatch");
  std::vector<Block> payload(2 * m);
  for (size_t j = 0; j < m; ++j) {
    payload[2 * j] = msgs[j].first ^ (d[j] ? pre.r1[j] : pre.r0[j]);
    payload[2 * j + 1] = msgs[j].second ^ (d[j] ? pre.r0[j] : pre.r1[j]);
  }
  ch_.send_blocks(payload.data(), payload.size());
}

void OtExtSender::send_correlated_derandomized(const OtPrecompSender& pre,
                                               const std::vector<Block>& zeros,
                                               Block delta) {
  const size_t m = zeros.size();
  if (pre.size() != m)
    throw std::invalid_argument("OT derandomize: batch size mismatch");
  if (m == 0) return;
  const BitVec d = ch_.recv_bits_bounded(m);
  if (d.size() != m)
    throw std::runtime_error("OT derandomize: correction size mismatch");
  std::vector<Block> payload(2 * m);
  for (size_t j = 0; j < m; ++j) {
    payload[2 * j] = zeros[j] ^ (d[j] ? pre.r1[j] : pre.r0[j]);
    payload[2 * j + 1] = zeros[j] ^ delta ^ (d[j] ? pre.r0[j] : pre.r1[j]);
  }
  ch_.send_blocks(payload.data(), payload.size());
}

std::vector<Block> OtExtReceiver::recv_derandomized(
    const OtPrecompReceiver& pre, const BitVec& choices) {
  const size_t m = choices.size();
  if (pre.size() != m)
    throw std::invalid_argument("OT derandomize: choice count mismatch");
  if (m == 0) return {};
  // One correction message: d = b ^ c.
  BitVec d(m);
  for (size_t j = 0; j < m; ++j) d[j] = (choices[j] ^ pre.choices[j]) & 1u;
  ch_.send_bits(d);
  std::vector<Block> payload(2 * m);
  ch_.recv_blocks(payload.data(), payload.size());
  std::vector<Block> out(m);
  for (size_t j = 0; j < m; ++j)
    out[j] = payload[2 * j + (choices[j] ? 1 : 0)] ^ pre.blocks[j];
  return out;
}

}  // namespace deepsecure
