// Chou-Orlandi base OT (semi-honest):
//   Sender: a <- random, A = aG. Publish A.
//   Receiver (choice c): b <- random, B = cA + bG. Publish B.
//   Sender keys:   k_j = H(a * (B - jA), i)    for j in {0,1}
//   Receiver key:  k_c = H(b * A, i)
// since a(B - cA) = abG.
//
// Cost: the sender computes a * B once per instance and gets the other
// key point as a*B - a*A, with a*A computed once. The receiver's b*G
// and b*A both go through fixed-base tables (the generator's is
// process-wide, A's is built per run). Every batch of points is encoded
// with one shared field inversion.
#include "gc/ot.h"

#include <stdexcept>

#include "crypto/ed25519.h"
#include "crypto/sha256.h"

namespace deepsecure {
namespace {

Ed25519Scalar random_scalar(Prg& prg) {
  Ed25519Scalar k{};
  prg.fill_bytes(k.data(), k.size());
  // Clear the top bit to stay below 2^255 (any scalar works for DH-style
  // use; clamping is unnecessary in the semi-honest setting).
  k[31] &= 0x7F;
  return k;
}

Block point_kdf(const uint8_t enc[64], uint64_t index) {
  return kdf_block("deepsecure-base-ot", index, enc, 64);
}

void send_point(Channel& ch, const Ed25519Point& p) {
  const auto enc = p.encode();
  ch.send_bytes(enc.data(), enc.size());
}

Ed25519Point recv_point(Channel& ch) {
  std::array<uint8_t, 64> enc{};
  ch.recv_bytes(enc.data(), enc.size());
  auto p = Ed25519Point::decode(enc.data());
  if (!p) throw std::runtime_error("base OT: off-curve point received");
  return *p;
}

}  // namespace

// The receiver's B points depend only on its local randomness (and A),
// and the sender's ciphertext pairs only on the B points — so each
// direction travels as one bulk message instead of per-instance
// send/recv ping-pong: A, then all n B points, then all 2n ciphertext
// blocks.
void base_ot_send(Channel& ch, const std::vector<std::pair<Block, Block>>& msgs,
                  Prg& prg) {
  const size_t n = msgs.size();
  const Ed25519Scalar a = random_scalar(prg);
  const Ed25519Point big_a = Ed25519Point::base_mul(a);
  send_point(ch, big_a);

  std::vector<uint8_t> enc_bs(n * 64);
  if (n > 0) ch.recv_bytes(enc_bs.data(), enc_bs.size());
  // k_points[2i + j] = a * (B_i - j*A) = a*B_i - j*(a*A).
  const Ed25519Point a_big_a = Ed25519Point::mul(big_a, a);
  std::vector<Ed25519Point> k_points(2 * n);
  for (size_t i = 0; i < n; ++i) {
    auto big_b = Ed25519Point::decode(enc_bs.data() + i * 64);
    if (!big_b) throw std::runtime_error("base OT: off-curve point received");
    k_points[2 * i] = Ed25519Point::mul(*big_b, a);
    k_points[2 * i + 1] = Ed25519Point::sub(k_points[2 * i], a_big_a);
  }
  std::vector<uint8_t> enc_ks(2 * n * 64);
  Ed25519Point::encode_batch(k_points.data(), k_points.size(), enc_ks.data());
  std::vector<Block> payload(2 * n);
  for (size_t i = 0; i < n; ++i) {
    payload[2 * i] = msgs[i].first ^ point_kdf(&enc_ks[2 * i * 64], i);
    payload[2 * i + 1] =
        msgs[i].second ^ point_kdf(&enc_ks[(2 * i + 1) * 64], i);
  }
  if (n > 0) ch.send_blocks(payload.data(), payload.size());
}

std::vector<Block> base_ot_recv(Channel& ch, const BitVec& choices, Prg& prg) {
  const size_t n = choices.size();
  const Ed25519Point big_a = recv_point(ch);
  if (n == 0) return {};

  const Ed25519Table a_table(big_a);
  std::vector<Ed25519Point> big_bs(n), k_points(n);
  for (size_t i = 0; i < n; ++i) {
    const Ed25519Scalar b = random_scalar(prg);
    const Ed25519Point b_g = Ed25519Point::base_mul(b);
    big_bs[i] = Ed25519Point::select(b_g, Ed25519Point::add(b_g, big_a),
                                     choices[i]);
    k_points[i] = a_table.mul(b);
  }
  std::vector<uint8_t> enc_bs(n * 64), enc_ks(n * 64);
  Ed25519Point::encode_batch(big_bs.data(), n, enc_bs.data());
  Ed25519Point::encode_batch(k_points.data(), n, enc_ks.data());
  std::vector<Block> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = point_kdf(&enc_ks[i * 64], i);
  ch.send_bytes(enc_bs.data(), enc_bs.size());

  std::vector<Block> payload(2 * n);
  ch.recv_blocks(payload.data(), payload.size());
  std::vector<Block> out(n);
  for (size_t i = 0; i < n; ++i)
    out[i] = payload[2 * i + (choices[i] ? 1 : 0)] ^ keys[i];
  return out;
}

}  // namespace deepsecure
