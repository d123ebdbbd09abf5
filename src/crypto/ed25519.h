// Edwards25519 group operations (extended coordinates) — the algebraic
// substrate for the Chou-Orlandi base oblivious transfer.
//
// Curve: -x^2 + y^2 = 1 + d x^2 y^2 over GF(2^255-19),
//        d = -121665/121666.
//
// Points are exchanged uncompressed (affine x||y, 64 bytes): this avoids
// the square-root decompression path entirely, which keeps the substrate
// small. Bandwidth for base OTs is negligible (128 points per session).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/fe25519.h"

namespace deepsecure {

/// 256-bit scalar, little-endian bytes. Random 32-byte strings are fine
/// as exponents in the semi-honest setting.
using Ed25519Scalar = std::array<uint8_t, 32>;

struct Ed25519Point {
  // Extended homogeneous coordinates (X:Y:Z:T), x = X/Z, y = Y/Z, T = XY/Z.
  Fe25519 x, y, z, t;

  static const Ed25519Point& base();      // standard generator B
  static Ed25519Point identity();

  static Ed25519Point add(const Ed25519Point& p, const Ed25519Point& q);
  static Ed25519Point dbl(const Ed25519Point& p);
  static Ed25519Point neg(const Ed25519Point& p);
  static Ed25519Point sub(const Ed25519Point& p, const Ed25519Point& q) {
    return add(p, neg(q));
  }

  /// Branch-free select: b when bit == 1, else a.
  static Ed25519Point select(const Ed25519Point& a, const Ed25519Point& b,
                             uint64_t bit);

  /// k * p for any 256-bit k (not reduced mod l), constant time: a
  /// fixed 4-bit window over a 16-entry table of multiples of p, read
  /// by a masked scan of every entry — 256 doublings, 64 additions, no
  /// secret-dependent branch or index.
  static Ed25519Point mul(const Ed25519Point& p, const Ed25519Scalar& k);
  /// k * B through the precomputed fixed-base table of the generator.
  static Ed25519Point base_mul(const Ed25519Scalar& k);

  /// Affine serialization: x (32B) || y (32B).
  std::array<uint8_t, 64> encode() const;
  /// encode() of `n` points into out[64 * n], sharing one field
  /// inversion across the batch (Montgomery's trick). Byte-identical to
  /// encoding each point on its own.
  static void encode_batch(const Ed25519Point* pts, size_t n, uint8_t* out);
  /// Parse and validate the curve equation; nullopt when off-curve.
  static std::optional<Ed25519Point> decode(const uint8_t in[64]);

  static bool eq(const Ed25519Point& p, const Ed25519Point& q);
  bool is_identity() const { return eq(*this, identity()); }

  /// On-curve check in projective form.
  bool on_curve() const;
};

/// Fixed-base table for one point P: entry [w][j] = j * 16^w * P in
/// affine Niels form (y+x, y-x, 2dxy), 64 windows of 16 entries. mul(k)
/// is then 64 mixed additions and no doublings, each entry read by the
/// same masked full-row scan as Ed25519Point::mul. Building one costs
/// about as much as eight variable-base multiplications, so it pays off
/// for a point that is multiplied many times: the generator (a process-wide
/// table behind base_mul) and the base-OT receiver's fixed A.
class Ed25519Table {
 public:
  explicit Ed25519Table(const Ed25519Point& p);
  Ed25519Point mul(const Ed25519Scalar& k) const;

  struct Niels {
    Fe25519 ypx, ymx, xy2d;
  };

 private:
  std::vector<Niels> entries_;  // 64 rows x 16
};

/// The curve constant d = -121665/121666 (computed once).
const Fe25519& ed25519_d();

/// Group order l = 2^252 + 27742317777372353535851937790883648493 as a
/// scalar, used by tests to verify l*B = identity.
Ed25519Scalar ed25519_order();

}  // namespace deepsecure
