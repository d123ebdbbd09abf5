// Field arithmetic modulo p = 2^255 - 19, with 5 x 51-bit limbs.
// Substrate for the Edwards25519 group used by the Chou-Orlandi base OT.
// Arithmetic (add/sub/mul/square/invert) is branch-free; full reduction
// happens only in to_bytes / canonicalization.
//
// mul and square are inline: a variable-base scalar multiplication is
// ~2,500 of them, so call overhead and the carry chain dominate.
// Products are summed in unsigned __int128 and carried in 64-bit words.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace deepsecure {

struct Fe25519 {
  // Limbs in radix 2^51; after weak reduction each limb < 2^52.
  std::array<uint64_t, 5> v{};

  static constexpr uint64_t kMask = (1ull << 51) - 1;

  static Fe25519 zero() { return Fe25519{}; }
  static Fe25519 one() {
    Fe25519 r;
    r.v[0] = 1;
    return r;
  }
  /// Small non-negative integer constant.
  static Fe25519 from_u64(uint64_t x);

  static Fe25519 add(const Fe25519& a, const Fe25519& b);
  static Fe25519 sub(const Fe25519& a, const Fe25519& b);
  static Fe25519 mul(const Fe25519& a, const Fe25519& b);
  static Fe25519 square(const Fe25519& a);
  /// a^(2^n): n successive squarings.
  static Fe25519 square_n(Fe25519 a, int n);
  static Fe25519 neg(const Fe25519& a);
  /// a^(p-2) — multiplicative inverse (0 maps to 0).
  static Fe25519 invert(const Fe25519& a);
  /// a^((p+3)/8); candidate square root used in point checks.
  static Fe25519 pow_p38(const Fe25519& a);
  /// Montgomery's trick: replaces each of the `n` elements with its
  /// inverse at the cost of one invert() plus 3(n-1) muls. Every
  /// element must be nonzero (a zero would zero the whole batch).
  static void invert_batch(Fe25519* a, size_t n);

  /// Branch-free conditional swap (swap iff bit == 1).
  static void cswap(Fe25519& a, Fe25519& b, uint64_t bit);

  /// Serialize canonical little-endian 32 bytes.
  void to_bytes(uint8_t out[32]) const;
  /// Parse 32 little-endian bytes (top bit ignored, per convention).
  static Fe25519 from_bytes(const uint8_t in[32]);

  bool is_zero() const;
  static bool eq(const Fe25519& a, const Fe25519& b);

 private:
  using u128 = unsigned __int128;

  // Carry five 128-bit column sums into 51-bit limbs. The top carry
  // wraps around times 19 (2^255 == 19 mod p); for inputs below 2^52
  // it is below 2^56, so every limb comes out below 2^51 + 2^10.
  static Fe25519 carry_wide(u128 c0, u128 c1, u128 c2, u128 c3, u128 c4) {
    Fe25519 r;
    c1 += static_cast<uint64_t>(c0 >> 51);
    r.v[0] = static_cast<uint64_t>(c0) & kMask;
    c2 += static_cast<uint64_t>(c1 >> 51);
    r.v[1] = static_cast<uint64_t>(c1) & kMask;
    c3 += static_cast<uint64_t>(c2 >> 51);
    r.v[2] = static_cast<uint64_t>(c2) & kMask;
    c4 += static_cast<uint64_t>(c3 >> 51);
    r.v[3] = static_cast<uint64_t>(c3) & kMask;
    const uint64_t top = static_cast<uint64_t>(c4 >> 51);
    r.v[4] = static_cast<uint64_t>(c4) & kMask;
    r.v[0] += top * 19;
    r.v[1] += r.v[0] >> 51;
    r.v[0] &= kMask;
    return r;
  }

  // Weak reduction with all five carries taken at once (no serial
  // chain): limbs below 2^55 come out below 2^52.
  static void carry_parallel(std::array<uint64_t, 5>& v) {
    const uint64_t c0 = v[0] >> 51, c1 = v[1] >> 51, c2 = v[2] >> 51,
                   c3 = v[3] >> 51, c4 = v[4] >> 51;
    v[0] = (v[0] & kMask) + 19 * c4;
    v[1] = (v[1] & kMask) + c0;
    v[2] = (v[2] & kMask) + c1;
    v[3] = (v[3] & kMask) + c2;
    v[4] = (v[4] & kMask) + c3;
  }

  // One sequential weak-reduction pass: after this, limbs fit in 52
  // bits provided the inputs fit in 63 bits.
  static void carry_pass(std::array<uint64_t, 5>& v) {
    for (int i = 0; i < 4; ++i) {
      v[i + 1] += v[i] >> 51;
      v[i] &= kMask;
    }
    v[0] += 19 * (v[4] >> 51);
    v[4] &= kMask;
  }
};

inline Fe25519 Fe25519::add(const Fe25519& a, const Fe25519& b) {
  Fe25519 r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  carry_parallel(r.v);
  return r;
}

inline Fe25519 Fe25519::sub(const Fe25519& a, const Fe25519& b) {
  // Add 8p (limb-wise) so the per-limb subtraction cannot underflow for
  // weakly-reduced inputs (< 2^52 per limb).
  Fe25519 r;
  r.v[0] = a.v[0] + 0xFFFFFFFFFFFDAull * 4 - b.v[0];
  r.v[1] = a.v[1] + 0xFFFFFFFFFFFFEull * 4 - b.v[1];
  r.v[2] = a.v[2] + 0xFFFFFFFFFFFFEull * 4 - b.v[2];
  r.v[3] = a.v[3] + 0xFFFFFFFFFFFFEull * 4 - b.v[3];
  r.v[4] = a.v[4] + 0xFFFFFFFFFFFFEull * 4 - b.v[4];
  carry_parallel(r.v);
  return r;
}

inline Fe25519 Fe25519::neg(const Fe25519& a) { return sub(zero(), a); }

inline Fe25519 Fe25519::mul(const Fe25519& a, const Fe25519& b) {
  const auto& x = a.v;
  const auto& y = b.v;
  // Limbs < 2^52, so 19 * limb < 2^57 and each column sum < 2^115.
  const uint64_t y1_19 = 19 * y[1], y2_19 = 19 * y[2], y3_19 = 19 * y[3],
                 y4_19 = 19 * y[4];
  const u128 c0 = u128(x[0]) * y[0] + u128(x[1]) * y4_19 +
                  u128(x[2]) * y3_19 + u128(x[3]) * y2_19 +
                  u128(x[4]) * y1_19;
  const u128 c1 = u128(x[0]) * y[1] + u128(x[1]) * y[0] +
                  u128(x[2]) * y4_19 + u128(x[3]) * y3_19 +
                  u128(x[4]) * y2_19;
  const u128 c2 = u128(x[0]) * y[2] + u128(x[1]) * y[1] + u128(x[2]) * y[0] +
                  u128(x[3]) * y4_19 + u128(x[4]) * y3_19;
  const u128 c3 = u128(x[0]) * y[3] + u128(x[1]) * y[2] + u128(x[2]) * y[1] +
                  u128(x[3]) * y[0] + u128(x[4]) * y4_19;
  const u128 c4 = u128(x[0]) * y[4] + u128(x[1]) * y[3] + u128(x[2]) * y[2] +
                  u128(x[3]) * y[1] + u128(x[4]) * y[0];
  return carry_wide(c0, c1, c2, c3, c4);
}

inline Fe25519 Fe25519::square(const Fe25519& a) {
  // mul(a, a) with the symmetric cross terms folded: 15 products, not 25.
  const auto& x = a.v;
  const uint64_t d0 = 2 * x[0], d1 = 2 * x[1];
  const uint64_t x3_19 = 19 * x[3], x4_19 = 19 * x[4];
  const u128 c0 = u128(x[0]) * x[0] + u128(d1) * x4_19 +
                  u128(2 * x[2]) * x3_19;
  const u128 c1 = u128(d0) * x[1] + u128(2 * x[2]) * x4_19 +
                  u128(x[3]) * x3_19;
  const u128 c2 = u128(d0) * x[2] + u128(x[1]) * x[1] +
                  u128(2 * x[3]) * x4_19;
  const u128 c3 = u128(d0) * x[3] + u128(d1) * x[2] + u128(x[4]) * x4_19;
  const u128 c4 = u128(d0) * x[4] + u128(d1) * x[3] + u128(x[2]) * x[2];
  return carry_wide(c0, c1, c2, c3, c4);
}

inline Fe25519 Fe25519::square_n(Fe25519 a, int n) {
  for (int i = 0; i < n; ++i) a = square(a);
  return a;
}

}  // namespace deepsecure
