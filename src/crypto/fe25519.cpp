#include "crypto/fe25519.h"

#include <cstring>
#include <vector>

namespace deepsecure {

Fe25519 Fe25519::from_u64(uint64_t x) {
  Fe25519 r;
  r.v[0] = x & kMask;
  r.v[1] = x >> 51;
  return r;
}

// Both exponents share the standard curve25519 addition chain up to
// a^(2^250 - 1): 11 muls and 250-odd squarings instead of a generic
// square-and-multiply's ~250 muls.
namespace {

// Returns a^(2^250 - 1); also hands back a^11 (the invert tail uses it).
Fe25519 pow_2_250_minus_1(const Fe25519& a, Fe25519* a11) {
  using F = Fe25519;
  const F a2 = F::square(a);
  const F a9 = F::mul(F::square_n(a2, 2), a);
  *a11 = F::mul(a9, a2);
  const F e5 = F::mul(F::square(*a11), a9);        // 2^5 - 1
  const F e10 = F::mul(F::square_n(e5, 5), e5);     // 2^10 - 1
  const F e20 = F::mul(F::square_n(e10, 10), e10);  // 2^20 - 1
  const F e40 = F::mul(F::square_n(e20, 20), e20);  // 2^40 - 1
  const F e50 = F::mul(F::square_n(e40, 10), e10);  // 2^50 - 1
  const F e100 = F::mul(F::square_n(e50, 50), e50);     // 2^100 - 1
  const F e200 = F::mul(F::square_n(e100, 100), e100);  // 2^200 - 1
  return F::mul(F::square_n(e200, 50), e50);            // 2^250 - 1
}

}  // namespace

Fe25519 Fe25519::invert(const Fe25519& a) {
  // p - 2 = 2^255 - 21 = (2^250 - 1) * 2^5 + 11.
  Fe25519 a11;
  const Fe25519 e250 = pow_2_250_minus_1(a, &a11);
  return mul(square_n(e250, 5), a11);
}

Fe25519 Fe25519::pow_p38(const Fe25519& a) {
  // (p + 3) / 8 = 2^252 - 2 = (2^250 - 1) * 2^2 + 2.
  Fe25519 a11;
  const Fe25519 e250 = pow_2_250_minus_1(a, &a11);
  return mul(square_n(e250, 2), square(a));
}

void Fe25519::invert_batch(Fe25519* a, size_t n) {
  if (n == 0) return;
  // prefix[i] = a[0] * ... * a[i-1]; one inversion of the full product,
  // then walk back peeling one factor per step.
  std::vector<Fe25519> prefix(n);
  Fe25519 acc = one();
  for (size_t i = 0; i < n; ++i) {
    prefix[i] = acc;
    acc = mul(acc, a[i]);
  }
  acc = invert(acc);  // 1 / (a[0] * ... * a[n-1])
  for (size_t i = n; i-- > 0;) {
    const Fe25519 inv = mul(acc, prefix[i]);
    acc = mul(acc, a[i]);
    a[i] = inv;
  }
}

void Fe25519::cswap(Fe25519& a, Fe25519& b, uint64_t bit) {
  const uint64_t mask = 0 - (bit & 1);
  for (int i = 0; i < 5; ++i) {
    const uint64_t t = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= t;
    b.v[i] ^= t;
  }
}

void Fe25519::to_bytes(uint8_t out[32]) const {
  std::array<uint64_t, 5> t = v;
  carry_pass(t);
  carry_pass(t);
  // Canonicalize: compute t + 19, use bit 255 as the "t >= p" flag.
  std::array<uint64_t, 5> u = t;
  u[0] += 19;
  for (int i = 0; i < 4; ++i) {
    u[i + 1] += u[i] >> 51;
    u[i] &= kMask;
  }
  const uint64_t ge_p = u[4] >> 51;  // 1 iff t >= p
  // If t >= p, result = t - p = u - 2^255 (i.e. keep u with top bit cleared).
  const uint64_t mask = 0 - ge_p;
  u[4] &= kMask;
  for (int i = 0; i < 5; ++i) t[i] = (t[i] & ~mask) | (u[i] & mask);

  // Pack 5x51 bits into 32 bytes little-endian.
  uint64_t w0 = t[0] | (t[1] << 51);
  uint64_t w1 = (t[1] >> 13) | (t[2] << 38);
  uint64_t w2 = (t[2] >> 26) | (t[3] << 25);
  uint64_t w3 = (t[3] >> 39) | (t[4] << 12);
  std::memcpy(out, &w0, 8);
  std::memcpy(out + 8, &w1, 8);
  std::memcpy(out + 16, &w2, 8);
  std::memcpy(out + 24, &w3, 8);
}

Fe25519 Fe25519::from_bytes(const uint8_t in[32]) {
  uint64_t w0, w1, w2, w3;
  std::memcpy(&w0, in, 8);
  std::memcpy(&w1, in + 8, 8);
  std::memcpy(&w2, in + 16, 8);
  std::memcpy(&w3, in + 24, 8);
  Fe25519 r;
  r.v[0] = w0 & kMask;
  r.v[1] = ((w0 >> 51) | (w1 << 13)) & kMask;
  r.v[2] = ((w1 >> 38) | (w2 << 26)) & kMask;
  r.v[3] = ((w2 >> 25) | (w3 << 39)) & kMask;
  r.v[4] = (w3 >> 12) & kMask;
  return r;
}

bool Fe25519::is_zero() const {
  uint8_t bytes[32];
  to_bytes(bytes);
  uint8_t acc = 0;
  for (int i = 0; i < 32; ++i) acc |= bytes[i];
  return acc == 0;
}

bool Fe25519::eq(const Fe25519& a, const Fe25519& b) {
  return sub(a, b).is_zero();
}

}  // namespace deepsecure
