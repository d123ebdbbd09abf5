#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "crypto/ed25519.h"
#include "crypto/fe25519.h"
#include "crypto/prg.h"

namespace deepsecure {
namespace {

using F = Fe25519;
using P = Ed25519Point;

// --- test-local oracles: the original straightforward algorithms -----

// a^e by square-and-multiply over the bits of a little-endian exponent.
F ref_pow(const F& a, const std::array<uint8_t, 32>& e) {
  F r = F::one();
  for (int i = 255; i >= 0; --i) {
    r = F::mul(r, r);
    if ((e[i / 8] >> (i % 8)) & 1) r = F::mul(r, a);
  }
  return r;
}

F ref_invert(const F& a) {
  std::array<uint8_t, 32> e;  // p - 2 = 2^255 - 21
  e.fill(0xFF);
  e[0] = 0xEB;
  e[31] = 0x7F;
  return ref_pow(a, e);
}

// 256-step double-and-add over every bit of k.
P ref_mul(const P& p, const Ed25519Scalar& k) {
  P acc = P::identity();
  for (int i = 255; i >= 0; --i) {
    acc = P::dbl(acc);
    if ((k[i / 8] >> (i % 8)) & 1) acc = P::add(acc, p);
  }
  return acc;
}

// Affine encoding through the reference inversion.
std::array<uint8_t, 64> ref_encode(const P& p) {
  const F zinv = ref_invert(p.z);
  std::array<uint8_t, 64> out{};
  F::mul(p.x, zinv).to_bytes(out.data());
  F::mul(p.y, zinv).to_bytes(out.data() + 32);
  return out;
}

F rand_fe(Prg& prg) {
  uint8_t bytes[32];
  prg.fill_bytes(bytes, sizeof(bytes));
  bytes[31] &= 0x7F;
  return F::from_bytes(bytes);
}

Ed25519Scalar rand_scalar(Prg& prg) {
  Ed25519Scalar s{};
  prg.fill_bytes(s.data(), s.size());
  s[31] &= 0x7F;
  return s;
}

TEST(Fe25519, FieldAxioms) {
  Prg prg(Block{1, 1});
  for (int i = 0; i < 20; ++i) {
    const F a = rand_fe(prg), b = rand_fe(prg), c = rand_fe(prg);
    EXPECT_TRUE(F::eq(F::add(a, b), F::add(b, a)));
    EXPECT_TRUE(F::eq(F::mul(a, b), F::mul(b, a)));
    EXPECT_TRUE(F::eq(F::mul(a, F::add(b, c)),
                      F::add(F::mul(a, b), F::mul(a, c))));
    EXPECT_TRUE(F::eq(F::add(a, F::neg(a)), F::zero()));
    EXPECT_TRUE(F::eq(F::sub(a, b), F::add(a, F::neg(b))));
  }
}

TEST(Fe25519, InverseIsInverse) {
  Prg prg(Block{2, 2});
  for (int i = 0; i < 10; ++i) {
    const F a = rand_fe(prg);
    if (a.is_zero()) continue;
    EXPECT_TRUE(F::eq(F::mul(a, F::invert(a)), F::one()));
  }
}

TEST(Fe25519, BytesRoundTrip) {
  Prg prg(Block{3, 3});
  for (int i = 0; i < 20; ++i) {
    const F a = rand_fe(prg);
    uint8_t bytes[32];
    a.to_bytes(bytes);
    const F b = F::from_bytes(bytes);
    EXPECT_TRUE(F::eq(a, b));
  }
}

TEST(Fe25519, CanonicalReductionOfP) {
  // p itself must serialize to zero.
  uint8_t p_bytes[32] = {0xED, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                         0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                         0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                         0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F};
  EXPECT_TRUE(F::from_bytes(p_bytes).is_zero());
}

TEST(Fe25519, CswapWorks) {
  Prg prg(Block{4, 4});
  F a = rand_fe(prg), b = rand_fe(prg);
  const F a0 = a, b0 = b;
  F::cswap(a, b, 0);
  EXPECT_TRUE(F::eq(a, a0));
  F::cswap(a, b, 1);
  EXPECT_TRUE(F::eq(a, b0));
  EXPECT_TRUE(F::eq(b, a0));
}

TEST(Ed25519, BasePointOnCurve) {
  EXPECT_TRUE(P::base().on_curve());
  EXPECT_TRUE(P::identity().on_curve());
}

TEST(Ed25519, GroupLaws) {
  const P b = P::base();
  const P b2a = P::dbl(b);
  const P b2b = P::add(b, b);
  EXPECT_TRUE(P::eq(b2a, b2b));
  EXPECT_TRUE(b2a.on_curve());

  // Associativity spot-check: (B+2B)+2B == B+(2B+2B).
  const P lhs = P::add(P::add(b, b2a), b2a);
  const P rhs = P::add(b, P::add(b2a, b2a));
  EXPECT_TRUE(P::eq(lhs, rhs));

  // Identity and inverse.
  EXPECT_TRUE(P::eq(P::add(b, P::identity()), b));
  EXPECT_TRUE(P::add(b, P::neg(b)).is_identity());
}

TEST(Ed25519, OrderAnnihilatesBase) {
  const P lb = P::base_mul(ed25519_order());
  EXPECT_TRUE(lb.is_identity());
}

TEST(Ed25519, ScalarMulMatchesRepeatedAdd) {
  Ed25519Scalar five{};
  five[0] = 5;
  const P p5 = P::base_mul(five);
  P acc = P::identity();
  for (int i = 0; i < 5; ++i) acc = P::add(acc, P::base());
  EXPECT_TRUE(P::eq(p5, acc));
}

TEST(Ed25519, DiffieHellmanAgreement) {
  // The property the base OT relies on: a(bG) == b(aG).
  Prg prg(Block{5, 5});
  for (int i = 0; i < 4; ++i) {
    const auto a = rand_scalar(prg);
    const auto b = rand_scalar(prg);
    const P ab = P::mul(P::base_mul(b), a);
    const P ba = P::mul(P::base_mul(a), b);
    EXPECT_TRUE(P::eq(ab, ba));
  }
}

TEST(Ed25519, EncodeDecodeRoundTrip) {
  Prg prg(Block{6, 6});
  const P p = P::mul(P::base(), rand_scalar(prg));
  const auto enc = p.encode();
  const auto q = P::decode(enc.data());
  ASSERT_TRUE(q.has_value());
  EXPECT_TRUE(P::eq(p, *q));
}

TEST(Ed25519, DecodeRejectsOffCurve) {
  std::array<uint8_t, 64> junk{};
  junk[0] = 2;  // x = 2, y = 0 is not on the curve
  EXPECT_FALSE(P::decode(junk.data()).has_value());
}

TEST(Fe25519, InvertAndPowMatchSquareAndMultiply) {
  Prg prg(Block{7, 7});
  std::vector<F> xs = {F::zero(), F::one(), F::neg(F::one()),
                       F::from_u64(2), F::from_u64(19)};
  for (int i = 0; i < 1000; ++i) xs.push_back(rand_fe(prg));
  std::array<uint8_t, 32> p38;  // (p + 3) / 8 = 2^252 - 2
  p38.fill(0xFF);
  p38[0] = 0xFE;
  p38[31] = 0x0F;
  for (const F& x : xs) {
    uint8_t got[32], want[32];
    F::invert(x).to_bytes(got);
    ref_invert(x).to_bytes(want);
    ASSERT_TRUE(std::equal(got, got + 32, want));
    F::pow_p38(x).to_bytes(got);
    ref_pow(x, p38).to_bytes(want);
    ASSERT_TRUE(std::equal(got, got + 32, want));
  }
}

TEST(Fe25519, BatchInvertMatchesInvert) {
  Prg prg(Block{8, 8});
  std::vector<F> xs(33);
  for (auto& x : xs) x = rand_fe(prg);
  std::vector<F> inv = xs;
  F::invert_batch(inv.data(), inv.size());
  for (size_t i = 0; i < xs.size(); ++i)
    EXPECT_TRUE(F::eq(inv[i], F::invert(xs[i]))) << i;
}

// Windowed, fixed-base and per-point-table multiplication against the
// double-and-add oracle: random full-width scalars plus the window and
// group-order edges, on the generator, a random point and a point with
// an order-2 component (received points need not lie in the
// prime-order subgroup).
TEST(Ed25519, ScalarMulMatchesDoubleAndAdd) {
  Prg prg(Block{9, 9});
  std::vector<Ed25519Scalar> scalars;
  for (const uint8_t small : {0, 1, 2, 15, 16, 17}) {
    Ed25519Scalar k{};
    k[0] = small;
    scalars.push_back(k);
  }
  const Ed25519Scalar l = ed25519_order();
  Ed25519Scalar l_minus_1 = l, l_plus_1 = l;
  l_minus_1[0] -= 1;  // l ends in 0xED: no borrow
  l_plus_1[0] += 1;
  scalars.insert(scalars.end(), {l_minus_1, l, l_plus_1});
  Ed25519Scalar top{};  // 2^255 - 1
  top.fill(0xFF);
  top[31] = 0x7F;
  scalars.push_back(top);
  top[31] = 0xFF;  // 2^256 - 1
  scalars.push_back(top);
  for (int i = 0; i < 1000; ++i) {
    Ed25519Scalar k;
    prg.fill_bytes(k.data(), k.size());
    scalars.push_back(k);
  }

  P order2 = P::identity();  // (0, -1)
  order2.y = F::neg(F::one());
  const P random_point = ref_mul(P::base(), rand_scalar(prg));
  const P points[] = {P::base(), random_point, P::add(random_point, order2)};
  for (const P& pt : points) {
    ASSERT_TRUE(pt.on_curve());
    const Ed25519Table table(pt);
    for (size_t i = 0; i < scalars.size(); ++i) {
      const auto& k = scalars[i];
      const auto want = ref_encode(ref_mul(pt, k));
      ASSERT_EQ(P::mul(pt, k).encode(), want) << "mul, scalar " << i;
      ASSERT_EQ(table.mul(k).encode(), want) << "table, scalar " << i;
      if (&pt == &points[0]) {
        ASSERT_EQ(P::base_mul(k).encode(), want) << "base_mul, scalar " << i;
      }
    }
  }
}

TEST(Ed25519, BatchEncodeMatchesEncode) {
  Prg prg(Block{10, 10});
  std::vector<P> pts = {P::identity(), P::base()};
  for (int i = 0; i < 40; ++i) {
    // Unnormalized Z: the sum of two points, not an affine decode.
    pts.push_back(P::add(P::base_mul(rand_scalar(prg)), pts.back()));
  }
  std::vector<uint8_t> batch(64 * pts.size());
  P::encode_batch(pts.data(), pts.size(), batch.data());
  for (size_t i = 0; i < pts.size(); ++i) {
    const auto single = pts[i].encode();
    EXPECT_TRUE(std::equal(single.begin(), single.end(), &batch[64 * i])) << i;
    EXPECT_EQ(single, ref_encode(pts[i])) << i;
  }
}

}  // namespace
}  // namespace deepsecure
