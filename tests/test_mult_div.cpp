#include <gtest/gtest.h>

#include "synth/divider.h"
#include "synth/mult.h"
#include "test_util.h"

namespace deepsecure::synth {
namespace {

using test::random_fixed;

int64_t run_mult(int64_t a, int64_t b, FixedFormat fmt) {
  Builder bld;
  const Bus x = input_fixed(bld, Party::kGarbler, fmt);
  const Bus y = input_fixed(bld, Party::kEvaluator, fmt);
  bld.outputs(mult_fixed(bld, x, y, fmt.frac_bits));
  const Circuit c = bld.build();
  const BitVec out = c.eval(Fixed::from_raw(a, fmt).to_bits(),
                            Fixed::from_raw(b, fmt).to_bits());
  return Fixed::from_bits(out, fmt).raw();
}

class MultSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(MultSweep, MatchesFixedReference) {
  const size_t width = GetParam();
  const FixedFormat fmt{width, width - 4};
  Rng rng(width * 31);
  for (int i = 0; i < 60; ++i) {
    const Fixed a = random_fixed(rng, fmt);
    const Fixed b = random_fixed(rng, fmt);
    EXPECT_EQ(run_mult(a.raw(), b.raw(), fmt), (a * b).raw())
        << "w=" << width << " a=" << a.raw() << " b=" << b.raw();
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MultSweep, ::testing::Values(8, 12, 16, 20));

TEST(Mult, ExhaustiveSmallSigned) {
  const FixedFormat fmt{5, 2};
  for (int a = -16; a < 16; ++a)
    for (int b = -16; b < 16; ++b)
      EXPECT_EQ(run_mult(a, b, fmt),
                (Fixed::from_raw(a, fmt) * Fixed::from_raw(b, fmt)).raw())
          << a << "*" << b;
}

TEST(Mult, IntegerLowBits) {
  const FixedFormat fmt{16, 0};
  Builder bld;
  const Bus x = input_fixed(bld, Party::kGarbler, fmt);
  const Bus y = input_fixed(bld, Party::kEvaluator, fmt);
  bld.outputs(mult_low(bld, x, y));
  const Circuit c = bld.build();
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const int64_t a = deepsecure::sign_extend(rng.next_u64(), 16);
    const int64_t b = deepsecure::sign_extend(rng.next_u64(), 16);
    const BitVec out = c.eval(Fixed::from_raw(a, fmt).to_bits(),
                              Fixed::from_raw(b, fmt).to_bits());
    EXPECT_EQ(Fixed::from_bits(out, fmt).raw(),
              deepsecure::sign_extend(static_cast<uint64_t>(a * b), 16));
  }
}

TEST(Mult, ConstantMultFoldsGates) {
  const FixedFormat fmt = kDefaultFormat;
  Builder b1;
  const Bus x1 = input_fixed(b1, Party::kGarbler, fmt);
  b1.outputs(mult_const_fixed(b1, x1, 0.25, fmt));  // power of two
  Builder b2;
  const Bus x2 = input_fixed(b2, Party::kGarbler, fmt);
  const Bus y2 = input_fixed(b2, Party::kEvaluator, fmt);
  b2.outputs(mult_fixed(b2, x2, y2, fmt.frac_bits));
  // A power-of-two constant multiply must be far cheaper than generic.
  EXPECT_LT(b1.and_count() * 5, b2.and_count());

  // And it must still be correct.
  Builder b3;
  const Bus x3 = input_fixed(b3, Party::kGarbler, fmt);
  b3.outputs(mult_const_fixed(b3, x3, 0.3125, fmt));
  const Circuit c = b3.build();
  Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    const Fixed a = random_fixed(rng, fmt);
    const BitVec out = c.eval(a.to_bits(), {});
    EXPECT_EQ(Fixed::from_bits(out, fmt).raw(),
              (a * Fixed::from_double(0.3125, fmt)).raw());
  }
}

int64_t run_div(int64_t a, int64_t b, FixedFormat fmt, bool fixed_point) {
  Builder bld;
  const Bus x = input_fixed(bld, Party::kGarbler, fmt);
  const Bus y = input_fixed(bld, Party::kEvaluator, fmt);
  bld.outputs(fixed_point ? div_fixed(bld, x, y, fmt.frac_bits)
                          : div_signed(bld, x, y));
  const Circuit c = bld.build();
  const BitVec out = c.eval(Fixed::from_raw(a, fmt).to_bits(),
                            Fixed::from_raw(b, fmt).to_bits());
  return Fixed::from_bits(out, fmt).raw();
}

TEST(Div, SignedIntegerQuotient) {
  const FixedFormat fmt{16, 0};
  Rng rng(23);
  for (int i = 0; i < 60; ++i) {
    int64_t a = deepsecure::sign_extend(rng.next_u64(), 15);
    int64_t b = deepsecure::sign_extend(rng.next_u64(), 12);
    if (b == 0) b = 3;
    EXPECT_EQ(run_div(a, b, fmt, false), a / b) << a << "/" << b;
  }
}

TEST(Div, ExhaustiveSmall) {
  const FixedFormat fmt{6, 0};
  for (int a = -32; a < 32; ++a)
    for (int b = -32; b < 32; ++b) {
      if (b == 0) continue;
      // Compare under the format's wrap-around semantics (-32/-1 wraps).
      EXPECT_EQ(run_div(a, b, fmt, false), Fixed::from_raw(a / b, fmt).raw())
          << a << "/" << b;
    }
}

TEST(Div, FixedPointQuotient) {
  const FixedFormat fmt = kDefaultFormat;
  Rng rng(29);
  for (int i = 0; i < 40; ++i) {
    const double a = rng.next_uniform(-3, 3);
    double b = rng.next_uniform(0.5, 4.0) * (rng.next_bool() ? 1 : -1);
    const Fixed fa = Fixed::from_double(a, fmt);
    const Fixed fb = Fixed::from_double(b, fmt);
    const int64_t q = run_div(fa.raw(), fb.raw(), fmt, true);
    const double expect = fa.to_double() / fb.to_double();
    EXPECT_NEAR(static_cast<double>(q) / 4096.0, expect, 2.0 / 4096.0)
        << a << "/" << b;
  }
}

TEST(Div, UnsignedCore) {
  Builder bld;
  const Bus x = input_bus(bld, Party::kGarbler, 8);
  const Bus y = input_bus(bld, Party::kEvaluator, 8);
  bld.outputs(div_unsigned(bld, x, y));
  const Circuit c = bld.build();
  for (uint64_t a : {0ull, 1ull, 17ull, 128ull, 255ull}) {
    for (uint64_t b : {1ull, 2ull, 3ull, 100ull, 255ull}) {
      const BitVec out = c.eval(to_bits(a, 8), to_bits(b, 8));
      EXPECT_EQ(from_bits(out), a / b) << a << "/" << b;
    }
  }
}

}  // namespace
}  // namespace deepsecure::synth
