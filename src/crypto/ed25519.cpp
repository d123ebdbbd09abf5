#include "crypto/ed25519.h"

#include <cassert>

namespace deepsecure {
namespace {

// Branch-free select: out = bit ? b : a.
Fe25519 fe_select(const Fe25519& a, const Fe25519& b, uint64_t bit) {
  const uint64_t mask = 0 - (bit & 1);
  Fe25519 r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] ^ (mask & (a.v[i] ^ b.v[i]));
  return r;
}

const Fe25519& two_d() {
  static const Fe25519 k2d = Fe25519::add(ed25519_d(), ed25519_d());
  return k2d;
}

// All-ones when a == b, else zero; no branch (a, b < 2^63).
uint64_t eq_mask(uint64_t a, uint64_t b) {
  return 0 - (((a ^ b) - 1) >> 63);
}

// acc |= mask & x, limb by limb.
void fe_or_masked(Fe25519& acc, const Fe25519& x, uint64_t mask) {
  for (int i = 0; i < 5; ++i) acc.v[i] |= mask & x.v[i];
}

// Projective Niels form (Y+X, Y-X, 2Z, 2dT) of a table entry for the
// variable-base window: adding it costs 8 muls instead of 9.
struct ProjNiels {
  Fe25519 ypx, ymx, z2, t2d;
};

// Table lookups OR together every entry masked by eq_mask(j, index): all
// entries are read whatever the index, so the lookup leaks nothing
// through timing or the cache.
ProjNiels ct_lookup(const ProjNiels* row, size_t n, uint64_t index) {
  ProjNiels r{};
  for (size_t j = 0; j < n; ++j) {
    const uint64_t mask = eq_mask(j, index);
    fe_or_masked(r.ypx, row[j].ypx, mask);
    fe_or_masked(r.ymx, row[j].ymx, mask);
    fe_or_masked(r.z2, row[j].z2, mask);
    fe_or_masked(r.t2d, row[j].t2d, mask);
  }
  return r;
}

Ed25519Table::Niels ct_lookup(const Ed25519Table::Niels* row, size_t n,
                              uint64_t index) {
  Ed25519Table::Niels r{};
  for (size_t j = 0; j < n; ++j) {
    const uint64_t mask = eq_mask(j, index);
    fe_or_masked(r.ypx, row[j].ypx, mask);
    fe_or_masked(r.ymx, row[j].ymx, mask);
    fe_or_masked(r.xy2d, row[j].xy2d, mask);
  }
  return r;
}

ProjNiels to_proj_niels(const Ed25519Point& p) {
  using F = Fe25519;
  return {F::add(p.y, p.x), F::sub(p.y, p.x), F::add(p.z, p.z),
          F::mul(p.t, two_d())};
}

// Shared tail of the a = -1 addition formulas (EFD add-2008-hwcd-3) and
// of doubling.
Ed25519Point from_efgh(const Fe25519& e, const Fe25519& f, const Fe25519& g,
                       const Fe25519& h) {
  using F = Fe25519;
  Ed25519Point r;
  r.x = F::mul(e, f);
  r.y = F::mul(g, h);
  r.t = F::mul(e, h);
  r.z = F::mul(f, g);
  return r;
}

// p + q, q in projective Niels form. Complete: the identity entry
// (1, 1, 2, 0) works like any other.
Ed25519Point add_proj_niels(const Ed25519Point& p, const ProjNiels& q) {
  using F = Fe25519;
  const F a = F::mul(F::sub(p.y, p.x), q.ymx);
  const F b = F::mul(F::add(p.y, p.x), q.ypx);
  const F c = F::mul(p.t, q.t2d);
  const F d = F::mul(p.z, q.z2);
  return from_efgh(F::sub(b, a), F::sub(d, c), F::add(d, c), F::add(b, a));
}

// p + q, q in affine Niels form (Z = 1): 7 muls.
Ed25519Point add_affine_niels(const Ed25519Point& p,
                              const Ed25519Table::Niels& q) {
  using F = Fe25519;
  const F a = F::mul(F::sub(p.y, p.x), q.ymx);
  const F b = F::mul(F::add(p.y, p.x), q.ypx);
  const F c = F::mul(p.t, q.xy2d);
  const F d = F::add(p.z, p.z);
  return from_efgh(F::sub(b, a), F::sub(d, c), F::add(d, c), F::add(b, a));
}

// Nibble w (0..63) of a little-endian 256-bit scalar.
uint64_t nibble(const Ed25519Scalar& k, int w) {
  return (k[w / 2] >> (4 * (w % 2))) & 0xFu;
}

constexpr int kWindows = 64;  // 4-bit windows in a 256-bit scalar
constexpr int kWindowSize = 16;

}  // namespace

const Fe25519& ed25519_d() {
  // d = -121665/121666 mod p.
  static const Fe25519 d = Fe25519::mul(
      Fe25519::neg(Fe25519::from_u64(121665)),
      Fe25519::invert(Fe25519::from_u64(121666)));
  return d;
}

Ed25519Scalar ed25519_order() {
  // l = 2^252 + 27742317777372353535851937790883648493, little-endian.
  return Ed25519Scalar{0xED, 0xD3, 0xF5, 0x5C, 0x1A, 0x63, 0x12, 0x58,
                       0xD6, 0x9C, 0xF7, 0xA2, 0xDE, 0xF9, 0xDE, 0x14,
                       0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                       0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10};
}

const Ed25519Point& Ed25519Point::base() {
  static const Ed25519Point b = [] {
    // Standard generator: y = 4/5, x the even root (RFC 8032 constant).
    static constexpr uint8_t kBx[32] = {
        0x1A, 0xD5, 0x25, 0x8F, 0x60, 0x2D, 0x56, 0xC9, 0xB2, 0xA7, 0x25,
        0x95, 0x60, 0xC7, 0x2C, 0x69, 0x5C, 0xDC, 0xD6, 0xFD, 0x31, 0xE2,
        0xA4, 0xC0, 0xFE, 0x53, 0x6E, 0xCD, 0xD3, 0x36, 0x69, 0x21};
    Ed25519Point p;
    p.x = Fe25519::from_bytes(kBx);
    p.y = Fe25519::mul(Fe25519::from_u64(4),
                       Fe25519::invert(Fe25519::from_u64(5)));
    p.z = Fe25519::one();
    p.t = Fe25519::mul(p.x, p.y);
    assert(p.on_curve());
    return p;
  }();
  return b;
}

Ed25519Point Ed25519Point::identity() {
  Ed25519Point p;
  p.x = Fe25519::zero();
  p.y = Fe25519::one();
  p.z = Fe25519::one();
  p.t = Fe25519::zero();
  return p;
}

Ed25519Point Ed25519Point::add(const Ed25519Point& p, const Ed25519Point& q) {
  return add_proj_niels(p, to_proj_niels(q));
}

Ed25519Point Ed25519Point::dbl(const Ed25519Point& p) {
  // EFD dbl-2008-hwcd for a = -1.
  using F = Fe25519;
  const F a = F::square(p.x);
  const F b = F::square(p.y);
  const F zz = F::square(p.z);
  const F c = F::add(zz, zz);
  const F d = F::neg(a);
  const F xy = F::square(F::add(p.x, p.y));
  const F e = F::sub(F::sub(xy, a), b);
  const F g = F::add(d, b);
  const F f = F::sub(g, c);
  const F h = F::sub(d, b);
  return from_efgh(e, f, g, h);
}

Ed25519Point Ed25519Point::neg(const Ed25519Point& p) {
  Ed25519Point r = p;
  r.x = Fe25519::neg(p.x);
  r.t = Fe25519::neg(p.t);
  return r;
}

Ed25519Point Ed25519Point::select(const Ed25519Point& a,
                                  const Ed25519Point& b, uint64_t bit) {
  Ed25519Point r;
  r.x = fe_select(a.x, b.x, bit);
  r.y = fe_select(a.y, b.y, bit);
  r.z = fe_select(a.z, b.z, bit);
  r.t = fe_select(a.t, b.t, bit);
  return r;
}

Ed25519Point Ed25519Point::mul(const Ed25519Point& p, const Ed25519Scalar& k) {
  // table[j] = j * p.
  ProjNiels table[kWindowSize];
  Ed25519Point multiple = identity();
  for (int j = 0; j < kWindowSize; ++j) {
    table[j] = to_proj_niels(multiple);
    multiple = add(multiple, p);
  }
  Ed25519Point acc = identity();
  for (int w = kWindows - 1; w >= 0; --w) {
    for (int i = 0; i < 4; ++i) acc = dbl(acc);
    acc = add_proj_niels(acc, ct_lookup(table, kWindowSize, nibble(k, w)));
  }
  return acc;
}

Ed25519Point Ed25519Point::base_mul(const Ed25519Scalar& k) {
  static const Ed25519Table table(base());
  return table.mul(k);
}

Ed25519Table::Ed25519Table(const Ed25519Point& p) {
  // Projective multiples first, then one batched inversion for all Z.
  std::vector<Ed25519Point> pts(kWindows * kWindowSize);
  Ed25519Point row_base = p;  // 16^w * p
  for (int w = 0; w < kWindows; ++w) {
    Ed25519Point* row = &pts[w * kWindowSize];
    row[0] = Ed25519Point::identity();
    for (int j = 1; j < kWindowSize; ++j)
      row[j] = Ed25519Point::add(row[j - 1], row_base);
    row_base = Ed25519Point::add(row[kWindowSize - 1], row_base);
  }
  std::vector<Fe25519> zinv(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) zinv[i] = pts[i].z;
  Fe25519::invert_batch(zinv.data(), zinv.size());
  entries_.resize(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    using F = Fe25519;
    const F x = F::mul(pts[i].x, zinv[i]);
    const F y = F::mul(pts[i].y, zinv[i]);
    entries_[i] = {F::add(y, x), F::sub(y, x), F::mul(F::mul(x, y), two_d())};
  }
}

Ed25519Point Ed25519Table::mul(const Ed25519Scalar& k) const {
  // k * P = sum over windows w of nibble_w * 16^w * P: one lookup and
  // one mixed addition per window.
  Ed25519Point acc = Ed25519Point::identity();
  for (int w = 0; w < kWindows; ++w)
    acc = add_affine_niels(
        acc, ct_lookup(&entries_[w * kWindowSize], kWindowSize, nibble(k, w)));
  return acc;
}

std::array<uint8_t, 64> Ed25519Point::encode() const {
  std::array<uint8_t, 64> out{};
  encode_batch(this, 1, out.data());
  return out;
}

void Ed25519Point::encode_batch(const Ed25519Point* pts, size_t n,
                                uint8_t* out) {
  std::vector<Fe25519> zinv(n);
  for (size_t i = 0; i < n; ++i) zinv[i] = pts[i].z;
  Fe25519::invert_batch(zinv.data(), n);
  for (size_t i = 0; i < n; ++i) {
    Fe25519::mul(pts[i].x, zinv[i]).to_bytes(out + 64 * i);
    Fe25519::mul(pts[i].y, zinv[i]).to_bytes(out + 64 * i + 32);
  }
}

std::optional<Ed25519Point> Ed25519Point::decode(const uint8_t in[64]) {
  Ed25519Point p;
  p.x = Fe25519::from_bytes(in);
  p.y = Fe25519::from_bytes(in + 32);
  p.z = Fe25519::one();
  p.t = Fe25519::mul(p.x, p.y);
  if (!p.on_curve()) return std::nullopt;
  return p;
}

bool Ed25519Point::eq(const Ed25519Point& p, const Ed25519Point& q) {
  using F = Fe25519;
  return F::eq(F::mul(p.x, q.z), F::mul(q.x, p.z)) &&
         F::eq(F::mul(p.y, q.z), F::mul(q.y, p.z));
}

bool Ed25519Point::on_curve() const {
  // Projective curve equation: (-X^2 + Y^2) Z^2 == Z^4 + d X^2 Y^2,
  // plus the extended-coordinate invariant T Z == X Y.
  using F = Fe25519;
  const F xx = F::square(x);
  const F yy = F::square(y);
  const F zz = F::square(z);
  const F lhs = F::mul(F::sub(yy, xx), zz);
  const F rhs = F::add(F::square(zz), F::mul(ed25519_d(), F::mul(xx, yy)));
  if (!F::eq(lhs, rhs)) return false;
  return F::eq(F::mul(t, z), F::mul(x, y));
}

}  // namespace deepsecure
