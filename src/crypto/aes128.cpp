#include "crypto/aes128.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "crypto/hash_backend.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace deepsecure {
namespace {

// ---------------------------------------------------------------------
// Portable software AES-128. Straightforward S-box implementation; the
// hot path in release builds is the AES-NI backend, so clarity wins here.
// ---------------------------------------------------------------------

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

uint8_t xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1B));
}

void sub_bytes(uint8_t s[16]) {
  for (int i = 0; i < 16; ++i) s[i] = kSbox[s[i]];
}

void shift_rows(uint8_t s[16]) {
  // State is column-major: s[4*col + row].
  uint8_t t[16];
  for (int c = 0; c < 4; ++c)
    for (int r = 0; r < 4; ++r) t[4 * c + r] = s[4 * ((c + r) & 3) + r];
  std::memcpy(s, t, 16);
}

void mix_columns(uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* p = s + 4 * c;
    const uint8_t a0 = p[0], a1 = p[1], a2 = p[2], a3 = p[3];
    p[0] = static_cast<uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    p[1] = static_cast<uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    p[2] = static_cast<uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    p[3] = static_cast<uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

void add_round_key(uint8_t s[16], Block rk) {
  uint8_t k[16];
  rk.to_bytes(k);
  for (int i = 0; i < 16; ++i) s[i] ^= k[i];
}

std::atomic<bool> g_force_software{false};

bool detect_aesni() {
#if defined(DEEPSECURE_AESNI_COMPILED) && (defined(__x86_64__) || defined(__i386__))
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  return (ecx & (1u << 25)) != 0;  // AESNI feature bit
#else
  return false;
#endif
}

}  // namespace

Aes128Key aes128_expand(Block key) {
  static constexpr uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                        0x20, 0x40, 0x80, 0x1B, 0x36};
  uint8_t w[11][16];
  key.to_bytes(w[0]);
  for (int r = 1; r <= 10; ++r) {
    uint8_t t[4] = {w[r - 1][12], w[r - 1][13], w[r - 1][14], w[r - 1][15]};
    // RotWord + SubWord + Rcon
    const uint8_t tmp = t[0];
    t[0] = static_cast<uint8_t>(kSbox[t[1]] ^ kRcon[r - 1]);
    t[1] = kSbox[t[2]];
    t[2] = kSbox[t[3]];
    t[3] = kSbox[tmp];
    for (int i = 0; i < 4; ++i) w[r][i] = static_cast<uint8_t>(w[r - 1][i] ^ t[i]);
    for (int i = 4; i < 16; ++i)
      w[r][i] = static_cast<uint8_t>(w[r - 1][i] ^ w[r][i - 4]);
  }
  Aes128Key out;
  for (int r = 0; r <= 10; ++r) out.rounds[r] = Block::from_bytes(w[r]);
  return out;
}

namespace detail {

Block aes128_encrypt_soft(const Aes128Key& key, Block pt) {
  uint8_t s[16];
  pt.to_bytes(s);
  add_round_key(s, key.rounds[0]);
  for (int r = 1; r < 10; ++r) {
    sub_bytes(s);
    shift_rows(s);
    mix_columns(s);
    add_round_key(s, key.rounds[r]);
  }
  sub_bytes(s);
  shift_rows(s);
  add_round_key(s, key.rounds[10]);
  return Block::from_bytes(s);
}

void aes128_encrypt_batch_soft(const Aes128Key& key, Block* blocks, size_t n) {
  for (size_t i = 0; i < n; ++i) blocks[i] = aes128_encrypt_soft(key, blocks[i]);
}

bool aes128_software_forced() {
  return g_force_software.load(std::memory_order_relaxed);
}

}  // namespace detail

bool aes128_ni_available() {
  static const bool avail = detect_aesni();
  return avail && !g_force_software.load(std::memory_order_relaxed);
}

void aes128_force_software(bool force) {
  g_force_software.store(force, std::memory_order_relaxed);
  // Hardware backends gate on this flag; drop the cached selection so
  // the next sweep re-resolves against the new availability set.
  detail::hash_backend_reselect();
}

Block aes128_encrypt(const Aes128Key& key, Block pt) {
#if defined(DEEPSECURE_AESNI_COMPILED)
  if (aes128_ni_available()) return detail::aes128_encrypt_ni(key, pt);
#endif
  return detail::aes128_encrypt_soft(key, pt);
}

void aes128_encrypt_batch(const Aes128Key& key, Block* blocks, size_t n) {
  const HashBackend& be = hash_backend();
  be.encrypt_batch(key, blocks, n);
}

const Aes128Key& fixed_garbling_key() {
  // Fixed public constant (digits of pi). See Bellare et al. S&P'13.
  static const Aes128Key key =
      aes128_expand(Block{0x243F6A8885A308D3ull, 0x13198A2E03707344ull});
  return key;
}

Block gc_hash(Block x, uint64_t tweak) {
  const Block k = x.gf_double() ^ Block{tweak, 0};
  return aes128_encrypt(fixed_garbling_key(), k) ^ k;
}

Block gc_hash2(Block x, Block y, uint64_t tweak) {
  const Block k = x.gf_double() ^ y.gf_double().gf_double() ^ Block{tweak, 0};
  return aes128_encrypt(fixed_garbling_key(), k) ^ k;
}

namespace {
// Chunk size for the batched hashes: large enough to keep the widest
// (16-block VAES) pipeline saturated, small enough to stay in L1 (and
// on the stack). Counted in blocks.
constexpr size_t kHashChunk = 128;
}  // namespace

void gc_hash_batch(const HashBackend& be, const Block* inputs,
                   const uint64_t* tweaks, Block* out, size_t n) {
  const Aes128Key& key = fixed_garbling_key();
  Block k[kHashChunk];
  for (size_t base = 0; base < n; base += kHashChunk) {
    const size_t m = std::min(kHashChunk, n - base);
    for (size_t i = 0; i < m; ++i)
      k[i] = inputs[base + i].gf_double() ^ Block{tweaks[base + i], 0};
    std::memcpy(out + base, k, m * sizeof(Block));
    be.encrypt_batch(key, out + base, m);
    for (size_t i = 0; i < m; ++i) out[base + i] ^= k[i];
  }
}

void gc_hash_pairs(const HashBackend& be, const Block* x0, Block delta,
                   const uint64_t* tweaks, Block* out, size_t n) {
  const Aes128Key& key = fixed_garbling_key();
  const Block d2 = delta.gf_double();
  constexpr size_t kPairChunk = kHashChunk / 2;
  Block k[kHashChunk];
  for (size_t base = 0; base < n; base += kPairChunk) {
    const size_t m = std::min(kPairChunk, n - base);
    for (size_t i = 0; i < m; ++i) {
      const Block kx = x0[base + i].gf_double() ^ Block{tweaks[base + i], 0};
      k[2 * i] = kx;
      k[2 * i + 1] = kx ^ d2;
    }
    std::memcpy(out + 2 * base, k, 2 * m * sizeof(Block));
    be.encrypt_batch(key, out + 2 * base, 2 * m);
    for (size_t i = 0; i < 2 * m; ++i) out[2 * base + i] ^= k[i];
  }
}

void gc_hash_batch(const Block* inputs, const uint64_t* tweaks, Block* out,
                   size_t n) {
  gc_hash_batch(hash_backend(), inputs, tweaks, out, n);
}

void gc_hash_pairs(const Block* x0, Block delta, const uint64_t* tweaks,
                   Block* out, size_t n) {
  gc_hash_pairs(hash_backend(), x0, delta, tweaks, out, n);
}

}  // namespace deepsecure
