#include "crypto/prg.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>

namespace deepsecure {

Prg::Prg(Block seed) : key_(aes128_expand(seed)) {}

Prg Prg::from_os_entropy() {
  Block seed;
  std::ifstream urandom("/dev/urandom", std::ios::binary);
  if (urandom) {
    uint8_t buf[16];
    urandom.read(reinterpret_cast<char*>(buf), sizeof(buf));
    if (urandom.gcount() == sizeof(buf)) seed = Block::from_bytes(buf);
  }
  // Mix in the clock as a fallback if /dev/urandom was unavailable.
  seed.lo ^= static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return Prg(seed);
}

Block Prg::next_block() {
  Block ctr{counter_++, 0};
  return aes128_encrypt(key_, ctr);
}

void Prg::next_blocks(Block* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = Block{counter_++, 0};
  aes128_encrypt_batch(key_, out, n);
}

void Prg::fill_bytes(void* dst, size_t n) {
  // Counter-block chunks through the batched AES kernel; same keystream
  // (and therefore identical bytes) as the old one-block-at-a-time loop.
  constexpr size_t kChunk = 128;
  Block buf[kChunk];
  auto* p = static_cast<uint8_t*>(dst);
  while (n >= 16) {
    const size_t m = std::min(n / 16, kChunk);
    next_blocks(buf, m);
    for (size_t i = 0; i < m; ++i) buf[i].to_bytes(p + 16 * i);
    p += 16 * m;
    n -= 16 * m;
  }
  if (n > 0) {
    uint8_t tmp[16];
    next_block().to_bytes(tmp);
    std::memcpy(p, tmp, n);
  }
}

std::vector<uint8_t> Prg::expand_bits(size_t n) {
  std::vector<Block> packed((n + 127) / 128);
  next_bits_packed(packed.data(), n);
  std::vector<uint8_t> bits(n);
  for (size_t i = 0; i < n; ++i) {
    const Block& b = packed[i / 128];
    const uint64_t word = (i % 128) < 64 ? b.lo : b.hi;
    bits[i] = static_cast<uint8_t>((word >> (i % 64)) & 1u);
  }
  return bits;
}

void Prg::next_bits_packed(Block* out, size_t n) {
  const size_t blocks = (n + 127) / 128;
  next_blocks(out, blocks);
  const size_t tail = n % 128;  // valid bits in the last block (0 = all)
  if (tail == 0) return;
  Block& last = out[blocks - 1];
  if (tail <= 64) {
    last.hi = 0;
    if (tail < 64) last.lo &= (1ull << tail) - 1;
  } else {
    last.hi &= (1ull << (tail - 64)) - 1;
  }
}

Prg& thread_prg() {
  thread_local Prg prg = Prg::from_os_entropy();
  return prg;
}

}  // namespace deepsecure
