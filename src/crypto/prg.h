// Cryptographic pseudo-random generator: AES-128 in counter mode.
// Used for wire-label sampling and OT-extension column expansion.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/aes128.h"
#include "crypto/block.h"

namespace deepsecure {

class Prg {
 public:
  /// Seeded PRG; distinct seeds give computationally independent streams.
  explicit Prg(Block seed);

  /// Fresh random seed from the OS entropy source.
  static Prg from_os_entropy();

  Block next_block();
  void next_blocks(Block* out, size_t n);
  void fill_bytes(void* dst, size_t n);
  uint64_t next_u64() { return next_block().lo; }

  /// `n` pseudo-random bits, one byte (0/1) per bit: the unpacked form
  /// of next_bits_packed, consuming the same keystream.
  std::vector<uint8_t> expand_bits(size_t n);

  /// `n` pseudo-random bits as a bit-packed column (IKNP): the next
  /// ceil(n/128) keystream blocks as they are, so bit j is bit j%64 of
  /// out[j/128].lo (j%128 < 64) or .hi. Bits past n are zeroed.
  void next_bits_packed(Block* out, size_t n);

 private:
  Aes128Key key_;
  uint64_t counter_ = 0;
};

/// Process-global PRG for label generation (thread-local instances).
Prg& thread_prg();

}  // namespace deepsecure
