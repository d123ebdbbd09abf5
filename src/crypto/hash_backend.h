// Pluggable fixed-key hash / AES batch backend — the runtime-dispatched
// kernel behind gc_hash_batch, gc_hash_pairs and Prg's counter-mode
// expansion. The garbling pipeline stages whole batch windows (~1024
// ANDs) into dense staging lines (gc/batch_walk.h); a backend is the
// kernel that sweeps those lines. Every backend computes the identical
// AES-128 function, so garbled tables are byte-identical regardless of
// which one runs — the selection is purely a local throughput choice
// and is never negotiated with the peer.
//
// Compiled backends (widest first = auto-selection preference):
//   vaes16     16-wide VAES/AVX-512 (four 512-bit states in flight);
//              needs -mvaes -mavx512f at build time, VAES+AVX512F+OS
//              ZMM state at run time
//   aesni8     8-wide AES-NI pipeline (PR 1 kernel); needs -maes and
//              the CPUID AES bit
//   bitsliced8 constant-time software AES: two 4-block bitsliced lines
//              per sweep (eight 64-bit bitplanes, Boyar–Peralta S-box
//              circuit) — no tables, no data-dependent branches, and
//              ~2-3x the scalar S-box loop, so non-AES-NI hosts profit
//              from batching too
//   scalar     the retained one-block-at-a-time S-box reference
//
// Selection, in precedence order:
//   1. GcOptions::hash_backend / StreamConfig::hash_backend (per
//      endpoint; resolved by name, silently ignored if unavailable)
//   2. set_hash_backend(name) — process-wide force, for tests/bench
//   3. DEEPSECURE_HASH_BACKEND environment variable
//   4. CPUID auto-dispatch: first compiled backend whose available()
//      check passes
// An env/force naming an unavailable backend falls back to auto
// dispatch (never crashes on a host without the ISA).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "crypto/aes128.h"

namespace deepsecure {

/// One batch-AES kernel. Plain function-pointer table so a backend adds
/// no virtual dispatch inside the sweep — one indirect call per window,
/// thousands of blocks amortize it.
struct HashBackend {
  const char* name;     // "vaes16" | "aesni8" | "bitsliced8" | "scalar"
  size_t width;         // blocks in flight per pipelined sweep
  bool constant_time;   // no secret-dependent lookups/branches
  const char* isa;      // human-readable ISA requirement ("none", ...)
  bool (*available)();  // runtime CPUID / force-software check
  /// Encrypt `n` blocks in place under `key`. Must accept any n >= 0
  /// (tails included) and aliased input/output (it is in place).
  void (*encrypt_batch)(const Aes128Key& key, Block* blocks, size_t n);
};

/// Every backend compiled into this binary, preference order (widest
/// first). Availability is NOT filtered — check (*available)().
const std::vector<const HashBackend*>& compiled_hash_backends();

/// Compiled backend by name; nullptr when unknown or not compiled in.
const HashBackend* find_hash_backend(std::string_view name);

/// The active process-wide backend. Resolved once on first use (env,
/// then CPUID auto-dispatch); stable until set_hash_backend or
/// aes128_force_software changes the selection.
const HashBackend& hash_backend();

/// Force the process-wide backend by name. Returns false (selection
/// unchanged) when the name is unknown or the backend is unavailable on
/// this host. An empty name re-runs the full resolution (env + auto) —
/// how tests restore the default. Not safe concurrently with in-flight
/// garbling; call between operations.
bool set_hash_backend(std::string_view name);

/// CPUID feature summary relevant to backend dispatch, e.g.
/// "aesni,avx2,avx512f,vaes" ("none" when nothing relevant is present).
/// Recorded in bench JSON and server stats so every measured rate is
/// attributable to the kernel and ISA that produced it.
std::string hash_backend_cpu_features();

/// Backend-explicit variants of the fixed-key hash sweeps (aes128.h
/// documents the math). The plain overloads in aes128.h route through
/// hash_backend(); these let an endpoint honor GcOptions::hash_backend.
void gc_hash_batch(const HashBackend& be, const Block* inputs,
                   const uint64_t* tweaks, Block* out, size_t n);
void gc_hash_pairs(const HashBackend& be, const Block* x0, Block delta,
                   const uint64_t* tweaks, Block* out, size_t n);

namespace detail {
/// Invalidate the cached selection (called when force-software flips).
void hash_backend_reselect();
}  // namespace detail

}  // namespace deepsecure
