// Backend cross-product tests: every compiled hash backend must compute
// the identical AES function — and therefore identical garbled tables,
// material artifacts, and PRG keystreams — as the scalar software
// oracle. Also covers the selection machinery: env override, forced
// names, and graceful fallback when a named backend's ISA is
// unavailable.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "circuit/bench_circuits.h"
#include "circuit/builder.h"
#include "crypto/aes128.h"
#include "crypto/hash_backend.h"
#include "crypto/prg.h"
#include "gc/garble.h"
#include "gc/material.h"
#include "net/party.h"
#include "support/rng.h"

namespace deepsecure {
namespace {

// Restores the process-wide selection (env + auto dispatch) on exit so
// a failing test cannot leak a forced backend into the rest of the run.
class BackendGuard {
 public:
  ~BackendGuard() {
    aes128_force_software(false);
    set_hash_backend("");
  }
};

class ForceSoftwareGuard {
 public:
  ForceSoftwareGuard() { aes128_force_software(true); }
  ~ForceSoftwareGuard() { aes128_force_software(false); }
};

std::vector<Block> random_blocks(size_t n, uint64_t seed) {
  Prg prg(Block{seed, ~seed});
  std::vector<Block> v(n);
  prg.next_blocks(v.data(), n);
  return v;
}

TEST(HashBackend, RegistryHasSoftwareFloor) {
  // Whatever the build flags, the two software backends are always
  // compiled, always available, and scalar is last (the auto-dispatch
  // floor).
  const auto& all = compiled_hash_backends();
  ASSERT_GE(all.size(), 2u);
  EXPECT_STREQ(all.back()->name, "scalar");
  ASSERT_NE(find_hash_backend("bitsliced8"), nullptr);
  EXPECT_TRUE(find_hash_backend("bitsliced8")->available());
  EXPECT_TRUE(find_hash_backend("scalar")->available());
  EXPECT_EQ(find_hash_backend("no-such-kernel"), nullptr);
}

TEST(HashBackend, BitslicedMatchesFips197) {
  const uint8_t kb[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                          0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const uint8_t pb[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                          0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const uint8_t expect[16] = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
                              0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};
  const Aes128Key key = aes128_expand(Block::from_bytes(kb));
  Block b = Block::from_bytes(pb);
  detail::aes128_encrypt_batch_bitsliced(key, &b, 1);
  uint8_t out[16];
  b.to_bytes(out);
  EXPECT_EQ(0, std::memcmp(out, expect, 16));
}

// Every compiled backend vs the scalar soft oracle, across every tail
// shape a sweep can see (0..2*width+3 covers full lines, partial lines,
// and the padded remainder paths of all widths).
TEST(HashBackend, EncryptBatchMatchesSoftOracleAllTails) {
  const Aes128Key key = aes128_expand(Block{0xfeed, 0xbeef});
  for (const HashBackend* be : compiled_hash_backends()) {
    if (!be->available()) {
      GTEST_LOG_(INFO) << be->name << " unavailable on this host; skipped";
      continue;
    }
    SCOPED_TRACE(be->name);
    for (size_t n = 0; n <= 2 * be->width + 3; ++n) {
      std::vector<Block> oracle = random_blocks(n, 0x1000 + n);
      std::vector<Block> got = oracle;
      detail::aes128_encrypt_batch_soft(key, oracle.data(), n);
      be->encrypt_batch(key, got.data(), n);
      EXPECT_EQ(oracle, got) << "n=" << n;
    }
  }
}

TEST(HashBackend, GcHashBatchMatchesScalarHash) {
  const auto in = random_blocks(517, 0xabc);
  std::vector<uint64_t> tweaks(in.size());
  for (size_t i = 0; i < tweaks.size(); ++i) tweaks[i] = 7 * i + 3;
  for (const HashBackend* be : compiled_hash_backends()) {
    if (!be->available()) continue;
    SCOPED_TRACE(be->name);
    std::vector<Block> out(in.size());
    gc_hash_batch(*be, in.data(), tweaks.data(), out.data(), in.size());
    for (size_t i = 0; i < in.size(); ++i)
      ASSERT_EQ(out[i], gc_hash(in[i], tweaks[i])) << "i=" << i;
  }
}

TEST(HashBackend, GcHashPairsMatchScalarHash) {
  const size_t n = 401;
  const auto x0 = random_blocks(n, 0x111);
  Block delta{0x3333, 0x4444};
  delta.lo |= 1;
  std::vector<uint64_t> tweaks(n);
  for (size_t i = 0; i < tweaks.size(); ++i) tweaks[i] = 10 + i;
  for (const HashBackend* be : compiled_hash_backends()) {
    if (!be->available()) continue;
    SCOPED_TRACE(be->name);
    std::vector<Block> out(2 * n);
    gc_hash_pairs(*be, x0.data(), delta, tweaks.data(), out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[2 * i + 0], gc_hash(x0[i], tweaks[i]));
      ASSERT_EQ(out[2 * i + 1], gc_hash(x0[i] ^ delta, tweaks[i]));
    }
  }
}

// ---------------------------------------------------------------------
// Whole-pipeline byte identity: garbled tables and material artifacts.
// ---------------------------------------------------------------------

class RecordChannel : public Channel {
 public:
  void send_bytes(const void* data, size_t n) override {
    const auto* p = static_cast<const uint8_t*>(data);
    bytes.insert(bytes.end(), p, p + n);
  }
  void recv_bytes(void*, size_t) override {
    throw std::logic_error("RecordChannel: recv not supported");
  }
  uint64_t bytes_sent() const override { return bytes.size(); }
  uint64_t bytes_received() const override { return 0; }
  void reset_counters() override { bytes.clear(); }

  std::vector<uint8_t> bytes;
};

Circuit random_mixed_circuit(Rng& rng, int n_gates) {
  Builder b;
  std::vector<Wire> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(b.input(Party::kGarbler));
  for (int i = 0; i < 8; ++i) pool.push_back(b.input(Party::kEvaluator));
  for (int g = 0; g < n_gates; ++g) {
    const Wire a = pool[rng.next_below(pool.size())];
    const Wire y = pool[rng.next_below(pool.size())];
    switch (rng.next_below(4)) {
      case 0: pool.push_back(b.xor_(a, y)); break;
      case 1: pool.push_back(b.and_(a, y)); break;
      case 2: pool.push_back(b.or_(a, y)); break;
      default: pool.push_back(b.not_(a)); break;
    }
  }
  for (int o = 0; o < 10; ++o)
    b.output(pool[pool.size() - 1 - static_cast<size_t>(o)]);
  return b.build();
}

std::vector<uint8_t> garble_stream(const Circuit& c, Block seed,
                                   const GcOptions& opt) {
  RecordChannel ch;
  Garbler g(ch, seed, opt);
  const Labels gz = g.fresh_zeros(c.garbler_inputs.size());
  const Labels ez = g.fresh_zeros(c.evaluator_inputs.size());
  g.garble(c, gz, ez, {});
  return std::move(ch.bytes);
}

// Covers both wire formats and both gate orders. The framed stream's
// frame cuts come from the batched walk's window boundaries, which the
// scalar pipeline does not mark, so the reference is the batched walk
// on the scalar AES backend; unframed, it must also equal the scalar
// pipeline. The bench circuits are wide enough to cut several frames.
TEST(HashBackend, GarbledTablesByteIdenticalAcrossBackends) {
  const HashBackend* scalar_be = find_hash_backend("scalar");
  ASSERT_NE(scalar_be, nullptr);
  Rng rng(4040);
  std::vector<Circuit> circuits;
  for (int trial = 0; trial < 4; ++trial)
    circuits.push_back(random_mixed_circuit(rng, 500));
  circuits.push_back(bench_circuits::wide_and(3 * kGcMaxBatchWindow + 17));
  circuits.push_back(bench_circuits::and_chain(64));
  circuits.push_back(bench_circuits::wide_chain_layer(1024));
  for (size_t ci = 0; ci < circuits.size(); ++ci) {
    const Circuit& c = circuits[ci];
    const Block seed{rng.next_u64(), rng.next_u64()};
    for (const bool framed : {false, true}) {
      for (const bool schedule : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "circuit " << ci << " framed=" << framed
                     << " schedule=" << schedule);
        GcOptions base;
        base.framed_tables = framed;
        base.schedule = schedule;
        GcOptions ref_opt = base;
        ref_opt.hash_backend = scalar_be;
        const std::vector<uint8_t> oracle = garble_stream(c, seed, ref_opt);
        if (!framed) {
          GcOptions scalar_opt = base;
          scalar_opt.pipeline = GcPipeline::kScalar;
          EXPECT_EQ(oracle, garble_stream(c, seed, scalar_opt));
        }
        for (const HashBackend* be : compiled_hash_backends()) {
          if (!be->available()) continue;
          SCOPED_TRACE(be->name);
          GcOptions opt = base;
          opt.hash_backend = be;
          EXPECT_EQ(oracle, garble_stream(c, seed, opt));
        }
      }
    }
  }
}

TEST(HashBackend, MaterialArtifactsByteIdenticalAcrossBackends) {
  Rng rng(5050);
  std::vector<Circuit> chain;
  chain.push_back(random_mixed_circuit(rng, 300));
  const Block seed{77, 88};
  GcOptions scalar_opt;
  scalar_opt.pipeline = GcPipeline::kScalar;
  const GarbledMaterial oracle = garble_offline(chain, seed, scalar_opt);
  for (const HashBackend* be : compiled_hash_backends()) {
    if (!be->available()) continue;
    SCOPED_TRACE(be->name);
    GcOptions opt;
    opt.hash_backend = be;
    const GarbledMaterial got = garble_offline(chain, seed, opt);
    EXPECT_EQ(oracle.tables, got.tables);
    EXPECT_EQ(oracle.fingerprint, got.fingerprint);
    EXPECT_EQ(oracle.data_zeros, got.data_zeros);
    EXPECT_EQ(oracle.eval_zeros, got.eval_zeros);
    EXPECT_EQ(oracle.decode_bits, got.decode_bits);
  }
}

TEST(HashBackend, PrgKeystreamIdenticalAcrossBackends) {
  BackendGuard guard;
  std::vector<uint8_t> oracle;
  ASSERT_TRUE(set_hash_backend("scalar"));
  {
    Prg prg(Block{9, 9});
    oracle.resize(1000);
    prg.fill_bytes(oracle.data(), oracle.size());
  }
  for (const HashBackend* be : compiled_hash_backends()) {
    if (!be->available()) continue;
    SCOPED_TRACE(be->name);
    ASSERT_TRUE(set_hash_backend(be->name));
    Prg prg(Block{9, 9});
    std::vector<uint8_t> got(oracle.size());
    prg.fill_bytes(got.data(), got.size());
    EXPECT_EQ(oracle, got);
  }
}

// ---------------------------------------------------------------------
// Selection machinery.
// ---------------------------------------------------------------------

TEST(HashBackend, SetByNameAndReset) {
  BackendGuard guard;
  ASSERT_TRUE(set_hash_backend("bitsliced8"));
  EXPECT_STREQ(hash_backend().name, "bitsliced8");
  EXPECT_FALSE(set_hash_backend("no-such-kernel"));
  EXPECT_STREQ(hash_backend().name, "bitsliced8");  // unchanged on failure
  ASSERT_TRUE(set_hash_backend(""));
  // Back to auto dispatch: the widest available backend wins.
  EXPECT_TRUE(hash_backend().available());
}

TEST(HashBackend, EnvOverrideSelectsNamedBackend) {
  BackendGuard guard;
  ASSERT_EQ(0, setenv("DEEPSECURE_HASH_BACKEND", "bitsliced8", 1));
  ASSERT_TRUE(set_hash_backend(""));  // re-run env + auto resolution
  EXPECT_STREQ(hash_backend().name, "bitsliced8");
  ASSERT_EQ(0, setenv("DEEPSECURE_HASH_BACKEND", "bogus-kernel", 1));
  ASSERT_TRUE(set_hash_backend(""));
  // Unknown name falls back to auto dispatch instead of failing.
  EXPECT_TRUE(hash_backend().available());
  EXPECT_STRNE(hash_backend().name, "bogus-kernel");
  ASSERT_EQ(0, unsetenv("DEEPSECURE_HASH_BACKEND"));
  ASSERT_TRUE(set_hash_backend(""));
}

TEST(HashBackend, UnsupportedIsaFallsBackCleanly) {
  BackendGuard guard;
  // Forcing software makes the hardware backends unavailable — the same
  // shape as running the binary on a host without the ISA.
  ForceSoftwareGuard soft;
  for (const char* hw : {"aesni8", "vaes16"}) {
    const HashBackend* be = find_hash_backend(hw);
    if (be == nullptr) continue;  // not compiled in this build
    SCOPED_TRACE(hw);
    EXPECT_FALSE(be->available());
    EXPECT_FALSE(set_hash_backend(hw));  // refuses, selection unchanged
  }
  // Auto dispatch lands on a software backend and still hashes right.
  ASSERT_TRUE(set_hash_backend(""));
  EXPECT_TRUE(hash_backend().constant_time ||
              std::string_view(hash_backend().name) == "scalar");
  const auto in = random_blocks(33, 0x77);
  std::vector<uint64_t> tweaks(in.size());
  for (size_t i = 0; i < tweaks.size(); ++i) tweaks[i] = i;
  std::vector<Block> out(in.size());
  gc_hash_batch(in.data(), tweaks.data(), out.data(), in.size());
  for (size_t i = 0; i < in.size(); ++i)
    ASSERT_EQ(out[i], gc_hash(in[i], tweaks[i]));
}

TEST(HashBackend, CpuFeatureStringIsNonEmpty) {
  EXPECT_FALSE(hash_backend_cpu_features().empty());
}

}  // namespace
}  // namespace deepsecure
