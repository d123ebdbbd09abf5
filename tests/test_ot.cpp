#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "crypto/sha256.h"
#include "gc/ot.h"
#include "net/party.h"
#include "support/rng.h"

namespace deepsecure {
namespace {

// Forwards to an inner channel and SHA-256s every byte this endpoint
// sends, so each direction of a run hashes to one transcript digest
// regardless of how the bytes were chunked into send calls.
class HashingChannel final : public Channel {
 public:
  explicit HashingChannel(Channel& inner) : inner_(inner) {}
  void send_bytes(const void* data, size_t n) override {
    sent_.update(data, n);
    inner_.send_bytes(data, n);
  }
  void recv_bytes(void* data, size_t n) override { inner_.recv_bytes(data, n); }
  uint64_t bytes_sent() const override { return inner_.bytes_sent(); }
  uint64_t bytes_received() const override { return inner_.bytes_received(); }
  void reset_counters() override { inner_.reset_counters(); }
  std::string digest() { return hex(sent_.finish()); }

  static std::string hex(const Sha256Digest& d) {
    std::string s;
    char buf[3];
    for (uint8_t byte : d) {
      std::snprintf(buf, sizeof(buf), "%02x", byte);
      s += buf;
    }
    return s;
  }

 private:
  Channel& inner_;
  Sha256 sent_;
};

void hash_blocks(Sha256& h, const std::vector<Block>& blocks) {
  for (const Block& b : blocks) {
    uint8_t buf[16];
    b.to_bytes(buf);
    h.update(buf, sizeof(buf));
  }
}

TEST(BaseOt, TransfersChosenMessage) {
  Rng rng(1);
  const size_t n = 8;
  std::vector<std::pair<Block, Block>> msgs(n);
  BitVec choices(n);
  for (size_t i = 0; i < n; ++i) {
    msgs[i] = {Block{rng.next_u64(), rng.next_u64()},
               Block{rng.next_u64(), rng.next_u64()}};
    choices[i] = rng.next_bool();
  }

  std::vector<Block> received;
  run_two_party(
      [&](Channel& ch) {
        Prg prg(Block{11, 0});
        base_ot_send(ch, msgs, prg);
      },
      [&](Channel& ch) {
        Prg prg(Block{22, 0});
        received = base_ot_recv(ch, choices, prg);
      });

  ASSERT_EQ(received.size(), n);
  for (size_t i = 0; i < n; ++i) {
    const Block want = choices[i] ? msgs[i].second : msgs[i].first;
    EXPECT_EQ(received[i], want) << "i=" << i;
    // And the unchosen message must differ (sanity that we didn't get both).
    const Block other = choices[i] ? msgs[i].first : msgs[i].second;
    EXPECT_NE(received[i], other);
  }
}

TEST(OtExtension, LargeBatch) {
  Rng rng(2);
  const size_t m = 1000;
  std::vector<std::pair<Block, Block>> msgs(m);
  BitVec choices(m);
  for (size_t i = 0; i < m; ++i) {
    msgs[i] = {Block{rng.next_u64(), i}, Block{rng.next_u64(), ~i}};
    choices[i] = rng.next_bool();
  }

  std::vector<Block> received;
  run_two_party(
      [&](Channel& ch) {
        Prg prg(Block{33, 0});
        OtExtSender sender(ch);
        sender.setup(prg);
        sender.send(msgs);
      },
      [&](Channel& ch) {
        Prg prg(Block{44, 0});
        OtExtReceiver receiver(ch);
        receiver.setup(prg);
        received = receiver.recv(choices);
      });

  ASSERT_EQ(received.size(), m);
  for (size_t i = 0; i < m; ++i)
    EXPECT_EQ(received[i], choices[i] ? msgs[i].second : msgs[i].first);
}

TEST(OtExtension, MultipleBatchesReuseSetup) {
  Rng rng(3);
  std::vector<std::vector<std::pair<Block, Block>>> batches;
  std::vector<BitVec> choices;
  for (size_t b = 0; b < 3; ++b) {
    const size_t m = 50 + 37 * b;
    batches.emplace_back(m);
    choices.emplace_back(m);
    for (size_t i = 0; i < m; ++i) {
      batches[b][i] = {Block{rng.next_u64(), 0}, Block{rng.next_u64(), 1}};
      choices[b][i] = rng.next_bool();
    }
  }

  std::vector<std::vector<Block>> received(3);
  run_two_party(
      [&](Channel& ch) {
        Prg prg(Block{55, 0});
        OtExtSender sender(ch);
        sender.setup(prg);
        for (const auto& batch : batches) sender.send(batch);
      },
      [&](Channel& ch) {
        Prg prg(Block{66, 0});
        OtExtReceiver receiver(ch);
        receiver.setup(prg);
        for (const auto& ch_bits : choices)
          received[&ch_bits - choices.data()] = receiver.recv(ch_bits);
      });

  for (size_t b = 0; b < 3; ++b)
    for (size_t i = 0; i < choices[b].size(); ++i)
      EXPECT_EQ(received[b][i],
                choices[b][i] ? batches[b][i].second : batches[b][i].first);
}

TEST(OtExtension, CorrelatedVariantDeliversLabels) {
  Rng rng(4);
  const size_t m = 200;
  Block delta{rng.next_u64(), rng.next_u64()};
  delta.lo |= 1;
  std::vector<Block> zeros(m);
  BitVec choices(m);
  for (size_t i = 0; i < m; ++i) {
    zeros[i] = Block{rng.next_u64(), rng.next_u64()};
    choices[i] = rng.next_bool();
  }

  std::vector<Block> received;
  run_two_party(
      [&](Channel& ch) {
        Prg prg(Block{77, 0});
        OtExtSender sender(ch);
        sender.setup(prg);
        sender.send_correlated(zeros, delta);
      },
      [&](Channel& ch) {
        Prg prg(Block{88, 0});
        OtExtReceiver receiver(ch);
        receiver.setup(prg);
        received = receiver.recv(choices);
      });

  for (size_t i = 0; i < m; ++i)
    EXPECT_EQ(received[i], choices[i] ? (zeros[i] ^ delta) : zeros[i]);
}

TEST(OtExtension, UnreadySendThrows) {
  auto pair = make_channel_pair();
  OtExtSender sender(*pair.a);
  EXPECT_THROW(sender.send({{kZeroBlock, kZeroBlock}}), std::logic_error);
  OtExtReceiver receiver(*pair.b);
  EXPECT_THROW(receiver.recv({1}), std::logic_error);
}

// ---------------------------------------------------------------------
// Precomputed random OTs + Beaver derandomization (the offline/online
// split: the extension rounds run ahead of time, the online phase is
// one correction message plus the masked payload).

TEST(OtPrecompute, DerandomizedMatchesDirectOt) {
  Rng rng(5);
  const size_t m = 333;
  std::vector<std::pair<Block, Block>> msgs(m);
  BitVec choices(m);
  for (size_t i = 0; i < m; ++i) {
    msgs[i] = {Block{rng.next_u64(), rng.next_u64()},
               Block{rng.next_u64(), rng.next_u64()}};
    choices[i] = rng.next_bool();
  }

  std::vector<Block> received;
  run_two_party(
      [&](Channel& ch) {
        Prg prg(Block{99, 0});
        OtExtSender sender(ch);
        sender.setup(prg);
        const OtPrecompSender pre = sender.precompute(m);  // offline
        sender.send_derandomized(pre, msgs);               // online
      },
      [&](Channel& ch) {
        Prg prg(Block{111, 0});
        OtExtReceiver receiver(ch);
        receiver.setup(prg);
        OtPrecompReceiver pre = receiver.precompute(m, prg);  // offline
        received = receiver.recv_derandomized(pre, choices);  // online
      });

  // The derandomized path must deliver exactly what a direct OT with
  // the same choices would have.
  ASSERT_EQ(received.size(), m);
  for (size_t i = 0; i < m; ++i)
    EXPECT_EQ(received[i], choices[i] ? msgs[i].second : msgs[i].first)
        << "i=" << i;
}

TEST(OtPrecompute, CorrelatedDerandomizedDeliversLabels) {
  Rng rng(6);
  const size_t m = 150;
  Block delta{rng.next_u64(), rng.next_u64()};
  delta.lo |= 1;
  std::vector<Block> zeros(m);
  BitVec choices(m);
  for (size_t i = 0; i < m; ++i) {
    zeros[i] = Block{rng.next_u64(), rng.next_u64()};
    choices[i] = rng.next_bool();
  }

  std::vector<Block> received;
  run_two_party(
      [&](Channel& ch) {
        Prg prg(Block{123, 0});
        OtExtSender sender(ch);
        sender.setup(prg);
        const OtPrecompSender pre = sender.precompute(m);
        sender.send_correlated_derandomized(pre, zeros, delta);
      },
      [&](Channel& ch) {
        Prg prg(Block{321, 0});
        OtExtReceiver receiver(ch);
        receiver.setup(prg);
        OtPrecompReceiver pre = receiver.precompute(m, prg);
        received = receiver.recv_derandomized(pre, choices);
      });

  for (size_t i = 0; i < m; ++i)
    EXPECT_EQ(received[i], choices[i] ? (zeros[i] ^ delta) : zeros[i]);
}

TEST(OtPrecompute, PrecomputeInterleavesWithDirectBatches) {
  // The precomputed path shares hash-index and column-PRG state with
  // regular extension batches; interleaving the two on one session must
  // keep both correct (the runtime mixes pooled and on-demand infers).
  Rng rng(7);
  const size_t m = 64;
  std::vector<std::pair<Block, Block>> direct(m);
  BitVec direct_choices(m), pre_choices(m);
  for (size_t i = 0; i < m; ++i) {
    direct[i] = {Block{rng.next_u64(), 3 * i}, Block{rng.next_u64(), 7 * i}};
    direct_choices[i] = rng.next_bool();
    pre_choices[i] = rng.next_bool();
  }
  std::vector<Block> zeros(m);
  Block delta{rng.next_u64(), rng.next_u64()};
  delta.lo |= 1;
  for (auto& z : zeros) z = Block{rng.next_u64(), rng.next_u64()};

  std::vector<Block> got_direct, got_pre;
  run_two_party(
      [&](Channel& ch) {
        Prg prg(Block{42, 1});
        OtExtSender sender(ch);
        sender.setup(prg);
        const OtPrecompSender pre = sender.precompute(m);  // offline
        sender.send(direct);                               // direct batch
        sender.send_correlated_derandomized(pre, zeros, delta);
      },
      [&](Channel& ch) {
        Prg prg(Block{42, 2});
        OtExtReceiver receiver(ch);
        receiver.setup(prg);
        OtPrecompReceiver pre = receiver.precompute(m, prg);
        got_direct = receiver.recv(direct_choices);
        got_pre = receiver.recv_derandomized(pre, pre_choices);
      });

  for (size_t i = 0; i < m; ++i) {
    EXPECT_EQ(got_direct[i],
              direct_choices[i] ? direct[i].second : direct[i].first);
    EXPECT_EQ(got_pre[i], pre_choices[i] ? (zeros[i] ^ delta) : zeros[i]);
  }
}

TEST(OtPrecompute, MismatchedChoiceCountRejected) {
  // A precomputed batch covers a fixed number of OTs; derandomizing
  // with a different-size choice vector (or message list) must be
  // rejected before anything touches the wire.
  auto pair = make_channel_pair();
  OtPrecompReceiver pre;
  pre.choices = BitVec(8, 0);
  pre.blocks.assign(8, kZeroBlock);
  OtExtReceiver receiver(*pair.b);
  EXPECT_THROW(receiver.recv_derandomized(pre, BitVec(5, 0)),
               std::invalid_argument);
  EXPECT_THROW(receiver.recv_derandomized(pre, BitVec(9, 0)),
               std::invalid_argument);

  OtPrecompSender spre;
  spre.r0.assign(8, kZeroBlock);
  spre.r1.assign(8, kZeroBlock);
  OtExtSender sender(*pair.a);
  EXPECT_THROW(
      sender.send_derandomized(spre, std::vector<std::pair<Block, Block>>(3)),
      std::invalid_argument);
  EXPECT_THROW(
      sender.send_correlated_derandomized(spre, std::vector<Block>(4),
                                          kZeroBlock),
      std::invalid_argument);
}

TEST(OtPrecompute, CorruptedCorrectionVectorRejected) {
  // Sender side of the online exchange: a correction message whose
  // length disagrees with the precomputed batch aborts the transfer.
  auto pair = make_channel_pair();
  OtPrecompSender pre;
  pre.r0.assign(6, kZeroBlock);
  pre.r1.assign(6, kZeroBlock);
  pair.b->send_bits(BitVec(4, 1));  // wrong length correction
  OtExtSender sender(*pair.a);
  EXPECT_THROW(
      sender.send_correlated_derandomized(pre, std::vector<Block>(6),
                                          kZeroBlock),
      std::runtime_error);
}

// Bit-by-bit oracle for the blocked IKNP transpose: row j's bit i is
// column i's bit j.
std::vector<Block> ref_transpose(const std::vector<Block>& cols, size_t m) {
  const size_t nb = (m + 127) / 128;
  std::vector<Block> rows(m);
  for (size_t i = 0; i < kOtExtKappa; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const Block& b = cols[i * nb + j / 128];
      const uint64_t bit = ((j % 128 < 64 ? b.lo : b.hi) >> (j % 64)) & 1u;
      (i < 64 ? rows[j].lo : rows[j].hi) |= bit << (i % 64);
    }
  }
  return rows;
}

TEST(IknpTranspose, MatchesBitByBitReference) {
  Prg prg(Block{5, 5});
  for (const size_t m : {size_t{1}, size_t{7}, size_t{8}, size_t{127},
                         size_t{128}, size_t{129}, size_t{4097}}) {
    const size_t nb = (m + 127) / 128;
    std::vector<Block> cols(kOtExtKappa * nb);
    for (size_t i = 0; i < kOtExtKappa; ++i)
      prg.next_bits_packed(&cols[i * nb], m);
    const std::vector<Block> want = ref_transpose(cols, m);
    std::vector<Block> got(m);
    iknp_transpose(cols, m, 0, m, got.data());
    EXPECT_EQ(got, want) << "m=" << m;
    // A slice starting mid-matrix, as the extension consumes them.
    if (m > 64) {
      std::vector<Block> slice(m - 64);
      iknp_transpose(cols, m, 64, m - 64, slice.data());
      EXPECT_TRUE(std::equal(slice.begin(), slice.end(), want.begin() + 64))
          << "m=" << m;
    }
  }
}

// ---------------------------------------------------------------------
// Golden transcript: the exact bytes of both directions and every
// party's outputs, for fixed PRG seeds, pinned as SHA-256 digests. Any
// optimisation of base OT or the extension must leave all of them
// unchanged. The m that are not multiples of 8 or 128 pin the padding
// bits of the packed u columns.

struct Golden {
  size_t n;
  const char* a_to_b;   // base-OT / extension sender's bytes
  const char* b_to_a;   // receiver's bytes
  const char* outputs;  // every output both parties produced
};

TEST(OtTranscript, ByteIdenticalToV6) {
  static const Golden kBaseOt[] = {
      {1, "9baf2dfea74a21fdea5ebf9c769a4620f180d3e34bd5d0832da7c1b22c8da28f",
       "868a9baa0ff7efbe834cb141be7fa43650a715399e4d5ee279fde2d5eb62451d",
       "bac977c7a15c68c332a987c297cf8f1af9150271e27c58a25287cef5748173fb"},
      {8, "8eed1d107e4f0f726abe26f4eeb5ef3a2076ad8746f95d0ed20a29467e4e58ab",
       "9b2d25649a0e01f7f0dc9cf109a6936a8685ffede1ac3e601b67bc3512aec04c",
       "4abac797fd807be7bff0d99399d6af419c24e08b1981af232f0e96b40f146b5a"},
      {128, "ddd92c786872559396628e9063df32f97ec973c3fb6374cacae253169d82d190",
       "96113843f8129ffbc55008086f8b093f4b01698e51da6310c417be674ca4aac6",
       "32698f4952bb0c09db3cc96de3bdd9abe2c81b2a211c344d5e72dcffa5f0ff8d"},
  };
  for (const Golden& g : kBaseOt) {
    Rng rng(g.n);
    std::vector<std::pair<Block, Block>> msgs(g.n);
    BitVec choices(g.n);
    for (size_t i = 0; i < g.n; ++i) {
      msgs[i] = {Block{rng.next_u64(), rng.next_u64()},
                 Block{rng.next_u64(), rng.next_u64()}};
      choices[i] = rng.next_bool();
    }
    std::string a_to_b, b_to_a;
    std::vector<Block> got;
    run_two_party(
        [&](Channel& ch) {
          HashingChannel hc(ch);
          Prg prg(Block{g.n, 0xA});
          base_ot_send(hc, msgs, prg);
          a_to_b = hc.digest();
        },
        [&](Channel& ch) {
          HashingChannel hc(ch);
          Prg prg(Block{g.n, 0xB});
          got = base_ot_recv(hc, choices, prg);
          b_to_a = hc.digest();
        });
    for (size_t i = 0; i < g.n; ++i)
      ASSERT_EQ(got[i], choices[i] ? msgs[i].second : msgs[i].first);
    Sha256 out;
    hash_blocks(out, got);
    EXPECT_EQ(a_to_b, g.a_to_b) << "base OT n=" << g.n;
    EXPECT_EQ(b_to_a, g.b_to_a) << "base OT n=" << g.n;
    EXPECT_EQ(HashingChannel::hex(out.finish()), g.outputs)
        << "base OT n=" << g.n;
  }

  static const Golden kExtension[] = {
      {1, "f6c2912d61a7e78114b509dd3ce446c183c581b0756bff5ec58a3286ed232340",
       "f582f84250cd9b5f7567c9d0afc4c9ed8db85f0ece1ef8c3e6b90c64c181507e",
       "cd5617ea99a57b7eed7f24edab9044b4f8cda4444a95dfa81198f84ddf361d5c"},
      {7, "ffea32ad61b656975c1680b12859d3436ebe69ab19467d6dd12030e9a943e90e",
       "b3777b6279cee0c6b222a3b50a14226a5b2ac52062dd0656938d60fa4ffcb1f9",
       "5f9b7ec7e30002a6f1b90f0638cbccd4623d8c960f030fad4fc795b2094f0497"},
      {63, "81dc7498e6dcb8c5c00bf9f4e05ca73026f4cce4012f86d58291d322267c1886",
       "a549c4ff2cb4a62df8cfa7ff3e8f9a0871937ae737debadd90b9143b3fee565d",
       "7b222ae5a00eae061f3d809c6b97634ec4913a3fda92f964b118c0d4f42eeacc"},
      {128, "d12d3b804e862434a81dba40eaa4b13f3a30185a550ef46f96deec243afb0d38",
       "f6e1604f2ba12f0031ded4d9ae8f969701cb9295b771140becd7c4c5134dd11d",
       "002c769bc0220bde31c47f2b52e7808263f002274cb34e5c250e332e539f3e28"},
      {129, "e3ddd30705ed7b17f7c1c7bea1873debbeb5193bc0243ed5d026e51530bc00bd",
       "3ee1e66eb6ec2f1eb01b6c91a8e9940d3c25d88e6991e0f75d965e4e43267521",
       "43f67e9e2da399ac41cdd69d364fd938913243c482216a38118bb4f7f57afd65"},
      {1000, "c7a0ecc2bf30772555d7dc942e6a1774f261ac190651f26368a86beeabaad933",
       "07e73fd518f8d20618d004c285ee3b5c6c8e69588e5178f10d5d97131783a1f0",
       "b3e7d84bc3986edce62d37f272c6f9c7c6401bca418326abba3cad4e3dfee194"},
      {89392, "6530bc708776616d31019dc1348f5b72b2585c4097fc236267860859e69c1c3f",
       "1c5ff409805be7ca83a8c3c1805bc90bef2fc577f8df5da499ec23d22242936b",
       "1e2269bbe896cb448365339b2ef011e48bba0da79e546d61ec57643113edd813"},
  };
  for (const Golden& g : kExtension) {
    const size_t m = g.n;
    Rng rng(1000 + m);
    std::vector<std::pair<Block, Block>> msgs(m), msgs2(m);
    std::vector<Block> zeros(m), zeros2(m);
    Block delta{rng.next_u64(), rng.next_u64() | 1};
    BitVec c1(m), c2(m), c3(m), c4(m);
    for (size_t i = 0; i < m; ++i) {
      msgs[i] = {Block{rng.next_u64(), rng.next_u64()},
                 Block{rng.next_u64(), rng.next_u64()}};
      msgs2[i] = {Block{rng.next_u64(), rng.next_u64()},
                  Block{rng.next_u64(), rng.next_u64()}};
      zeros[i] = Block{rng.next_u64(), rng.next_u64()};
      zeros2[i] = Block{rng.next_u64(), rng.next_u64()};
      c1[i] = rng.next_bool();
      c2[i] = rng.next_bool();
      c3[i] = rng.next_bool();
      c4[i] = rng.next_bool();
    }
    std::string a_to_b, b_to_a;
    OtPrecompSender spre;
    OtPrecompReceiver rpre;
    std::vector<Block> r1, r2, r3, r4;
    run_two_party(
        [&](Channel& ch) {
          HashingChannel hc(ch);
          Prg prg(Block{m, 0xA});
          OtExtSender sender(hc);
          sender.setup(prg);
          sender.send(msgs);
          sender.send_correlated(zeros, delta);
          spre = sender.precompute(m);
          sender.send_derandomized(spre, msgs2);
          const OtPrecompSender pre2 = sender.precompute(m);
          sender.send_correlated_derandomized(pre2, zeros2, delta);
          a_to_b = hc.digest();
        },
        [&](Channel& ch) {
          HashingChannel hc(ch);
          Prg prg(Block{m, 0xB});
          OtExtReceiver receiver(hc);
          receiver.setup(prg);
          r1 = receiver.recv(c1);
          r2 = receiver.recv(c2);
          rpre = receiver.precompute(m, prg);
          r3 = receiver.recv_derandomized(rpre, c3);
          const OtPrecompReceiver pre2 = receiver.precompute(m, prg);
          r4 = receiver.recv_derandomized(pre2, c4);
          b_to_a = hc.digest();
        });
    for (size_t i = 0; i < m; ++i) {
      ASSERT_EQ(r1[i], c1[i] ? msgs[i].second : msgs[i].first);
      ASSERT_EQ(r2[i], c2[i] ? zeros[i] ^ delta : zeros[i]);
      ASSERT_EQ(r3[i], c3[i] ? msgs2[i].second : msgs2[i].first);
      ASSERT_EQ(r4[i], c4[i] ? zeros2[i] ^ delta : zeros2[i]);
    }
    Sha256 out;
    for (const auto* v : {&r1, &r2, &spre.r0, &spre.r1, &rpre.blocks, &r3, &r4})
      hash_blocks(out, *v);
    out.update(rpre.choices.data(), rpre.choices.size());
    EXPECT_EQ(a_to_b, g.a_to_b) << "extension m=" << m;
    EXPECT_EQ(b_to_a, g.b_to_a) << "extension m=" << m;
    EXPECT_EQ(HashingChannel::hex(out.finish()), g.outputs)
        << "extension m=" << m;
  }
}

}  // namespace
}  // namespace deepsecure
