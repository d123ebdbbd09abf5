#include <gtest/gtest.h>

#include "circuit/builder.h"
#include "gc/garble.h"
#include "net/party.h"
#include "support/rng.h"

namespace deepsecure {
namespace {

// Garble + evaluate a circuit over a real channel pair and compare with
// plaintext evaluation — the core correctness oracle for the GC engine.
BitVec gc_run(const Circuit& c, const BitVec& g_bits, const BitVec& e_bits,
              Block seed = Block{42, 42}) {
  BitVec decoded;
  run_two_party(
      [&](Channel& ch) {
        Garbler g(ch, seed);
        const Labels g_zeros = g.fresh_zeros(g_bits.size());
        const Labels e_zeros = g.fresh_zeros(e_bits.size());
        g.send_active(g_bits, g_zeros);
        // Test-only shortcut: send the evaluator's active labels directly
        // (the OT path is exercised in test_ot / test_protocol).
        BitVec eb = e_bits;
        std::vector<Block> active(e_bits.size());
        for (size_t i = 0; i < e_bits.size(); ++i)
          active[i] = eb[i] ? (e_zeros[i] ^ g.delta()) : e_zeros[i];
        if (!active.empty())
          ch.send_bytes(active.data(), active.size() * sizeof(Block));
        const Labels out = g.garble(c, g_zeros, e_zeros, {});
        decoded = g.decode_outputs(out);
      },
      [&](Channel& ch) {
        Evaluator e(ch);
        const Labels g_labels = e.recv_active(g_bits.size());
        const Labels e_labels = e.recv_active(e_bits.size());
        const Labels out = e.evaluate(c, g_labels, e_labels, {});
        e.send_outputs(out);
      });
  return decoded;
}

TEST(Garble, SingleGatesAllInputCombos) {
  for (const bool use_and : {false, true}) {
    Builder b;
    const Wire x = b.input(Party::kGarbler);
    const Wire y = b.input(Party::kEvaluator);
    b.output(use_and ? b.and_(x, y) : b.xor_(x, y));
    const Circuit c = b.build();
    for (uint8_t xv = 0; xv < 2; ++xv)
      for (uint8_t yv = 0; yv < 2; ++yv) {
        const BitVec got = gc_run(c, {xv}, {yv});
        EXPECT_EQ(got[0], use_and ? (xv & yv) : (xv ^ yv))
            << "and=" << use_and << " x=" << int(xv) << " y=" << int(yv);
      }
  }
}

TEST(Garble, ConstantsAndNots) {
  Builder b;
  const Wire x = b.input(Party::kGarbler);
  b.output(b.not_(x));
  b.output(b.and_(b.not_(x), b.const_bit(true)));
  b.output(b.const_bit(true));
  b.output(b.const_bit(false));
  const Circuit c = b.build();
  for (uint8_t xv = 0; xv < 2; ++xv) {
    const BitVec got = gc_run(c, {xv}, {});
    EXPECT_EQ(got[0], 1 - xv);
    EXPECT_EQ(got[1], 1 - xv);
    EXPECT_EQ(got[2], 1);
    EXPECT_EQ(got[3], 0);
  }
}

TEST(Garble, RandomCircuitsMatchPlaintextEval) {
  Rng rng(99);
  for (int trial = 0; trial < 12; ++trial) {
    // Random DAG of XOR/AND/NOT over 8 garbler + 8 evaluator inputs.
    Builder b;
    std::vector<Wire> pool;
    for (int i = 0; i < 8; ++i) pool.push_back(b.input(Party::kGarbler));
    for (int i = 0; i < 8; ++i) pool.push_back(b.input(Party::kEvaluator));
    for (int g = 0; g < 120; ++g) {
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
    const Circuit c = b.build();

    BitVec g_bits(8), e_bits(8);
    for (auto& v : g_bits) v = rng.next_bool();
    for (auto& v : e_bits) v = rng.next_bool();

    const BitVec expect = c.eval(g_bits, e_bits);
    const BitVec got = gc_run(c, g_bits, e_bits,
                              Block{rng.next_u64(), rng.next_u64()});
    EXPECT_EQ(got, expect) << "trial " << trial;
  }
}

TEST(Garble, SequentialStateCarriesAcrossCycles) {
  // 8-bit accumulator: acc += garbler nibble per cycle.
  Builder b;
  std::vector<Wire> in(4);
  for (auto& w : in) w = b.input(Party::kGarbler);
  std::vector<Wire> acc = b.state_inputs(8);
  std::vector<Wire> next(8);
  Wire carry = b.const_bit(false);
  for (int i = 0; i < 8; ++i) {
    const Wire ai = i < 4 ? in[i] : b.const_bit(false);
    const Wire axc = b.xor_(acc[i], carry);
    const Wire bxc = b.xor_(ai, carry);
    next[i] = b.xor_(axc, ai);
    carry = b.xor_(carry, b.and_(axc, bxc));
  }
  b.set_state_next(next);
  b.outputs(next);
  const Circuit step = b.build();

  const std::vector<uint64_t> nibbles{3, 7, 15, 1, 9};
  uint64_t expect = 0;
  for (uint64_t n : nibbles) expect = (expect + n) & 0xFF;

  BitVec decoded;
  run_two_party(
      [&](Channel& ch) {
        Garbler g(ch, Block{7, 7});
        Labels state = g.fresh_zeros(8);
        g.send_active(BitVec(8, 0), state);
        Labels out;
        for (uint64_t n : nibbles) {
          const Labels in_zeros = g.fresh_zeros(4);
          g.send_active(to_bits(n, 4), in_zeros);
          Labels next_state;
          out = g.garble(step, in_zeros, {}, state, &next_state);
          state = std::move(next_state);
        }
        decoded = g.decode_outputs(out);
      },
      [&](Channel& ch) {
        Evaluator e(ch);
        Labels state = e.recv_active(8);
        Labels out;
        for (size_t t = 0; t < nibbles.size(); ++t) {
          const Labels in_labels = e.recv_active(4);
          Labels next_state;
          out = e.evaluate(step, in_labels, {}, state, &next_state);
          state = std::move(next_state);
        }
        e.send_outputs(out);
      });
  EXPECT_EQ(from_bits(decoded), expect);
}

TEST(Garble, DecodeInfoPathAgrees) {
  Builder b;
  const Wire x = b.input(Party::kGarbler);
  const Wire y = b.input(Party::kEvaluator);
  b.output(b.and_(x, y));
  b.output(b.xor_(x, y));
  const Circuit c = b.build();

  BitVec evaluator_view;
  run_two_party(
      [&](Channel& ch) {
        Garbler g(ch, Block{3, 1});
        const Labels gz = g.fresh_zeros(1);
        const Labels ez = g.fresh_zeros(1);
        g.send_active({1}, gz);
        std::vector<Block> active{ez[0] ^ g.delta()};  // evaluator bit = 1
        ch.send_bytes(active.data(), sizeof(Block));
        const Labels out = g.garble(c, gz, ez, {});
        g.send_decode_info(out);
      },
      [&](Channel& ch) {
        Evaluator e(ch);
        const Labels gl = e.recv_active(1);
        const Labels el = e.recv_active(1);
        const Labels out = e.evaluate(c, gl, el, {});
        evaluator_view = e.decode_with_info(out);
      });
  EXPECT_EQ(evaluator_view, (BitVec{1, 0}));
}

TEST(Garble, CommunicationMatchesGateKinds) {
  Builder b;
  const Wire x = b.input(Party::kGarbler);
  const Wire y = b.input(Party::kEvaluator);
  Wire acc = b.and_(x, y);
  for (int i = 0; i < 9; ++i) acc = b.and_(acc, b.xor_(x, acc));
  b.output(acc);
  const Circuit c = b.build();
  const uint64_t n_and = c.stats().num_and;
  // Only the first AND reads the evaluator input y directly.
  ASSERT_EQ(c.stats().num_and_one_row, 1u);

  const auto stats = run_two_party(
      [&](Channel& ch) {
        Garbler g(ch, Block{5, 5});
        const Labels gz = g.fresh_zeros(1);
        const Labels ez = g.fresh_zeros(1);
        g.send_active({1}, gz);
        std::vector<Block> active{ez[0]};
        ch.send_bytes(active.data(), sizeof(Block));
        const Labels out = g.garble(c, gz, ez, {});
        g.decode_outputs(out);
      },
      [&](Channel& ch) {
        Evaluator e(ch);
        const Labels gl = e.recv_active(1);
        const Labels el = e.recv_active(1);
        const Labels out = e.evaluate(c, gl, el, {});
        e.send_outputs(out);
      });
  // garbler -> evaluator: 2 input labels, then the garbled stream: 2
  // consts, 1 permute-bit block, 1 row for the one-row AND and 2 for
  // each other AND.
  EXPECT_EQ(stats.a_to_b_bytes, (2 + 2 + 1 + 1 + 2 * (n_and - 1)) * 16);
  EXPECT_EQ(stats.a_to_b_bytes, 2 * 16 + gc_stream_bytes(c));
}

}  // namespace
}  // namespace deepsecure
