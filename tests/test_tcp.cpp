// The TCP transport carries the identical protocol bytes as the
// in-memory channel: run real secure inference over a loopback socket.
#include <gtest/gtest.h>

#include <thread>

#include "gc/protocol.h"
#include "net/tcp_channel.h"
#include "synth/layer_circuits.h"
#include "test_util.h"

namespace deepsecure {
namespace {

using test::pack_fixed;
using test::random_fixed;

TEST(TcpChannel, ByteRoundTrip) {
  // Start server and client concurrently; connect() retries until the
  // listener is up.
  uint16_t chosen = 0;
  std::thread srv([&] {
    TcpChannel ch = TcpChannel::listen_and_accept(24567, &chosen);
    uint64_t v = ch.recv_u64();
    ch.send_u64(v + 1);
    const BitVec bits = ch.recv_bits();
    ch.send_bits(bits);
  });
  TcpChannel cli = TcpChannel::connect("127.0.0.1", 24567);
  cli.send_u64(41);
  EXPECT_EQ(cli.recv_u64(), 42u);
  const BitVec sent{1, 0, 1, 1, 0, 1, 0, 0, 1};
  cli.send_bits(sent);
  EXPECT_EQ(cli.recv_bits(), sent);
  srv.join();
  EXPECT_GT(cli.bytes_sent(), 8u);
  EXPECT_GT(cli.bytes_received(), 8u);
}

TEST(TcpChannel, SecureInferenceOverLoopback) {
  // Full protocol (OT + garbling + chained layers) across a real socket.
  synth::ModelSpec spec;
  spec.input = synth::Shape3{1, 1, 5};
  spec.layers.push_back(synth::FcLayer{4, {}, true});
  spec.layers.push_back(synth::ActLayer{synth::ActKind::kReLU});
  spec.layers.push_back(synth::FcLayer{3, {}, true});
  spec.layers.push_back(synth::ArgmaxLayer{});
  const auto chain = synth::compile_model_layers(spec);

  Rng rng(9);
  std::vector<Fixed> x, w;
  for (size_t i = 0; i < 5; ++i) x.push_back(random_fixed(rng, kDefaultFormat, 0.2));
  for (size_t i = 0; i < synth::model_weight_count(spec); ++i)
    w.push_back(random_fixed(rng, kDefaultFormat, 0.2));
  const BitVec data = pack_fixed(x), weights = pack_fixed(w);

  const Circuit mono = synth::compile_model(spec);
  const BitVec expect = mono.eval(data, weights);

  BitVec client_out, server_out;
  std::thread server_thread([&] {
    TcpChannel ch = TcpChannel::listen_and_accept(24568);
    EvaluatorSession session(ch);
    server_out = session.run_chain(chain, weights);
  });
  {
    TcpChannel ch = TcpChannel::connect("127.0.0.1", 24568);
    GarblerSession session(ch, Block{2024, 610});
    client_out = session.run_chain(chain, data);
  }
  server_thread.join();
  EXPECT_EQ(client_out, expect);
  EXPECT_EQ(server_out, expect);
}

TEST(TcpChannel, StreamingSamplesReuseOtSetup) {
  // One session, several inferences: the base-OT cost amortizes (the
  // Figure 6 streaming premise) — only the first run pays setup.
  synth::ModelSpec spec;
  spec.input = synth::Shape3{1, 1, 4};
  spec.layers.push_back(synth::FcLayer{2, {}, true});
  spec.layers.push_back(synth::ArgmaxLayer{});
  const auto chain = synth::compile_model_layers(spec);

  Rng rng(10);
  std::vector<Fixed> w;
  for (size_t i = 0; i < synth::model_weight_count(spec); ++i)
    w.push_back(random_fixed(rng, kDefaultFormat, 0.2));
  const BitVec weights = pack_fixed(w);
  const Circuit mono = synth::compile_model(spec);

  constexpr int kSamples = 4;
  std::vector<BitVec> datas;
  for (int s = 0; s < kSamples; ++s) {
    std::vector<Fixed> x;
    for (int i = 0; i < 4; ++i) x.push_back(random_fixed(rng, kDefaultFormat, 0.2));
    datas.push_back(pack_fixed(x));
  }

  std::vector<BitVec> client_outs(kSamples);
  double setup_first = 0, setup_later = 0;
  std::thread server_thread([&] {
    TcpChannel ch = TcpChannel::listen_and_accept(24569);
    EvaluatorSession session(ch);
    for (int s = 0; s < kSamples; ++s) session.run_chain(chain, weights);
  });
  {
    TcpChannel ch = TcpChannel::connect("127.0.0.1", 24569);
    GarblerSession session(ch, Block{11, 11});
    for (int s = 0; s < kSamples; ++s) {
      client_outs[s] = session.run_chain(chain, datas[s]);
      if (s == 0) setup_first = session.trace().setup_s;
    }
    setup_later = session.trace().setup_s;
  }
  server_thread.join();

  for (int s = 0; s < kSamples; ++s)
    EXPECT_EQ(client_outs[s], mono.eval(datas[s], weights)) << "sample " << s;
  EXPECT_GT(setup_first, 0.0);
  EXPECT_EQ(setup_first, setup_later);  // setup ran exactly once
}

}  // namespace
}  // namespace deepsecure
