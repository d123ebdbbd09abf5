#include <gtest/gtest.h>

#include "core/deepsecure.h"
#include "data/synthetic.h"

namespace deepsecure {
namespace {

nn::Network trained_toy_net(const nn::Dataset& ds, nn::Act act,
                            size_t hidden, uint64_t seed) {
  Rng rng(seed);
  nn::Network net(nn::Shape{1, 1, ds.x[0].size()});
  net.dense(hidden, rng).act(act).dense(ds.num_classes, rng);
  nn::TrainConfig tc;
  tc.epochs = 10;
  nn::train(net, ds, tc);
  return net;
}

nn::Dataset toy_data(uint64_t seed) {
  data::SyntheticConfig cfg;
  cfg.features = 10;
  cfg.classes = 3;
  cfg.samples = 180;
  cfg.seed = seed;
  return data::make_subspace_dataset(cfg);
}

TEST(ModelSpec, MirrorsNetworkTopology) {
  const nn::Dataset ds = toy_data(41);
  nn::Network net = trained_toy_net(ds, nn::Act::kTanh, 6, 1);
  SecureInferenceOptions opt;
  opt.tanh_variant = synth::ActKind::kTanhSeg;
  const synth::ModelSpec spec = model_spec_from_network(net, opt);

  ASSERT_EQ(spec.layers.size(), 4u);  // fc, act, fc, argmax
  EXPECT_TRUE(std::holds_alternative<synth::FcLayer>(spec.layers[0]));
  const auto& act = std::get<synth::ActLayer>(spec.layers[1]);
  EXPECT_EQ(act.kind, synth::ActKind::kTanhSeg);
  EXPECT_TRUE(std::holds_alternative<synth::ArgmaxLayer>(spec.layers.back()));
  EXPECT_EQ(synth::model_weight_count(spec), net.param_count());
}

TEST(SecureInfer, MatchesFixedPointPrediction) {
  const nn::Dataset ds = toy_data(42);
  nn::Network net = trained_toy_net(ds, nn::Act::kReLU, 6, 2);

  SecureInferenceOptions opt;
  opt.seed = Block{99, 99};
  int agree = 0;
  const int n = 6;
  for (int i = 0; i < n; ++i) {
    const SecureInferenceResult res = secure_infer(net, ds.x[i], opt);
    const size_t expect = nn::fixed_predict(net, ds.x[i], opt.fmt);
    EXPECT_EQ(res.label, expect) << "sample " << i;
    agree += res.label == expect;
    EXPECT_GT(res.client_to_server_bytes, res.table_bytes);
    // Weight ANDs take one row, so the tables undercut 2 rows per AND.
    EXPECT_LT(res.table_bytes, res.gates.num_non_xor * 32);
    EXPECT_GT(res.gates.num_non_xor, 0u);
  }
  EXPECT_EQ(agree, n);
}

TEST(SecureInfer, TanhCordicPathAgreesWithFloatModel) {
  const nn::Dataset ds = toy_data(43);
  nn::Network net = trained_toy_net(ds, nn::Act::kTanh, 5, 3);

  SecureInferenceOptions opt;
  opt.seed = Block{7, 8};
  // The CORDIC tanh differs from float tanh by <= ~2 LSB; class
  // decisions should still agree with the float model on all but
  // borderline samples. Require strong majority agreement.
  int agree = 0;
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    const SecureInferenceResult res = secure_infer(net, ds.x[i], opt);
    agree += res.label == net.predict(ds.x[i]);
  }
  EXPECT_GE(agree, n - 1);
}

TEST(SecureInfer, MonolithicAndPerLayerAgree) {
  const nn::Dataset ds = toy_data(44);
  nn::Network net = trained_toy_net(ds, nn::Act::kReLU, 4, 4);
  SecureInferenceOptions layered;
  layered.seed = Block{1, 1};
  SecureInferenceOptions mono = layered;
  mono.per_layer = false;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(secure_infer(net, ds.x[i], layered).label,
              secure_infer(net, ds.x[i], mono).label);
  }
}

TEST(SecureInfer, PrunedModelRunsAndShrinksTraffic) {
  const nn::Dataset ds = toy_data(45);
  nn::Network net = trained_toy_net(ds, nn::Act::kReLU, 8, 5);
  SecureInferenceOptions opt;
  opt.seed = Block{3, 3};
  const auto before = secure_infer(net, ds.x[0], opt);

  preprocess::PruneConfig pc;
  pc.prune_fraction = 0.8;
  pc.rounds = 2;
  pc.retrain_epochs = 4;
  preprocess::prune_and_retrain(net, ds, pc);
  const auto after = secure_infer(net, ds.x[0], opt);

  EXPECT_LT(after.gates.num_non_xor, before.gates.num_non_xor / 2);
  EXPECT_LT(after.client_to_server_bytes, before.client_to_server_bytes / 2);
  EXPECT_EQ(after.label, nn::fixed_predict(net, ds.x[0], opt.fmt));
}

TEST(SecureInferOutsourced, AgreesWithDirectMode) {
  const nn::Dataset ds = toy_data(46);
  nn::Network net = trained_toy_net(ds, nn::Act::kReLU, 5, 6);
  SecureInferenceOptions opt;
  opt.seed = Block{11, 12};
  for (int i = 0; i < 3; ++i) {
    const auto direct = secure_infer(net, ds.x[i], opt);
    const auto outsourced = secure_infer_outsourced(net, ds.x[i], opt);
    EXPECT_EQ(direct.label, outsourced.label) << i;
  }
}

TEST(PreprocessPipeline, ImprovesCostKeepsAccuracy) {
  data::SyntheticConfig cfg;
  cfg.features = 48;
  cfg.classes = 3;
  cfg.samples = 300;
  cfg.subspace_rank = 4;
  cfg.noise = 0.01;
  cfg.seed = 47;
  const nn::Dataset all = data::make_subspace_dataset(cfg);
  const nn::Split split = nn::split_dataset(all, 0.8);

  PreprocessConfig pc;
  pc.hidden = 16;
  pc.projection.gamma = 0.2;
  pc.prune.prune_fraction = 0.6;
  pc.prune.rounds = 2;
  pc.prune.retrain_epochs = 5;
  pc.retrain.epochs = 12;

  const PreprocessOutcome out =
      preprocess_pipeline(split.train, split.test, nn::Act::kReLU, pc);

  EXPECT_GT(out.baseline_accuracy, 0.8f);
  EXPECT_GE(out.condensed_accuracy, out.baseline_accuracy - 0.1f);
  EXPECT_LT(out.cost_after.comm_bytes, out.cost_before.comm_bytes);
  EXPECT_LT(out.projection.embed_dim, 48u);
  EXPECT_GT(out.prune.overall_sparsity, 0.4);
}

}  // namespace
}  // namespace deepsecure
