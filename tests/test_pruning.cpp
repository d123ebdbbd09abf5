#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "preprocess/pruning.h"

namespace deepsecure::preprocess {
namespace {

nn::Dataset small_data(uint64_t seed) {
  data::SyntheticConfig cfg;
  cfg.features = 24;
  cfg.classes = 3;
  cfg.samples = 210;
  cfg.seed = seed;
  return data::make_subspace_dataset(cfg);
}

TEST(Pruning, ReachesTargetSparsityAndKeepsAccuracy) {
  const nn::Dataset ds = small_data(31);
  Rng rng(1);
  nn::Network net(nn::Shape{1, 1, 24});
  net.dense(20, rng).act(nn::Act::kReLU).dense(3, rng);
  nn::TrainConfig tc;
  tc.epochs = 10;
  nn::train(net, ds, tc);
  const float acc0 = nn::accuracy(net, ds);
  ASSERT_GT(acc0, 0.85f);

  PruneConfig pc;
  pc.prune_fraction = 0.7;
  pc.rounds = 2;
  pc.retrain_epochs = 6;
  const PruneReport report = prune_and_retrain(net, ds, pc);

  EXPECT_NEAR(report.overall_sparsity, 0.7, 0.05);
  EXPECT_GE(report.accuracy_after, acc0 - 0.08f);
  // Masks installed on every dense layer.
  for (auto* d : net.dense_layers()) {
    ASSERT_FALSE(d->mask.empty());
    for (size_t i = 0; i < d->mask.size(); ++i) {
      if (!d->mask[i]) {
        EXPECT_EQ(d->weights()[i], 0.0f);
      }
    }
  }
}

TEST(Pruning, MaskSurvivesFurtherTraining) {
  const nn::Dataset ds = small_data(32);
  Rng rng(2);
  nn::Network net(nn::Shape{1, 1, 24});
  net.dense(10, rng).act(nn::Act::kTanh).dense(3, rng);
  nn::TrainConfig tc;
  tc.epochs = 4;
  nn::train(net, ds, tc);

  PruneConfig pc;
  pc.prune_fraction = 0.5;
  pc.rounds = 1;
  pc.retrain_epochs = 2;
  prune_and_retrain(net, ds, pc);

  nn::train(net, ds, tc);  // extra training must not resurrect weights
  for (auto* d : net.dense_layers()) {
    for (size_t i = 0; i < d->mask.size(); ++i) {
      if (!d->mask[i]) {
        EXPECT_EQ(d->weights()[i], 0.0f);
      }
    }
  }
}

TEST(Pruning, RandomMaskPopulationExact) {
  const auto mask = random_mask(30, 40, 0.25, 7);
  size_t kept = 0;
  for (uint8_t m : mask) kept += m;
  EXPECT_EQ(kept, static_cast<size_t>(0.25 * 30 * 40));
  // Determinism.
  EXPECT_EQ(mask, random_mask(30, 40, 0.25, 7));
  EXPECT_NE(mask, random_mask(30, 40, 0.25, 8));
}

}  // namespace
}  // namespace deepsecure::preprocess
