// Tests for core/topk_compressor: selection semantics, wire budget
// (b = 48K/d), all-gather aggregation, and error feedback across rounds.
#include "core/topk_compressor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/vnmse.h"

namespace gcs::core {
namespace {

std::vector<std::vector<float>> random_grads(int n, std::size_t d,
                                             std::uint64_t seed) {
  std::vector<std::vector<float>> grads(n, std::vector<float>(d));
  for (int w = 0; w < n; ++w) {
    Rng rng(derive_seed(seed, w));
    for (auto& v : grads[w]) v = static_cast<float>(rng.next_gaussian());
  }
  return grads;
}

std::vector<std::span<const float>> views_of(
    const std::vector<std::vector<float>>& grads) {
  std::vector<std::span<const float>> views;
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());
  return views;
}

TEST(TopKConfig, KForBitsMatchesPaperFormula) {
  // b = 48 K / d  =>  K = d b / 48.
  EXPECT_EQ(TopKConfig::k_for_bits(48000, 8.0), 8000u);
  EXPECT_EQ(TopKConfig::k_for_bits(48000, 0.5), 500u);
  // Delta format: 32 bits per entry.
  EXPECT_EQ(TopKConfig::k_for_bits(32000, 2.0, true), 2000u);
  EXPECT_GE(TopKConfig::k_for_bits(10, 0.001), 1u);  // clamped to >= 1
}

TEST(TopK, PathIsAllGather) {
  TopKConfig config;
  config.dimension = 100;
  config.world_size = 2;
  config.k = 10;
  auto c = make_topk(config);
  EXPECT_EQ(c->path(), AggregationPath::kAllGather);
  EXPECT_EQ(c->name(), "TopK");
  EXPECT_EQ(c->world_size(), 2);
}

TEST(TopK, MeasuredBitsMatchFormula) {
  TopKConfig config;
  config.dimension = 4800;
  config.world_size = 4;
  config.k = 400;  // b = 48*400/4800 = 4 bits/coordinate
  config.error_feedback = false;
  auto c = make_topk(config);
  const auto grads = random_grads(4, 4800, 1);
  std::vector<float> out(4800);
  const auto views = views_of(grads);
  const auto stats = c->aggregate(views, out, 0);
  // + the 4-byte count header (amortizes away at paper scale).
  EXPECT_NEAR(stats.bits_per_coordinate(4800), 4.0, 0.05);
}

TEST(TopK, AggregateIsUnionOfPerWorkerSelections) {
  // With one dominant coordinate per worker, the aggregate holds each
  // worker's value at its own hot index.
  TopKConfig config;
  config.dimension = 40;
  config.world_size = 2;
  config.k = 1;
  config.error_feedback = false;
  auto c = make_topk(config);
  std::vector<std::vector<float>> grads(2, std::vector<float>(40, 0.01f));
  grads[0][3] = 8.0f;
  grads[1][17] = -9.0f;
  std::vector<float> out(40);
  const auto views = views_of(grads);
  c->aggregate(views, out, 0);
  EXPECT_EQ(out[3], 8.0f);
  EXPECT_EQ(out[17], -9.0f);
  for (std::size_t i = 0; i < 40; ++i) {
    if (i != 3 && i != 17) {
      EXPECT_EQ(out[i], 0.0f) << i;
    }
  }
}

TEST(TopK, OverlappingSelectionsSum) {
  TopKConfig config;
  config.dimension = 10;
  config.world_size = 3;
  config.k = 1;
  config.error_feedback = false;
  auto c = make_topk(config);
  std::vector<std::vector<float>> grads(3, std::vector<float>(10, 0.0f));
  for (auto& g : grads) g[5] = 2.0f;
  std::vector<float> out(10);
  const auto views = views_of(grads);
  c->aggregate(views, out, 0);
  EXPECT_EQ(out[5], 6.0f);
}

TEST(TopK, ErrorFeedbackRecoversDroppedMass) {
  // A coordinate too small to be selected in round 1 accumulates in the
  // memory and eventually gets transmitted.
  TopKConfig config;
  config.dimension = 4;
  config.world_size = 1;
  config.k = 1;
  config.error_feedback = true;
  auto c = make_topk(config);
  // grad: [1.0, 0.6, 0, 0] each round; k=1 keeps index 0 in round 1;
  // round 2's compensated vector is [1.0, 1.2, 0, 0] -> index 1 wins.
  std::vector<std::vector<float>> grads(1, {1.0f, 0.6f, 0.0f, 0.0f});
  std::vector<float> out(4);
  const auto views = views_of(grads);
  c->aggregate(views, out, 0);
  EXPECT_GT(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
  c->aggregate(views, out, 1);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_NEAR(out[1], 1.2f, 1e-2);
}

TEST(TopK, EfReducesLongRunError) {
  // Across many rounds, EF keeps the *cumulative* aggregate close to the
  // cumulative gradient sum; without EF the small coordinates are lost
  // forever.
  const std::size_t d = 256;
  TopKConfig with_ef{d, 2, 16, true, false};
  TopKConfig no_ef{d, 2, 16, false, false};
  auto c_ef = make_topk(with_ef);
  auto c_no = make_topk(no_ef);
  std::vector<double> cum_true(d, 0.0), cum_ef(d, 0.0), cum_no(d, 0.0);
  std::vector<float> out(d);
  for (int r = 0; r < 30; ++r) {
    auto grads = random_grads(2, d, 100 + r);
    const auto views = views_of(grads);
    for (std::size_t i = 0; i < d; ++i) {
      cum_true[i] += grads[0][i] + grads[1][i];
    }
    c_ef->aggregate(views, out, r);
    for (std::size_t i = 0; i < d; ++i) cum_ef[i] += out[i];
    c_no->aggregate(views, out, r);
    for (std::size_t i = 0; i < d; ++i) cum_no[i] += out[i];
  }
  double err_ef = 0.0, err_no = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    err_ef += (cum_ef[i] - cum_true[i]) * (cum_ef[i] - cum_true[i]);
    err_no += (cum_no[i] - cum_true[i]) * (cum_no[i] - cum_true[i]);
  }
  EXPECT_LT(err_ef, err_no * 0.6);
}

TEST(TopK, DeltaFormatProducesSameAggregateCheaper) {
  const std::size_t d = 2048;
  TopKConfig plain{d, 2, 128, false, false};
  TopKConfig delta{d, 2, 128, false, true};
  auto c1 = make_topk(plain);
  auto c2 = make_topk(delta);
  const auto grads = random_grads(2, d, 9);
  const auto views = views_of(grads);
  std::vector<float> out1(d), out2(d);
  const auto s1 = c1->aggregate(views, out1, 0);
  const auto s2 = c2->aggregate(views, out2, 0);
  EXPECT_EQ(out1, out2);
  EXPECT_LT(s2.payload_bytes, s1.payload_bytes);
}

TEST(TopK, ResetClearsMemory) {
  TopKConfig config{8, 1, 1, true, false};
  auto c = make_topk(config);
  std::vector<std::vector<float>> grads(1, {1.0f, 0.9f, 0, 0, 0, 0, 0, 0});
  std::vector<float> out(8);
  const auto views = views_of(grads);
  c->aggregate(views, out, 0);
  c->reset();
  // After reset the same input picks index 0 again (no residual boost).
  c->aggregate(views, out, 1);
  EXPECT_GT(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
}

TEST(TopK, MoreBitsLowerVnmse) {
  const std::size_t d = 4096;
  double prev = 1e9;
  for (double b : {0.5, 2.0, 8.0}) {
    TopKConfig config{d, 4, TopKConfig::k_for_bits(d, b), false, false};
    auto c = make_topk(config);
    const auto grads = random_grads(4, d, 77);
    const auto views = views_of(grads);
    std::vector<float> out(d);
    c->aggregate(views, out, 0);
    const double err =
        vnmse(out, std::span<const std::span<const float>>(views));
    EXPECT_LT(err, prev) << b;
    prev = err;
  }
}

}  // namespace
}  // namespace gcs::core
