// Tests for the layered aggregation stack: the AggregationPipeline path
// produces bit-identical aggregated sums to the monolithic path for all
// five schemes, at every chunk size, on both execution backends (local
// reference and threaded fabric), with cross-round state (EF memories,
// PowerSGD warm starts) evolving identically.
#include "core/aggregation_pipeline.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "common/rng.h"
#include "core/baselines.h"
#include "core/factory.h"
#include "core/powersgd_compressor.h"
#include "core/thc_compressor.h"
#include "core/topk_compressor.h"
#include "core/topkc_compressor.h"
#include "tensor/layout.h"

namespace gcs::core {
namespace {

constexpr std::size_t kDim = 1024;
constexpr int kWorld = 4;

std::vector<std::vector<float>> random_grads(std::size_t d,
                                             std::uint64_t seed) {
  std::vector<std::vector<float>> grads(kWorld, std::vector<float>(d));
  for (int w = 0; w < kWorld; ++w) {
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

ModelLayout flat_layout(std::size_t d) {
  return ModelLayout({LayerSpec{"flat", d, 1}});
}

ModelLayout matrix_layout() {
  // A couple of genuinely 2-D layers plus a bias so PowerSGD exercises
  // both the low-rank and the dense-exact branch.
  return ModelLayout({LayerSpec{"fc1", 32, 24},
                      LayerSpec{"b1", 32, 1},
                      LayerSpec{"fc2", 8, 28}});
}

struct SchemeCase {
  const char* label;
  std::function<SchemeCodecPtr()> make;
};

std::vector<SchemeCase> scheme_cases() {
  std::vector<SchemeCase> cases;
  cases.push_back({"fp32", [] {
                     BaselineConfig c;
                     c.dimension = kDim;
                     c.world_size = kWorld;
                     c.comm_precision = Precision::kFp32;
                     return make_baseline_codec(c);
                   }});
  cases.push_back({"fp16", [] {
                     BaselineConfig c;
                     c.dimension = kDim;
                     c.world_size = kWorld;
                     c.comm_precision = Precision::kFp16;
                     return make_baseline_codec(c);
                   }});
  cases.push_back({"fp16-tree", [] {
                     BaselineConfig c;
                     c.dimension = kDim;
                     c.world_size = kWorld;
                     c.comm_precision = Precision::kFp16;
                     c.use_tree = true;
                     return make_baseline_codec(c);
                   }});
  cases.push_back({"topk", [] {
                     TopKConfig c;
                     c.dimension = kDim;
                     c.world_size = kWorld;
                     c.k = 64;
                     return make_topk_codec(c);
                   }});
  cases.push_back({"topk-delta", [] {
                     TopKConfig c;
                     c.dimension = kDim;
                     c.world_size = kWorld;
                     c.k = 48;
                     c.delta_indices = true;
                     return make_topk_codec(c);
                   }});
  cases.push_back({"topkc", [] {
                     TopKCConfig c;
                     c.dimension = kDim;
                     c.world_size = kWorld;
                     c.chunk_size = 32;
                     c.num_top_chunks = 6;
                     return make_topkc_codec(c);
                   }});
  cases.push_back({"topkc-perm", [] {
                     TopKCConfig c;
                     c.dimension = kDim;
                     c.world_size = kWorld;
                     c.chunk_size = 32;
                     c.num_top_chunks = 6;
                     c.permute = true;
                     return make_topkc_codec(c);
                   }});
  cases.push_back({"thc-sat", [] {
                     ThcConfig c;
                     c.dimension = kDim;
                     c.world_size = kWorld;
                     c.q = 4;
                     c.b = 4;
                     c.saturation = true;
                     c.rotation = RotationMode::kPartial;
                     c.shared_memory_bytes = 1024;
                     return make_thc_codec(c);
                   }});
  cases.push_back({"thc-wide-full", [] {
                     ThcConfig c;
                     c.dimension = kDim;
                     c.world_size = kWorld;
                     c.q = 4;
                     c.b = 8;
                     c.saturation = false;
                     c.rotation = RotationMode::kFull;
                     return make_thc_codec(c);
                   }});
  cases.push_back({"powersgd", [] {
                     PowerSgdConfig c;
                     c.layout = matrix_layout();
                     c.world_size = kWorld;
                     c.rank = 2;
                     return make_powersgd_codec(c);
                   }});
  return cases;
}

std::size_t case_dimension(const SchemeCodec& codec) {
  return codec.dimension();
}

/// Runs `rounds` aggregation rounds and returns the concatenated outputs,
/// so cross-round state (EF, warm starts) is part of the comparison.
std::vector<float> run_rounds(AggregationPipeline& pipeline, int rounds,
                              std::vector<RoundStats>* stats_out = nullptr) {
  const std::size_t d = case_dimension(pipeline.codec());
  std::vector<float> all;
  std::vector<float> out(d);
  for (int r = 0; r < rounds; ++r) {
    const auto grads = random_grads(d, 9000 + static_cast<std::uint64_t>(r));
    const auto views = views_of(grads);
    const RoundStats stats = pipeline.aggregate(
        std::span<const std::span<const float>>(views), out,
        static_cast<std::uint64_t>(r));
    if (stats_out != nullptr) stats_out->push_back(stats);
    all.insert(all.end(), out.begin(), out.end());
  }
  return all;
}

bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(AggregationPipeline, ChunkedMatchesMonolithicForAllSchemes) {
  for (const auto& scheme : scheme_cases()) {
    AggregationPipeline mono(scheme.make(), PipelineConfig{});
    std::vector<RoundStats> mono_stats;
    const auto mono_out = run_rounds(mono, 3, &mono_stats);
    for (std::size_t chunk_bytes : {64u, 200u, 4096u}) {
      PipelineConfig config;
      config.chunk_bytes = chunk_bytes;
      AggregationPipeline chunked(scheme.make(), config);
      std::vector<RoundStats> chunked_stats;
      const auto chunked_out = run_rounds(chunked, 3, &chunked_stats);
      EXPECT_TRUE(bit_identical(chunked_out, mono_out))
          << scheme.label << " chunk_bytes=" << chunk_bytes;
      ASSERT_EQ(chunked_stats.size(), mono_stats.size());
      for (std::size_t r = 0; r < mono_stats.size(); ++r) {
        EXPECT_EQ(chunked_stats[r].payload_bytes,
                  mono_stats[r].payload_bytes)
            << scheme.label;
        EXPECT_EQ(chunked_stats[r].metadata_bytes,
                  mono_stats[r].metadata_bytes)
            << scheme.label;
      }
    }
  }
}

TEST(AggregationPipeline, ThreadedFabricMatchesLocalReference) {
  for (const auto& scheme : scheme_cases()) {
    AggregationPipeline local(scheme.make(), PipelineConfig{});
    const auto local_out = run_rounds(local, 2);
    PipelineConfig threaded_config;
    threaded_config.backend = PipelineBackend::kThreadedFabric;
    threaded_config.chunk_bytes = 128;
    AggregationPipeline threaded(scheme.make(), threaded_config);
    const auto threaded_out = run_rounds(threaded, 2);
    EXPECT_TRUE(bit_identical(threaded_out, local_out)) << scheme.label;
  }
}

TEST(AggregationPipeline, AdapterPreservesCompressorContract) {
  // The factory's Compressor is a thin adapter over the pipeline: same
  // name/path/world_size surface, same aggregate values with and without
  // the chunk option.
  const auto layout = flat_layout(kDim);
  auto plain = make_compressor("fp16", layout, kWorld);
  auto chunked = make_compressor("fp16:chunk=256", layout, kWorld);
  EXPECT_EQ(plain->name(), chunked->name());
  EXPECT_EQ(plain->path(), chunked->path());
  EXPECT_EQ(plain->world_size(), chunked->world_size());

  const auto grads = random_grads(kDim, 123);
  const auto views = views_of(grads);
  std::vector<float> out_a(kDim), out_b(kDim);
  plain->aggregate(std::span<const std::span<const float>>(views), out_a, 0);
  chunked->aggregate(std::span<const std::span<const float>>(views), out_b,
                     0);
  EXPECT_TRUE(bit_identical(out_a, out_b));
}

TEST(AggregationPipeline, FabricSpecFlagRunsThreaded) {
  // "fabric" routes the factory product through the threaded fabric; the
  // result stays bit-identical to the local path.
  const auto layout = flat_layout(256);
  auto local = make_compressor("topkc:b=8", layout, kWorld);
  auto fabric = make_compressor("topkc:b=8:chunk=64:fabric", layout, kWorld);
  const auto grads = random_grads(256, 321);
  const auto views = views_of(grads);
  std::vector<float> out_a(256), out_b(256);
  local->aggregate(std::span<const std::span<const float>>(views), out_a, 0);
  fabric->aggregate(std::span<const std::span<const float>>(views), out_b,
                    0);
  EXPECT_TRUE(bit_identical(out_a, out_b));
}

TEST(AggregationPipeline, AllGatherAllowsAsymmetricPayloads) {
  // TopK's delta format inserts per-worker padding entries when an index
  // gap exceeds 16 bits, so gather payload sizes can differ across
  // workers; the pipeline must carry that (the reducible routes still
  // require symmetry).
  const std::size_t d = 300000;
  TopKConfig config;
  config.dimension = d;
  config.world_size = 2;
  config.k = 2;
  config.error_feedback = false;
  config.delta_indices = true;

  std::vector<std::vector<float>> grads(2, std::vector<float>(d, 0.0f));
  grads[0][0] = 4.0f;
  grads[0][d - 1] = 3.0f;  // gap ~300k: forces padding entries
  grads[1][0] = 2.0f;
  grads[1][1] = 1.0f;  // no padding: smaller payload
  std::vector<std::span<const float>> views;
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());

  PipelineConfig chunked_config;
  chunked_config.chunk_bytes = 64;
  PipelineConfig threaded_config = chunked_config;
  threaded_config.backend = PipelineBackend::kThreadedFabric;
  for (const auto& config_variant :
       {PipelineConfig{}, chunked_config, threaded_config}) {
    AggregationPipeline pipeline(make_topk_codec(config), config_variant);
    std::vector<float> out(d);
    pipeline.aggregate(std::span<const std::span<const float>>(views), out,
                       0);
    EXPECT_FLOAT_EQ(out[0], 6.0f);
    EXPECT_FLOAT_EQ(out[1], 1.0f);
    EXPECT_FLOAT_EQ(out[d - 1], 3.0f);
  }
}

// A minimal codec routing its payload through the parameter server — the
// pipeline's third route, which none of the paper's five schemes uses on
// its main path but the layer must carry (the paper's PS critique needs a
// working PS path to measure).
class PsEchoCodec final : public SchemeCodec {
 public:
  explicit PsEchoCodec(std::size_t d, int n)
      : d_(d), n_(n), op_(comm::make_fp32_sum()) {}

  std::string name() const override { return "PsEcho"; }
  AggregationPath path() const override {
    return AggregationPath::kParameterServer;
  }
  int world_size() const override { return n_; }
  std::size_t dimension() const override { return d_; }

  class Round final : public CodecRound {
   public:
    Round(const PsEchoCodec& codec,
          std::span<const std::span<const float>> grads)
        : codec_(codec), grads_(grads) {}

    bool next_stage(WireStage& stage) override {
      if (done_) return false;
      done_ = true;
      stage = WireStage{};
      stage.name = "ps-values";
      stage.route = AggregationPath::kParameterServer;
      stage.op = codec_.op_.get();
      return true;
    }
    ByteBuffer encode(int worker) override {
      ByteBuffer buf;
      ByteWriter w(buf);
      w.put_span<float>(grads_[static_cast<std::size_t>(worker)]);
      return buf;
    }
    void absorb_reduced(const ByteBuffer& reduced) override {
      reduced_ = reduced;
    }
    void finish(std::span<float> out, RoundStats& /*stats*/) override {
      std::memcpy(out.data(), reduced_.data(), out.size() * sizeof(float));
    }

   private:
    const PsEchoCodec& codec_;
    std::span<const std::span<const float>> grads_;
    bool done_ = false;
    ByteBuffer reduced_;
  };

  std::unique_ptr<CodecRound> begin_round(
      std::span<const std::span<const float>> grads,
      std::uint64_t /*round*/) override {
    return std::make_unique<Round>(*this, grads);
  }
  void reset() override {}

 private:
  friend class Round;
  std::size_t d_;
  int n_;
  std::unique_ptr<comm::ReduceOp> op_;
};

TEST(AggregationPipeline, ParameterServerRouteFoldsInRankOrder) {
  const std::size_t d = 96;
  const auto grads = random_grads(d, 55);
  const auto views = views_of(grads);

  // Expected: rank-order fold starting from the server's buffer.
  std::vector<float> expected(grads[0]);
  for (int w = 1; w < kWorld; ++w) {
    for (std::size_t i = 0; i < d; ++i) expected[i] += grads[w][i];
  }

  for (bool threaded : {false, true}) {
    PipelineConfig config;
    config.chunk_bytes = 32;
    config.backend = threaded ? PipelineBackend::kThreadedFabric
                              : PipelineBackend::kLocalReference;
    AggregationPipeline pipeline(std::make_unique<PsEchoCodec>(d, kWorld),
                                 config);
    std::vector<float> out(d);
    pipeline.aggregate(std::span<const std::span<const float>>(views), out,
                       0);
    for (std::size_t i = 0; i < d; ++i) {
      EXPECT_NEAR(out[i], expected[i], 1e-4f) << "threaded=" << threaded;
    }
  }
}

}  // namespace
}  // namespace gcs::core
