// Acceptance tests of the scheduler layer on the value path: bucketed
// (buckets=layer) multi-worker (workers>1) aggregation is bit-identical
// to the PR 1 single-threaded size-chunked pipeline for all five schemes,
// across world sizes 2-8, on the local, threaded-fabric and socket-fabric
// backends — and wire bytes per rank are unchanged by the scheduler knobs
// (the bucket plan changes the schedule, never the traffic).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "tensor/layout.h"

namespace gcs::core {
namespace {

constexpr int kRounds = 2;

/// The paper's five schemes, by factory spec.
const char* kSchemes[] = {
    "fp16",                     // dense baseline (ring all-reduce)
    "topk:b=8",                 // all-gather-bound sparse
    "topkc:b=8",                // consensus sparse (two stages)
    "thc:q=4:b=4:sat:partial",  // quantized, saturating (three stages)
    "powersgd:r=2",             // low-rank (two stages)
};

std::vector<std::vector<float>> random_grads(std::size_t d, int world,
                                             std::uint64_t seed) {
  std::vector<std::vector<float>> grads(static_cast<std::size_t>(world),
                                        std::vector<float>(d));
  for (int w = 0; w < world; ++w) {
    Rng rng(derive_seed(seed, w));
    for (auto& v : grads[static_cast<std::size_t>(w)]) {
      v = static_cast<float>(rng.next_gaussian());
    }
  }
  return grads;
}

std::vector<std::span<const float>> views_of(
    const std::vector<std::vector<float>>& grads) {
  std::vector<std::span<const float>> views;
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());
  return views;
}

struct RunResult {
  std::vector<float> outputs;     ///< concatenated per-round outs
  std::vector<WireTraffic> wire;  ///< per-round meters
};

RunResult run_rounds(Compressor& compressor, std::size_t d, int world,
                     AggregationPipeline* wire_source = nullptr) {
  RunResult result;
  std::vector<float> out(d);
  for (int r = 0; r < kRounds; ++r) {
    const auto grads =
        random_grads(d, world, 8600 + static_cast<std::uint64_t>(r));
    const auto views = views_of(grads);
    compressor.aggregate(std::span<const std::span<const float>>(views), out,
                         static_cast<std::uint64_t>(r));
    result.outputs.insert(result.outputs.end(), out.begin(), out.end());
    if (wire_source != nullptr) result.wire.push_back(wire_source->last_wire());
  }
  return result;
}

RunResult run_rounds(AggregationPipeline& pipeline, int world) {
  const std::size_t d = pipeline.codec().dimension();
  RunResult result;
  std::vector<float> out(d);
  for (int r = 0; r < kRounds; ++r) {
    const auto grads =
        random_grads(d, world, 8600 + static_cast<std::uint64_t>(r));
    const auto views = views_of(grads);
    pipeline.aggregate(std::span<const std::span<const float>>(views), out,
                       static_cast<std::uint64_t>(r));
    result.outputs.insert(result.outputs.end(), out.begin(), out.end());
    result.wire.push_back(pipeline.last_wire());
  }
  return result;
}

bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// A small but genuinely multi-layer layout (make_transformer_like_layout
/// collapses to one layer at test scale, which would degenerate every
/// layer-aligned plan to a single bucket): mixed matrices and biases,
/// ~4.5K coordinates, so bucket=4096 (1024 elements) yields several
/// buckets and PowerSGD exercises both its low-rank and dense branches.
ModelLayout test_layout() {
  return ModelLayout({LayerSpec{"fc1", 48, 32}, LayerSpec{"b1", 48, 1},
                      LayerSpec{"fc2", 32, 40}, LayerSpec{"b2", 32, 1},
                      LayerSpec{"ln", 64, 1}, LayerSpec{"fc3", 24, 36},
                      LayerSpec{"b3", 24, 1}, LayerSpec{"head", 30, 20},
                      LayerSpec{"hb", 30, 1}});
}

TEST(SchedPipeline, BucketedMultiWorkerMatchesSizeChunkedLocally) {
  // Local reference backend, every world size 2-8: the bucketed plan and
  // the worker pool are value-transparent.
  const ModelLayout layout = test_layout();
  const std::size_t d = layout.total_size();
  for (int world = 2; world <= 8; ++world) {
    for (const char* spec : kSchemes) {
      auto reference =
          make_compressor(std::string(spec) + ":chunk=512", layout, world);
      auto bucketed = make_compressor(
          std::string(spec) + ":buckets=layer:bucket=4096:workers=2",
          layout, world);
      const auto ref = run_rounds(*reference, d, world);
      const auto got = run_rounds(*bucketed, d, world);
      EXPECT_TRUE(bit_identical(got.outputs, ref.outputs))
          << spec << " world=" << world;
    }
  }
}

TEST(SchedPipeline, BucketedMultiWorkerMatchesOnThreadedFabric) {
  // Threaded fabric: the hand-off path (collective threads start while
  // later ranks' payloads are still encoding) must stay bit-identical to
  // the single-threaded size-chunked run AND meter identical per-rank
  // wire bytes for the same chunk plan.
  const ModelLayout layout = test_layout();
  for (int world : {2, 3, 5, 8}) {
    for (const char* spec : kSchemes) {
      PipelineConfig reference_config =
          parse_pipeline_config(std::string(spec) + ":chunk=512:fabric=threaded");
      AggregationPipeline reference(
          make_scheme_codec(spec, layout, world), reference_config);
      const auto ref = run_rounds(reference, world);

      PipelineConfig bucketed_config = parse_pipeline_config(
          std::string(spec) +
              ":buckets=layer:bucket=4096:workers=3:fabric=threaded",
          layout, world);
      AggregationPipeline bucketed(make_scheme_codec(spec, layout, world),
                                   bucketed_config);
      // Guard against a degenerate plan: bucket=4096 on this ~16 KB
      // layout must yield genuinely multi-bucket schedules, or the test
      // would silently stop exercising the bucketed collectives.
      ASSERT_NE(bucketed.bucket_plan(), nullptr);
      ASSERT_GT(bucketed.bucket_plan()->num_buckets(), 2u) << spec;
      const auto got = run_rounds(bucketed, world);
      EXPECT_TRUE(bit_identical(got.outputs, ref.outputs))
          << spec << " world=" << world;
      // Chunking is traffic-transparent too: every (step, chunk) hop
      // carries an intersection of the same block partition, so per-rank
      // payload bytes match the size-chunked reference exactly.
      ASSERT_EQ(got.wire.size(), ref.wire.size());
      for (std::size_t r = 0; r < got.wire.size(); ++r) {
        EXPECT_EQ(got.wire[r].sent, ref.wire[r].sent)
            << spec << " world=" << world << " round " << r;
        EXPECT_EQ(got.wire[r].received, ref.wire[r].received)
            << spec << " world=" << world << " round " << r;
      }

      // Same chunk plan => same traffic: rerun the reference with the
      // bucketed plan but a single thread to compare meters directly.
      PipelineConfig single = bucketed_config;
      single.encode_workers = 1;
      AggregationPipeline bucketed_serial(
          make_scheme_codec(spec, layout, world), single);
      const auto serial = run_rounds(bucketed_serial, world);
      EXPECT_TRUE(bit_identical(got.outputs, serial.outputs))
          << spec << " world=" << world;
      ASSERT_EQ(got.wire.size(), serial.wire.size());
      for (std::size_t r = 0; r < got.wire.size(); ++r) {
        EXPECT_EQ(got.wire[r].sent, serial.wire[r].sent)
            << spec << " world=" << world << " round " << r;
        EXPECT_EQ(got.wire[r].received, serial.wire[r].received)
            << spec << " world=" << world << " round " << r;
      }
    }
  }
}

TEST(SchedPipeline, BucketedMultiWorkerMatchesOnSocketFabric) {
  // Socket fabric: every aggregate() forks real processes; the child
  // ranks rebuild their own encode pools post-fork. World sizes kept
  // small — each (scheme, world) pair is a full multi-process mesh.
  const ModelLayout layout = test_layout();
  const std::size_t d = layout.total_size();
  for (int world : {2, 4}) {
    for (const char* spec : kSchemes) {
      auto reference =
          make_compressor(std::string(spec) + ":chunk=512", layout, world);
      const auto ref = run_rounds(*reference, d, world);

      auto bucketed = make_compressor(
          std::string(spec) +
              ":buckets=layer:bucket=2048:workers=2:fabric=socket",
          layout, world);
      const auto got = run_rounds(*bucketed, d, world);
      EXPECT_TRUE(bit_identical(got.outputs, ref.outputs))
          << spec << " world=" << world;
    }
  }
}

TEST(SchedPipeline, WorkerPoolAloneIsValueTransparent) {
  // workers>1 without buckets (plain size chunks) must also be
  // bit-identical — the pool is orthogonal to the plan.
  const ModelLayout layout = test_layout();
  const std::size_t d = layout.total_size();
  for (const char* spec : kSchemes) {
    auto reference =
        make_compressor(std::string(spec) + ":chunk=256", layout, 4);
    auto pooled = make_compressor(
        std::string(spec) + ":chunk=256:workers=4", layout, 4);
    const auto ref = run_rounds(*reference, d, 4);
    const auto got = run_rounds(*pooled, d, 4);
    EXPECT_TRUE(bit_identical(got.outputs, ref.outputs)) << spec;
  }
}

TEST(SchedPipeline, AutotunedSpecRunsAndMatches) {
  // autotune resolves to concrete sizes inside the factory; values stay
  // bit-identical to the monolithic run.
  const ModelLayout layout = test_layout();
  const std::size_t d = layout.total_size();
  auto mono = make_compressor("topkc:b=8", layout, 4);
  auto tuned =
      make_compressor("topkc:b=8:buckets=layer:workers=2:autotune", layout, 4);
  const auto ref = run_rounds(*mono, d, 4);
  const auto got = run_rounds(*tuned, d, 4);
  EXPECT_TRUE(bit_identical(got.outputs, ref.outputs));
}

// A codec whose encode fails for one worker: the overlapped threaded
// path must fail the round loudly (Fabric::abort unblocks peers already
// inside the collective) instead of deadlocking.
class FailingEncodeCodec final : public SchemeCodec {
 public:
  FailingEncodeCodec(std::size_t d, int n, int failing_worker)
      : d_(d), n_(n), failing_worker_(failing_worker),
        op_(comm::make_fp32_sum()) {}

  std::string name() const override { return "FailingEncode"; }
  AggregationPath path() const override {
    return AggregationPath::kAllReduce;
  }
  int world_size() const override { return n_; }
  std::size_t dimension() const override { return d_; }

  class Round final : public CodecRound {
   public:
    Round(const FailingEncodeCodec& codec,
          std::span<const std::span<const float>> grads)
        : codec_(codec), grads_(grads) {}

    bool next_stage(WireStage& stage) override {
      if (done_) return false;
      done_ = true;
      stage = WireStage{};
      stage.name = "failing-values";
      stage.op = codec_.op_.get();
      return true;
    }
    ByteBuffer encode(int worker) override {
      if (worker == codec_.failing_worker_) {
        throw Error("synthetic encode failure");
      }
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
    const FailingEncodeCodec& codec_;
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
  int failing_worker_;
  std::unique_ptr<comm::ReduceOp> op_;
};

TEST(SchedPipeline, EncodeFailureFailsLoudlyOnOverlappedFabric) {
  // Worker 3's encode throws while ranks 0-2 are already exchanging hops;
  // the fabric abort must surface an exception (any rank's) rather than
  // deadlock in recv.
  const std::size_t d = 256;
  const int world = 4;
  PipelineConfig config;
  config.backend = PipelineBackend::kThreadedFabric;
  config.chunk_bytes = 64;
  config.encode_workers = 2;
  AggregationPipeline pipeline(
      std::make_unique<FailingEncodeCodec>(d, world, 3), config);
  const auto grads = random_grads(d, world, 77);
  const auto views = views_of(grads);
  std::vector<float> out(d);
  EXPECT_THROW(pipeline.aggregate(
                   std::span<const std::span<const float>>(views), out, 0),
               std::exception);
}

TEST(SchedPipeline, LayerBucketsRequireACoveringLayout) {
  // parse_pipeline_config without a layout leaves the config layout
  // empty; constructing a pipeline from it must fail loudly rather than
  // plan buckets over nothing.
  const ModelLayout layout = test_layout();
  PipelineConfig config = parse_pipeline_config("fp16:buckets=layer");
  EXPECT_THROW(AggregationPipeline(make_scheme_codec("fp16", layout, 2),
                                   config),
               Error);
}

}  // namespace
}  // namespace gcs::core
