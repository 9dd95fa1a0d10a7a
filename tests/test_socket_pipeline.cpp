// The acceptance test of the socket transport subsystem: a multi-process
// SocketFabric DDP run (world size >= 4, all five schemes) produces
// bit-identical aggregated gradients and identical per-rank wire-byte
// counts to the in-process fabric. Every rank is a real forked OS process
// that meshes once over Unix-domain sockets and then runs consecutive
// rounds of aggregate_over on its own pipeline (tests/socket_mesh.h).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "socket_mesh.h"
#include "tensor/layout.h"

namespace gcs::core {
namespace {

using testing::expect_mesh_matches;
using testing::run_reference;
using testing::run_socket_mesh;

constexpr int kWorld = 4;
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

testing::RoundGrads grads_for(std::size_t d, int world) {
  return [d, world](int round) {
    return random_grads(d, world, 7000 + static_cast<std::uint64_t>(round));
  };
}

PipelineConfig chunked(std::size_t chunk_bytes, PipelineBackend backend) {
  PipelineConfig config;
  config.chunk_bytes = chunk_bytes;
  config.backend = backend;
  return config;
}

TEST(SocketPipeline, MatchesInProcessFabricForAllFiveSchemes) {
  const ModelLayout layout = make_transformer_like_layout(1 << 12);
  const auto grads_of = grads_for(layout.total_size(), kWorld);
  for (const char* spec : kSchemes) {
    const auto reference =
        run_reference(spec, layout, kWorld,
                      chunked(512, PipelineBackend::kThreadedFabric),
                      kRounds, grads_of);
    // Bit-identical aggregated gradients on every rank, including
    // cross-round state (error feedback, PowerSGD warm starts) evolving
    // on its own in each process; identical per-rank wire bytes in both
    // directions, every round.
    const auto mesh = run_socket_mesh(
        spec, layout, kWorld, chunked(512, PipelineBackend::kLocalReference),
        kRounds, grads_of);
    ASSERT_EQ(mesh.size(), static_cast<std::size_t>(kWorld)) << spec;
    expect_mesh_matches(mesh, reference, spec);
    for (int r = 0; r < kRounds; ++r) {
      std::uint64_t total = 0;
      for (const auto& rank : mesh) total += rank.sent[r];
      EXPECT_GT(total, 0u) << spec << ": socket round moved no bytes?";
    }
  }
}

TEST(SocketPipeline, WorldSizeFivePowerOfTwoBreaker) {
  // World sizes off the power of two also mesh and agree (tree/broadcast
  // topologies degenerate differently at n=5), for every scheme.
  const ModelLayout layout = make_transformer_like_layout(1 << 12);
  const auto grads_of = grads_for(layout.total_size(), 5);
  for (const char* spec : kSchemes) {
    const auto reference =
        run_reference(spec, layout, 5,
                      chunked(256, PipelineBackend::kThreadedFabric),
                      kRounds, grads_of);
    const auto mesh = run_socket_mesh(
        spec, layout, 5, chunked(256, PipelineBackend::kLocalReference),
        kRounds, grads_of);
    ASSERT_EQ(mesh.size(), 5u) << spec;
    expect_mesh_matches(mesh, reference, std::string(spec) + " world=5");
  }
}

TEST(SocketPipeline, RetiredSocketSpecKeysAreRejected) {
  // A spec never selects a network transport: the fork-per-round backend
  // and its knobs are gone, and each must fail loudly with a typed error
  // instead of silently running in-process.
  const ModelLayout layout({LayerSpec{"flat", 1024, 1}});
  for (const char* spec :
       {"thc:q=4:b=4:sat:partial:chunk=256:fabric=socket",
        "fp16:port=29500", "fp16:iface=127.0.0.1", "fp16:elastic=on",
        "fp16:peer_timeout_ms=500"}) {
    EXPECT_THROW(make_compressor(spec, layout, kWorld), Error) << spec;
    EXPECT_THROW(make_scheme_codec(spec, layout, kWorld), Error) << spec;
  }
  EXPECT_THROW(parse_pipeline_config("fp16:fabric=socket"), Error);
}

TEST(SocketPipeline, LocalBackendReportsNoWire) {
  const ModelLayout layout({LayerSpec{"flat", 512, 1}});
  AggregationPipeline pipeline(make_scheme_codec("fp16", layout, kWorld),
                               PipelineConfig{});
  const auto grads = random_grads(512, kWorld, 1);
  const auto views = testing::grad_views(grads);
  std::vector<float> out(512);
  pipeline.aggregate(std::span<const std::span<const float>>(views), out,
                     0);
  EXPECT_TRUE(pipeline.last_wire().sent.empty());
  EXPECT_TRUE(pipeline.last_wire().received.empty());
}

}  // namespace
}  // namespace gcs::core
