// The acceptance tests of elastic membership (DESIGN.md "Fault
// tolerance"), driven by the fault-injection harness
// (tests/fault_injection.h):
//
//   * Kill matrix — worlds 3..5, every non-zero victim rank, every kill
//     phase: survivors complete the interrupted round and the following
//     rounds with gradients bit-identical to a fresh (world-1) run
//     seeded with the survivors' carried-over EF state.
//   * All five schemes survive a mid-collective kill.
//   * Loud-failure regression — with elastic off (the default), a peer
//     exit mid-round throws on every surviving rank within the peer
//     timeout, across all five schemes. No hang, no shrink.
//   * Codec remap unit tests — EF residuals bit-preserved, bad survivor
//     sets rejected.
#include "fault_injection.h"

#include <gtest/gtest.h>

#include <cstring>

#include "core/factory.h"

namespace gcs::testing {
namespace {

const char* kAllSchemes[] = {
    "fp16",                     // dense baseline (no EF)
    "topk:b=8",                 // all-gather sparse, EF in begin/finish
    "topkc:b=8",                // consensus sparse, two stages
    "thc:q=4:b=4:sat:partial",  // quantized, three stages, stateless
    "powersgd:r=2",             // low-rank, EF + warm-started Q iterates
};

/// Asserts one elastic world run matches the reference continuation:
/// the victim died, every survivor completed all rounds, and every
/// survivor's per-round (world, epoch, output-hash) sequence and final
/// EF fingerprints are identical to the remap-seeded local-backend run.
void expect_matches_reference(const WorldConfig& config,
                              const FaultPlan& fault) {
  const WorldResult result = run_world(config, fault);
  const RankReport reference = reference_run(config, fault);
  SCOPED_TRACE(config.scheme + std::string(" victim ") +
               std::to_string(fault.victim) + " " +
               to_string(fault.phase) + " round " +
               std::to_string(fault.round) + " world " +
               std::to_string(config.world));

  ASSERT_EQ(result.outcomes.size(),
            static_cast<std::size_t>(config.world));
  for (const auto& outcome : result.outcomes) {
    if (outcome.rank == fault.victim) {
      EXPECT_FALSE(outcome.ok) << "the victim was supposed to die";
      continue;
    }
    ASSERT_TRUE(outcome.ok)
        << "rank " << outcome.rank << ": "
        << (outcome.error.empty() ? outcome.wait_status : outcome.error);
    const RankReport report = parse_report(outcome.report);
    EXPECT_TRUE(report.completed) << "rank " << outcome.rank;
    ASSERT_EQ(report.rounds.size(), reference.rounds.size())
        << "rank " << outcome.rank;
    for (std::size_t i = 0; i < report.rounds.size(); ++i) {
      EXPECT_EQ(report.rounds[i], reference.rounds[i])
          << "rank " << outcome.rank << " round " << i << ": got world "
          << report.rounds[i].world << " epoch " << report.rounds[i].epoch
          << " hash " << std::hex << report.rounds[i].out_hash
          << ", want world " << std::dec << reference.rounds[i].world
          << " epoch " << reference.rounds[i].epoch << " hash " << std::hex
          << reference.rounds[i].out_hash;
    }
    EXPECT_EQ(report.ef_hashes, reference.ef_hashes)
        << "rank " << outcome.rank
        << ": EF residuals diverged across the epoch swap";
  }
}

TEST(FaultInjection, KillMatrixEveryRankEveryPhaseWorlds3To5) {
  // The full acceptance matrix on the EF-carrying two-stage scheme:
  // worlds 3-5, every non-zero rank killed, at each of the four phases.
  // Kill at round 2 of 7, so survivors prove the interrupted round plus
  // the next 5 rounds bit-match the reference continuation. Runs on the
  // default epoll-reactor engine — this matrix is the recovery
  // acceptance gate for the event-driven fabric (EOF delivery, teardown
  // cascade, epoch rebuild all through the reactor loop).
  constexpr KillPhase kPhases[] = {
      KillPhase::kPreRendezvous,
      KillPhase::kMidEncode,
      KillPhase::kMidCollective,
      KillPhase::kMidDecode,
  };
  for (int world = 3; world <= 5; ++world) {
    for (int victim = 1; victim < world; ++victim) {
      for (const KillPhase phase : kPhases) {
        WorldConfig config;
        config.scheme = "topkc:b=8";
        config.world = world;
        config.rounds = 7;
        config.dim = 1024;
        config.chunk = 256;
        config.rejoin_window_ms = 600;
        config.log_dir = "fault_logs";
        FaultPlan fault;
        fault.victim = victim;
        fault.phase = phase;
        fault.round = 2;
        expect_matches_reference(config, fault);
      }
    }
  }
}

TEST(FaultInjection, AllFiveSchemesSurviveMidCollectiveKill) {
  for (const char* scheme : kAllSchemes) {
    WorldConfig config;
    config.scheme = scheme;
    config.world = 4;
    config.rounds = 7;
    config.dim = 1024;
    config.chunk = 256;
    config.rejoin_window_ms = 600;
    config.log_dir = "fault_logs";
    FaultPlan fault;
    fault.victim = 2;
    fault.phase = KillPhase::kMidCollective;
    fault.round = 2;
    expect_matches_reference(config, fault);
  }
}

TEST(FaultInjection, ElasticOffStillFailsLoudlyWithinPeerTimeout) {
  // The regression pin on today's loud-failure contract: with elastic
  // off (the default), a peer exit mid-round throws on every surviving
  // rank well within peer_timeout_ms — never a hang — across all five
  // schemes. Round 0 must still have committed (the failure is at
  // round 1), and nothing may shrink or recover.
  for (const char* scheme : kAllSchemes) {
    WorldConfig config;
    config.scheme = scheme;
    config.world = 3;
    config.rounds = 4;
    config.dim = 1024;
    config.chunk = 256;
    config.elastic = false;
    config.peer_timeout_ms = 5000;
    config.log_dir = "fault_logs";
    FaultPlan fault;
    fault.victim = 2;
    fault.phase = KillPhase::kMidEncode;
    fault.round = 1;
    const WorldResult result = run_world(config, fault);
    SCOPED_TRACE(scheme);
    ASSERT_EQ(result.outcomes.size(), 3u);
    for (const auto& outcome : result.outcomes) {
      if (outcome.rank == fault.victim) {
        EXPECT_FALSE(outcome.ok);
        continue;
      }
      // The survivor's body returned a report (it did not hang and was
      // not killed); the report says the round threw.
      ASSERT_TRUE(outcome.ok)
          << "rank " << outcome.rank << ": "
          << (outcome.error.empty() ? outcome.wait_status : outcome.error);
      const RankReport report = parse_report(outcome.report);
      EXPECT_FALSE(report.completed) << "rank " << outcome.rank;
      EXPECT_EQ(report.rounds.size(), 1u)
          << "rank " << outcome.rank << ": round 0 committed, round 1 died";
      EXPECT_FALSE(report.error.empty());
      EXPECT_LT(report.fail_elapsed_ms,
                static_cast<std::uint64_t>(config.peer_timeout_ms))
          << "rank " << outcome.rank
          << " took longer than the peer timeout to notice: "
          << report.error;
    }
  }
}

TEST(ElasticCodec, RemapPreservesEfResidualsBitExact) {
  // The EF carry-over in isolation: after a few rounds at world 4, the
  // remapped world-3 codec's memory row i must be byte-identical to the
  // original's row survivors[i].
  const ModelLayout layout({LayerSpec{"flat", 512, 1}});
  for (const char* scheme : {"topk:b=8", "topkc:b=8", "powersgd:r=2"}) {
    core::AggregationPipeline pipeline(
        core::make_scheme_codec(scheme, layout, 4), core::PipelineConfig{});
    std::vector<float> out(512);
    for (int r = 0; r < 3; ++r) {
      auto grads = core::seeded_worker_grads(512, 4, 99, r);
      std::vector<std::span<const float>> views;
      for (const auto& g : grads) views.emplace_back(g.data(), g.size());
      pipeline.aggregate(std::span<const std::span<const float>>(views),
                         out, static_cast<std::uint64_t>(r));
    }
    const std::vector<int> survivors = {0, 1, 3};
    const auto shrunk = pipeline.codec().remap_workers(survivors);
    ASSERT_EQ(shrunk->world_size(), 3) << scheme;
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      const auto original =
          pipeline.codec().ef_memory(survivors[i]);
      const auto carried = shrunk->ef_memory(static_cast<int>(i));
      ASSERT_EQ(carried.size(), original.size()) << scheme;
      ASSERT_FALSE(carried.empty()) << scheme << ": EF expected";
      EXPECT_EQ(std::memcmp(carried.data(), original.data(),
                            carried.size() * sizeof(float)),
                0)
          << scheme << " worker " << survivors[i];
    }
  }
}

TEST(ElasticCodec, RemapRejectsBadSurvivorSets) {
  const ModelLayout layout({LayerSpec{"flat", 128, 1}});
  const auto codec = core::make_scheme_codec("topkc:b=8", layout, 4);
  EXPECT_THROW((void)codec->remap_workers(std::vector<int>{}), Error);
  EXPECT_THROW((void)codec->remap_workers(std::vector<int>{0, 4}), Error);
  EXPECT_THROW((void)codec->remap_workers(std::vector<int>{-1, 2}), Error);
  EXPECT_THROW((void)codec->remap_workers(std::vector<int>{2, 1}), Error);
  EXPECT_THROW((void)codec->remap_workers(std::vector<int>{1, 1, 2}),
               Error);
  // A legal set works and preserves dimension/scheme.
  const auto ok = codec->remap_workers(std::vector<int>{0, 2, 3});
  EXPECT_EQ(ok->world_size(), 3);
  EXPECT_EQ(ok->dimension(), codec->dimension());
  EXPECT_EQ(ok->name(), codec->name());
}

}  // namespace
}  // namespace gcs::testing
