// Persistent socket-mesh harness for pipeline acceptance tests.
//
// run_socket_mesh forks every rank of a real SocketFabric world once
// (net::ForkedWorkers(0, n, ...)); each process builds its own endpoint
// and its own AggregationPipeline and runs R consecutive rounds of
// aggregate_over, the shape of every process-per-rank deployment
// (gcs_worker, utilitybench). Cross-round state (error feedback, PowerSGD
// warm starts) therefore evolves independently in every process. Each
// rank reports its aggregated outputs and its per-round wire meters;
// expect_mesh_matches checks them against an in-process reference run
// (run_reference, typically the threaded fabric): every rank bit-identical,
// every rank's bytes equal to that rank's last_wire() column.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "net/launcher.h"
#include "net/socket_fabric.h"
#include "tensor/layout.h"

namespace gcs::testing {

/// Every worker's gradient for one round.
using RoundGrads = std::function<std::vector<std::vector<float>>(int round)>;

/// An in-process run: concatenated per-round outputs and per-round meters.
struct ReferenceRun {
  std::vector<float> outputs;
  std::vector<core::WireTraffic> wire;
};

/// One rank of a mesh run: its outputs and its own per-round meters.
struct MeshRank {
  std::vector<float> outputs;
  std::vector<std::uint64_t> sent, received;
};

inline std::vector<std::span<const float>> grad_views(
    const std::vector<std::vector<float>>& grads) {
  std::vector<std::span<const float>> views;
  for (const auto& g : grads) views.emplace_back(g.data(), g.size());
  return views;
}

inline ReferenceRun run_reference(const std::string& spec,
                                  const ModelLayout& layout, int world,
                                  const core::PipelineConfig& config,
                                  int rounds, const RoundGrads& grads_of) {
  core::AggregationPipeline pipeline(
      core::make_scheme_codec(spec, layout, world), config);
  ReferenceRun run;
  std::vector<float> out(layout.total_size());
  for (int r = 0; r < rounds; ++r) {
    const auto grads = grads_of(r);
    const auto views = grad_views(grads);
    pipeline.aggregate(std::span<const std::span<const float>>(views), out,
                       static_cast<std::uint64_t>(r));
    run.outputs.insert(run.outputs.end(), out.begin(), out.end());
    run.wire.push_back(pipeline.last_wire());
  }
  return run;
}

/// Forks all `world` ranks over a fresh Unix-domain rendezvous and runs
/// `rounds` rounds of aggregate_over in each; results in rank order.
inline std::vector<MeshRank> run_socket_mesh(
    const std::string& spec, const ModelLayout& layout, int world,
    const core::PipelineConfig& config, int rounds,
    const RoundGrads& grads_of) {
  const std::string rendezvous = net::unique_unix_rendezvous();
  const std::size_t d = layout.total_size();
  net::ForkedWorkers ranks(0, world, [&](int rank) -> ByteBuffer {
    net::SocketFabricConfig fc;
    fc.rendezvous = rendezvous;
    fc.world_size = world;
    fc.rank = rank;
    net::SocketFabric fabric(fc);
    comm::Communicator comm(fabric, rank);
    core::AggregationPipeline pipeline(
        core::make_scheme_codec(spec, layout, world), config);
    ByteBuffer report;
    ByteWriter w(report);
    std::vector<float> out(d);
    for (int r = 0; r < rounds; ++r) {
      const std::uint64_t sent = fabric.bytes_sent(rank);
      const std::uint64_t received = fabric.bytes_received(rank);
      const auto grads = grads_of(r);
      const auto views = grad_views(grads);
      pipeline.aggregate_over(comm,
                              std::span<const std::span<const float>>(views),
                              out, static_cast<std::uint64_t>(r));
      w.put<std::uint64_t>(fabric.bytes_sent(rank) - sent);
      w.put<std::uint64_t>(fabric.bytes_received(rank) - received);
      w.put_span<float>(std::span<const float>(out));
    }
    return report;
  });
  std::vector<MeshRank> result;
  for (const ByteBuffer& report : ranks.join()) {
    ByteReader reader(report);
    MeshRank rank;
    for (int r = 0; r < rounds; ++r) {
      rank.sent.push_back(reader.get<std::uint64_t>());
      rank.received.push_back(reader.get<std::uint64_t>());
      const auto values = reader.get_span<float>(d);
      rank.outputs.insert(rank.outputs.end(), values.begin(), values.end());
    }
    result.push_back(std::move(rank));
  }
  return result;
}

/// Every rank bit-identical to the reference outputs, and every rank's
/// per-round bytes equal to the reference's meter for that rank.
inline void expect_mesh_matches(const std::vector<MeshRank>& mesh,
                                const ReferenceRun& reference,
                                const std::string& label) {
  for (std::size_t rank = 0; rank < mesh.size(); ++rank) {
    const MeshRank& got = mesh[rank];
    ASSERT_EQ(got.outputs.size(), reference.outputs.size()) << label;
    EXPECT_EQ(std::memcmp(got.outputs.data(), reference.outputs.data(),
                          got.outputs.size() * sizeof(float)),
              0)
        << label << ": rank " << rank << " diverges";
    ASSERT_EQ(got.sent.size(), reference.wire.size()) << label;
    for (std::size_t r = 0; r < reference.wire.size(); ++r) {
      ASSERT_EQ(reference.wire[r].sent.size(), mesh.size()) << label;
      EXPECT_EQ(got.sent[r], reference.wire[r].sent[rank])
          << label << ": rank " << rank << " round " << r;
      EXPECT_EQ(got.received[r], reference.wire[r].received[rank])
          << label << ": rank " << rank << " round " << r;
    }
  }
}

}  // namespace gcs::testing
