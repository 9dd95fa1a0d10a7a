// Fault-injection harness for the elastic socket transport
// (DESIGN.md "Fault tolerance").
//
// run_world forks one OS process per rank of a real SocketFabric world,
// runs a fixed number of aggregation rounds with deterministic
// per-original-rank gradients, and kills a chosen victim rank at a chosen
// phase of a chosen round:
//
//   kPreRendezvous  — the victim exits before ever joining the mesh; the
//                     elastic epoch-0 rendezvous must shrink the world.
//   kMidEncode      — the victim dies after encoding its first payload of
//                     the round, before a single byte hits the wire.
//   kMidCollective  — the victim dies after a few frames of a chunked
//                     collective are already in flight (a kill-switch
//                     transport counts sends and _exit()s mid-stream).
//   kMidDecode      — the victim dies after the round's commit barrier,
//                     before finish(): the round commits cluster-wide and
//                     the failure surfaces at the next round's first op.
//
// Each rank reports its per-round aggregated-output hash, the world size
// and epoch the round committed in, and its final error-feedback
// fingerprints. reference_run computes the ground truth the acceptance
// criterion demands — a fresh (world-1) continuation seeded with the
// survivors' carried-over EF state via SchemeCodec::remap_workers on the
// bit-exact local backend — so the test can assert survivors' gradients
// are bit-identical to it, round by round.
//
// The harness runs identically with elastic off, which is how the
// loud-failure regression test pins today's contract: a peer exit
// mid-round throws on every surviving rank within the peer timeout.
#pragma once

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "comm/transport.h"
#include "comm/transport_decorators.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "core/synthetic_grad.h"
#include "measure/trace.h"
#include "net/launcher.h"
#include "net/socket_fabric.h"
#include "telemetry/chrome_trace.h"
#include "tensor/layout.h"

namespace gcs::testing {

enum class KillPhase {
  kPreRendezvous,
  kMidEncode,
  kMidCollective,
  kMidDecode,
};

inline const char* to_string(KillPhase phase) {
  switch (phase) {
    case KillPhase::kPreRendezvous: return "pre-rendezvous";
    case KillPhase::kMidEncode: return "mid-encode";
    case KillPhase::kMidCollective: return "mid-collective";
    case KillPhase::kMidDecode: return "mid-decode";
  }
  return "?";
}

struct FaultPlan {
  int victim = -1;  ///< original rank to kill; -1 = nobody dies
  KillPhase phase = KillPhase::kMidEncode;
  int round = 0;  ///< the round the kill fires in
};

struct WorldConfig {
  std::string scheme = "topkc:b=8";
  int world = 4;
  int rounds = 7;
  std::size_t dim = 1024;
  std::size_t chunk = 256;
  std::uint64_t seed = 777;
  bool elastic = true;
  int peer_timeout_ms = 10000;
  int rejoin_window_ms = 800;
  /// Per-rank log directory (created if missing); empty = no logs. CI
  /// uploads these as artefacts when the kill matrix fails.
  std::string log_dir;
};

/// Worker `original_rank`'s gradient for a round — the same recipe on
/// every process and in the reference run, keyed by the worker's
/// immutable identity so survivors keep their gradient stream across
/// membership changes.
inline std::vector<float> grad_for(const WorldConfig& config,
                                   std::uint64_t round, int original_rank) {
  auto all = core::seeded_worker_grads(config.dim, config.world,
                                       config.seed, round);
  return std::move(all[static_cast<std::size_t>(original_rank)]);
}

/// FNV-1a over raw float bytes: bit-identity is the claim, so a byte
/// hash is the right probe (and small enough to ship over the report
/// pipe for every round).
inline std::uint64_t fnv64(std::span<const float> values) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

/// One committed round, as a rank observed it.
struct RoundRecord {
  std::uint64_t round = 0;
  std::uint64_t epoch = 0;
  int world = 0;
  std::uint64_t out_hash = 0;

  bool operator==(const RoundRecord&) const = default;
};

/// A rank's report: what committed, what failed, and the EF fingerprints
/// it ended with (keyed by original rank).
struct RankReport {
  bool completed = false;
  std::vector<RoundRecord> rounds;
  std::vector<std::pair<int, std::uint64_t>> ef_hashes;
  std::string error;           ///< non-empty when the run threw
  std::uint64_t fail_elapsed_ms = 0;  ///< round start -> throw
};

inline ByteBuffer serialize_report(const RankReport& report) {
  ByteBuffer buf;
  ByteWriter w(buf);
  w.put<std::uint8_t>(report.completed ? 1 : 0);
  w.put<std::uint64_t>(report.fail_elapsed_ms);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(report.error.size()));
  w.put_bytes(std::as_bytes(
      std::span(report.error.data(), report.error.size())));
  w.put<std::uint32_t>(static_cast<std::uint32_t>(report.rounds.size()));
  for (const auto& r : report.rounds) {
    w.put<std::uint64_t>(r.round);
    w.put<std::uint64_t>(r.epoch);
    w.put<std::uint32_t>(static_cast<std::uint32_t>(r.world));
    w.put<std::uint64_t>(r.out_hash);
  }
  w.put<std::uint32_t>(static_cast<std::uint32_t>(report.ef_hashes.size()));
  for (const auto& [original, hash] : report.ef_hashes) {
    w.put<std::uint32_t>(static_cast<std::uint32_t>(original));
    w.put<std::uint64_t>(hash);
  }
  return buf;
}

inline RankReport parse_report(const ByteBuffer& buf) {
  RankReport report;
  ByteReader r(buf);
  report.completed = r.get<std::uint8_t>() != 0;
  report.fail_elapsed_ms = r.get<std::uint64_t>();
  const auto error_len = r.get<std::uint32_t>();
  const auto error_bytes = r.get_bytes(error_len);
  report.error.assign(reinterpret_cast<const char*>(error_bytes.data()),
                      error_bytes.size());
  const auto rounds = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < rounds; ++i) {
    RoundRecord rec;
    rec.round = r.get<std::uint64_t>();
    rec.epoch = r.get<std::uint64_t>();
    rec.world = static_cast<int>(r.get<std::uint32_t>());
    rec.out_hash = r.get<std::uint64_t>();
    report.rounds.push_back(rec);
  }
  const auto efs = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < efs; ++i) {
    const auto original = static_cast<int>(r.get<std::uint32_t>());
    const auto hash = r.get<std::uint64_t>();
    report.ef_hashes.emplace_back(original, hash);
  }
  return report;
}

/// Transport wrapper that kills the process after a configured number of
/// further sends — the only way to die deterministically *inside* a
/// chunked collective, with frames of the stream already on peers' wires.
class KillSwitchTransport final : public comm::ForwardingTransport {
 public:
  explicit KillSwitchTransport(comm::Transport& inner)
      : comm::ForwardingTransport(inner) {}

  /// The next `sends` sends go through; the one after _exit(9)s.
  void arm(int sends) { remaining_ = sends; }

  void send(int src, int dst, std::uint64_t tag,
            ByteBuffer payload) override {
    if (remaining_ >= 0 && remaining_-- == 0) _exit(9);
    comm::ForwardingTransport::send(src, dst, tag, std::move(payload));
  }

 private:
  int remaining_ = -1;
};

struct WorldResult {
  std::vector<net::ForkedWorkers::Outcome> outcomes;  ///< by rank
};

/// One rank's body: the SPMD loop every worker of the world runs.
inline RankReport run_rank(const WorldConfig& config, const FaultPlan& fault,
                           int rank, const std::string& rendezvous,
                           std::ofstream& log,
                           const std::string& trace_path = {}) {
  using Clock = std::chrono::steady_clock;
  const bool victim = fault.victim == rank;
  if (victim && fault.phase == KillPhase::kPreRendezvous) {
    log << "dying pre-rendezvous\n" << std::flush;
    _exit(9);
  }

  net::SocketFabricConfig fc;
  fc.rendezvous = rendezvous;
  fc.world_size = config.world;
  fc.rank = rank;
  fc.elastic = config.elastic;
  fc.recv_timeout_ms = config.peer_timeout_ms;
  fc.rejoin_window_ms = config.rejoin_window_ms;
  net::SocketFabric fabric(fc);
  KillSwitchTransport transport(fabric);
  log << "meshed as rank " << fabric.rank() << " of "
      << fabric.world_size() << "\n"
      << std::flush;

  const ModelLayout layout({LayerSpec{"flat", config.dim, 1}});
  core::PipelineConfig pc;
  pc.chunk_bytes = config.chunk;
  pc.elastic = config.elastic;
  if (victim &&
      (fault.phase == KillPhase::kMidEncode ||
       fault.phase == KillPhase::kMidDecode)) {
    const char* at =
        fault.phase == KillPhase::kMidEncode ? "encode" : "decode";
    const auto die_round = static_cast<std::uint64_t>(fault.round);
    pc.fault_hook = [at, die_round, &log](const char* point,
                                          std::uint64_t round) {
      if (round == die_round && std::string(point) == at) {
        log << "dying at " << point << " of round " << round << "\n"
            << std::flush;
        _exit(9);
      }
    };
  }
  // Post-mortem tracing: when the harness logs, it also records per-round
  // spans and, on failure, dumps a Chrome trace next to the rank's log —
  // the artefact CI uploads so a kill-matrix failure can be read on a
  // timeline instead of out of four interleaved logs.
  measure::TraceRecorder recorder;
  std::vector<measure::RoundTrace> traces;
  if (!trace_path.empty()) pc.trace = &recorder;
  const auto dump_chrome_trace = [&](std::uint64_t round) {
    if (trace_path.empty()) return;
    traces.push_back(recorder.take(round, config.scheme, "socket"));
    std::ofstream chrome(trace_path, std::ios::trunc);
    chrome << telemetry::chrome_trace_json(traces, rank);
  };

  core::AggregationPipeline pipeline(
      core::make_scheme_codec(config.scheme, layout, config.world), pc);

  RankReport report;
  std::vector<float> out(config.dim);
  for (int r = 0; r < config.rounds; ++r) {
    const auto round = static_cast<std::uint64_t>(r);
    if (victim && fault.phase == KillPhase::kMidCollective &&
        r == fault.round) {
      transport.arm(3);  // die with a chunk stream already in flight
    }
    // Cache this round's gradients once per original rank on demand.
    auto all = core::seeded_worker_grads(config.dim, config.world,
                                         config.seed, round);
    const auto start = Clock::now();
    try {
      if (config.elastic) {
        pipeline.aggregate_elastic(
            transport,
            [&](int original) {
              return std::span<const float>(
                  all[static_cast<std::size_t>(original)]);
            },
            out, round);
      } else {
        std::vector<std::span<const float>> views;
        for (const auto& g : all) views.emplace_back(g.data(), g.size());
        comm::Communicator comm(transport, fabric.rank());
        pipeline.aggregate_over(
            comm, std::span<const std::span<const float>>(views), out,
            round);
      }
    } catch (const std::exception& e) {
      report.error = e.what();
      report.fail_elapsed_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              Clock::now() - start)
              .count());
      log << "round " << r << " failed after " << report.fail_elapsed_ms
          << " ms: " << e.what() << "\n"
          << std::flush;
      dump_chrome_trace(round);
      return report;
    }
    if (!trace_path.empty()) {
      traces.push_back(recorder.take(round, config.scheme, "socket"));
    }
    RoundRecord rec;
    rec.round = round;
    rec.out_hash = fnv64(out);
    if (config.elastic) {
      rec.epoch = pipeline.membership().epoch;
      rec.world = pipeline.membership().world_size();
    } else {
      rec.world = config.world;
    }
    report.rounds.push_back(rec);
    log << "round " << r << " committed (epoch " << rec.epoch << ", world "
        << rec.world << ", hash " << std::hex << rec.out_hash << std::dec
        << ")\n"
        << std::flush;
  }
  // Final EF fingerprints, keyed by original rank so the reference run
  // can line them up.
  const auto& membership = config.elastic
                               ? pipeline.membership()
                               : comm::Membership::identity(config.world);
  for (int w = 0; w < pipeline.codec().world_size(); ++w) {
    report.ef_hashes.emplace_back(
        membership.original_ranks[static_cast<std::size_t>(w)],
        fnv64(pipeline.codec().ef_memory(w)));
  }
  report.completed = true;
  return report;
}

/// Forks the whole world and runs the plan. The parent only collects.
inline WorldResult run_world(const WorldConfig& config,
                             const FaultPlan& fault) {
  const std::string rendezvous = net::unique_unix_rendezvous();
  if (!config.log_dir.empty()) {
    ::mkdir(config.log_dir.c_str(), 0755);
  }
  net::ForkedWorkers workers(0, config.world, [&](int rank) {
    std::ofstream log;
    std::string trace_path;
    if (!config.log_dir.empty()) {
      const std::string stem = config.log_dir + "/" + config.scheme + "." +
                               to_string(fault.phase) + ".victim" +
                               std::to_string(fault.victim) + ".rank" +
                               std::to_string(rank);
      log.open(stem + ".log");
      trace_path = stem + ".chrome.json";
    }
    return serialize_report(
        run_rank(config, fault, rank, rendezvous, log, trace_path));
  });
  WorldResult result;
  result.outcomes = workers.join_outcomes();
  return result;
}

/// The round index after which the cluster's committed prefix ends at
/// full world size: kills before the commit barrier abort the round
/// everywhere (it is retried on the shrunken world); a mid-decode kill
/// lands after the barrier, so that round commits at full world and the
/// recovery happens one round later.
inline int committed_full_world_rounds(const FaultPlan& fault) {
  switch (fault.phase) {
    case KillPhase::kPreRendezvous: return 0;
    case KillPhase::kMidEncode:
    case KillPhase::kMidCollective: return fault.round;
    case KillPhase::kMidDecode: return fault.round + 1;
  }
  return 0;
}

/// Ground truth for the acceptance criterion: a bit-exact local-backend
/// run — full world for the committed prefix, then remap_workers onto
/// the survivors (the "fresh (world-1) run seeded with the survivors'
/// carried-over EF state") for the rest.
inline RankReport reference_run(const WorldConfig& config,
                                const FaultPlan& fault) {
  const ModelLayout layout({LayerSpec{"flat", config.dim, 1}});
  core::PipelineConfig pc;
  pc.chunk_bytes = config.chunk;
  const int swap_after = committed_full_world_rounds(fault);

  RankReport report;
  std::vector<float> out(config.dim);
  core::AggregationPipeline full(
      core::make_scheme_codec(config.scheme, layout, config.world), pc);
  for (int r = 0; r < swap_after; ++r) {
    auto grads = core::seeded_worker_grads(config.dim, config.world,
                                           config.seed,
                                           static_cast<std::uint64_t>(r));
    std::vector<std::span<const float>> views;
    for (const auto& g : grads) views.emplace_back(g.data(), g.size());
    full.aggregate(std::span<const std::span<const float>>(views), out,
                   static_cast<std::uint64_t>(r));
    report.rounds.push_back(RoundRecord{static_cast<std::uint64_t>(r), 0,
                                        config.world, fnv64(out)});
  }

  std::vector<int> survivors;
  for (int w = 0; w < config.world; ++w) {
    if (w != fault.victim) survivors.push_back(w);
  }
  core::AggregationPipeline shrunk(
      full.codec().remap_workers(survivors), pc);
  const auto m = static_cast<int>(survivors.size());
  for (int r = swap_after; r < config.rounds; ++r) {
    auto grads = core::seeded_worker_grads(config.dim, config.world,
                                           config.seed,
                                           static_cast<std::uint64_t>(r));
    std::vector<std::span<const float>> views;
    for (const int original : survivors) {
      const auto& g = grads[static_cast<std::size_t>(original)];
      views.emplace_back(g.data(), g.size());
    }
    shrunk.aggregate(std::span<const std::span<const float>>(views), out,
                     static_cast<std::uint64_t>(r));
    report.rounds.push_back(RoundRecord{
        static_cast<std::uint64_t>(r),
        fault.phase == KillPhase::kPreRendezvous ? 0u : 1u, m,
        fnv64(out)});
  }
  for (int i = 0; i < m; ++i) {
    report.ef_hashes.emplace_back(survivors[static_cast<std::size_t>(i)],
                                  fnv64(shrunk.codec().ef_memory(i)));
  }
  report.completed = true;
  return report;
}

}  // namespace gcs::testing
