// gcs_worker: one rank of a real multi-process DDP aggregation round.
//
// Runs the identical compression protocol the in-process simulator runs —
// same codecs, same chunked hop-interleaved collectives — but over
// net::SocketFabric: every rank is its own OS process with its own
// transport endpoint, meshed by the rank-0 rendezvous. Gradients are
// synthetic and seeded, so every process derives the same per-worker
// inputs and the run needs no input files.
//
// Single-machine launch (forks all ranks, Unix-domain sockets):
//   ./build/example_gcs_worker --launch --world=4 --scheme=topkc:b=8
//       --rounds=3 --dim=65536 --chunk=4096
//
// Multi-host launch (one invocation per rank, TCP rendezvous at rank 0):
//   host0$ ./build/example_gcs_worker --rank=0 --world=4
//              --rendezvous=tcp:host0:29500 --scheme=thc:q=4:b=4:sat:partial
//   host1$ ./build/example_gcs_worker --rank=1 --world=4
//              --rendezvous=tcp:host0:29500 --scheme=thc:q=4:b=4:sat:partial
//   ... (all ranks must pass identical --scheme/--world/--rounds/--dim)
//
// Each rank prints its wire meters and a checksum of the aggregated sum;
// identical checksums across ranks are asserted in --launch mode.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "comm/collectives.h"
#include "comm/transport_decorators.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "core/synthetic_grad.h"
#include "health/health_monitor.h"
#include "health/monitored_transport.h"
#include "health/watchdog.h"
#include "measure/clock_sync.h"
#include "measure/trace.h"
#include "measure/trace_merge.h"
#include "net/launcher.h"
#include "net/socket_fabric.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/stats_server.h"
#include "tensor/layout.h"

namespace {

struct WorkerConfig {
  std::string scheme = "topkc:b=8";
  std::string rendezvous;
  int world = 4;
  int rounds = 2;
  std::size_t dim = 1 << 16;
  std::size_t chunk = 4096;
  std::uint64_t seed = 1234;
  /// Round-trace output prefix; each rank writes
  /// <trace>.rank<r>.json (measure/trace.h spans: encode, per-chunk
  /// send/recv, reduce, decode). Empty = tracing off (zero overhead).
  std::string trace;
  /// Elastic membership: survive peer failure (kill -9 one of the
  /// workers and watch the survivors re-rendezvous) instead of failing
  /// the run loudly.
  bool elastic = false;
  /// Recv deadline in ms (0 = transport default, 60 s).
  int peer_timeout_ms = 0;
  /// Elastic rejoin window in ms (0 = transport default, 2 s).
  int rejoin_window_ms = 0;
  /// Fault demo: this original rank kills itself (SIGKILL-equivalent
  /// _exit) while encoding round `die_round`. -1 = nobody dies.
  int die_rank = -1;
  int die_round = 0;
  /// Live telemetry (src/telemetry/): enable the metrics registry for
  /// this run. Implied by --stats-port.
  bool telemetry = false;
  /// Stats endpoint base port: rank r serves Prometheus text exposition
  /// on 127.0.0.1:(stats_port + r). -1 = no endpoint.
  int stats_port = -1;
  /// Keep the stats endpoint (and the process) alive this long after the
  /// last round, so an external scraper (tools/gcs_stat, CI) has a
  /// race-free window to read final counters.
  int stats_hold_ms = 0;
  /// With --trace: also write <prefix>.rank<r>.chrome.json, the Chrome
  /// trace-event export (chrome://tracing / Perfetto-loadable).
  bool chrome_trace = false;
  /// Straggler injection (the causal profiler's acceptance seam): this
  /// original rank sleeps --delay-send-ms before every transport send,
  /// making it artificially late without touching payloads. -1 = nobody.
  int delay_rank = -1;
  int delay_send_ms = 0;
  /// Always-on flight recorder: ring of the last N completed rounds,
  /// dumped post mortem on peer failure or fatal signal (0 = off).
  int flight_rounds = 8;
  /// Directory flight-recorder dumps land in.
  std::string flight_dir = ".";
  /// Clock-sync refresh period in rounds (the rendezvous sync always
  /// runs); 0 = rendezvous only. Periodic refreshes feed the drift
  /// estimate for long runs.
  int clock_sync_every = 32;
  /// Health plane (src/health/): hang watchdog + anomaly detectors +
  /// /health on the stats endpoint. Implies --telemetry.
  bool health = false;
  /// Anomaly-detector sampling period.
  int health_interval_ms = 200;
  /// Watchdog armed-lane deadline (default 5000 with --health).
  int watchdog_ms = 0;
  /// On a per-peer reader-lane stall, administratively fail the stuck
  /// peer's channel (SocketFabric::fail_peer) so the round aborts with a
  /// PeerFailure and elastic recovery engages. Implies --health.
  bool watchdog_abort = false;
  /// Hang injection (the watchdog's acceptance seam): this original rank
  /// freezes — stops sending, connections left open, total silence —
  /// after its --freeze-after-sends-th send. -1 = nobody freezes.
  int freeze_rank = -1;
  int freeze_after_sends = 8;
  /// How long the frozen rank holds before hard-exiting (bounds the
  /// demo even if nobody aborts it).
  int freeze_hold_ms = 30000;
  /// Deferred straggler: --delay-rank starts sleeping only at this round
  /// (-1 = from round 0). Lets the detectors build a clean baseline
  /// before the regression is injected.
  int delay_after_round = -1;
  /// Sleep between rounds on every rank: paces the round rate so the
  /// per-tick detector sampling sees enough windows to warm up.
  int round_gap_ms = 0;
};

/// Deterministic per-worker gradients: every process regenerates the same
/// tensors from (seed, round, worker), so nothing but protocol bytes
/// crosses the wire. One shared recipe (core/synthetic_grad.h) across
/// every protocol binary — the cross-process checks depend on it.
std::vector<std::vector<float>> make_grads(const WorkerConfig& config,
                                           std::uint64_t round) {
  return gcs::core::seeded_worker_grads(config.dim, config.world,
                                        config.seed, round);
}

/// FNV-1a over the aggregated floats — a cheap cross-process agreement
/// check (bit-identity is the claim, so a byte hash is the right probe).
std::uint64_t checksum(std::span<const float> values) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

struct WorkerResult {
  std::uint64_t checksum = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t final_epoch = 0;
  int final_world = 0;
};

/// Runs all rounds as one rank over its own socket endpoint.
WorkerResult run_worker(const WorkerConfig& config, int rank) {
  // Telemetry must be on before any instrumented object is constructed —
  // handles are resolved at construction time (src/telemetry/metrics.h).
  if (config.telemetry || config.stats_port >= 0 || config.health) {
    gcs::telemetry::set_enabled(true);
  }
  gcs::net::SocketFabricConfig fc;
  fc.rendezvous = config.rendezvous;
  fc.world_size = config.world;
  fc.rank = rank;
  fc.elastic = config.elastic;
  if (config.peer_timeout_ms > 0) fc.recv_timeout_ms = config.peer_timeout_ms;
  if (config.rejoin_window_ms > 0) {
    fc.rejoin_window_ms = config.rejoin_window_ms;
  }
  gcs::net::SocketFabric fabric(fc);
  // Decorator stack, innermost first: freeze (hang injection) directly on
  // the fabric, then the straggler delay, then — outermost, health only —
  // the send-latency monitor, so the monitored time *includes* injected
  // delay and the slow rank sees its own regression as a local signal.
  // Clock sync runs over the raw fabric (a sync through the delay would
  // fold the injected latency into the offset estimate and hide the
  // straggler).
  gcs::comm::FreezeTransport frozen(
      fabric,
      rank == config.freeze_rank
          ? static_cast<std::uint64_t>(config.freeze_after_sends)
          : ~std::uint64_t{0},
      std::chrono::milliseconds(config.freeze_hold_ms), [] {
        std::cerr << "frozen rank: hold expired, exiting\n";
        _exit(7);
      });
  // Deferred straggler (--delay-after-round) starts transparent; the
  // round loop flips the delay on at the configured boundary.
  gcs::comm::DelayTransport delayed(
      frozen,
      std::chrono::microseconds(
          rank == config.delay_rank && config.delay_after_round < 0
              ? static_cast<std::int64_t>(config.delay_send_ms) * 1000
              : 0));
  std::unique_ptr<gcs::health::MonitoredTransport> monitored;
  if (config.health) {
    monitored = std::make_unique<gcs::health::MonitoredTransport>(delayed);
  }
  gcs::comm::Transport& transport =
      monitored != nullptr ? static_cast<gcs::comm::Transport&>(*monitored)
                           : delayed;
  gcs::comm::Communicator comm(transport, fabric.rank());

  // Rendezvous clock sync: estimate this rank's offset against rank 0 so
  // per-rank traces (and flight-recorder dumps) can be merged onto one
  // timeline by gcs_analyze. Collective — every rank passes here before
  // any round runs, including ranks that will die or be delayed later.
  gcs::comm::Communicator sync_comm(fabric, fabric.rank());
  gcs::measure::ClockSync clock_sync;
  clock_sync.refresh(sync_comm);
  // Periodic refreshes (drift tracking) need a stable membership and all
  // ranks alive at the same round boundary; the demos that violate that
  // keep the rendezvous model.
  const bool clock_refresh_ok = !config.elastic && config.die_rank < 0;

  const gcs::ModelLayout layout({gcs::LayerSpec{"flat", config.dim, 1}});
  // The spec's own knobs (validated and resolved by the factory — chunk=,
  // buckets=, workers=, autotune) win over the --chunk flag; transport
  // selection belongs to this binary, not the spec (every rank here IS a
  // socket endpoint already). All ranks pass identical --scheme/--dim, so
  // every process derives the identical chunk/bucket plan.
  gcs::core::PipelineConfig pipeline_config =
      gcs::core::parse_pipeline_config(config.scheme, layout, config.world);
  if (pipeline_config.backend !=
      gcs::core::PipelineBackend::kLocalReference) {
    throw gcs::Error(
        "gcs_worker: drop fabric=/fabric from --scheme — the transport is "
        "chosen by this binary (--launch / --rank + --rendezvous)");
  }
  // chunk_bytes == 0 is a meaningful value (monolithic collectives), so
  // "spec wins" must key on the option's presence, not on its value; the
  // autotuner resolving a chunk size counts as the spec speaking.
  const bool spec_sets_chunk =
      config.scheme.find(":chunk=") != std::string::npos ||
      config.scheme.find("autotune") != std::string::npos ||
      pipeline_config.bucket_mode == gcs::sched::BucketMode::kLayerBuckets;
  if (!spec_sets_chunk) pipeline_config.chunk_bytes = config.chunk;
  gcs::measure::TraceRecorder recorder;
  recorder.set_origin_rank(rank);
  if (!config.trace.empty()) pipeline_config.trace = &recorder;
  // Always-on flight recorder: keeps the last N rounds' spans in a ring
  // and dumps them post mortem on peer failure or a fatal signal. When
  // --trace is off the recorder's internal sink feeds the pipeline; with
  // --trace the user recorder stays the sink and completed rounds are
  // observe()d into the ring from the round loop below.
  std::unique_ptr<gcs::telemetry::FlightRecorder> flight;
  if (config.flight_rounds > 0) {
    gcs::telemetry::FlightRecorderOptions fo;
    fo.ring_rounds = static_cast<std::size_t>(config.flight_rounds);
    fo.dump_dir = config.flight_dir;
    fo.rank = rank;
    flight = std::make_unique<gcs::telemetry::FlightRecorder>(fo);
    flight->set_clock(clock_sync.model());
    gcs::telemetry::FlightRecorder::arm_process_hooks(flight.get());
    pipeline_config.flight = flight.get();
  }
  // Health plane: watchdog over the heartbeat lanes plus the anomaly
  // monitor feeding /health. Started before the round loop so detector
  // baselines cover the run from its first window.
  std::unique_ptr<gcs::health::Watchdog> watchdog;
  std::unique_ptr<gcs::health::HealthMonitor> monitor;
  if (config.health) {
    gcs::health::WatchdogConfig wc;
    wc.deadline_ms = config.watchdog_ms > 0
                         ? static_cast<std::uint64_t>(config.watchdog_ms)
                         : 5000;
    if (wc.deadline_ms / 4 < wc.poll_interval_ms) {
      wc.poll_interval_ms = wc.deadline_ms / 4 + 1;
    }
    const bool abort_on_stall = config.watchdog_abort;
    wc.on_stall = [&fabric, rank,
                   abort_on_stall](const gcs::health::StallReport& s) {
      std::cerr << "rank " << rank << ": WATCHDOG STALL lane=" << s.lane
                << " peer=" << s.peer << " silent_ms=" << s.silent_ms
                << " progress=" << s.progress << "\n";
      if (abort_on_stall && s.peer >= 0 && s.lane == "net.reader") {
        const bool cut = fabric.fail_peer(s.peer);
        std::cerr << "rank " << rank << ": watchdog abort: "
                  << (cut ? "failed channel to peer "
                          : "peer already out of the mesh: ")
                  << s.peer << "\n";
      }
    };
    wc.on_recover = [rank](const gcs::health::StallReport& s) {
      std::cerr << "rank " << rank << ": watchdog recovered lane=" << s.lane
                << " peer=" << s.peer << "\n";
    };
    watchdog = std::make_unique<gcs::health::Watchdog>(wc);
    watchdog->start();

    gcs::health::HealthMonitorConfig hc;
    hc.rank = rank;
    hc.interval_ms = static_cast<std::uint64_t>(
        config.health_interval_ms > 0 ? config.health_interval_ms : 200);
    hc.watchdog = watchdog.get();
    if (!config.trace.empty()) hc.trace = &recorder;
    monitor = std::make_unique<gcs::health::HealthMonitor>(hc);
    monitor->start();
  }
  // Declared after fabric/watchdog/monitor on purpose: teardown must run
  // stats -> monitor -> watchdog -> fabric, since the server may be
  // mid-/health off the monitor, and the watchdog's abort callback
  // reaches into the fabric.
  std::unique_ptr<gcs::telemetry::StatsServer> stats;
  if (config.stats_port >= 0) {
    stats = std::make_unique<gcs::telemetry::StatsServer>(config.stats_port +
                                                          rank);
    if (monitor != nullptr) {
      stats->set_health_provider(
          [m = monitor.get()] { return m->health_json(); });
    }
  }
  pipeline_config.elastic = config.elastic;
  pipeline_config.peer_timeout_ms = config.peer_timeout_ms;
  pipeline_config.rejoin_window_ms = config.rejoin_window_ms;
  if (config.die_rank == rank) {
    const int die_round = config.die_round;
    pipeline_config.fault_hook = [die_round](const char* point,
                                             std::uint64_t round) {
      if (round == static_cast<std::uint64_t>(die_round) &&
          std::string_view(point) == "encode") {
        std::cerr << "rank dying on purpose at round " << round << "\n";
        _exit(9);  // crash, not unwind: the demo's simulated kill -9
      }
    };
  }
  gcs::core::AggregationPipeline pipeline(
      gcs::core::make_scheme_codec(config.scheme, layout, config.world),
      pipeline_config);

  std::vector<float> out(config.dim);
  std::uint64_t sum_hash = 0;
  std::vector<gcs::measure::RoundTrace> traces;
  std::uint64_t seen_epoch = 0;
  for (int r = 0; r < config.rounds; ++r) {
    if (config.round_gap_ms > 0 && r > 0) {
      // All ranks pace identically, so the gap shifts the round rate
      // without skewing any one rank.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config.round_gap_ms));
    }
    if (rank == config.delay_rank && config.delay_after_round >= 0 &&
        r == config.delay_after_round) {
      delayed.set_send_delay(std::chrono::microseconds(
          static_cast<std::int64_t>(config.delay_send_ms) * 1000));
      std::cerr << "rank " << rank << ": injecting " << config.delay_send_ms
                << " ms per-send delay from round " << r << "\n";
    }
    if (clock_refresh_ok && config.clock_sync_every > 0 && r > 0 &&
        r % config.clock_sync_every == 0) {
      clock_sync.refresh(sync_comm);
      if (flight != nullptr) flight->set_clock(clock_sync.model());
    }
    const auto grads = make_grads(config, static_cast<std::uint64_t>(r));
    if (config.elastic) {
      // Gradients stay keyed by each worker's immutable original rank:
      // a survivor keeps its own gradient stream across epoch swaps.
      pipeline.aggregate_elastic(
          transport,
          [&](int original) {
            return std::span<const float>(
                grads[static_cast<std::size_t>(original)]);
          },
          out, static_cast<std::uint64_t>(r));
      const auto world = fabric.membership();
      if (world.epoch != seen_epoch) {
        seen_epoch = world.epoch;
        std::cerr << "original rank " << rank << ": recovered into epoch "
                  << world.epoch << " as rank " << world.self
                  << " of " << world.world_size() << "\n";
      }
    } else {
      std::vector<std::span<const float>> views;
      for (const auto& g : grads) views.emplace_back(g.data(), g.size());
      pipeline.aggregate_over(
          comm, std::span<const std::span<const float>>(views), out,
          static_cast<std::uint64_t>(r));
    }
    sum_hash ^= checksum(out) + 0x9e3779b97f4a7c15ull + (sum_hash << 6) +
                (sum_hash >> 2);
    if (!config.trace.empty()) {
      traces.push_back(recorder.take(static_cast<std::uint64_t>(r),
                                     config.scheme, "socket"));
      if (flight != nullptr) flight->observe(traces.back());
    }
  }
  if (!config.trace.empty()) {
    const std::string path =
        config.trace + ".rank" + std::to_string(rank) + ".json";
    std::ofstream trace_out(path);
    if (trace_out) {
      gcs::measure::RankTrace rank_trace;
      rank_trace.rank = rank;
      rank_trace.clock = clock_sync.model();
      rank_trace.traces = traces;
      trace_out << gcs::measure::rank_trace_to_json(rank_trace);
    } else {
      std::cerr << "gcs_worker: warning: cannot write " << path << '\n';
    }
    if (config.chrome_trace) {
      const std::string chrome_path =
          config.trace + ".rank" + std::to_string(rank) + ".chrome.json";
      std::ofstream chrome_out(chrome_path);
      if (chrome_out) {
        chrome_out << gcs::telemetry::chrome_trace_json(traces, rank,
                                                        clock_sync.model());
      } else {
        std::cerr << "gcs_worker: warning: cannot write " << chrome_path
                  << '\n';
      }
    }
  }
  if (stats != nullptr && config.stats_hold_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config.stats_hold_ms));
  }
  WorkerResult result;
  result.checksum = sum_hash;
  result.bytes_sent = fabric.bytes_sent(fabric.rank());
  result.bytes_received = fabric.bytes_received(fabric.rank());
  result.final_epoch = fabric.membership().epoch;
  result.final_world = fabric.world_size();
  return result;
}

int launch_all(WorkerConfig config) {
  using namespace gcs;
  if (config.rendezvous.empty()) {
    config.rendezvous = net::unique_unix_rendezvous();
  }
  std::cout << "Launching " << config.world << " worker processes ("
            << config.scheme << ", d=" << config.dim << ", "
            << config.rounds << " rounds, rendezvous "
            << config.rendezvous << ")\n";
  if (config.die_rank >= 0) {
    std::cout << "Fault demo: rank " << config.die_rank
              << " dies at round " << config.die_round
              << (config.elastic ? " (elastic: survivors recover)\n"
                                 : " (elastic off: run fails loudly)\n");
  }
  if (config.delay_rank >= 0) {
    std::cout << "Straggler demo: rank " << config.delay_rank << " sleeps "
              << config.delay_send_ms << " ms before every send";
    if (config.delay_after_round >= 0) {
      std::cout << " from round " << config.delay_after_round;
    }
    std::cout << "\n";
  }
  if (config.freeze_rank >= 0) {
    std::cout << "Hang demo: rank " << config.freeze_rank
              << " freezes (silent, connections open) after "
              << config.freeze_after_sends << " sends"
              << (config.watchdog_abort
                      ? " (watchdog abort: survivors recover)\n"
                      : "\n");
  }
  // Children inherit stdio buffers copy-on-write; flush before forking so
  // the banner cannot be replayed by a child's own flush.
  std::cout.flush();
  net::ForkedWorkers workers(0, config.world, [&](int rank) {
    const WorkerResult r = run_worker(config, rank);
    ByteBuffer report;
    ByteWriter w(report);
    w.put<std::uint64_t>(r.checksum);
    w.put<std::uint64_t>(r.bytes_sent);
    w.put<std::uint64_t>(r.bytes_received);
    w.put<std::uint64_t>(r.final_epoch);
    w.put<std::uint64_t>(static_cast<std::uint64_t>(r.final_world));
    return report;
  });
  const auto outcomes = workers.join_outcomes();

  AsciiTable table({"rank", "agg checksum", "sent bytes", "recv bytes",
                    "epoch", "world"});
  std::vector<WorkerResult> results;
  int dead = 0;
  for (const auto& out : outcomes) {
    if (!out.ok) {
      ++dead;
      const std::string cause =
          out.error.empty() ? out.wait_status : out.error;
      table.add_row({std::to_string(out.rank), "DEAD (" + cause + ")", "-",
                     "-", "-", "-"});
      continue;
    }
    ByteReader r(out.report);
    WorkerResult res;
    res.checksum = r.get<std::uint64_t>();
    res.bytes_sent = r.get<std::uint64_t>();
    res.bytes_received = r.get<std::uint64_t>();
    res.final_epoch = r.get<std::uint64_t>();
    res.final_world = static_cast<int>(r.get<std::uint64_t>());
    results.push_back(res);
    std::ostringstream hash;
    hash << std::hex << res.checksum;
    table.add_row({std::to_string(out.rank), hash.str(),
                   std::to_string(res.bytes_sent),
                   std::to_string(res.bytes_received),
                   std::to_string(res.final_epoch),
                   std::to_string(res.final_world)});
  }
  std::cout << table.to_string();

  const int expected_dead =
      (config.die_rank >= 0 ? 1 : 0) + (config.freeze_rank >= 0 ? 1 : 0);
  if (dead != expected_dead || results.empty()) {
    std::cout << dead << " rank(s) died unexpectedly.\n";
    return 1;
  }
  bool agree = true;
  for (const auto& r : results) agree &= r.checksum == results[0].checksum;
  std::cout << (agree ? "All surviving ranks hold the identical "
                        "aggregated sum.\n"
                      : "RANKS DISAGREE — protocol bug.\n");
  return agree ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcs;
  try {
    CliFlags flags(argc, argv);
    if (flags.help_requested()) {
      std::cout
          << "gcs_worker — one rank of a multi-process aggregation round\n"
             "  --launch              fork all ranks on this machine\n"
             "  --rank=<r>            run as one rank (multi-host mode)\n"
             "  --world=<n>           world size (default 4)\n"
             "  --rendezvous=<addr>   unix:<path> or tcp:<host>:<port>\n"
             "  --scheme=<spec>       factory spec (default topkc:b=8);\n"
             "                        scheduler knobs (buckets=layer,\n"
             "                        workers=N, autotune) are honored\n"
             "  --rounds=<k>          aggregation rounds (default 2)\n"
             "  --dim=<d>             gradient dimension (default 65536)\n"
             "  --chunk=<bytes>       pipeline chunk size (default 4096)\n"
             "  --seed=<s>            gradient seed (default 1234)\n"
             "  --trace=<prefix>      write per-rank round traces to\n"
             "                        <prefix>.rank<r>.json (measure/)\n"
             "  --chrome-trace        with --trace: also write the Chrome\n"
             "                        trace-event export to\n"
             "                        <prefix>.rank<r>.chrome.json\n"
             "  --telemetry           enable the live metrics registry\n"
             "                        (src/telemetry/; also via\n"
             "                        GCS_TELEMETRY=1)\n"
             "  --stats-port=<p>      serve Prometheus text exposition on\n"
             "                        127.0.0.1:(p + rank); implies\n"
             "                        --telemetry (scrape with gcs_stat)\n"
             "  --stats-hold-ms=<t>   keep the stats endpoint up this long\n"
             "                        after the last round\n"
             "  --elastic             survive peer failure: re-rendezvous\n"
             "                        the survivors (new epoch, dense\n"
             "                        re-ranking) with EF state intact\n"
             "  --peer-timeout-ms=<t> recv deadline (default 60000)\n"
             "  --rejoin-window-ms=<t> elastic rejoin window (default\n"
             "                        2000)\n"
             "  --die-rank=<r>        fault demo: rank r kills itself\n"
             "  --die-round=<k>       ... while encoding round k\n"
             "  --delay-rank=<r>      straggler demo: rank r sleeps before\n"
             "                        every send (gcs_analyze names it)\n"
             "  --delay-send-ms=<t>   ... per-send delay (default 1)\n"
             "  --flight-rounds=<n>   flight-recorder ring depth — last n\n"
             "                        rounds dumped post mortem on peer\n"
             "                        failure / fatal signal (default 8;\n"
             "                        0 = off)\n"
             "  --flight-dir=<d>      flight-dump directory (default .)\n"
             "  --clock-sync-every=<k> refresh the cross-rank clock model\n"
             "                        every k rounds (default 32; 0 =\n"
             "                        rendezvous sync only)\n"
             "  --health              health plane (src/health/): hang\n"
             "                        watchdog + anomaly detectors + the\n"
             "                        /health endpoint (scrape with\n"
             "                        gcs_top); implies --telemetry\n"
             "  --health-interval-ms=<t> detector sampling period\n"
             "                        (default 200)\n"
             "  --watchdog-ms=<t>     armed-lane stall deadline (default\n"
             "                        5000); implies --health\n"
             "  --watchdog-abort      on a reader-lane stall, fail the\n"
             "                        stuck peer's channel so elastic\n"
             "                        recovery engages; implies --health\n"
             "  --freeze-rank=<r>     hang demo: rank r goes silent\n"
             "                        (connections open, no FIN) after\n"
             "                        --freeze-after-sends sends\n"
             "  --freeze-after-sends=<n> ... sends before the freeze\n"
             "                        (default 8)\n"
             "  --freeze-hold-ms=<t>  ... frozen rank hard-exits after\n"
             "                        this hold (default 30000)\n"
             "  --delay-after-round=<k> start --delay-rank's delay only\n"
             "                        at round k (clean baseline first)\n"
             "  --round-gap-ms=<t>    sleep between rounds on all ranks\n"
             "                        (paces detector sampling windows)\n";
      return 0;
    }
    WorkerConfig config;
    config.scheme = flags.get_string("scheme", config.scheme);
    config.rendezvous = flags.get_string("rendezvous", "");
    config.world = static_cast<int>(flags.get_int("world", config.world));
    config.rounds = static_cast<int>(flags.get_int("rounds", config.rounds));
    config.dim = static_cast<std::size_t>(
        flags.get_int("dim", static_cast<std::int64_t>(config.dim)));
    config.chunk = static_cast<std::size_t>(
        flags.get_int("chunk", static_cast<std::int64_t>(config.chunk)));
    config.seed = static_cast<std::uint64_t>(
        flags.get_int("seed", static_cast<std::int64_t>(config.seed)));
    config.trace = flags.get_string("trace", "");
    config.chrome_trace = flags.get_bool("chrome-trace", false);
    config.telemetry = flags.get_bool("telemetry", false);
    config.stats_port = static_cast<int>(flags.get_int("stats-port", -1));
    config.stats_hold_ms =
        static_cast<int>(flags.get_int("stats-hold-ms", 0));
    config.elastic = flags.get_bool("elastic", false);
    config.peer_timeout_ms =
        static_cast<int>(flags.get_int("peer-timeout-ms", 0));
    config.rejoin_window_ms =
        static_cast<int>(flags.get_int("rejoin-window-ms", 0));
    config.die_rank = static_cast<int>(flags.get_int("die-rank", -1));
    config.die_round = static_cast<int>(flags.get_int("die-round", 0));
    config.delay_rank = static_cast<int>(flags.get_int("delay-rank", -1));
    config.delay_send_ms =
        static_cast<int>(flags.get_int("delay-send-ms", 1));
    config.flight_rounds = static_cast<int>(
        flags.get_int("flight-rounds", config.flight_rounds));
    config.flight_dir = flags.get_string("flight-dir", config.flight_dir);
    config.clock_sync_every = static_cast<int>(
        flags.get_int("clock-sync-every", config.clock_sync_every));
    config.health = flags.get_bool("health", false);
    config.health_interval_ms = static_cast<int>(
        flags.get_int("health-interval-ms", config.health_interval_ms));
    config.watchdog_ms =
        static_cast<int>(flags.get_int("watchdog-ms", config.watchdog_ms));
    config.watchdog_abort = flags.get_bool("watchdog-abort", false);
    config.freeze_rank =
        static_cast<int>(flags.get_int("freeze-rank", -1));
    config.freeze_after_sends = static_cast<int>(
        flags.get_int("freeze-after-sends", config.freeze_after_sends));
    config.freeze_hold_ms = static_cast<int>(
        flags.get_int("freeze-hold-ms", config.freeze_hold_ms));
    config.delay_after_round =
        static_cast<int>(flags.get_int("delay-after-round", -1));
    config.round_gap_ms =
        static_cast<int>(flags.get_int("round-gap-ms", 0));
    const bool launch = flags.get_bool("launch", false);
    const int rank = static_cast<int>(flags.get_int("rank", -1));
    flags.reject_unknown();
    // A watchdog or abort request is a health-plane request.
    if (config.watchdog_ms > 0 || config.watchdog_abort) {
      config.health = true;
    }
    if (config.freeze_rank >= 0) {
      if (config.freeze_rank >= config.world) {
        std::cerr << "--freeze-rank=" << config.freeze_rank
                  << " is outside --world=" << config.world << "\n";
        return 2;
      }
      if (config.freeze_after_sends < 0 || config.freeze_hold_ms <= 0) {
        std::cerr << "--freeze-rank needs --freeze-after-sends >= 0 and "
                     "--freeze-hold-ms > 0\n";
        return 2;
      }
    }
    if (config.delay_rank >= 0) {
      if (config.delay_rank >= config.world) {
        std::cerr << "--delay-rank=" << config.delay_rank
                  << " is outside --world=" << config.world << "\n";
        return 2;
      }
      if (config.delay_send_ms <= 0) {
        std::cerr << "--delay-rank needs --delay-send-ms > 0\n";
        return 2;
      }
    }
    if (config.flight_rounds < 0) {
      std::cerr << "--flight-rounds must be >= 0\n";
      return 2;
    }
    if (config.die_rank >= 0) {
      // A fault demo whose hook can never fire would report a healthy
      // run as "0 rank(s) died unexpectedly" — reject it up front.
      if (config.die_rank >= config.world) {
        std::cerr << "--die-rank=" << config.die_rank
                  << " is outside --world=" << config.world << "\n";
        return 2;
      }
      if (config.die_round < 0 || config.die_round >= config.rounds) {
        std::cerr << "--die-round=" << config.die_round
                  << " is outside --rounds=" << config.rounds << "\n";
        return 2;
      }
    }

    if (launch) return launch_all(config);

    if (rank < 0) {
      std::cerr << "pass --launch or --rank=<r> (see --help)\n";
      return 2;
    }
    if (config.rendezvous.empty()) {
      std::cerr << "--rank mode needs --rendezvous=<addr>\n";
      return 2;
    }
    const WorkerResult r = run_worker(config, rank);
    std::cout << "rank " << rank << ": checksum " << std::hex << r.checksum
              << std::dec << ", sent " << r.bytes_sent << " B, received "
              << r.bytes_received << " B\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "gcs_worker: " << e.what() << '\n';
    return 1;
  }
}
