#include "core/aggregation_pipeline.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "comm/chunked_collectives.h"
#include "comm/fabric.h"
#include "comm/group.h"
#include "common/check.h"
#include "kernels/kernels.h"
#include "measure/trace.h"
#include "net/launcher.h"
#include "net/socket_fabric.h"
#include "sched/encode_worker_pool.h"
#include "telemetry/flight_recorder.h"

namespace gcs::core {
namespace {

/// Installs a wire tap on a transport for one scope and removes it on the
/// way out (the transports require quiescence at both points — a round
/// boundary satisfies it). A null recorder is a no-op.
class ScopedWireTap {
 public:
  ScopedWireTap(comm::Transport& transport, measure::TraceRecorder* trace)
      : transport_(transport), installed_(trace != nullptr) {
    if (installed_) transport_.set_wire_tap(trace);
  }
  ~ScopedWireTap() {
    if (installed_) transport_.set_wire_tap(nullptr);
  }
  ScopedWireTap(const ScopedWireTap&) = delete;
  ScopedWireTap& operator=(const ScopedWireTap&) = delete;

 private:
  comm::Transport& transport_;
  bool installed_;
};

/// Runs one stage over the local reference aggregators. Chunking is
/// value-transparent, so the chunk plan is validated and the reduction
/// happens once (see comm/chunked_collectives.h).
void run_stage_local(const WireStage& stage, CodecRound& round,
                     const std::vector<ByteBuffer>& payloads,
                     std::span<const comm::ChunkRange> chunks,
                     int ps_server, measure::TraceRecorder* trace) {
  switch (stage.route) {
    case AggregationPath::kAllReduce: {
      GCS_CHECK_MSG(stage.op != nullptr,
                    "stage '" << stage.name << "' needs a ReduceOp");
      const ByteBuffer reduced =
          stage.algorithm == ReduceAlgorithm::kTree
              ? comm::local_chunked_tree_all_reduce(payloads, chunks,
                                                    *stage.op)
              : comm::local_chunked_ring_all_reduce(payloads, chunks,
                                                    *stage.op);
      // kReduce covers only the absorb, matching the transport backends
      // (the local aggregators have no wire, so there are no send/recv
      // spans and the collective time is left unattributed by design).
      measure::ScopedSpan reduce_span(trace, measure::Phase::kReduce,
                                      stage.name);
      round.absorb_reduced(reduced);
      return;
    }
    case AggregationPath::kParameterServer: {
      GCS_CHECK_MSG(stage.op != nullptr,
                    "stage '" << stage.name << "' needs a ReduceOp");
      const ByteBuffer reduced = comm::local_chunked_ps_aggregate(
          payloads, chunks, *stage.op, ps_server);
      measure::ScopedSpan reduce_span(trace, measure::Phase::kReduce,
                                      stage.name);
      round.absorb_reduced(reduced);
      return;
    }
    case AggregationPath::kAllGather: {
      // Gather payloads may differ in size across workers (TopK's delta
      // format pads per-worker); the local gather is a pure hand-over.
      measure::ScopedSpan reduce_span(trace, measure::Phase::kReduce,
                                      stage.name);
      round.absorb_gathered(payloads);
      return;
    }
  }
  throw Error("AggregationPipeline: unknown stage route");
}

bool payloads_symmetric(const std::vector<ByteBuffer>& payloads) {
  bool symmetric = true;
  for (const auto& p : payloads) symmetric &= p.size() == payloads[0].size();
  return symmetric;
}

/// One rank's share of a stage over a real transport: runs the stage's
/// chunked collective on `mine` (the rank's own payload buffer) and
/// returns the gather result for kAllGather routes. The same code path
/// serves the threaded fabric (one thread per rank, shared transport) and
/// the socket fabric (one process per rank, own endpoint) — byte-identical
/// traffic on either substrate.
std::vector<ByteBuffer> run_stage_rank(const WireStage& stage,
                                       comm::Communicator& comm,
                                       ByteBuffer& mine, bool symmetric,
                                       std::span<const comm::ChunkRange>
                                           chunks,
                                       int ps_server) {
  switch (stage.route) {
    case AggregationPath::kAllReduce:
      if (stage.algorithm == ReduceAlgorithm::kTree) {
        comm::chunked_tree_all_reduce(comm, mine, chunks, *stage.op);
      } else {
        comm::chunked_ring_all_reduce(comm, mine, chunks, *stage.op);
      }
      return {};
    case AggregationPath::kParameterServer:
      comm::chunked_ps_aggregate(comm, mine, chunks, *stage.op, ps_server);
      return {};
    case AggregationPath::kAllGather:
      // The chunked all-gather requires symmetric payload sizes; fall back
      // to the monolithic gather when a scheme pads per-worker (TopK
      // delta).
      return symmetric ? comm::chunked_all_gather(comm, mine, chunks)
                       : comm::all_gather(comm, mine);
  }
  throw Error("AggregationPipeline: unknown stage route");
}

/// Runs one stage over the threaded fabric with the chunked collectives.
/// Every rank must end with an identical result (checked); rank 0's copy
/// is absorbed. Wire bytes are accumulated into `wire`.
void run_stage_threaded(const WireStage& stage, CodecRound& round,
                        const std::vector<ByteBuffer>& payloads,
                        std::span<const comm::ChunkRange> chunks,
                        int ps_server, WireTraffic& wire,
                        measure::TraceRecorder* trace) {
  const auto n = static_cast<int>(payloads.size());
  if (stage.route != AggregationPath::kAllGather) {
    GCS_CHECK_MSG(stage.op != nullptr,
                  "stage '" << stage.name << "' needs a ReduceOp");
  }
  const bool symmetric = payloads_symmetric(payloads);
  comm::Fabric fabric(n);
  if (trace != nullptr) fabric.set_wire_tap(trace);
  std::vector<ByteBuffer> bufs(payloads.begin(), payloads.end());
  std::vector<std::vector<ByteBuffer>> gathered(
      static_cast<std::size_t>(n));
  comm::run_workers(fabric, [&](comm::Communicator& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    gathered[rank] = run_stage_rank(stage, comm, bufs[rank], symmetric,
                                    chunks, ps_server);
  });
  for (int r = 0; r < n; ++r) {
    wire.sent[static_cast<std::size_t>(r)] += fabric.bytes_sent(r);
    wire.received[static_cast<std::size_t>(r)] += fabric.bytes_received(r);
  }
  measure::ScopedSpan reduce_span(trace, measure::Phase::kReduce,
                                  stage.name);
  if (stage.route == AggregationPath::kAllGather) {
    for (int r = 1; r < n; ++r) {
      GCS_CHECK_MSG(gathered[static_cast<std::size_t>(r)] == gathered[0],
                    "stage '" << stage.name
                              << "': ranks disagree after all-gather");
    }
    round.absorb_gathered(gathered[0]);
  } else {
    for (int r = 1; r < n; ++r) {
      GCS_CHECK_MSG(bufs[static_cast<std::size_t>(r)] == bufs[0],
                    "stage '" << stage.name
                              << "': ranks disagree after reduction");
    }
    round.absorb_reduced(bufs[0]);
  }
}

/// Threaded-fabric stage with encode hand-off: rank r's collective thread
/// blocks until its payload is encoded, so the pool encodes rank k+1's
/// payload while rank k's hops are already in flight (the chunked
/// collectives self-synchronize through blocking recv, so timing never
/// affects values). Reduce routes only — the gather fallback needs every
/// payload size up front. Payloads are reduced in place; payloads[0]
/// holds the result.
void run_stage_threaded_overlapped(const WireStage& stage, CodecRound& round,
                                   std::vector<ByteBuffer>& payloads,
                                   std::span<const comm::ChunkRange> chunks,
                                   int ps_server, WireTraffic& wire,
                                   sched::EncodeWorkerPool& pool,
                                   bool ranged,
                                   measure::TraceRecorder* trace) {
  const auto n = static_cast<int>(payloads.size());
  GCS_CHECK_MSG(stage.op != nullptr,
                "stage '" << stage.name << "' needs a ReduceOp");
  const std::size_t stage_bytes = payloads[0].size();
  std::vector<std::promise<void>> ready(static_cast<std::size_t>(n));
  std::vector<std::shared_future<void>> encoded;
  encoded.reserve(static_cast<std::size_t>(n));
  for (auto& p : ready) encoded.push_back(p.get_future().share());
  ready[0].set_value();  // payloads[0] is already encoded (it fixed the plan)
  const bool use_ranges =
      ranged && !chunks.empty() && round.supports_encode_range();
  // Per-worker completion state for the ranged path (heap arrays: atomics
  // are not movable, and the addresses must be stable for the tasks).
  std::unique_ptr<std::atomic<std::size_t>[]> remaining;
  std::unique_ptr<std::atomic<bool>[]> failed;
  if (use_ranges) {
    remaining = std::make_unique<std::atomic<std::size_t>[]>(
        static_cast<std::size_t>(n));
    failed =
        std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(n));
    for (int w = 1; w < n; ++w) {
      remaining[static_cast<std::size_t>(w)].store(chunks.size());
      failed[static_cast<std::size_t>(w)].store(false);
    }
  }
  for (int w = 1; w < n; ++w) {
    const auto ws = static_cast<std::size_t>(w);
    if (use_ranges) {
      // Bucket-sized slices: the fabric thread for rank w unblocks once
      // every chunk of its payload is written (concatenation of the
      // ranges == encode(w) byte-for-byte by the codec contract).
      payloads[ws].assign(stage_bytes, std::byte{0});
      for (const comm::ChunkRange c : chunks) {
        pool.submit([&round, &payloads, &ready, &remaining, &failed, w, ws,
                     c, trace] {
          try {
            measure::ScopedSpan span(trace, measure::Phase::kEncode, "", w);
            round.encode_range(
                w, c.offset,
                std::span<std::byte>(payloads[ws]).subspan(c.offset, c.size));
            span.set_bytes(c.size);
          } catch (...) {
            // First failing range wins; later ranges of this worker only
            // decrement the counter.
            if (!failed[ws].exchange(true)) {
              ready[ws].set_exception(std::current_exception());
            }
          }
          if (remaining[ws].fetch_sub(1) == 1 && !failed[ws].load()) {
            ready[ws].set_value();
          }
        });
      }
      continue;
    }
    pool.submit([&round, &payloads, &ready, w, ws, trace] {
      try {
        measure::ScopedSpan span(trace, measure::Phase::kEncode, "", w);
        payloads[ws] = round.encode(w);
        span.set_bytes(payloads[ws].size());
        ready[ws].set_value();
      } catch (...) {
        // The waiting rank thread rethrows this from its future.
        ready[ws].set_exception(std::current_exception());
      }
    });
  }
  comm::Fabric fabric(n);
  if (trace != nullptr) fabric.set_wire_tap(trace);
  try {
    comm::run_workers(fabric, [&](comm::Communicator& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      try {
        encoded[rank].get();
        GCS_CHECK_MSG(payloads[rank].size() == stage_bytes,
                      "stage '" << stage.name
                                << "': asymmetric payload sizes");
        run_stage_rank(stage, comm, payloads[rank], /*symmetric=*/true,
                       chunks, ps_server);
      } catch (...) {
        // Peers may already be blocked in recv on hops this rank will
        // never send; poison the fabric so the whole stage fails loudly
        // instead of deadlocking. run_workers rethrows the first captured
        // error, which may be a peer's secondary "fabric aborted".
        fabric.abort();
        throw;
      }
    });
  } catch (...) {
    // Drain the pool before unwinding: tasks capture this frame's state.
    try {
      pool.wait_idle();
    } catch (...) {
    }
    throw;
  }
  pool.wait_idle();
  for (int r = 0; r < n; ++r) {
    wire.sent[static_cast<std::size_t>(r)] += fabric.bytes_sent(r);
    wire.received[static_cast<std::size_t>(r)] += fabric.bytes_received(r);
  }
  for (int r = 1; r < n; ++r) {
    GCS_CHECK_MSG(payloads[static_cast<std::size_t>(r)] == payloads[0],
                  "stage '" << stage.name
                            << "': ranks disagree after reduction");
  }
  measure::ScopedSpan reduce_span(trace, measure::Phase::kReduce,
                                  stage.name);
  round.absorb_reduced(payloads[0]);
}

/// Builds the rendezvous address for one socket-backend round.
std::string socket_rendezvous(const PipelineConfig& config) {
  if (config.socket_port == 0) return net::unique_unix_rendezvous();
  const std::string host =
      config.socket_iface.empty() ? "127.0.0.1" : config.socket_iface;
  return "tcp:" + host + ":" + std::to_string(config.socket_port);
}

net::SocketFabricConfig socket_fabric_config(const PipelineConfig& config,
                                             const std::string& rendezvous,
                                             int world, int rank) {
  net::SocketFabricConfig fc;
  fc.rendezvous = rendezvous;
  fc.world_size = world;
  fc.rank = rank;
  fc.elastic = config.elastic;
  if (config.peer_timeout_ms > 0) fc.recv_timeout_ms = config.peer_timeout_ms;
  if (config.rejoin_window_ms > 0) {
    fc.rejoin_window_ms = config.rejoin_window_ms;
  }
  return fc;
}

/// Commit-barrier tags, far above the collectives' tag space (< 2^32) and
/// distinct from the rendezvous (0xffff'ffff'...) and probe (0x6d5...)
/// namespaces. The low 32 bits carry the round so a straggler of round k
/// can never satisfy round k+1's barrier.
constexpr std::uint64_t kCommitDoneTag = 0xffff'fffd'0000'0000ull;
constexpr std::uint64_t kCommitAckTag = 0xffff'fffe'0000'0000ull;

/// The all-or-nothing commit point of an elastic round: every rank
/// reports DONE to rank 0, which acknowledges each rank directly (a star,
/// deliberately not a tree — an ACK must never be relayed through a rank
/// that might be the one that just died). A rank passes the barrier iff
/// rank 0 heard *every* rank finish the round's collectives; therefore
/// either all survivors of a failure committed the round or none did, and
/// the re-rendezvous resume round is well defined.
void commit_barrier(comm::Communicator& comm, std::uint64_t round) {
  const int n = comm.world_size();
  if (n <= 1) return;
  const std::uint64_t done = kCommitDoneTag | (round & 0xffff'ffffull);
  const std::uint64_t ack = kCommitAckTag | (round & 0xffff'ffffull);
  if (comm.rank() == 0) {
    for (int r = 1; r < n; ++r) {
      (void)comm.recv(r, done);  // a dead rank aborts the whole barrier
    }
    for (int r = 1; r < n; ++r) {
      try {
        comm.send(r, ack, ByteBuffer{});
      } catch (const comm::PeerFailure&) {
        // r reported DONE and died since; whether it commits is moot.
      }
    }
  } else {
    comm.send(0, done, ByteBuffer{});
    (void)comm.recv(0, ack);
  }
}

}  // namespace

AggregationPipeline::AggregationPipeline(SchemeCodecPtr codec,
                                         PipelineConfig config)
    : codec_(std::move(codec)), config_(std::move(config)) {
  GCS_CHECK(codec_ != nullptr);
  // Announce the codec kernel backend once per process so perf runs are
  // attributable (AVX2 vs scalar; see GCS_FORCE_SCALAR).
  static std::once_flag backend_logged;
  std::call_once(backend_logged, [] {
    std::fprintf(stderr, "gcs: codec kernel backend: %s\n",
                 kernels::backend_name());
  });
  if (config_.encode_workers < 1) {
    throw Error("AggregationPipeline: encode_workers must be >= 1");
  }
  tel_.rounds = telemetry::counter("gcs_pipeline_rounds_total");
  tel_.encode_bytes = telemetry::counter("gcs_codec_encode_bytes_total");
  tel_.decode_bytes = telemetry::counter("gcs_codec_decode_bytes_total");
  tel_.round_usec = telemetry::histogram("gcs_pipeline_round_usec");
  tel_.stage_usec = telemetry::histogram("gcs_pipeline_stage_usec");
  tel_.decode_usec = telemetry::histogram("gcs_pipeline_decode_usec");
  lane_ = health::lane("pipeline.round");
  if (config_.bucket_mode == sched::BucketMode::kLayerBuckets) {
    if (config_.layout.total_size() != codec_->dimension()) {
      throw Error(
          "AggregationPipeline: layer buckets need a layout covering the "
          "codec dimension (" +
          std::to_string(config_.layout.total_size()) + " vs " +
          std::to_string(codec_->dimension()) + ")");
    }
    sched::BucketPlannerConfig planner;
    if (config_.bucket_bytes != 0) planner.bucket_bytes = config_.bucket_bytes;
    bucket_plan_ = std::make_unique<sched::BucketPlan>(
        sched::plan_buckets(config_.layout, planner));
  }
  rebuild_pool();
}

void AggregationPipeline::rebuild_pool() {
  if (config_.encode_workers > 1) {
    pool_ =
        std::make_unique<sched::EncodeWorkerPool>(config_.encode_workers);
  }
}

AggregationPipeline::~AggregationPipeline() = default;
AggregationPipeline::AggregationPipeline(AggregationPipeline&&) noexcept =
    default;
AggregationPipeline& AggregationPipeline::operator=(
    AggregationPipeline&&) noexcept = default;

measure::TraceRecorder* AggregationPipeline::active_trace() const noexcept {
  if (config_.trace != nullptr) return config_.trace;
  if (config_.flight != nullptr) return &config_.flight->recorder();
  return nullptr;
}

void AggregationPipeline::commit_flight(std::uint64_t round,
                                        const char* backend) {
  if (config_.flight == nullptr || config_.trace != nullptr) return;
  config_.flight->commit_round(round, codec_->name(), backend);
}

std::vector<comm::ChunkRange> AggregationPipeline::stage_chunks(
    std::size_t payload_bytes, std::size_t granularity) const {
  if (bucket_plan_ != nullptr) {
    return bucket_plan_->chunk_plan(payload_bytes, granularity);
  }
  return comm::chunk_payload(payload_bytes, config_.chunk_bytes, granularity);
}

void AggregationPipeline::encode_rest(
    CodecRound& session, std::vector<ByteBuffer>& payloads,
    std::span<const comm::ChunkRange> chunks) {
  const auto n = payloads.size();
  measure::TraceRecorder* trace = active_trace();
  if (pool_ == nullptr) {
    for (std::size_t w = 1; w < n; ++w) {
      measure::ScopedSpan span(trace, measure::Phase::kEncode, "",
                               static_cast<int>(w));
      payloads[w] = session.encode(static_cast<int>(w));
      span.set_bytes(payloads[w].size());
    }
    return;
  }
  const bool use_ranges = bucket_plan_ != nullptr && !chunks.empty() &&
                          session.supports_encode_range();
  const std::size_t stage_bytes = payloads[0].size();
  for (std::size_t w = 1; w < n; ++w) {
    if (use_ranges) {
      payloads[w].assign(stage_bytes, std::byte{0});
      for (const comm::ChunkRange c : chunks) {
        pool_->submit([&session, &payloads, w, c, trace] {
          measure::ScopedSpan span(trace, measure::Phase::kEncode, "",
                                   static_cast<int>(w));
          session.encode_range(
              static_cast<int>(w), c.offset,
              std::span<std::byte>(payloads[w]).subspan(c.offset, c.size));
          span.set_bytes(c.size);
        });
      }
      continue;
    }
    pool_->submit([&session, &payloads, w, trace] {
      measure::ScopedSpan span(trace, measure::Phase::kEncode, "",
                               static_cast<int>(w));
      payloads[w] = session.encode(static_cast<int>(w));
      span.set_bytes(payloads[w].size());
    });
  }
  pool_->wait_idle();
}

RoundStats AggregationPipeline::aggregate(
    std::span<const std::span<const float>> grads, std::span<float> out,
    std::uint64_t round) {
  const auto n = static_cast<std::size_t>(codec_->world_size());
  GCS_CHECK(grads.size() == n);
  GCS_CHECK(out.size() == codec_->dimension());

  const PipelineBackend backend = config_.backend;
  if (backend == PipelineBackend::kSocketFabric) {
    return aggregate_socket(grads, out, round);
  }
  wire_ = WireTraffic{};
  if (backend == PipelineBackend::kThreadedFabric) {
    wire_.sent.assign(n, 0);
    wire_.received.assign(n, 0);
  }

  measure::TraceRecorder* trace = active_trace();
  measure::ScopedSpan round_span(trace, measure::Phase::kRound, "aggregate");
  tel_.rounds.inc();
  telemetry::ScopedUsecTimer round_timer(tel_.round_usec);
  health::ArmedScope armed(lane_);
  lane_.beat();

  auto session = codec_->begin_round(grads, round);
  RoundStats stats;
  WireStage stage;
  std::vector<ByteBuffer> payloads(n);
  while (session->next_stage(stage)) {
    lane_.beat();
    measure::ScopedSpan stage_span(trace, measure::Phase::kStage,
                                   stage.name);
    telemetry::ScopedUsecTimer stage_timer(tel_.stage_usec);
    // Worker 0 is always encoded first: its payload size fixes the chunk
    // plan every rank must share.
    {
      measure::ScopedSpan span(trace, measure::Phase::kEncode, "", 0);
      payloads[0] = session->encode(0);
      span.set_bytes(payloads[0].size());
    }
    const std::size_t stage_bytes = payloads[0].size();
    const std::size_t granularity =
        stage.op != nullptr ? stage.op->granularity() : 1;
    const auto chunks = stage_chunks(stage_bytes, granularity);
    if (backend == PipelineBackend::kThreadedFabric && pool_ != nullptr &&
        stage.route != AggregationPath::kAllGather) {
      // The hand-off path: collective threads start now; the pool feeds
      // them payloads as they are encoded (bucket-sized ranges on
      // bucketed runs).
      run_stage_threaded_overlapped(stage, *session, payloads, chunks,
                                    config_.ps_server, wire_, *pool_,
                                    bucket_plan_ != nullptr, trace);
    } else {
      encode_rest(*session, payloads, chunks);
      for (std::size_t w = 1; w < n; ++w) {
        // Reducible routes need symmetric sizes; all-gather payloads may
        // differ (TopK's delta format pads per-worker).
        GCS_CHECK_MSG(stage.route == AggregationPath::kAllGather ||
                          payloads[w].size() == stage_bytes,
                      "stage '" << stage.name
                                << "': asymmetric payload sizes");
      }
      if (backend == PipelineBackend::kThreadedFabric) {
        run_stage_threaded(stage, *session, payloads, chunks,
                           config_.ps_server, wire_, trace);
      } else {
        run_stage_local(stage, *session, payloads, chunks,
                        config_.ps_server, trace);
      }
    }
    if (tel_.encode_bytes.live()) {
      // All n worker payloads were encoded in this process; the overlapped
      // path reduces in place but keeps the (symmetric) sizes.
      std::uint64_t encoded = 0;
      for (const auto& p : payloads) encoded += p.size();
      tel_.encode_bytes.inc(encoded);
      tel_.decode_bytes.inc(stage.route == AggregationPath::kAllGather
                                ? encoded
                                : stage_bytes);
    }
    (stage.metadata ? stats.metadata_bytes : stats.payload_bytes) +=
        stage_bytes;
  }
  {
    measure::ScopedSpan decode_span(trace, measure::Phase::kDecode,
                                    "finish");
    telemetry::ScopedUsecTimer decode_timer(tel_.decode_usec);
    session->finish(out, stats);
  }
  round_span.close();
  commit_flight(round, backend == PipelineBackend::kThreadedFabric
                           ? "threaded"
                           : "local");
  return stats;
}

RoundStats AggregationPipeline::aggregate_over(
    comm::Communicator& comm, std::span<const std::span<const float>> grads,
    std::span<float> out, std::uint64_t round) {
  const auto n = static_cast<std::size_t>(codec_->world_size());
  GCS_CHECK(grads.size() == n);
  GCS_CHECK(out.size() == codec_->dimension());
  GCS_CHECK_MSG(comm.world_size() == codec_->world_size(),
                "transport world size " << comm.world_size()
                                        << " != codec world size "
                                        << codec_->world_size());
  const auto rank = static_cast<std::size_t>(comm.rank());

  measure::TraceRecorder* trace = active_trace();
  // The caller's transport reports per-chunk send/recv spans for the
  // duration of the round (round boundaries are quiescent points).
  ScopedWireTap tap(comm.transport(), trace);
  measure::ScopedSpan round_span(trace, measure::Phase::kRound, "aggregate");
  tel_.rounds.inc();
  telemetry::ScopedUsecTimer round_timer(tel_.round_usec);
  health::ArmedScope armed(lane_);
  lane_.beat();

  auto session = codec_->begin_round(grads, round);
  RoundStats stats;
  WireStage stage;
  std::vector<ByteBuffer> payloads(n);
  while (session->next_stage(stage)) {
    lane_.beat();
    measure::ScopedSpan stage_span(trace, measure::Phase::kStage,
                                   stage.name);
    telemetry::ScopedUsecTimer stage_timer(tel_.stage_usec);
    if (stage.route != AggregationPath::kAllGather) {
      GCS_CHECK_MSG(stage.op != nullptr,
                    "stage '" << stage.name << "' needs a ReduceOp");
    }
    const std::size_t granularity =
        stage.op != nullptr ? stage.op->granularity() : 1;
    // Every rank encodes all workers (the codec is cluster-wide state that
    // must evolve identically everywhere) but puts only its own payload on
    // the wire — the SPMD execution of the same round aggregate() runs.
    if (pool_ != nullptr && stage.route != AggregationPath::kAllGather) {
      // Overlapped encode: this rank's own payload goes on the wire
      // immediately; the pool encodes the other workers' (state-evolving)
      // copies while the collective's hops are already in flight.
      // Reducible payloads are size-symmetric, so the rank's own size
      // fixes the shared chunk plan.
      ByteBuffer mine;
      {
        measure::ScopedSpan span(trace, measure::Phase::kEncode, "",
                                 static_cast<int>(rank));
        mine = session->encode(static_cast<int>(rank));
        span.set_bytes(mine.size());
      }
      if (config_.fault_hook) config_.fault_hook("encode", round);
      const std::size_t stage_bytes = mine.size();
      const auto chunks = stage_chunks(stage_bytes, granularity);
      const bool use_ranges = bucket_plan_ != nullptr && !chunks.empty() &&
                              session->supports_encode_range();
      for (std::size_t w = 0; w < n; ++w) {
        if (w == rank) continue;
        if (use_ranges) {
          // Bucket-sized slices, one pool task per chunk (byte-identical
          // to whole-payload encode by the codec contract).
          payloads[w].assign(stage_bytes, std::byte{0});
          for (const comm::ChunkRange c : chunks) {
            pool_->submit([&session, &payloads, w, c, trace] {
              measure::ScopedSpan span(trace, measure::Phase::kEncode, "",
                                       static_cast<int>(w));
              session->encode_range(
                  static_cast<int>(w), c.offset,
                  std::span<std::byte>(payloads[w]).subspan(c.offset,
                                                            c.size));
              span.set_bytes(c.size);
            });
          }
          continue;
        }
        pool_->submit([&session, &payloads, w, trace] {
          measure::ScopedSpan span(trace, measure::Phase::kEncode, "",
                                   static_cast<int>(w));
          payloads[w] = session->encode(static_cast<int>(w));
          span.set_bytes(payloads[w].size());
        });
      }
      try {
        run_stage_rank(stage, comm, mine, /*symmetric=*/true, chunks,
                       config_.ps_server);
      } catch (...) {
        try {
          pool_->wait_idle();
        } catch (...) {
        }
        throw;
      }
      pool_->wait_idle();
      for (std::size_t w = 0; w < n; ++w) {
        if (w == rank) continue;
        GCS_CHECK_MSG(payloads[w].size() == stage_bytes,
                      "stage '" << stage.name
                                << "': asymmetric payload sizes");
      }
      {
        measure::ScopedSpan reduce_span(trace, measure::Phase::kReduce,
                                        stage.name);
        session->absorb_reduced(mine);
      }
      tel_.encode_bytes.inc(static_cast<std::uint64_t>(stage_bytes) * n);
      tel_.decode_bytes.inc(stage_bytes);
      (stage.metadata ? stats.metadata_bytes : stats.payload_bytes) +=
          stage_bytes;
      continue;
    }
    {
      measure::ScopedSpan span(trace, measure::Phase::kEncode, "", 0);
      payloads[0] = session->encode(0);
      span.set_bytes(payloads[0].size());
    }
    if (config_.fault_hook) config_.fault_hook("encode", round);
    encode_rest(*session, payloads, {});
    for (std::size_t w = 1; w < n; ++w) {
      GCS_CHECK_MSG(stage.route == AggregationPath::kAllGather ||
                        payloads[w].size() == payloads[0].size(),
                    "stage '" << stage.name
                              << "': asymmetric payload sizes");
    }
    const std::size_t stage_bytes = payloads[0].size();
    const auto chunks = stage_chunks(stage_bytes, granularity);
    const bool symmetric = payloads_symmetric(payloads);
    if (tel_.encode_bytes.live()) {
      std::uint64_t encoded = 0;
      for (const auto& p : payloads) encoded += p.size();
      tel_.encode_bytes.inc(encoded);
    }
    // Move, not copy: the rank's payload is re-encoded next stage anyway,
    // and the dense stages are the wire hot path (stage_bytes captured
    // above because rank 0's buffer feeds the stats line below).
    ByteBuffer mine = std::move(payloads[rank]);
    const auto gathered = run_stage_rank(stage, comm, mine, symmetric,
                                         chunks, config_.ps_server);
    {
      measure::ScopedSpan reduce_span(trace, measure::Phase::kReduce,
                                      stage.name);
      if (stage.route == AggregationPath::kAllGather) {
        session->absorb_gathered(gathered);
        if (tel_.decode_bytes.live()) {
          std::uint64_t absorbed = 0;
          for (const auto& g : gathered) absorbed += g.size();
          tel_.decode_bytes.inc(absorbed);
        }
      } else {
        session->absorb_reduced(mine);
        tel_.decode_bytes.inc(stage_bytes);
      }
    }
    (stage.metadata ? stats.metadata_bytes : stats.payload_bytes) +=
        stage_bytes;
  }
  // Elastic rounds commit atomically: cross-round state (EF memories,
  // warm starts) only mutates once every rank is known to have completed
  // the round's collectives, so an aborted round is retryable from the
  // exact pre-round state on every survivor.
  if (config_.elastic) commit_barrier(comm, round);
  if (config_.fault_hook) config_.fault_hook("decode", round);
  {
    measure::ScopedSpan decode_span(trace, measure::Phase::kDecode,
                                    "finish");
    telemetry::ScopedUsecTimer decode_timer(tel_.decode_usec);
    session->finish(out, stats);
  }
  round_span.close();
  commit_flight(round, "spmd");
  return stats;
}

void AggregationPipeline::adopt_membership(const comm::Membership& current) {
  if (current.original_ranks == membership_.original_ranks) {
    membership_ = current;  // epoch/self may still have moved
    return;
  }
  // Positions of the new members within the previous membership: exactly
  // the codec worker slots whose state survives.
  std::vector<int> survivors;
  survivors.reserve(current.original_ranks.size());
  for (const int original : current.original_ranks) {
    const auto& previous = membership_.original_ranks;
    const auto it = std::find(previous.begin(), previous.end(), original);
    if (it == previous.end()) {
      throw Error(
          "aggregate_elastic: transport membership contains original rank " +
          std::to_string(original) +
          " which was not part of the previous world — members can leave, "
          "not join");
    }
    survivors.push_back(static_cast<int>(it - previous.begin()));
  }
  codec_ = codec_->remap_workers(survivors);
  membership_ = current;
}

RoundStats AggregationPipeline::aggregate_elastic(
    comm::Transport& transport, const GradSource& grad_of,
    std::span<float> out, std::uint64_t round) {
  GCS_CHECK_MSG(config_.elastic,
                "aggregate_elastic needs PipelineConfig::elastic "
                "(factory knob elastic=on)");
  if (membership_.original_ranks.empty()) {
    membership_ = comm::Membership::identity(codec_->world_size());
  }
  // Each failed attempt shrinks the world (or, pathologically, only bumps
  // the epoch); the cap turns a rebuild storm into a loud error instead
  // of an unbounded retry loop.
  const int max_attempts = 2 * membership_.world_size() + 1;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    adopt_membership(transport.membership());
    std::vector<std::span<const float>> views;
    views.reserve(membership_.original_ranks.size());
    for (const int original : membership_.original_ranks) {
      views.push_back(grad_of(original));
    }
    comm::Communicator comm(transport, membership_.self);
    try {
      return aggregate_over(
          comm, std::span<const std::span<const float>>(views), out, round);
    } catch (const comm::PeerFailure&) {
      if (membership_.world_size() <= 1) throw;
      (void)transport.rebuild(round);
      // The retried attempt adopts the shrunken membership (and remaps
      // the codec) at the top of the loop.
    }
  }
  throw Error("aggregate_elastic: round " + std::to_string(round) +
              " failed after " + std::to_string(max_attempts) +
              " membership rebuilds");
}

RoundStats AggregationPipeline::aggregate_socket(
    std::span<const std::span<const float>> grads, std::span<float> out,
    std::uint64_t round) {
  const int n = codec_->world_size();
  const std::size_t dim = codec_->dimension();
  const std::string rendezvous = socket_rendezvous(config_);
  wire_ = WireTraffic{};
  wire_.sent.assign(static_cast<std::size_t>(n), 0);
  wire_.received.assign(static_cast<std::size_t>(n), 0);

  // Fork ranks 1..n-1 first (while this process is still quiescent — no
  // I/O threads yet), then participate as rank 0 so the codec's
  // cross-round state advances in the surviving process. Each child runs
  // the identical SPMD round on its copy-on-write snapshot of the codec
  // and reports its wire meters plus the aggregated output for
  // cross-process agreement checking.
  //
  // The encode pool's threads must not straddle the fork (a child would
  // inherit the pool object but not its threads, and any pool call would
  // hang): drop them now; each side rebuilds its own pool below.
  pool_.reset();
  auto worker = [&](int rank) -> ByteBuffer {
    rebuild_pool();
    net::SocketFabric fabric(
        socket_fabric_config(config_, rendezvous, n, rank));
    comm::Communicator comm(fabric, rank);
    std::vector<float> worker_out(dim);
    aggregate_over(comm, grads, worker_out, round);
    ByteBuffer report;
    ByteWriter w(report);
    w.put<std::uint64_t>(fabric.bytes_sent(rank));
    w.put<std::uint64_t>(fabric.bytes_received(rank));
    w.put_span<float>(std::span<const float>(worker_out));
    return report;
  };
  net::ForkedWorkers peers(1, n, worker);
  rebuild_pool();

  net::SocketFabric fabric(socket_fabric_config(config_, rendezvous, n, 0));
  comm::Communicator comm(fabric, 0);
  const RoundStats stats = aggregate_over(comm, grads, out, round);
  wire_.sent[0] = fabric.bytes_sent(0);
  wire_.received[0] = fabric.bytes_received(0);

  const auto reports = peers.join();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto rank = i + 1;
    ByteReader r(reports[i]);
    wire_.sent[rank] = r.get<std::uint64_t>();
    wire_.received[rank] = r.get<std::uint64_t>();
    const auto values = r.get_span<float>(dim);
    GCS_CHECK_MSG(std::memcmp(values.data(), out.data(),
                              dim * sizeof(float)) == 0,
                  "rank " << rank
                          << " disagrees with rank 0 after a socket round");
  }
  return stats;
}

namespace {

/// Compressor facade over the pipeline (the legacy cluster-wide API).
class PipelineCompressor final : public Compressor {
 public:
  PipelineCompressor(SchemeCodecPtr codec, PipelineConfig config)
      : pipeline_(std::move(codec), config) {}

  std::string name() const override { return pipeline_.codec().name(); }
  AggregationPath path() const override { return pipeline_.codec().path(); }
  int world_size() const override { return pipeline_.codec().world_size(); }

  RoundStats aggregate(std::span<const std::span<const float>> grads,
                       std::span<float> out, std::uint64_t round) override {
    return pipeline_.aggregate(grads, out, round);
  }

  void reset() override { pipeline_.codec().reset(); }

 private:
  AggregationPipeline pipeline_;
};

}  // namespace

CompressorPtr make_pipeline_compressor(SchemeCodecPtr codec,
                                       PipelineConfig config) {
  return std::make_unique<PipelineCompressor>(std::move(codec), config);
}

}  // namespace gcs::core
