// Per-phase round tracing — the measurement layer's clock (DESIGN.md
// "Measurement layer").
//
// Everything else in the repo charges time analytically; this file
// measures it. A TraceRecorder collects monotonic-clock spans from the
// code that actually executes a round — the AggregationPipeline (encode
// per worker, reduce/absorb, decode/finish, stage and round envelopes)
// and the transports (per-chunk collective send/recv via comm::WireTap) —
// and serializes them as one RoundTrace JSON object per round.
//
// Design constraints, in order:
//   * Zero impact when off. Tracing is a nullable pointer on
//     PipelineConfig; with no recorder installed not a single clock read
//     happens, and with one installed only times are observed — payload
//     bytes, reduction order and the wire schedule are untouched either
//     way (tests/test_measure.cpp closes the loop on all five schemes).
//   * Low overhead when on. A span is one mutex-guarded vector append of
//     a few plain words; recording threads (encode pool workers, rank
//     threads) contend only on that append.
//   * Offline-consumable. RoundTrace::to_json uses the same flat dialect
//     as BENCH_*.json so the driver's artefacts and CI uploads need no
//     extra tooling; measure/calibrator.h consumes the spans directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "comm/transport.h"

namespace gcs::measure {

/// What a span measured. kSend/kRecv come from the transports' wire taps
/// (one span per chunk per hop); the rest from the pipeline.
enum class Phase : std::uint8_t {
  kEncode,  ///< one worker's payload encode for one stage
  kSend,    ///< one transport send (chunk hop)
  kRecv,    ///< one transport recv, including the blocked wait
  kReduce,  ///< absorbing a reduced/gathered stage result into the codec
  kDecode,  ///< CodecRound::finish — decode + state commit
  kStage,   ///< one wire stage, end to end
  kRound,   ///< the whole aggregate() call
};

const char* phase_name(Phase phase) noexcept;

/// One timed interval. Times are seconds on the recorder's monotonic
/// clock, relative to its epoch (construction or the last take()).
struct TraceSpan {
  Phase phase = Phase::kRound;
  const char* label = "";     ///< stage name for pipeline spans
  int rank = -1;              ///< transport rank for kSend/kRecv
  int peer = -1;              ///< remote rank for kSend/kRecv
  int worker = -1;            ///< encoding worker for kEncode
  std::uint64_t tag = 0;      ///< collective tag for kSend/kRecv
  std::uint64_t bytes = 0;    ///< payload bytes the span moved/produced
  double start_s = 0.0;
  double end_s = 0.0;

  double duration_s() const noexcept { return end_s - start_s; }
};

/// One round's spans, ready for serialization and calibration.
struct RoundTrace {
  std::uint64_t round = 0;
  std::string scheme;   ///< factory spec the round ran
  std::string backend;  ///< "local" / "threaded" / "spmd" / "multihost"
  /// The rank whose process recorded this trace (set by take() from
  /// TraceRecorder::set_origin_rank; -1 = unattributed, single-process).
  int origin_rank = -1;
  /// The recorder epoch the spans are relative to, as seconds on the raw
  /// local monotonic clock (steady_clock time_since_epoch). This is what
  /// makes per-rank traces mergeable: epoch_s + span.start_s is a local
  /// monotonic instant a ClockModel (measure/clock_sync.h) can map onto
  /// the cluster reference timeline. 0 = unknown (pre-merge traces).
  double epoch_s = 0.0;
  std::vector<TraceSpan> spans;

  /// Wall-clock of the round envelope (the kRound span; falls back to the
  /// span extent when absent).
  double round_s() const noexcept;

  /// Sum of durations of all spans in `phase` (overlapping spans sum as
  /// work, not as wall time).
  double phase_total_s(Phase phase) const noexcept;

  /// Number of spans in `phase` (e.g. kSend = transport message count).
  std::size_t phase_count(Phase phase) const noexcept;

  /// Sum of `bytes` over spans in `phase`.
  std::uint64_t phase_bytes(Phase phase) const noexcept;

  /// One JSON object: {"round":..,"scheme":..,"backend":..,"spans":[..]}.
  std::string to_json() const;
};

/// Thread-safe span sink + monotonic clock. Implements comm::WireTap so a
/// transport can report per-message send/recv spans directly.
class TraceRecorder final : public comm::WireTap {
 public:
  TraceRecorder();

  /// Seconds since the recorder's epoch, on the monotonic clock.
  double now_s() const;

  /// Attributes subsequently take()n traces to `rank` (their
  /// RoundTrace::origin_rank). Call once, before recording starts.
  void set_origin_rank(int rank) noexcept { origin_rank_ = rank; }

  /// Appends one finished span (thread-safe).
  void record(TraceSpan span);

  /// comm::WireTap: a transport send/recv becomes a kSend/kRecv span.
  void on_wire(int rank, int peer, bool is_send, std::uint64_t tag,
               std::size_t bytes,
               std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) override;

  /// Moves the accumulated spans out as one RoundTrace and re-arms the
  /// epoch, so successive rounds start their clocks near zero.
  RoundTrace take(std::uint64_t round, std::string scheme,
                  std::string backend);

  /// Number of spans accumulated so far.
  std::size_t size() const;

  /// The spans accumulated so far, copied without re-arming the epoch —
  /// the flight recorder's post-mortem view of a round that never
  /// completed (take() is for rounds that did).
  std::vector<TraceSpan> snapshot_spans() const;

  /// The current epoch as raw monotonic seconds — what take() stamps into
  /// RoundTrace::epoch_s.
  double epoch_raw_s() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  int origin_rank_ = -1;
  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
};

/// RAII helper for pipeline phases: times [construction, destruction) and
/// records iff a recorder is present. Bytes may be attached late (payload
/// sizes are often known only after the work).
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, Phase phase, const char* label,
             int worker = -1)
      : recorder_(recorder) {
    if (recorder_ == nullptr) return;
    span_.phase = phase;
    span_.label = label;
    span_.worker = worker;
    span_.start_s = recorder_->now_s();
  }

  ~ScopedSpan() { close(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span now instead of at scope exit (destruction becomes a
  /// no-op) — for callers that must flush the recorder before the scope
  /// closes, e.g. committing a round into the flight recorder's ring.
  void close() {
    if (recorder_ == nullptr) return;
    span_.end_s = recorder_->now_s();
    recorder_->record(span_);
    recorder_ = nullptr;
  }

  void set_bytes(std::uint64_t bytes) noexcept { span_.bytes = bytes; }

 private:
  TraceRecorder* recorder_;
  TraceSpan span_;
};

/// Serializes a set of round traces as {"traces":[...]} — the driver's
/// TRACE_*.json artefact format.
std::string traces_to_json(const std::vector<RoundTrace>& traces);

}  // namespace gcs::measure
