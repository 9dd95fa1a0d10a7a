// Per-layer probes for the traced run: decorators over the library's
// public interfaces (SchemeCodec/CodecRound, comm::ReduceOp and
// comm::Transport) that time every call from the outside. They forward
// each byte untouched; the traced run checks its outputs against an
// untraced twin bit for bit.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "comm/transport_decorators.h"
#include "core/codec.h"

namespace ub {

using Clock = std::chrono::steady_clock;

/// Counters the decorators accumulate (times in nanoseconds).
enum Counter : std::size_t {
  kBeginNs,        ///< begin_round + next_stage
  kEncodeNs,       ///< encode + encode_range, summed over threads
  kEncodeCalls,
  kUsefulEncodes,  ///< encodes of the payload this rank puts on the wire
  kAbsorbNs,       ///< absorb_reduced + absorb_gathered
  kFinishNs,
  kReduceNs,       ///< ReduceOp::accumulate
  kReduceBytes,
  kSendNs,
  kRecvNs,         ///< recv, including the time blocked on the peer
  kFrames,         ///< messages sent
  kBytesSent,
  kNumCounters,
};

/// Per-layer totals over one or more steps of one rank, or summed over
/// ranks. Trivially copyable: it crosses the fork report pipe as bytes.
struct LayerTotals {
  std::array<std::uint64_t, kNumCounters> c{};
  std::uint64_t encode_wall_ns = 0;  ///< union of encode intervals
  std::uint64_t fwd_bwd_ns = 0;
  std::uint64_t optimizer_ns = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t readv_calls = 0;
  std::uint64_t flush_calls = 0;
  std::uint64_t steps = 0;

  void add(const LayerTotals& other);

  /// Wall time the layers account for. The encode pool's threads overlap
  /// each other, so encode counts by its wall-clock union; every other
  /// timed call runs on the step's own thread and never nests in another.
  std::uint64_t attributed_ns() const;
};

/// Thread-safe sink the decorators write into; the benchmark drains it
/// after every step.
class Probe {
 public:
  /// Encodes of worker `self_rank` are the useful ones; -1 counts every
  /// encode as useful (in-process aggregation keeps every payload).
  explicit Probe(int self_rank) : self_(self_rank) {}
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  void add(Counter k, std::uint64_t v) noexcept {
    c_[k].fetch_add(v, std::memory_order_relaxed);
  }
  void add_time(Counter k, Clock::time_point start) noexcept {
    add(k, ns_since(start));
  }
  void encode_span(int worker, Clock::time_point start, Clock::time_point end);

  /// Moves the counters and the encode-interval union into `out`
  /// (overwriting those fields) and resets the probe.
  void drain(LayerTotals& out);

  static std::uint64_t ns_since(Clock::time_point start) noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  }

 private:
  const int self_;
  std::array<std::atomic<std::uint64_t>, kNumCounters> c_{};
  std::mutex mu_;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans_;
};

/// Times a codec's calls into `probe`; every stage's ReduceOp is replaced
/// by a timing wrapper around the codec's own.
class TracedCodec final : public gcs::core::SchemeCodec {
 public:
  TracedCodec(gcs::core::SchemeCodecPtr inner, Probe& probe)
      : inner_(std::move(inner)), probe_(&probe) {}

  std::string name() const override { return inner_->name(); }
  gcs::core::AggregationPath path() const override { return inner_->path(); }
  int world_size() const override { return inner_->world_size(); }
  std::size_t dimension() const override { return inner_->dimension(); }
  std::unique_ptr<gcs::core::CodecRound> begin_round(
      std::span<const std::span<const float>> grads,
      std::uint64_t round) override;
  void reset() override { inner_->reset(); }

 private:
  gcs::core::SchemeCodecPtr inner_;
  Probe* probe_;
};

/// Times each send and recv into `probe` and counts frames and bytes.
class TimedTransport final : public gcs::comm::ForwardingTransport {
 public:
  TimedTransport(gcs::comm::Transport& inner, Probe& probe)
      : ForwardingTransport(inner), probe_(&probe) {}

  void send(int src, int dst, std::uint64_t tag,
            gcs::ByteBuffer payload) override;
  gcs::comm::Message recv(int dst, int src, std::uint64_t tag) override;

 private:
  Probe* probe_;
};

}  // namespace ub
