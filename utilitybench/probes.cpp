#include "probes.h"

#include <algorithm>

namespace ub {

namespace {

/// Times ReduceOp::accumulate. Collective threads may share one op, so all
/// state lives in the (atomic) probe.
class TimingReduceOp final : public gcs::comm::ReduceOp {
 public:
  TimingReduceOp(const gcs::comm::ReduceOp& inner, Probe& probe)
      : inner_(inner), probe_(&probe) {}

  void accumulate(std::span<std::byte> acc,
                  std::span<const std::byte> in) const override {
    const auto start = Clock::now();
    inner_.accumulate(acc, in);
    probe_->add_time(kReduceNs, start);
    probe_->add(kReduceBytes, in.size());
  }
  std::size_t granularity() const noexcept override {
    return inner_.granularity();
  }
  std::string name() const override { return inner_.name(); }

 private:
  const gcs::comm::ReduceOp& inner_;
  Probe* probe_;
};

class TracedRound final : public gcs::core::CodecRound {
 public:
  TracedRound(std::unique_ptr<gcs::core::CodecRound> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(&probe) {}

  bool next_stage(gcs::core::WireStage& stage) override {
    const auto start = Clock::now();
    const bool more = inner_->next_stage(stage);
    if (more && stage.op != nullptr) {
      // The wrapper must outlive the stage: ops_ keeps every stage's
      // wrapper until the round ends.
      ops_.push_back(std::make_unique<TimingReduceOp>(*stage.op, *probe_));
      stage.op = ops_.back().get();
    }
    probe_->add_time(kBeginNs, start);
    return more;
  }

  gcs::ByteBuffer encode(int worker) override {
    const auto start = Clock::now();
    gcs::ByteBuffer out = inner_->encode(worker);
    probe_->encode_span(worker, start, Clock::now());
    return out;
  }

  bool supports_encode_range() const override {
    return inner_->supports_encode_range();
  }

  void encode_range(int worker, std::size_t offset,
                    std::span<std::byte> out) override {
    const auto start = Clock::now();
    inner_->encode_range(worker, offset, out);
    probe_->encode_span(worker, start, Clock::now());
  }

  void absorb_reduced(const gcs::ByteBuffer& reduced) override {
    const auto start = Clock::now();
    inner_->absorb_reduced(reduced);
    probe_->add_time(kAbsorbNs, start);
  }

  void absorb_gathered(std::span<const gcs::ByteBuffer> payloads) override {
    const auto start = Clock::now();
    inner_->absorb_gathered(payloads);
    probe_->add_time(kAbsorbNs, start);
  }

  void finish(std::span<float> out, gcs::core::RoundStats& stats) override {
    const auto start = Clock::now();
    inner_->finish(out, stats);
    probe_->add_time(kFinishNs, start);
  }

 private:
  std::unique_ptr<gcs::core::CodecRound> inner_;
  Probe* probe_;
  std::vector<std::unique_ptr<TimingReduceOp>> ops_;
};

}  // namespace

void LayerTotals::add(const LayerTotals& o) {
  for (std::size_t k = 0; k < kNumCounters; ++k) c[k] += o.c[k];
  encode_wall_ns += o.encode_wall_ns;
  fwd_bwd_ns += o.fwd_bwd_ns;
  optimizer_ns += o.optimizer_ns;
  step_ns += o.step_ns;
  wakeups += o.wakeups;
  readv_calls += o.readv_calls;
  flush_calls += o.flush_calls;
  steps += o.steps;
}

std::uint64_t LayerTotals::attributed_ns() const {
  return c[kBeginNs] + encode_wall_ns + c[kAbsorbNs] + c[kFinishNs] +
         c[kReduceNs] + c[kSendNs] + c[kRecvNs] + fwd_bwd_ns + optimizer_ns;
}

void Probe::encode_span(int worker, Clock::time_point start,
                        Clock::time_point end) {
  add(kEncodeNs, static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         end - start)
                         .count()));
  add(kEncodeCalls, 1);
  if (self_ < 0 || worker == self_) add(kUsefulEncodes, 1);
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.emplace_back(start, end);
}

void Probe::drain(LayerTotals& out) {
  for (std::size_t k = 0; k < kNumCounters; ++k) {
    out.c[k] = c_[k].exchange(0, std::memory_order_relaxed);
  }
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    spans.swap(spans_);
  }
  std::sort(spans.begin(), spans.end());
  Clock::duration wall{0};
  for (std::size_t i = 0; i < spans.size();) {
    auto [lo, hi] = spans[i];
    for (++i; i < spans.size() && spans[i].first <= hi; ++i) {
      hi = std::max(hi, spans[i].second);
    }
    wall += hi - lo;
  }
  out.encode_wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count());
}

std::unique_ptr<gcs::core::CodecRound> TracedCodec::begin_round(
    std::span<const std::span<const float>> grads, std::uint64_t round) {
  const auto start = Clock::now();
  auto inner = inner_->begin_round(grads, round);
  probe_->add_time(kBeginNs, start);
  return std::make_unique<TracedRound>(std::move(inner), *probe_);
}

void TimedTransport::send(int src, int dst, std::uint64_t tag,
                          gcs::ByteBuffer payload) {
  const std::uint64_t bytes = payload.size();
  const auto start = Clock::now();
  inner().send(src, dst, tag, std::move(payload));
  probe_->add_time(kSendNs, start);
  probe_->add(kFrames, 1);
  probe_->add(kBytesSent, bytes);
}

gcs::comm::Message TimedTransport::recv(int dst, int src, std::uint64_t tag) {
  const auto start = Clock::now();
  gcs::comm::Message m = inner().recv(dst, src, tag);
  probe_->add_time(kRecvNs, start);
  return m;
}

}  // namespace ub
