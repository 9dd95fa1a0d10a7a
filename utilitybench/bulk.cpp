// bulk_socket and bulk_local: interleaved aggregation rounds of the five
// schemes on transformer-shaped synthetic gradients (see NOTES.md).
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "core/synthetic_grad.h"
#include "core/vnmse.h"
#include "harness.h"

namespace ub {

namespace {

using gcs::core::AggregationPipeline;
using gcs::core::PipelineConfig;

constexpr std::size_t kChunkBytes = 1 << 20;
constexpr int kWarmupRounds = 2;
/// Distinct input rounds, generated before timing and cycled; error
/// feedback makes every round's payload differ anyway.
constexpr int kInputRounds = 4;
/// The ddp examples' default scheduler knobs.
constexpr const char* kLocalKnobs = ":buckets=layer:workers=2";

struct BulkInputs {
  gcs::ModelLayout layout;
  /// [round][worker] gradients and views onto them.
  std::vector<std::vector<std::vector<float>>> grads;
  std::vector<std::vector<std::span<const float>>> views;
};

BulkInputs make_inputs(std::uint64_t seed) {
  BulkInputs in{gcs::make_transformer_like_layout(std::size_t{1} << 20), {},
                {}};
  gcs::core::SyntheticGradConfig cfg;
  cfg.layout = in.layout;
  cfg.world_size = kWorld;
  cfg.seed = seed;
  const gcs::core::SyntheticGradients source(cfg);
  in.grads.resize(kInputRounds);
  for (int r = 0; r < kInputRounds; ++r) {
    source.generate(static_cast<std::uint64_t>(r), in.grads[r]);
  }
  in.views.resize(kInputRounds);
  for (int r = 0; r < kInputRounds; ++r) {
    for (const auto& g : in.grads[r]) in.views[r].emplace_back(g);
  }
  return in;
}

/// One rank's five untraced pipelines (plus five traced twins in the
/// traced run) and the checks on their outputs.
class BulkWork final : public Work {
 public:
  BulkWork(const Options& opt, const BulkInputs& in, Endpoint* ep,
           RunResult& sink)
      : opt_(opt),
        in_(in),
        ep_(ep),
        sink_(sink),
        local_probe_(-1),
        dim_(in.layout.total_size()),
        out_(dim_),
        traced_out_(dim_),
        ref_out_(dim_) {}

  void setup() override {
    for (const Scheme& s : kSchemes) {
      PipelineConfig cfg;
      if (ep_ != nullptr) {
        cfg.chunk_bytes = kChunkBytes;
      } else {
        cfg = gcs::core::parse_pipeline_config(
            std::string(s.spec) + kLocalKnobs, in_.layout, kWorld);
      }
      plain_.emplace_back(
          gcs::core::make_scheme_codec(s.spec, in_.layout, kWorld), cfg);
      if (opt_.trace) {
        traced_.emplace_back(
            std::make_unique<TracedCodec>(
                gcs::core::make_scheme_codec(s.spec, in_.layout, kWorld),
                probe()),
            cfg);
      }
    }
    for (int r = 0; r < kWarmupRounds; ++r) {
      for (int s = 0; s < kNumSchemes; ++s) {
        run(plain_[s], r, r, out_, plain_comm());
        if (opt_.trace) run(traced_[s], r, r, traced_out_, traced_comm());
      }
    }
    LayerTotals discard;
    probe().drain(discard);
  }

  Cmd plan(double elapsed_s) override {
    std::size_t samples = SIZE_MAX;
    for (const SchemeRun& s : sink_.schemes) {
      samples = std::min(samples, s.step_ms.size());
    }
    const bool enough = opt_.trace || samples >= kMinSamples;
    // The sample floor may stretch a run on a contended host, never
    // beyond 2.5x its length.
    if ((elapsed_s >= opt_.seconds && enough) ||
        elapsed_s >= 2.5 * opt_.seconds) {
      return Cmd::kRunLast;
    }
    return Cmd::kRun;
  }

  void cycle(std::uint64_t index, bool last) override {
    const int input = static_cast<int>(index % kInputRounds);
    const std::uint64_t round = kWarmupRounds + index;
    const bool checked = index == 0 || last;
    for (int k = 0; k < kNumSchemes; ++k) {
      // Rotating the start scheme spreads position effects evenly.
      const int s = static_cast<int>((k + index) % kNumSchemes);
      SchemeRun& rec = sink_.schemes[s];
      gcs::core::SchemeCodecPtr clone;
      if (checked && is_rank0()) {
        clone = plain_[s].codec().remap_workers(all_workers(kWorld));
      }
      // Traced and untraced twins alternate which runs first.
      const bool traced_first = opt_.trace && index % 2 == 1;
      if (traced_first) run_traced(s, input, round);
      const auto t0 = Clock::now();
      const gcs::core::RoundStats stats =
          run(plain_[s], input, round, out_, plain_comm());
      const double ms = ms_between(t0, Clock::now());
      ++sink_.attempted;
      if (is_rank0()) rec.step_ms.push_back(ms);
      hashes_.push_back(hash_bits(out_));
      if (!all_finite(out_)) {
        sink_.fail(std::string(kSchemes[s].name) + ": non-finite aggregate");
      }
      if (opt_.trace && !traced_first) run_traced(s, input, round);
      if (opt_.trace && !same_bits(out_, traced_out_)) {
        sink_.fail(std::string(kSchemes[s].name) +
                   ": traced aggregate differs from untraced");
      }
      if (clone != nullptr) {
        // The clone carries the codec state the round started from; the
        // thread-free local reference must reproduce the round exactly.
        AggregationPipeline reference(std::move(clone));
        reference.aggregate(in_.views[input], ref_out_, round);
        if (!same_bits(out_, ref_out_)) {
          sink_.fail(std::string(kSchemes[s].name) +
                     ": aggregate differs from the local reference");
        }
        if (index == 0) {
          rec.vnmse = gcs::core::vnmse(out_, in_.views[input]);
          rec.bits_per_coordinate = stats.bits_per_coordinate(dim_);
        }
      }
    }
  }

  gcs::ByteBuffer report() override {
    gcs::ByteBuffer out;
    gcs::ByteWriter w(out);
    w.put<std::uint64_t>(sink_.failed);
    w.put<std::uint64_t>(hashes_.size());
    w.put_span<std::uint64_t>(hashes_);
    for (const SchemeRun& s : sink_.schemes) w.put<LayerTotals>(s.layers);
    return out;
  }

  void merge(std::span<const gcs::ByteBuffer> peer_reports) override {
    for (std::size_t p = 0; p < peer_reports.size(); ++p) {
      gcs::ByteReader r(peer_reports[p]);
      const auto failed = r.get<std::uint64_t>();
      if (failed != 0) {
        sink_.fail("rank " + std::to_string(p + 1) + " reported " +
                   std::to_string(failed) + " failed checks");
      }
      const auto n = r.get<std::uint64_t>();
      const auto hashes = r.get_span<std::uint64_t>(n);
      if (n != hashes_.size()) {
        sink_.fail("rank " + std::to_string(p + 1) + " ran " +
                   std::to_string(n) + " rounds, rank 0 ran " +
                   std::to_string(hashes_.size()));
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (hashes[i] != hashes_[i]) {
          sink_.fail("round " + std::to_string(i) + ": rank " +
                     std::to_string(p + 1) + "'s aggregate differs");
        }
      }
      for (SchemeRun& s : sink_.schemes) {
        s.layers.add(r.get<LayerTotals>());
      }
    }
  }

 private:
  bool is_rank0() const { return ep_ == nullptr || ep_->fabric.rank() == 0; }
  Probe& probe() { return ep_ != nullptr ? ep_->probe : local_probe_; }
  gcs::comm::Communicator* plain_comm() {
    return ep_ != nullptr ? &ep_->plain : nullptr;
  }
  gcs::comm::Communicator* traced_comm() {
    return ep_ != nullptr ? &ep_->traced : nullptr;
  }

  gcs::core::RoundStats run(AggregationPipeline& p, int input,
                            std::uint64_t round, std::vector<float>& out,
                            gcs::comm::Communicator* comm) {
    if (comm == nullptr) return p.aggregate(in_.views[input], out, round);
    return p.aggregate_over(*comm, in_.views[input], out, round);
  }

  void run_traced(int s, int input, std::uint64_t round) {
    const auto before = reactor_stats(ep_);
    const auto t0 = Clock::now();
    run(traced_[s], input, round, traced_out_, traced_comm());
    const double ms = ms_between(t0, Clock::now());
    ++sink_.attempted;
    book_traced_step(probe(), {}, ms, before, ep_, s, is_rank0(), sink_);
  }

  const Options& opt_;
  const BulkInputs& in_;
  Endpoint* ep_;
  RunResult& sink_;
  Probe local_probe_;
  std::size_t dim_;
  std::vector<AggregationPipeline> plain_, traced_;
  std::vector<float> out_, traced_out_, ref_out_;
  std::vector<std::uint64_t> hashes_;  ///< per untraced round, in order
};

RunResult run_bulk(const Options& opt, bool socket) {
  const BulkInputs in = make_inputs(opt.seed);
  RunResult result;
  run_work(socket,
           [&](Endpoint* ep, RunResult& sink) {
             return std::make_unique<BulkWork>(opt, in, ep, sink);
           },
           result);
  return result;
}

}  // namespace

RunResult run_bulk_socket(const Options& opt) { return run_bulk(opt, true); }
RunResult run_bulk_local(const Options& opt) { return run_bulk(opt, false); }

}  // namespace ub
