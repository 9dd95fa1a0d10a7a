// train_socket: the train/ MLP trained SPMD over the socket mesh until a
// held-out loss target, all five schemes in lockstep (see NOTES.md).

#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "harness.h"
#include "train/dataset.h"
#include "train/mlp.h"
#include "train/optimizer.h"

namespace ub {

namespace {

using gcs::core::AggregationPipeline;

// The BERT proxy task and its optimizer. The task is fixed so that the
// loss target means the same thing on every seed; the seed picks the
// model initialisations and the minibatch streams.
constexpr std::size_t kVocab = 32;
constexpr std::size_t kHidden = 256;
constexpr std::size_t kBatch = 16;  ///< per worker
constexpr double kLearningRate = 0.25;
constexpr double kMomentum = 0.9;
constexpr std::uint64_t kTaskSeed = 0x11A9C0;
constexpr std::size_t kEvalSamples = 1024;
constexpr int kEvalEvery = 50;
/// Held-out mean cross-entropy (nats) every scheme must reach, on the
/// steep part of the curve (about 420 steps). Near the 2.25-nat plateau
/// steps-to-target would swing widely between seeds.
constexpr double kTargetLoss = 2.7;
/// Steps-to-target differs by about 10% between seeds (initialisation and
/// minibatch order); each scheme trains this many independent
/// trajectories and reports their mean.
constexpr int kTrajectories = 3;
constexpr int kStepBudget = 2000;
constexpr int kWarmupSteps = 3;
constexpr std::size_t kChunkBytes = 1 << 20;

gcs::train::MarkovLmDataset make_dataset() {
  gcs::train::MarkovLmDataset::Config c;
  c.vocab = kVocab;
  c.eval_samples = kEvalSamples;
  c.seed = kTaskSeed;
  return gcs::train::MarkovLmDataset(c);
}

/// One scheme's replica: model, optimizer and pipeline.
struct Replica {
  Replica(const Scheme& s, std::uint64_t model_seed, Probe* probe)
      : model({2 * kVocab, kHidden, kVocab}, model_seed),
        optimizer(model.dimension(), kLearningRate, kMomentum),
        pipeline(make_codec(s, model.layout(), probe), config()) {}

  static gcs::core::SchemeCodecPtr make_codec(const Scheme& s,
                                              const gcs::ModelLayout& layout,
                                              Probe* probe) {
    auto codec = gcs::core::make_scheme_codec(s.spec, layout, kWorld);
    if (probe == nullptr) return codec;
    return std::make_unique<TracedCodec>(std::move(codec), *probe);
  }
  static gcs::core::PipelineConfig config() {
    gcs::core::PipelineConfig c;
    c.chunk_bytes = kChunkBytes;
    return c;
  }

  gcs::train::MlpModel model;
  gcs::train::SgdMomentum optimizer;
  AggregationPipeline pipeline;
};

class TrainWork final : public Work {
 public:
  TrainWork(const Options& opt, const gcs::train::MarkovLmDataset& data,
            Endpoint& ep, RunResult& sink)
      : opt_(opt), data_(data), ep_(ep), sink_(sink) {
    for (int k = 0; k < kTrajectories; ++k) {
      const auto kk = static_cast<std::uint64_t>(k);
      model_seed_[k] = gcs::derive_seed(opt.seed, 0x30de1 + kk);
      // Disjoint minibatch streams: random 40-bit offsets, far apart.
      batch_offset_[k] = gcs::derive_seed(opt.seed, 0xba7c + kk) >> 24;
      batches_[k].resize(kWorld);
    }
  }

  void setup() override {
    for (int r = 0; r < kReplicas; ++r) {
      const Scheme& s = kSchemes[r % kNumSchemes];
      const std::uint64_t seed = model_seed_[r / kNumSchemes];
      plain_.push_back(std::make_unique<Replica>(s, seed, nullptr));
      if (opt_.trace) {
        traced_.push_back(std::make_unique<Replica>(s, seed, &ep_.probe));
      }
    }
    dim_ = plain_[0]->model.dimension();
    for (auto& g : grads_) g.assign(dim_, 0.0f);
    out_.assign(dim_, 0.0f);
    traced_out_.assign(dim_, 0.0f);
    ref_out_.assign(dim_, 0.0f);
    avg_.assign(dim_, 0.0f);
    // Warm-up steps on throwaway replicas, so the timed sweep still trains
    // from step 0.
    for (const Scheme& s : kSchemes) {
      Replica warm(s, model_seed_[0], opt_.trace ? &ep_.probe : nullptr);
      for (int t = 0; t < kWarmupSteps; ++t) {
        sample_batches(0, t);
        step(warm, opt_.trace ? ep_.traced : ep_.plain, batches_[0], t,
             out_, nullptr);
      }
    }
    LayerTotals discard;
    ep_.probe.drain(discard);
  }

  /// One sweep, then stop: its length is set by the steps to the target,
  /// not by --seconds.
  Cmd plan(double /*elapsed_s*/) override { return Cmd::kRunLast; }

  /// The sweep: every replica trains from its initial parameters, in
  /// lockstep, until it reaches the target.
  void cycle(std::uint64_t /*index*/, bool /*last*/) override {
    std::array<bool, kReplicas> active;
    active.fill(true);
    std::array<double, kReplicas> wall_ms{};
    std::array<double, kReplicas> steps{};
    std::array<double, kReplicas> last_loss;
    for (int r = 0; r < kReplicas; ++r) last_loss[r] = eval_loss(r);
    int remaining = kReplicas;
    for (int t = 0; t < kStepBudget && remaining > 0; ++t) {
      for (int k = 0; k < kTrajectories; ++k) sample_batches(k, t);
      const bool checked = t == 0 || (t + 1) % kEvalEvery == 0;
      for (int j = 0; j < kReplicas; ++j) {
        // Rotating the start replica spreads position effects evenly.
        const int r = (j + t) % kReplicas;
        if (active[r]) wall_ms[r] += timed_step(r, t, checked);
      }
      if ((t + 1) % kEvalEvery != 0) continue;
      for (int r = 0; r < kReplicas; ++r) {
        if (!active[r]) continue;
        const double loss = eval_loss(r);
        if (loss > kTargetLoss) {
          last_loss[r] = loss;
          continue;
        }
        active[r] = false;
        --remaining;
        // Where the loss crossed the target between the last two
        // evaluations, interpolated linearly: free of the cadence's
        // 50-step rounding.
        const double crossing =
            (last_loss[r] - kTargetLoss) / (last_loss[r] - loss);
        steps[r] = t + 1 - kEvalEvery * (1.0 - crossing);
      }
    }
    for (int r = 0; r < kReplicas; ++r) {
      const char* name = kSchemes[r % kNumSchemes].name;
      if (active[r]) {
        sink_.fail(std::string(name) + ": loss target " +
                   std::to_string(kTargetLoss) + " not reached in " +
                   std::to_string(kStepBudget) + " steps");
      }
      const std::uint64_t h = hash_bits(plain_[r]->model.params());
      param_hashes_.push_back(h);
      if (opt_.trace && hash_bits(traced_[r]->model.params()) != h) {
        sink_.fail(std::string(name) +
                   ": traced parameters differ from untraced");
      }
    }
    for (int s = 0; s < kNumSchemes; ++s) {
      double mean_steps = 0.0;
      double mean_wall_ms = 0.0;
      for (int k = 0; k < kTrajectories; ++k) {
        mean_steps += steps[k * kNumSchemes + s] / kTrajectories;
        mean_wall_ms += wall_ms[k * kNumSchemes + s] / kTrajectories;
      }
      sink_.schemes[s].steps_to_target = mean_steps;
      sink_.schemes[s].tta_wall_s = mean_wall_ms / 1e3;
    }
  }

  gcs::ByteBuffer report() override {
    gcs::ByteBuffer out;
    gcs::ByteWriter w(out);
    w.put<std::uint64_t>(sink_.failed);
    w.put<std::uint64_t>(param_hashes_.size());
    w.put_span<std::uint64_t>(param_hashes_);
    for (const SchemeRun& s : sink_.schemes) w.put<LayerTotals>(s.layers);
    return out;
  }

  void merge(std::span<const gcs::ByteBuffer> peer_reports) override {
    for (std::size_t p = 0; p < peer_reports.size(); ++p) {
      const std::string rank = "rank " + std::to_string(p + 1);
      gcs::ByteReader r(peer_reports[p]);
      const auto failed = r.get<std::uint64_t>();
      if (failed != 0) {
        sink_.fail(rank + " reported " + std::to_string(failed) +
                   " failed checks");
      }
      const auto n = r.get<std::uint64_t>();
      const auto hashes = r.get_span<std::uint64_t>(n);
      if (n != param_hashes_.size() ||
          !std::equal(hashes.begin(), hashes.end(), param_hashes_.begin())) {
        sink_.fail(rank + ": final parameters differ from rank 0's");
      }
      for (SchemeRun& s : sink_.schemes) s.layers.add(r.get<LayerTotals>());
    }
  }

 private:
  /// Replica r trains scheme r % kNumSchemes on trajectory r / kNumSchemes.
  static constexpr int kReplicas = kTrajectories * kNumSchemes;

  bool is_rank0() const { return ep_.fabric.rank() == 0; }

  double eval_loss(int r) {
    return plain_[r]->model.evaluate(data_.eval_set()).mean_loss;
  }

  void sample_batches(int k, int t) {
    for (int w = 0; w < kWorld; ++w) {
      data_.sample_batch(w, batch_offset_[k] + static_cast<std::uint64_t>(t),
                         kBatch, batches_[k][w]);
    }
  }

  /// One training step: every worker's forward/backward (aggregate_over
  /// encodes all of them), the aggregation round and the optimizer.
  /// Returns the step's milliseconds; fills the layer times when given.
  double step(Replica& r, gcs::comm::Communicator& comm,
              const std::vector<gcs::train::Batch>& batches, int t,
              std::vector<float>& out, LayerTotals* layers) {
    const auto t0 = Clock::now();
    for (int w = 0; w < kWorld; ++w) {
      r.model.forward_backward(batches[w], grads_[w]);
    }
    const auto t1 = Clock::now();
    r.pipeline.aggregate_over(comm, grad_views(), out,
                              static_cast<std::uint64_t>(t));
    const auto t2 = Clock::now();
    for (std::size_t i = 0; i < dim_; ++i) {
      avg_[i] = out[i] / static_cast<float>(kWorld);
    }
    r.optimizer.step(r.model.params(), avg_);
    const auto t3 = Clock::now();
    if (layers != nullptr) {
      layers->fwd_bwd_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
      layers->optimizer_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t3 - t2)
              .count());
    }
    return ms_between(t0, t3);
  }

  std::array<std::span<const float>, kWorld> grad_views() const {
    return {grads_[0], grads_[1], grads_[2]};
  }

  double timed_step(int r, int t, bool checked) {
    const int s = r % kNumSchemes;
    const auto& batches = batches_[r / kNumSchemes];
    // Clone the codec state the round starts from; the thread-free local
    // reference must reproduce the round's aggregate exactly.
    gcs::core::SchemeCodecPtr clone;
    if (checked && is_rank0()) {
      clone = plain_[r]->pipeline.codec().remap_workers(all_workers(kWorld));
    }
    const bool traced_first = opt_.trace && t % 2 == 1;
    if (traced_first) traced_step(r, batches, t);
    const double ms = step(*plain_[r], ep_.plain, batches, t, out_, nullptr);
    ++sink_.attempted;
    if (is_rank0()) sink_.schemes[s].step_ms.push_back(ms);
    if (!all_finite(out_)) {
      sink_.fail(std::string(kSchemes[s].name) + ": non-finite aggregate");
    }
    if (opt_.trace && !traced_first) traced_step(r, batches, t);
    if (opt_.trace && !same_bits(out_, traced_out_)) {
      sink_.fail(std::string(kSchemes[s].name) +
                 ": traced aggregate differs from untraced");
    }
    if (clone != nullptr) {
      AggregationPipeline reference(std::move(clone));
      reference.aggregate(grad_views(), ref_out_,
                          static_cast<std::uint64_t>(t));
      if (!same_bits(out_, ref_out_)) {
        sink_.fail(std::string(kSchemes[s].name) + " step " +
                   std::to_string(t) +
                   ": aggregate differs from the local reference");
      }
    }
    return ms;
  }

  void traced_step(int r, const std::vector<gcs::train::Batch>& batches,
                   int t) {
    const auto before = reactor_stats(&ep_);
    LayerTotals layers;
    const double ms =
        step(*traced_[r], ep_.traced, batches, t, traced_out_, &layers);
    ++sink_.attempted;
    book_traced_step(ep_.probe, layers, ms, before, &ep_, r % kNumSchemes,
                     is_rank0(), sink_);
  }

  const Options& opt_;
  const gcs::train::MarkovLmDataset& data_;
  Endpoint& ep_;
  RunResult& sink_;
  std::array<std::uint64_t, kTrajectories> model_seed_;
  std::array<std::uint64_t, kTrajectories> batch_offset_;
  std::size_t dim_ = 0;
  std::array<std::vector<gcs::train::Batch>, kTrajectories> batches_;
  std::array<std::vector<float>, kWorld> grads_;
  std::vector<float> out_, traced_out_, ref_out_, avg_;
  std::vector<std::unique_ptr<Replica>> plain_, traced_;
  std::vector<std::uint64_t> param_hashes_;  ///< per replica
};

}  // namespace

RunResult run_train_socket(const Options& opt) {
  const gcs::train::MarkovLmDataset data = make_dataset();
  RunResult result;
  result.trains = true;
  run_work(true,
           [&](Endpoint* ep, RunResult& sink) {
             return std::make_unique<TrainWork>(opt, data, *ep, sink);
           },
           result);
  return result;
}

}  // namespace ub
