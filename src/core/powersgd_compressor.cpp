#include "core/powersgd_compressor.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/error_feedback.h"
#include "kernels/kernels.h"
#include "lowrank/orthogonalize.h"
#include "lowrank/powersgd_step.h"
#include "numeric/half.h"

namespace gcs::core {
namespace {

/// Encodes a float span as FP16 into a growing buffer (bulk kernel pass).
void put_fp16(ByteBuffer& buf, std::span<const float> values) {
  const std::size_t old = buf.size();
  buf.resize(old + values.size() * sizeof(std::uint16_t));
  kernels::active().fp32_to_fp16(
      values.data(), values.size(),
      reinterpret_cast<std::uint16_t*>(buf.data() + old));
}

/// Decodes `count` FP16 values starting at byte `offset`.
void get_fp16(const ByteBuffer& buf, std::size_t offset,
              std::span<float> out) {
  GCS_CHECK(offset + out.size() * 2 <= buf.size());
  kernels::active().fp16_to_fp32(
      reinterpret_cast<const std::uint16_t*>(buf.data() + offset),
      out.size(), out.data());
}

/// Buffers a round fills, owned by the codec so that steady-state rounds
/// allocate nothing but their payloads. Every round rewrites each buffer
/// before reading it, and only finish() touches cross-round state, so a
/// dropped round leaves nothing behind. Two live rounds would share them,
/// so begin_round() refuses a second one (the SchemeCodec contract).
struct PowerSgdBuffers {
  std::vector<std::vector<float>> ys;       ///< per worker: EF-compensated y
  std::vector<std::vector<float>> factor;   ///< per worker: one layer's P or Q
  std::vector<std::vector<float>> p_hats;   ///< per layer: orthonormal P sum
  std::vector<std::vector<float>> q_sums;   ///< per layer: reduced Q sum
  std::vector<std::vector<float>> dense_sums;  ///< per dense layer: sum
};

class PowerSgdCodec;

/// Two dependent FP16 all-reduce stages: phase A carries P = M Q per
/// low-rank layer (dense-exact layers ride along uncompressed); after the
/// reduced P sums are orthonormalized, phase B carries Q = M^T P_hat.
class PowerSgdRound final : public CodecRound {
 public:
  PowerSgdRound(PowerSgdCodec& codec,
                std::span<const std::span<const float>> grads);
  ~PowerSgdRound() override;

  bool next_stage(WireStage& stage) override;
  ByteBuffer encode(int worker) override;
  void absorb_reduced(const ByteBuffer& reduced) override;
  void finish(std::span<float> out, RoundStats& stats) override;

 private:
  enum Stage { kPhaseA = 0, kPhaseB = 1, kDone = 2 };

  PowerSgdCodec& codec_;
  PowerSgdBuffers& buffers_;
  int stage_ = kPhaseA;
};

class PowerSgdCodec final : public SchemeCodec {
 public:
  explicit PowerSgdCodec(const PowerSgdConfig& config)
      : config_(config),
        ef_(config.world_size, config.layout.total_size(),
            config.error_feedback),
        fp16_sum_(comm::make_fp16_sum()) {
    GCS_CHECK(config_.layout.total_size() > 0);
    GCS_CHECK(config_.rank >= 1);
    Rng rng(config_.seed);  // shared: all workers hold identical Q iterates
    for (std::size_t l = 0; l < config_.layout.num_layers(); ++l) {
      const auto& layer = config_.layout.layer(l);
      if (is_low_rank(layer)) {
        states_.push_back(PowerSgdLayerState::init(layer.rows, layer.cols,
                                                   config_.rank, rng));
        const PowerSgdLayerState& st = states_.back();
        phase_a_bytes_ += layer.rows * st.rank * 2;
        phase_b_bytes_ += layer.cols * st.rank * 2;
        max_factor_ =
            std::max(max_factor_, std::max(layer.rows, layer.cols) * st.rank);
      } else {
        states_.push_back(PowerSgdLayerState{});  // dense-exact layer
        phase_a_bytes_ += layer.size() * 2;
      }
    }
  }

  std::string name() const override {
    return "PowerSGD-" + std::to_string(config_.rank);
  }
  AggregationPath path() const override {
    return AggregationPath::kAllReduce;
  }
  int world_size() const override { return config_.world_size; }
  std::size_t dimension() const override {
    return config_.layout.total_size();
  }

  std::unique_ptr<CodecRound> begin_round(
      std::span<const std::span<const float>> grads,
      std::uint64_t /*round*/) override {
    GCS_CHECK_MSG(!round_live_,
                  "PowerSGD codec already has a live round; drop it first");
    auto round = std::make_unique<PowerSgdRound>(*this, grads);
    round_live_ = true;
    return round;
  }

  void reset() override {
    ef_.reset();
    Rng rng(config_.seed);
    for (std::size_t l = 0; l < states_.size(); ++l) {
      const auto& layer = config_.layout.layer(l);
      if (states_[l].rank != 0) {
        states_[l] = PowerSgdLayerState::init(layer.rows, layer.cols,
                                              config_.rank, rng);
      }
    }
  }

  SchemeCodecPtr remap_workers(
      std::span<const int> survivors) const override {
    check_survivor_set(survivors, config_.world_size);
    PowerSgdConfig shrunk = config_;
    shrunk.world_size = static_cast<int>(survivors.size());
    auto codec = std::make_unique<PowerSgdCodec>(shrunk);
    codec->ef_ = ef_.remap(survivors);
    // The Q iterates are shared cluster state (identical on every
    // worker); the warm start survives the membership change as is.
    codec->states_ = states_;
    return codec;
  }

  std::span<const float> ef_memory(int worker) const override {
    if (!ef_.enabled()) return {};
    return ef_.memory(worker);
  }

  const PowerSgdConfig& config() const noexcept { return config_; }
  ErrorFeedback& ef() noexcept { return ef_; }
  const comm::ReduceOp& fp16_sum() const noexcept { return *fp16_sum_; }
  std::vector<PowerSgdLayerState>& states() noexcept { return states_; }
  bool any_low_rank() const noexcept { return phase_b_bytes_ != 0; }
  std::size_t stage_bytes(bool phase_a) const noexcept {
    return phase_a ? phase_a_bytes_ : phase_b_bytes_;
  }

  /// Called by the live round's destructor.
  void end_round() noexcept { round_live_ = false; }

  /// The round buffers, sized on first use and kept across rounds.
  PowerSgdBuffers& round_buffers() {
    const auto n = static_cast<std::size_t>(config_.world_size);
    if (buffers_.ys.size() != n) {
      buffers_.ys.assign(n, std::vector<float>(dimension()));
      buffers_.factor.assign(n, std::vector<float>(max_factor_));
      buffers_.p_hats.resize(states_.size());
      buffers_.q_sums.resize(states_.size());
      buffers_.dense_sums.resize(states_.size());
      for (std::size_t l = 0; l < states_.size(); ++l) {
        const auto& layer = config_.layout.layer(l);
        if (states_[l].rank == 0) {
          buffers_.dense_sums[l].resize(layer.size());
        } else {
          buffers_.p_hats[l].resize(layer.rows * states_[l].rank);
          buffers_.q_sums[l].resize(layer.cols * states_[l].rank);
        }
      }
    }
    return buffers_;
  }

  bool is_low_rank(const LayerSpec& layer) const noexcept {
    // Layers whose smaller side does not exceed r are cheaper to send
    // exactly (the reference implementation's rule for vectors).
    return std::min(layer.rows, layer.cols) > config_.rank;
  }

  std::span<const float> layer_span(std::span<const float> x,
                                    std::size_t l) const {
    return x.subspan(config_.layout.offset(l),
                     config_.layout.layer(l).size());
  }
  std::span<float> layer_span_mut(std::span<float> x, std::size_t l) const {
    return x.subspan(config_.layout.offset(l),
                     config_.layout.layer(l).size());
  }

 private:
  PowerSgdConfig config_;
  ErrorFeedback ef_;
  std::unique_ptr<comm::ReduceOp> fp16_sum_;
  std::vector<PowerSgdLayerState> states_;
  std::size_t phase_a_bytes_ = 0;
  std::size_t phase_b_bytes_ = 0;
  std::size_t max_factor_ = 0;  ///< largest per-layer P or Q, in floats
  PowerSgdBuffers buffers_;
  bool round_live_ = false;  ///< a PowerSgdRound holds buffers_
};

PowerSgdRound::PowerSgdRound(PowerSgdCodec& codec,
                             std::span<const std::span<const float>> grads)
    : codec_(codec), buffers_(codec.round_buffers()) {
  const auto n = static_cast<std::size_t>(codec_.world_size());
  GCS_CHECK(grads.size() == n);
  // EF compensation.
  for (std::size_t w = 0; w < n; ++w) {
    GCS_CHECK(grads[w].size() == codec_.dimension());
    codec_.ef().compensate(static_cast<int>(w), grads[w], buffers_.ys[w]);
  }
}

PowerSgdRound::~PowerSgdRound() { codec_.end_round(); }

bool PowerSgdRound::next_stage(WireStage& stage) {
  if (stage_ >= kDone) return false;
  stage = WireStage{};
  stage.route = AggregationPath::kAllReduce;
  stage.op = &codec_.fp16_sum();
  stage.name = stage_ == kPhaseA ? "p-and-dense" : "q";
  return true;
}

ByteBuffer PowerSgdRound::encode(int worker) {
  const auto w = static_cast<std::size_t>(worker);
  auto& states = codec_.states();
  const std::span<const float> y(buffers_.ys[w]);
  const std::span<float> factor(buffers_.factor[w]);
  ByteBuffer buf;
  buf.reserve(codec_.stage_bytes(stage_ == kPhaseA));
  if (stage_ == kPhaseA) {
    // P = M Q per low-rank layer; dense layers ride along uncompressed
    // (both are FP16 payloads under the same fp16-sum ring).
    for (std::size_t l = 0; l < states.size(); ++l) {
      auto m = codec_.layer_span(y, l);
      if (states[l].rank == 0) {
        put_fp16(buf, m);
      } else {
        auto p = factor.first(states[l].rows * states[l].rank);
        powersgd_compute_p(m, states[l], p);
        put_fp16(buf, p);
      }
    }
    return buf;
  }
  // Phase B: Q = M^T P_hat per low-rank layer.
  for (std::size_t l = 0; l < states.size(); ++l) {
    if (states[l].rank == 0) continue;
    auto q = factor.first(states[l].cols * states[l].rank);
    powersgd_compute_q(codec_.layer_span(y, l), states[l], buffers_.p_hats[l],
                       q);
    put_fp16(buf, q);
  }
  return buf;
}

void PowerSgdRound::absorb_reduced(const ByteBuffer& reduced) {
  auto& states = codec_.states();
  std::size_t offset = 0;
  if (stage_ == kPhaseA) {
    // Orthonormalize each P sum (identical on every worker since the
    // input is identical); stash dense-layer sums.
    for (std::size_t l = 0; l < states.size(); ++l) {
      if (states[l].rank == 0) {
        get_fp16(reduced, offset, buffers_.dense_sums[l]);
        offset += buffers_.dense_sums[l].size() * 2;
      } else {
        auto& p_hat = buffers_.p_hats[l];
        get_fp16(reduced, offset, p_hat);
        offset += p_hat.size() * 2;
        orthogonalize_columns(p_hat, states[l].rows, states[l].rank);
      }
    }
    stage_ = codec_.any_low_rank() ? kPhaseB : kDone;
    return;
  }
  for (std::size_t l = 0; l < states.size(); ++l) {
    if (states[l].rank == 0) continue;
    get_fp16(reduced, offset, buffers_.q_sums[l]);
    offset += buffers_.q_sums[l].size() * 2;
  }
  stage_ = kDone;
}

void PowerSgdRound::finish(std::span<float> out, RoundStats& /*stats*/) {
  const auto& layout = codec_.config().layout;
  const auto n = static_cast<std::size_t>(codec_.world_size());
  auto& states = codec_.states();

  // Reconstruct the aggregated sum estimate and update warm starts.
  for (std::size_t l = 0; l < states.size(); ++l) {
    auto out_slice = codec_.layer_span_mut(out, l);
    if (states[l].rank == 0) {
      std::copy(buffers_.dense_sums[l].begin(), buffers_.dense_sums[l].end(),
                out_slice.begin());
      continue;
    }
    powersgd_reconstruct(states[l], buffers_.p_hats[l], buffers_.q_sums[l],
                         out_slice);
    states[l].q.swap(buffers_.q_sums[l]);  // warm start for the next round
  }

  // EF: memory = y - reconstruction/n on low-rank layers. Dense layers are
  // transmitted exactly (modulo FP16 rounding): their contribution is y
  // itself (y * 1.0f is y), so nothing is left behind.
  if (codec_.ef().enabled()) {
    const float inv_n = 1.0f / static_cast<float>(n);
    const std::span<const float> shared(out);
    for (std::size_t w = 0; w < n; ++w) {
      const std::span<const float> y(buffers_.ys[w]);
      for (std::size_t l = 0; l < states.size(); ++l) {
        auto yw = codec_.layer_span(y, l);
        const bool dense = states[l].rank == 0;
        codec_.ef().absorb(static_cast<int>(w), layout.offset(l), yw,
                           dense ? yw : codec_.layer_span(shared, l),
                           dense ? 1.0f : inv_n);
      }
    }
  }
}

}  // namespace

SchemeCodecPtr make_powersgd_codec(const PowerSgdConfig& config) {
  return std::make_unique<PowerSgdCodec>(config);
}

CompressorPtr make_powersgd(const PowerSgdConfig& config) {
  return make_pipeline_compressor(make_powersgd_codec(config));
}

}  // namespace gcs::core
