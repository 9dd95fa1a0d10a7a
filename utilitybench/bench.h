// Shared types of the end-to-end utility benchmark (see NOTES.md).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "probes.h"

namespace ub {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};

struct Scheme {
  const char* name;  ///< short name used in metric names
  const char* spec;  ///< core::make_scheme_codec spec
};

/// The five schemes every workload runs, fp16 being the paper's strong
/// baseline.
inline constexpr std::array<Scheme, 5> kSchemes{{
    {"fp16", "fp16"},
    {"topk", "topk:b=8"},
    {"topkc", "topkc:b=8"},
    {"thc", "thc:q=4:b=4:sat:partial"},
    {"powersgd", "powersgd:r=4"},
}};
inline constexpr int kNumSchemes = static_cast<int>(kSchemes.size());

/// Every workload runs a world of 3: the busy threads plus the mostly idle
/// reactor loops fit a 4-core host.
inline constexpr int kWorld = 3;

/// At least this many timed samples per scheme, so that p90 has ten
/// samples beyond it.
inline constexpr std::size_t kMinSamples = 100;

struct SchemeRun {
  std::vector<double> step_ms;         ///< untraced timed steps (rank 0)
  std::vector<double> traced_step_ms;  ///< traced timed steps (rank 0)
  LayerTotals layers;  ///< traced steps, summed over ranks
  double steps_to_target = 0.0;  ///< train_socket only, interpolated
  double tta_wall_s = 0.0;            ///< raw sum of steps to target
  double vnmse = 0.0;                 ///< first timed round (information)
  double bits_per_coordinate = 0.0;   ///< first timed round (information)
};

struct RunResult {
  std::vector<double> setup_s;  ///< one entry per repeated set-up
  std::array<SchemeRun, kNumSchemes> schemes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// train_socket: tta_s = steps-to-target x step p50. Bulk workloads have
  /// no model, so their tta_s is a fixed job of kBulkJobRounds rounds.
  bool trains = false;

  /// Counts one failed check and logs the first few to stderr.
  void fail(const std::string& why);
};

inline constexpr std::uint64_t kBulkJobRounds = 100;

RunResult run_bulk_socket(const Options& opt);
RunResult run_bulk_local(const Options& opt);
RunResult run_train_socket(const Options& opt);

/// 64-bit hash of the exact bits of `values` (bit identity is the claim).
std::uint64_t hash_bits(std::span<const float> values);
bool all_finite(std::span<const float> values);
bool same_bits(std::span<const float> a, std::span<const float> b);
/// Elapsed seconds / milliseconds since `start`.
double seconds_since(Clock::time_point start);
double ms_between(Clock::time_point start, Clock::time_point end);
/// A fresh Unix-domain rendezvous address in the build directory
/// (relative to the working directory, the checkout root).
std::string rendezvous_address();
/// {0, 1, ..., n-1}: the survivor set that makes remap_workers a clone.
std::vector<int> all_workers(int n);

}  // namespace ub
