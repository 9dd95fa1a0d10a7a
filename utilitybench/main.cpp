// utilitybench: end-to-end utility benchmark of the aggregation stack.
//
//   utilitybench --workload <bulk_socket|train_socket|bulk_local>
//                --seed <n> --seconds <s> --trace <0|1>
//
// Run it from the checkout root: the rendezvous sockets go in .bench_build/.
//
// Prints information lines starting with '#', then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. NOTES.md
// describes the workloads and every metric.
#include <cpuid.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench.h"
#include "kernels/kernels.h"

namespace ub {
namespace {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Samples per block of step_quantile. With kMinSamples per scheme a bulk
/// run has 4 blocks: over six seeds of bulk_socket, the run-to-run spread
/// of p90 was 0.06-0.11 of the median against 0.10-0.14 with one block.
constexpr std::size_t kBlockSamples = 25;

/// Quantile q of step samples in time order, robust to host contention
/// that comes and goes within a run: the samples split into consecutive
/// blocks of at least kBlockSamples, and the result is the median of the
/// blocks' quantiles.
double step_quantile(const std::vector<double>& v, double q) {
  const std::size_t blocks =
      std::max<std::size_t>(1, v.size() / kBlockSamples);
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b) {
    per_block.push_back(quantile(
        std::vector<double>(v.begin() + b * v.size() / blocks,
                            v.begin() + (b + 1) * v.size() / blocks),
        q));
  }
  return quantile(per_block, 0.5);
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> end_to_end(const RunResult& r) {
  std::vector<Metric> m;
  m.push_back({"setup_s", quantile(r.setup_s, 0.5), "s"});
  for (int s = 0; s < kNumSchemes; ++s) {
    const std::string n = kSchemes[s].name;
    const SchemeRun& run = r.schemes[s];
    const double p50 = step_quantile(run.step_ms, 0.5);
    m.push_back({n + ".step_ms_p50", p50, "ms"});
    m.push_back({n + ".step_ms_p90", step_quantile(run.step_ms, 0.9), "ms"});
    const double steps = r.trains ? run.steps_to_target
                                  : static_cast<double>(kBulkJobRounds);
    m.push_back({n + ".tta_s", steps * p50 / 1e3, "s"});
  }
  return m;
}

std::vector<Metric> per_layer(const RunResult& r) {
  std::vector<Metric> m;
  double traced_p50 = 0.0;
  double plain_p50 = 0.0;
  for (int s = 0; s < kNumSchemes; ++s) {
    const std::string n = std::string(kSchemes[s].name) + ".";
    const SchemeRun& run = r.schemes[s];
    const LayerTotals& t = run.layers;
    const double steps = std::max<double>(1.0, static_cast<double>(t.steps));
    auto ms = [&](std::uint64_t ns) {
      return static_cast<double>(ns) / steps / 1e6;
    };
    auto mean = [&](std::uint64_t count) {
      return static_cast<double>(count) / steps;
    };
    const double calls = static_cast<double>(t.c[kEncodeCalls]);
    m.push_back({n + "step_ms", ms(t.step_ns), "ms"});
    m.push_back({n + "core.begin_ms", ms(t.c[kBeginNs]), "ms"});
    m.push_back({n + "core.encode_ms", ms(t.c[kEncodeNs]), "ms"});
    m.push_back({n + "core.encode_calls", mean(t.c[kEncodeCalls]), "count"});
    m.push_back({n + "core.encode_useful_ratio",
                 calls > 0 ? static_cast<double>(t.c[kUsefulEncodes]) / calls
                           : 0.0,
                 "ratio"});
    m.push_back({n + "core.absorb_ms", ms(t.c[kAbsorbNs]), "ms"});
    m.push_back({n + "core.finish_ms", ms(t.c[kFinishNs]), "ms"});
    m.push_back({n + "comm.reduce_ms", ms(t.c[kReduceNs]), "ms"});
    m.push_back({n + "comm.reduce_bytes", mean(t.c[kReduceBytes]), "B"});
    m.push_back({n + "net.send_ms", ms(t.c[kSendNs]), "ms"});
    m.push_back({n + "net.recv_wait_ms", ms(t.c[kRecvNs]), "ms"});
    m.push_back({n + "net.frames", mean(t.c[kFrames]), "count"});
    m.push_back({n + "net.bytes_sent", mean(t.c[kBytesSent]), "B"});
    m.push_back({n + "net.wakeups", mean(t.wakeups), "count"});
    m.push_back({n + "net.readv_calls", mean(t.readv_calls), "count"});
    m.push_back({n + "net.flush_calls", mean(t.flush_calls), "count"});
    m.push_back({n + "sched.encode_wall_ms", ms(t.encode_wall_ns), "ms"});
    m.push_back({n + "train.fwd_bwd_ms", ms(t.fwd_bwd_ns), "ms"});
    m.push_back({n + "train.optimizer_ms", ms(t.optimizer_ns), "ms"});
    m.push_back({n + "train.steps_to_target", run.steps_to_target, "count"});
    m.push_back({n + "unattributed_ms",
                 (static_cast<double>(t.step_ns) -
                  static_cast<double>(t.attributed_ns())) /
                     steps / 1e6,
                 "ms"});
    traced_p50 += step_quantile(run.traced_step_ms, 0.5);
    plain_p50 += step_quantile(run.step_ms, 0.5);
  }
  m.push_back({"trace.overhead_ratio",
               plain_p50 > 0 ? traced_p50 / plain_p50 : 0.0, "ratio"});
  return m;
}

void print_info(const Options& opt, const RunResult& r) {
  const char* force = std::getenv("GCS_FORCE_SCALAR");
  std::cout << "# utilitybench workload=" << opt.workload
            << " seed=" << opt.seed << " seconds=" << opt.seconds
            << " trace=" << (opt.trace ? 1 : 0) << '\n'
            << "# host nproc=" << ::sysconf(_SC_NPROCESSORS_ONLN)
            << " cpu=\"" << cpu_model()
            << "\" kernels=" << gcs::kernels::backend_name()
            << " GCS_FORCE_SCALAR=" << (force != nullptr ? force : "unset")
            << " build=" << UB_BUILD_TYPE << " compiler=\"" << UB_COMPILER
            << "\"\n";
  std::cout << "# set-ups (s):";
  for (const double s : r.setup_s) std::cout << ' ' << s;
  std::cout << '\n';
  for (int s = 0; s < kNumSchemes; ++s) {
    const SchemeRun& run = r.schemes[s];
    std::cout << "# " << kSchemes[s].name << " (" << kSchemes[s].spec
              << "): samples=" << run.step_ms.size();
    if (opt.trace) std::cout << " traced_samples=" << run.traced_step_ms.size();
    if (r.trains) {
      std::cout << " steps_to_target=" << run.steps_to_target
                << " train.tta_wall_s=" << run.tta_wall_s;
    } else {
      std::cout << " vnmse=" << run.vnmse
                << " bits_per_coordinate=" << run.bits_per_coordinate;
    }
    std::cout << '\n';
  }
}

void print_result(const RunResult& r, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "# " << m.name << " = " << m.value << ' ' << m.unit << '\n';
  }
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    js << (i ? ", " : "") << json_string(metrics[i].name)
       << ": {\"value\": " << v << ", \"unit\": "
       << json_string(metrics[i].unit) << '}';
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

int usage(const char* why) {
  std::cerr << "utilitybench: " << why
            << "\nusage: utilitybench --workload "
               "<bulk_socket|train_socket|bulk_local> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace
}  // namespace ub

int main(int argc, char** argv) {
  using namespace ub;
  Options opt;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1) return usage("odd number of arguments");
  try {
    opt.workload = args.at("--workload");
    opt.seed = std::stoull(args.at("--seed"));
    opt.seconds = std::stoi(args.at("--seconds"));
    opt.trace = std::stoi(args.at("--trace")) != 0;
  } catch (const std::exception&) {
    return usage("missing or malformed argument");
  }
  if (opt.seconds < 1) return usage("--seconds must be at least 1");
  try {
    RunResult r;
    if (opt.workload == "bulk_socket") {
      r = run_bulk_socket(opt);
    } else if (opt.workload == "train_socket") {
      r = run_train_socket(opt);
    } else if (opt.workload == "bulk_local") {
      r = run_bulk_local(opt);
    } else {
      return usage("unknown workload");
    }
    if (r.attempted == 0) throw gcs::Error("no step ran");
    print_info(opt, r);
    print_result(r, opt.trace ? per_layer(r) : end_to_end(r));
  } catch (const std::exception& e) {
    std::cerr << "utilitybench: error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
