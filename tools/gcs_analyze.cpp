// gcs_analyze — the causal profiler's offline half: merge per-rank round
// traces onto one clock-aligned timeline, walk each round's critical
// path, and name the straggler.
//
// Input files are whatever the runtime wrote: extended rank-trace JSON
// (gcs_worker --trace, {"rank","clock","traces"}), legacy {"traces"}
// documents, or flight-recorder post-mortem dumps ({"flight_recorder"}).
// The merge maps every span through its rank's ClockModel, pairs sends
// with recvs into flows, and repairs residual clock error so no effect
// precedes its cause (measure/trace_merge.h).
//
//   gcs_analyze /tmp/t.rank*.json --out=/tmp/analysis
//   gcs_analyze dumps/gcs_flight.rank*.json        # post-mortem triage
//   # the CI gate:
//   gcs_analyze t.rank*.json --gate --require=straggler=2,share>=0.5,flows>=4
//
// Artefacts (under --out, default "."):
//   gcs_merged.chrome.json    flow-annotated merged Chrome trace — one
//                             pid per rank, "s"/"f" arrows per wire hop
//   BENCH_critical_path.json  per-round + total report in the bench
//                             dialect tools/bench_compare.cpp consumes
//
// Exit status: 0 on success; 1 when --gate or a --require clause fails;
// 2 on usage errors. --gate fails on residual causality violations, on
// a flow-less merge, and on any rank that never appears on a flow in
// both directions (a silent rank is a lie in a collective).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "common/table.h"
#include "measure/critical_path.h"
#include "measure/trace_merge.h"
#include "telemetry/chrome_trace.h"

namespace {

using gcs::measure::AnalysisSummary;
using gcs::measure::CostBucket;
using gcs::measure::kCostBuckets;
using gcs::measure::MergeResult;
using gcs::measure::RankTrace;
using gcs::measure::RoundReport;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw gcs::Error("gcs_analyze: cannot read " + path);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

std::string fmt_ms(double seconds) {
  return gcs::format_fixed(seconds * 1e3, 3);
}

std::string fmt_share(double share) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", share * 100.0);
  return buf;
}

/// Ordered (sender rank -> receiver rank) pairs covered by flows.
std::set<std::pair<int, int>> flow_pairs(const MergeResult& merged) {
  std::set<std::pair<int, int>> pairs;
  for (const auto& round : merged.rounds) {
    for (const auto& flow : round.flows) {
      const auto& send =
          round.spans[static_cast<std::size_t>(flow.send_index)];
      const auto& recv =
          round.spans[static_cast<std::size_t>(flow.recv_index)];
      pairs.emplace(send.rank, recv.rank);
    }
  }
  return pairs;
}

void print_report(const MergeResult& merged, const AnalysisSummary& summary) {
  std::cout << "Merged " << merged.ranks.size() << " rank(s), "
            << merged.rounds.size() << " round(s), " << merged.flow_count
            << " wire flow(s)\n";
  std::cout << "Causality: " << merged.violations_before
            << " violation(s) before repair (max "
            << gcs::format_fixed(merged.max_violation_before_s * 1e6, 1)
            << " us), " << merged.violations_after << " after (max "
            << gcs::format_fixed(merged.max_violation_after_s * 1e6, 1)
            << " us)\n";
  for (std::size_t i = 0; i < merged.ranks.size(); ++i) {
    if (merged.shift_s[i] != 0.0) {
      std::cout << "  repair shifted rank " << merged.ranks[i] << " by "
                << gcs::format_fixed(merged.shift_s[i] * 1e6, 1) << " us\n";
    }
  }
  std::cout << '\n';

  gcs::AsciiTable rounds({"round", "makespan ms", "path ms", "compute ms",
                          "wire ms", "incast ms", "stall ms", "straggler",
                          "share"});
  for (const RoundReport& r : summary.rounds) {
    rounds.add_row({std::to_string(r.round), fmt_ms(r.makespan_s),
                    fmt_ms(r.critical_path_s),
                    fmt_ms(r.bucket_s[static_cast<std::size_t>(
                        CostBucket::kCompute)]),
                    fmt_ms(r.bucket_s[static_cast<std::size_t>(
                        CostBucket::kWire)]),
                    fmt_ms(r.bucket_s[static_cast<std::size_t>(
                        CostBucket::kIncastWait)]),
                    fmt_ms(r.bucket_s[static_cast<std::size_t>(
                        CostBucket::kStall)]),
                    std::to_string(r.straggler), fmt_share(r.straggler_share)});
  }
  std::cout << rounds.to_string() << '\n';

  gcs::AsciiTable ranks({"rank", "attributed ms", "slack ms (total)"});
  for (std::size_t i = 0; i < summary.ranks.size(); ++i) {
    double slack = 0.0;
    for (const RoundReport& r : summary.rounds) {
      if (i < r.rank_slack_s.size()) slack += r.rank_slack_s[i];
    }
    ranks.add_row({std::to_string(summary.ranks[i]),
                   fmt_ms(summary.rank_attributed_s[i]), fmt_ms(slack)});
  }
  std::cout << ranks.to_string() << '\n';

  std::cout << "Critical path total: " << fmt_ms(summary.critical_path_s)
            << " ms; straggler: rank " << summary.straggler << " ("
            << fmt_share(summary.straggler_share) << " of path time)\n";
}

/// BENCH_critical_path.json in the bench dialect (flat rows keyed by
/// label) so bench_compare and the driver's artefact tooling read it
/// unchanged.
void write_bench_json(const std::string& dir, const MergeResult& merged,
                      const AnalysisSummary& summary) {
  std::ostringstream os;
  os << "{\n  \"bench\": \"critical_path\",\n  \"rows\": [\n";
  auto row_common = [&os](const char* label) {
    os << "    {\"label\": \"" << label << "\"";
  };
  row_common("merge");
  os << ", \"ranks\": " << merged.ranks.size()
     << ", \"rounds\": " << merged.rounds.size()
     << ", \"flows\": " << merged.flow_count
     << ", \"violations_before\": " << merged.violations_before
     << ", \"violations_after\": " << merged.violations_after
     << ", \"max_violation_after_us\": "
     << merged.max_violation_after_s * 1e6 << "},\n";
  for (const RoundReport& r : summary.rounds) {
    os << "    {\"label\": \"round " << r.round << "\", \"round\": "
       << r.round << ", \"makespan_ms\": " << r.makespan_s * 1e3
       << ", \"path_ms\": " << r.critical_path_s * 1e3;
    for (std::size_t b = 0; b < kCostBuckets; ++b) {
      os << ", \"" << gcs::measure::bucket_name(static_cast<CostBucket>(b))
         << "_ms\": " << r.bucket_s[b] * 1e3;
    }
    os << ", \"straggler\": " << r.straggler
       << ", \"straggler_share\": " << r.straggler_share << "},\n";
  }
  row_common("total");
  os << ", \"path_ms\": " << summary.critical_path_s * 1e3;
  for (std::size_t b = 0; b < kCostBuckets; ++b) {
    os << ", \"" << gcs::measure::bucket_name(static_cast<CostBucket>(b))
       << "_ms\": " << summary.bucket_s[b] * 1e3;
  }
  os << ", \"straggler\": " << summary.straggler
     << ", \"straggler_share\": " << summary.straggler_share << "}\n  ]\n}\n";

  const std::string path = dir + "/BENCH_critical_path.json";
  std::ofstream out(path);
  if (!out) throw gcs::Error("gcs_analyze: cannot write " + path);
  out << os.str();
  std::cout << "(report written to " << path << ")\n";
}

void print_usage() {
  std::cout <<
      "gcs_analyze: merge per-rank traces, find the critical path\n"
      "  gcs_analyze <trace.json...>   rank-trace files (gcs_worker\n"
      "                                --trace output) and/or\n"
      "                                flight-recorder dumps\n"
      "  --out=<dir>          artefact directory (default .)\n"
      "  --no-chrome          skip the merged Chrome trace artefact\n"
      "  --no-repair          report raw alignment, do not shift ranks\n"
      "  --gate               exit 1 on residual causality violations,\n"
      "                       a flow-less merge, or a rank with no flows\n"
      "  --require=<clauses>  comma-separated extra gates:\n"
      "                         straggler=<r>   summary straggler is r\n"
      "                         share>=<f>      straggler share >= f\n"
      "                         flows>=<n>      at least n wire flows\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    gcs::CliFlags flags(argc, argv);
    if (flags.help_requested()) {
      print_usage();
      return 0;
    }
    const bool repair = !flags.get_bool("no-repair", false);
    const std::string out_dir = flags.get_string("out", ".");
    const bool chrome_out = !flags.get_bool("no-chrome", false);
    const bool gate = flags.get_bool("gate", false);
    const std::vector<std::string> required =
        gcs::split_csv(flags.get_string("require", ""));
    flags.reject_unknown();
    const std::vector<std::string>& files = flags.positional();
    if (files.empty()) {
      print_usage();
      std::cerr << "gcs_analyze: no input files\n";
      return 2;
    }

    std::vector<RankTrace> rank_traces;
    for (const std::string& path : files) {
      RankTrace rt = gcs::measure::parse_rank_trace_json(read_file(path));
      rt.source = path;
      if (!rt.dump_reason.empty()) {
        std::cout << "loaded flight dump " << path << " (rank " << rt.rank
                  << ", reason: " << rt.dump_reason << ")\n";
      }
      rank_traces.push_back(std::move(rt));
    }

    gcs::measure::MergeOptions options;
    options.repair_causality = repair;
    const MergeResult merged =
        gcs::measure::merge_rank_traces(rank_traces, options);
    const AnalysisSummary summary = gcs::measure::analyze(merged);
    print_report(merged, summary);

    if (chrome_out) {
      const std::string chrome_path = out_dir + "/gcs_merged.chrome.json";
      std::ofstream chrome(chrome_path);
      if (!chrome) {
        throw gcs::Error("gcs_analyze: cannot write " + chrome_path);
      }
      chrome << gcs::telemetry::merged_chrome_trace_json(merged);
      std::cout << "(merged Chrome trace written to " << chrome_path
                << ")\n";
    }
    write_bench_json(out_dir, merged, summary);

    bool ok = true;
    if (gate) {
      if (merged.violations_after > 0) {
        std::cerr << "GATE: " << merged.violations_after
                  << " residual causality violation(s) after repair\n";
        ok = false;
      }
      if (merged.flow_count == 0) {
        std::cerr << "GATE: no wire flows were paired\n";
        ok = false;
      }
      const auto pairs = flow_pairs(merged);
      for (int rank : merged.ranks) {
        bool sends = false;
        bool recvs = false;
        for (const auto& [src, dst] : pairs) {
          sends |= src == rank;
          recvs |= dst == rank;
        }
        if (!sends || !recvs) {
          std::cerr << "GATE: rank " << rank << " has no "
                    << (sends ? "inbound" : "outbound") << " flow\n";
          ok = false;
        }
      }
    }
    for (const std::string& clause : required) {
      if (clause.rfind("straggler=", 0) == 0) {
        const int want = std::stoi(clause.substr(10));
        if (summary.straggler != want) {
          std::cerr << "REQUIRE: straggler is rank " << summary.straggler
                    << ", wanted rank " << want << "\n";
          ok = false;
        }
      } else if (clause.rfind("share>=", 0) == 0) {
        const double want = std::stod(clause.substr(7));
        if (summary.straggler_share < want) {
          std::cerr << "REQUIRE: straggler share "
                    << gcs::format_fixed(summary.straggler_share, 3)
                    << " < " << gcs::format_fixed(want, 3) << "\n";
          ok = false;
        }
      } else if (clause.rfind("flows>=", 0) == 0) {
        const auto want = static_cast<std::size_t>(std::stoll(clause.substr(7)));
        if (merged.flow_count < want) {
          std::cerr << "REQUIRE: " << merged.flow_count << " flow(s) < "
                    << want << "\n";
          ok = false;
        }
      } else {
        std::cerr << "gcs_analyze: unknown --require clause '" << clause
                  << "'\n";
        return 2;
      }
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "gcs_analyze: " << e.what() << '\n';
    return 1;
  }
}
