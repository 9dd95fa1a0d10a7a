// gcs_stat — poll the in-process stats endpoints of a running job and
// render a live per-rank table.
//
// Each rank of a telemetry-enabled run (gcs_worker --stats-port=<p>, or
// any process that constructed a telemetry::StatsServer) serves the
// Prometheus text exposition over plain HTTP. This tool scrapes one or
// more such endpoints and renders the metrics that matter for "is the
// job healthy" at a glance: rounds completed, codec bytes, wire traffic,
// stale frames, elastic-membership epoch/world.
//
//   gcs_stat --targets=127.0.0.1:9200,127.0.0.1:9201   # poll + table
//   gcs_stat --targets=... --once                      # one scrape, exit
//   gcs_stat --targets=... --once --validate
//            --require=gcs_pipeline_rounds_total       # CI gate
//   gcs_stat --targets=... --once --dump=snapshot.prom # save raw text
//
// Exit status: 0 when every target answered (and, with --validate, every
// exposition parsed and every --require family was present); 1 otherwise.
// Exit-status rules apply to --once only: the polling mode is a monitor,
// so an unreachable target renders as DOWN and is retried with
// exponential backoff (0.5 s doubling to a 5 s cap) until it answers
// again — restarting a rank mid-watch resumes its row, and a transient
// dump-write failure warns instead of killing the session.
// The scrape path is deliberately dependency-free: telemetry::http_get
// (one HTTP/1.0 GET, bounded by --timeout-ms on every read) and a
// line-oriented parse of the text format — the same dialect
// tests/test_telemetry.cpp locks down.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/check.h"
#include "common/table.h"
#include "telemetry/http_get.h"

namespace {

struct Sample {
  std::string name;    // metric family name
  std::string labels;  // raw label block without braces ("" if none)
  double value = 0.0;
};

struct Scrape {
  std::string target;
  bool ok = false;        // connected and got a 200 with a body
  bool parse_ok = false;  // every non-comment line parsed
  std::string error;
  std::string body;  // raw exposition text
  double duration_ms = 0.0;  // connect -> body fully read
  std::vector<Sample> samples;
};

/// Parses one exposition body into samples. Returns false if any
/// non-comment, non-blank line failed to parse (the samples that did
/// parse are still kept).
bool parse_exposition(const std::string& body, std::vector<Sample>* out) {
  bool all_ok = true;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;

    // "name{labels} value" or "name value".
    const auto space = line.rfind(' ');
    if (space == std::string::npos || space == 0) {
      all_ok = false;
      continue;
    }
    Sample s;
    std::string key = line.substr(0, space);
    const std::string value_text = line.substr(space + 1);
    const auto brace = key.find('{');
    if (brace != std::string::npos) {
      if (key.back() != '}') {
        all_ok = false;
        continue;
      }
      s.labels = key.substr(brace + 1, key.size() - brace - 2);
      key = key.substr(0, brace);
    }
    s.name = key;
    try {
      std::size_t used = 0;
      s.value = std::stod(value_text, &used);
      if (used != value_text.size()) {
        all_ok = false;
        continue;
      }
    } catch (const std::exception&) {
      all_ok = false;
      continue;
    }
    out->push_back(std::move(s));
  }
  return all_ok;
}

/// Per-target reconnect state for the polling mode. A target that stops
/// answering is not scraped on every tick — consecutive failures double
/// the retry delay from 500 ms up to a 5 s cap, so a watch session over
/// a half-dead job does not spend its whole interval in connect
/// timeouts. Any successful scrape resets the backoff.
struct Backoff {
  int failures = 0;
  std::chrono::steady_clock::time_point next_attempt{};

  bool should_attempt(std::chrono::steady_clock::time_point now) const {
    return failures == 0 || now >= next_attempt;
  }
  void on_failure(std::chrono::steady_clock::time_point now) {
    constexpr int kBaseMs = 500;
    constexpr int kCapMs = 5000;
    const int shift = failures < 4 ? failures : 4;  // 500ms << 4 > cap
    const int delay_ms = std::min(kBaseMs << shift, kCapMs);
    ++failures;
    next_attempt = now + std::chrono::milliseconds(delay_ms);
  }
  void on_success() {
    failures = 0;
    next_attempt = {};
  }
};

Scrape scrape_target(const std::string& target, int timeout_ms) {
  Scrape s;
  s.target = target;
  const auto start = std::chrono::steady_clock::now();
  try {
    s.body = gcs::telemetry::http_get(target, "/metrics", timeout_ms);
    s.ok = true;
    s.parse_ok = parse_exposition(s.body, &s.samples);
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  s.duration_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return s;
}

/// Sum of every sample of `name` (all label combinations), or 0.
double sum_of(const Scrape& s, const std::string& name) {
  double total = 0.0;
  for (const auto& sample : s.samples) {
    if (sample.name == name) total += sample.value;
  }
  return total;
}

/// The single sample of `name` with an empty (or any) label block;
/// gauges and plain counters have exactly one.
double value_of(const Scrape& s, const std::string& name) {
  for (const auto& sample : s.samples) {
    if (sample.name == name && sample.labels.empty()) return sample.value;
  }
  return sum_of(s, name);
}

std::string fmt_mib(double bytes) {
  return gcs::format_fixed(bytes / (1024.0 * 1024.0), 2);
}

std::string fmt_count(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

void render_table(const std::vector<Scrape>& scrapes) {
  gcs::AsciiTable table({"target", "rounds", "enc MiB", "dec MiB", "sent MiB",
                         "recv MiB", "stale", "epoch", "world", "peer fail"});
  for (const auto& s : scrapes) {
    if (!s.ok) {
      table.add_row({s.target, "DOWN", "-", "-", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    table.add_row({
        s.target,
        fmt_count(value_of(s, "gcs_pipeline_rounds_total")),
        fmt_mib(value_of(s, "gcs_codec_encode_bytes_total")),
        fmt_mib(value_of(s, "gcs_codec_decode_bytes_total")),
        fmt_mib(value_of(s, "gcs_net_sent_bytes_total")),
        fmt_mib(value_of(s, "gcs_net_recv_bytes_total")),
        fmt_count(value_of(s, "gcs_net_stale_frames_rejected_total")),
        fmt_count(value_of(s, "gcs_net_epoch")),
        fmt_count(value_of(s, "gcs_net_world_size")),
        fmt_count(value_of(s, "gcs_net_peer_failures_total")),
    });
  }
  std::cout << table.to_string() << "\n";
}

void print_usage() {
  std::cout <<
      "gcs_stat: scrape and render gcs telemetry endpoints\n"
      "  --targets=<h:p,...>  endpoints to scrape (required)\n"
      "  --interval-ms=<t>    polling period (default 1000)\n"
      "  --timeout-ms=<t>     per-scrape connect/read timeout (default 2000)\n"
      "  --once               scrape once and exit instead of polling\n"
      "  --validate           require every exposition to parse cleanly\n"
      "  --require=<m,...>    metric families that must be present (implies\n"
      "                       --validate semantics for the exit status)\n"
      "  --dump=<path>        write the raw exposition text of every target\n"
      "                       (concatenated; '# gcs_stat' provenance headers\n"
      "                       carry target, scrape duration and a dump\n"
      "                       sequence number)\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    gcs::CliFlags flags(argc, argv);
    if (flags.help_requested()) {
      print_usage();
      return 0;
    }
    const std::string targets_csv = flags.get_string("targets", "");
    const int interval_ms =
        static_cast<int>(flags.get_int("interval-ms", 1000));
    const int timeout_ms = static_cast<int>(flags.get_int("timeout-ms", 2000));
    const bool once = flags.get_bool("once", false);
    const bool validate = flags.get_bool("validate", false);
    const std::vector<std::string> required =
        gcs::split_csv(flags.get_string("require", ""));
    const std::string dump_path = flags.get_string("dump", "");
    flags.reject_unknown();
    if (targets_csv.empty()) {
      print_usage();
      std::cerr << "gcs_stat: --targets is required\n";
      return 1;
    }
    const std::vector<std::string> targets = gcs::split_csv(targets_csv);
    std::uint64_t dump_seq = 0;

    std::vector<Backoff> backoffs(targets.size());

    for (;;) {
      const auto now = std::chrono::steady_clock::now();
      std::vector<Scrape> scrapes;
      scrapes.reserve(targets.size());
      for (std::size_t i = 0; i < targets.size(); ++i) {
        // --once always attempts: a one-shot gate must report reality,
        // not a cached backoff verdict.
        if (!once && !backoffs[i].should_attempt(now)) {
          Scrape skipped;
          skipped.target = targets[i];
          skipped.error = "gcs_stat: " + targets[i] +
                          " down, backing off before reconnect";
          scrapes.push_back(std::move(skipped));
          continue;
        }
        Scrape s = scrape_target(targets[i], timeout_ms);
        if (s.ok) {
          backoffs[i].on_success();
        } else {
          backoffs[i].on_failure(now);
        }
        scrapes.push_back(std::move(s));
      }

      render_table(scrapes);
      for (const auto& s : scrapes) {
        if (!s.ok) std::cerr << "gcs_stat: " << s.error << "\n";
      }

      if (!dump_path.empty()) {
        // Provenance headers: which target each block came from, how long
        // the scrape took, and a monotonic sequence number so successive
        // dumps of a polling session are orderable after the fact.
        std::ofstream dump(dump_path, std::ios::trunc);
        dump << "# gcs_stat dump seq: " << dump_seq++ << "\n";
        for (const auto& s : scrapes) {
          char duration[32];
          std::snprintf(duration, sizeof(duration), "%.3f", s.duration_ms);
          dump << "# gcs_stat target: " << s.target << "\n"
               << "# gcs_stat scrape duration_ms: " << duration << "\n"
               << s.body;
        }
        if (!dump) {
          // Fatal only as a one-shot gate; a polling session keeps
          // watching (the disk filling up should not end the watch).
          std::cerr << "gcs_stat: failed to write " << dump_path << "\n";
          if (once) return 1;
        }
      }

      if (once) {
        bool ok = true;
        for (const auto& s : scrapes) {
          if (!s.ok) {
            ok = false;
            continue;
          }
          if (validate && !s.parse_ok) {
            std::cerr << "gcs_stat: " << s.target
                      << ": exposition did not parse cleanly\n";
            ok = false;
          }
          std::set<std::string> families;
          for (const auto& sample : s.samples) families.insert(sample.name);
          for (const auto& need : required) {
            // A histogram family exposes name_bucket/_sum/_count.
            if (families.count(need) == 0 &&
                families.count(need + "_bucket") == 0) {
              std::cerr << "gcs_stat: " << s.target << ": required family '"
                        << need << "' missing\n";
              ok = false;
            }
          }
        }
        return ok ? 0 : 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  } catch (const std::exception& e) {
    std::cerr << "gcs_stat: " << e.what() << "\n";
    return 1;
  }
}
