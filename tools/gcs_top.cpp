// gcs_top — cluster-wide live health dashboard over the /health plane.
//
// Where gcs_stat scrapes the raw Prometheus exposition, gcs_top asks the
// per-rank HealthMonitor the already-digested question: "are you OK?".
// Each telemetry-enabled worker (gcs_worker --health --stats-port=<p>)
// serves a one-line JSON health summary at GET /health; this tool polls
// N such endpoints and renders one row per rank: round rate, wire
// throughput, queue depth, health status/score, active anomalies and
// watchdog stalls. Unreachable ranks render as DOWN and keep being
// retried — a dead rank is a finding, not an error.
//
//   gcs_top --targets=127.0.0.1:9200,127.0.0.1:9201          # live table
//   gcs_top --targets=... --once                             # one scrape
//   gcs_top --targets=... --once
//           --expect=0:healthy,1:stalled                     # CI gate
//   gcs_top --targets=... --once --expect-anomaly=2:send_latency:24
//           --expect-clean=0:send_latency                    # detector gate
//
// Gating grammar (each flag takes a comma-separated clause list):
//   --expect=IDX:CLASS       CLASS one of ok|warn|degraded|stalled|down,
//                            or the rollups healthy (= ok|warn) and
//                            unhealthy (= degraded|stalled|down)
//   --expect-anomaly=IDX:SIGNAL[:MAXROUND]
//                            rank IDX must have >=1 detection of SIGNAL;
//                            with MAXROUND, the first detection must have
//                            landed at round <= MAXROUND (latency bound)
//   --expect-clean=IDX:SIGNAL
//                            rank IDX must have zero detections of SIGNAL
//
// Exit status with --once: 0 when every expectation held, 1 otherwise.
// Without expectations, --once exits 0 iff every target answered.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/check.h"
#include "common/json.h"
#include "common/table.h"
#include "telemetry/http_get.h"

namespace {

/// One anomaly entry as reported by /health.
struct Anomaly {
  std::string signal;
  int peer = -1;
  bool local = false;
  bool active = false;
  std::uint64_t count = 0;
  std::uint64_t first_round = 0;
  std::uint64_t last_round = 0;
};

struct Health {
  std::string target;
  bool ok = false;  // connected, 200, JSON parsed
  std::string error;
  int rank = -1;
  std::string status;  // ok|warn|degraded|stalled
  double score = 0.0;
  std::uint64_t rounds_total = 0;
  double round_rate_hz = 0.0;
  double tx_bytes_per_s = 0.0;
  double rx_bytes_per_s = 0.0;
  std::int64_t queue_depth = 0;
  std::int64_t epoch = 0;
  std::int64_t world_size = 0;
  std::uint64_t stalls_total = 0;
  std::vector<std::string> active_stalls;  // "lane(peer N)"
  std::vector<Anomaly> anomalies;
};

Health scrape_health(const std::string& target, int timeout_ms) {
  Health h;
  h.target = target;
  try {
    const gcs::json::Value doc = gcs::json::parse(
        gcs::telemetry::http_get(target, "/health", timeout_ms));
    if (!doc.is_object()) throw gcs::Error("health body is not an object");
    h.rank = static_cast<int>(doc.num_or("rank", -1));
    h.status = doc.str_or("status", "?");
    h.score = doc.num_or("score", 0.0);
    h.rounds_total = static_cast<std::uint64_t>(doc.num_or("rounds_total", 0));
    h.round_rate_hz = doc.num_or("round_rate_hz", 0.0);
    h.tx_bytes_per_s = doc.num_or("tx_bytes_per_s", 0.0);
    h.rx_bytes_per_s = doc.num_or("rx_bytes_per_s", 0.0);
    h.queue_depth = static_cast<std::int64_t>(doc.num_or("queue_depth", 0));
    h.epoch = static_cast<std::int64_t>(doc.num_or("epoch", 0));
    h.world_size = static_cast<std::int64_t>(doc.num_or("world_size", 0));
    if (const gcs::json::Value* wd = doc.find("watchdog")) {
      h.stalls_total =
          static_cast<std::uint64_t>(wd->num_or("stalls_total", 0));
      if (const gcs::json::Value* active = wd->find("active");
          active != nullptr && active->is_array()) {
        for (const auto& stall : active->items) {
          const int peer = static_cast<int>(stall.num_or("peer", -1));
          std::string desc = stall.str_or("lane", "?");
          if (peer >= 0) desc += "(peer " + std::to_string(peer) + ")";
          h.active_stalls.push_back(std::move(desc));
        }
      }
    }
    if (const gcs::json::Value* anomalies = doc.find("anomalies");
        anomalies != nullptr && anomalies->is_array()) {
      for (const auto& a : anomalies->items) {
        Anomaly entry;
        entry.signal = a.str_or("signal", "?");
        entry.peer = static_cast<int>(a.num_or("peer", -1));
        entry.local = a.find("local") != nullptr && a.find("local")->boolean;
        entry.active = a.find("active") != nullptr && a.find("active")->boolean;
        entry.count = static_cast<std::uint64_t>(a.num_or("count", 0));
        entry.first_round =
            static_cast<std::uint64_t>(a.num_or("first_round", 0));
        entry.last_round =
            static_cast<std::uint64_t>(a.num_or("last_round", 0));
        h.anomalies.push_back(std::move(entry));
      }
    }
    h.ok = true;
  } catch (const std::exception& e) {
    h.error = e.what();
  }
  return h;
}

std::string fmt_rate_mib(double bytes_per_s) {
  return gcs::format_fixed(bytes_per_s / (1024.0 * 1024.0), 2);
}

std::string fmt_hz(double hz) { return gcs::format_fixed(hz, 1); }

/// "send_latency(p2)x3* queue_wait x1" — '*' marks a currently-active
/// detection, the count is total detections so far.
std::string summarize_anomalies(const Health& h) {
  std::string out;
  for (const auto& a : h.anomalies) {
    if (a.count == 0) continue;
    if (!out.empty()) out += ' ';
    out += a.signal;
    if (a.peer >= 0) out += "(p" + std::to_string(a.peer) + ")";
    out += "x" + std::to_string(a.count);
    if (a.active) out += '*';
  }
  return out.empty() ? "-" : out;
}

std::string summarize_watchdog(const Health& h) {
  if (h.stalls_total == 0) return "-";
  std::string out = std::to_string(h.stalls_total);
  for (const auto& stall : h.active_stalls) out += " " + stall;
  return out;
}

void render_table(const std::vector<Health>& healths, bool clear_screen) {
  gcs::AsciiTable table({"rank", "target", "status", "score", "rounds",
                         "rate/s", "tx MiB/s", "rx MiB/s", "queue", "epoch",
                         "world", "anomalies", "watchdog"});
  for (std::size_t i = 0; i < healths.size(); ++i) {
    const Health& h = healths[i];
    if (!h.ok) {
      table.add_row({std::to_string(i), h.target, "DOWN", "-", "-", "-", "-",
                     "-", "-", "-", "-", "-", "-"});
      continue;
    }
    table.add_row({
        h.rank >= 0 ? std::to_string(h.rank) : std::to_string(i),
        h.target,
        h.status,
        gcs::format_fixed(h.score, 1),
        std::to_string(h.rounds_total),
        fmt_hz(h.round_rate_hz),
        fmt_rate_mib(h.tx_bytes_per_s),
        fmt_rate_mib(h.rx_bytes_per_s),
        std::to_string(h.queue_depth),
        std::to_string(h.epoch),
        std::to_string(h.world_size),
        summarize_anomalies(h),
        summarize_watchdog(h),
    });
  }
  if (clear_screen) std::cout << "\033[2J\033[H";
  std::cout << table.to_string() << std::flush;
}

/// One parsed --expect / --expect-anomaly / --expect-clean clause.
struct Expectation {
  enum class Kind { kStatus, kAnomaly, kClean } kind = Kind::kStatus;
  std::size_t index = 0;       // position in --targets
  std::string what;            // status class or signal name
  std::uint64_t max_round = 0; // kAnomaly: latency bound; 0 = unbounded
};

Expectation parse_expectation(const std::string& spec, Expectation::Kind kind,
                              const char* flag) {
  Expectation e;
  e.kind = kind;
  const auto first = spec.find(':');
  if (first == std::string::npos || first == 0) {
    throw gcs::Error(std::string("gcs_top: ") + flag + "='" + spec +
                     "' is not IDX:VALUE");
  }
  e.index = static_cast<std::size_t>(std::stoul(spec.substr(0, first)));
  std::string rest = spec.substr(first + 1);
  if (kind == Expectation::Kind::kAnomaly) {
    const auto second = rest.find(':');
    if (second != std::string::npos) {
      e.max_round = std::stoull(rest.substr(second + 1));
      rest = rest.substr(0, second);
    }
  }
  if (rest.empty()) {
    throw gcs::Error(std::string("gcs_top: ") + flag + "='" + spec +
                     "' names no value");
  }
  e.what = rest;
  return e;
}

/// True when the scraped status satisfies the expected class.
bool status_matches(const Health& h, const std::string& want) {
  const std::string got = h.ok ? h.status : "down";
  if (want == "healthy") return got == "ok" || got == "warn";
  if (want == "unhealthy") {
    return got == "degraded" || got == "stalled" || got == "down";
  }
  return got == want;
}

/// Evaluates one expectation, appending a human-readable failure line to
/// `failures` when it does not hold.
bool check_expectation(const Expectation& e, const std::vector<Health>& healths,
                       std::vector<std::string>* failures) {
  if (e.index >= healths.size()) {
    failures->push_back("expectation names rank index " +
                        std::to_string(e.index) + " but only " +
                        std::to_string(healths.size()) + " targets given");
    return false;
  }
  const Health& h = healths[e.index];
  const std::string who = "rank " + std::to_string(e.index) + " (" + h.target +
                          ")";
  switch (e.kind) {
    case Expectation::Kind::kStatus: {
      if (status_matches(h, e.what)) return true;
      failures->push_back(who + ": expected status '" + e.what + "', got '" +
                          (h.ok ? h.status : "down") + "'");
      return false;
    }
    case Expectation::Kind::kAnomaly: {
      if (!h.ok) {
        failures->push_back(who + ": expected anomaly '" + e.what +
                            "' but target is down");
        return false;
      }
      for (const auto& a : h.anomalies) {
        if (a.signal != e.what || a.count == 0) continue;
        if (e.max_round != 0 && a.first_round > e.max_round) {
          failures->push_back(who + ": anomaly '" + e.what +
                              "' first fired at round " +
                              std::to_string(a.first_round) +
                              ", bound was round " +
                              std::to_string(e.max_round));
          return false;
        }
        return true;
      }
      failures->push_back(who + ": expected anomaly '" + e.what +
                          "' never detected");
      return false;
    }
    case Expectation::Kind::kClean: {
      if (!h.ok) {
        failures->push_back(who + ": expected clean '" + e.what +
                            "' but target is down");
        return false;
      }
      for (const auto& a : h.anomalies) {
        if (a.signal == e.what && a.count > 0) {
          failures->push_back(who + ": expected zero '" + e.what +
                              "' detections, found " +
                              std::to_string(a.count));
          return false;
        }
      }
      return true;
    }
  }
  return false;  // unreachable
}

void print_usage() {
  std::cout <<
      "gcs_top: live cluster health dashboard over /health endpoints\n"
      "  --targets=<h:p,...>      endpoints to poll (required)\n"
      "  --interval-ms=<t>        polling period (default 1000)\n"
      "  --timeout-ms=<t>         per-scrape timeout (default 2000)\n"
      "  --once                   scrape once, evaluate gates, exit\n"
      "  --no-clear               do not clear the screen between refreshes\n"
      "  --expect=IDX:CLASS,...   gate: rank IDX status must match CLASS\n"
      "                           (ok|warn|degraded|stalled|down|healthy|\n"
      "                           unhealthy); comma-separated clause list\n"
      "  --expect-anomaly=IDX:SIGNAL[:MAXROUND]\n"
      "                           gate: rank IDX detected SIGNAL (first\n"
      "                           detection at or before round MAXROUND)\n"
      "  --expect-clean=IDX:SIGNAL\n"
      "                           gate: rank IDX has zero SIGNAL detections\n";
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
    const bool no_clear = flags.get_bool("no-clear", false);

    std::vector<Expectation> expectations;
    for (const auto& spec : gcs::split_csv(flags.get_string("expect", ""))) {
      expectations.push_back(
          parse_expectation(spec, Expectation::Kind::kStatus, "--expect"));
    }
    for (const auto& spec :
         gcs::split_csv(flags.get_string("expect-anomaly", ""))) {
      expectations.push_back(parse_expectation(
          spec, Expectation::Kind::kAnomaly, "--expect-anomaly"));
    }
    for (const auto& spec :
         gcs::split_csv(flags.get_string("expect-clean", ""))) {
      expectations.push_back(
          parse_expectation(spec, Expectation::Kind::kClean, "--expect-clean"));
    }
    flags.reject_unknown();
    if (targets_csv.empty()) {
      print_usage();
      std::cerr << "gcs_top: --targets is required\n";
      return 1;
    }
    const std::vector<std::string> targets = gcs::split_csv(targets_csv);

    for (;;) {
      std::vector<Health> healths;
      healths.reserve(targets.size());
      for (const auto& target : targets) {
        healths.push_back(scrape_health(target, timeout_ms));
      }

      render_table(healths, /*clear_screen=*/!once && !no_clear);
      for (const auto& h : healths) {
        if (!h.ok) std::cerr << "gcs_top: " << h.error << "\n";
      }

      if (once) {
        bool ok = true;
        std::vector<std::string> failures;
        for (const auto& e : expectations) {
          if (!check_expectation(e, healths, &failures)) ok = false;
        }
        if (expectations.empty()) {
          for (const auto& h : healths) {
            if (!h.ok) ok = false;
          }
        }
        for (const auto& f : failures) {
          std::cerr << "gcs_top: GATE FAIL: " << f << "\n";
        }
        if (!expectations.empty()) {
          std::cout << (ok ? "gcs_top: all gates passed\n"
                           : "gcs_top: gates FAILED\n");
        }
        return ok ? 0 : 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  } catch (const std::exception& e) {
    std::cerr << "gcs_top: " << e.what() << "\n";
    return 1;
  }
}
