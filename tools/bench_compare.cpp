// bench_compare: the perf-trajectory gate (ROADMAP "Perf trajectory
// tracking").
//
// Compares a freshly produced BENCH_<name>.json against the committed
// baseline under bench/baselines/ and fails (exit 1) when a tracked
// metric regresses by more than the tolerance (default 10%). Only the
// charged columns (time computed analytically by sim/cost_model.h) and
// structural counts are deterministic across machines; a regression
// there is a real change in the modeled system. Measured wall-clock
// columns (throughput, overhead ratios) vary from run to run and host to
// host, so a single comparison against them can fail on noise.
//
// Metric direction is inferred from the key (checked in this order):
//   higher-is-better: rounds_per_second, speedup, hidden, saved, faster,
//                     identical, plus any --higher=<k1,k2,...> keys
//   lower-is-better:  keys containing "ms", "seconds" or ending in "_s",
//                     plus any --lower=<...> keys
// Unclassified numeric metrics are reported but not gated. A row or
// tracked metric present in the baseline but missing from the current
// file is itself a regression (coverage must not silently shrink).
// Metrics only the current file carries are tolerated (new coverage).
//
// A gate that can never fire is a misconfiguration, not a pass: a
// baseline with zero rows (e.g. an accidentally empty or truncated
// file), or whose rows track zero metrics, exits 2 loudly instead of
// reporting "0 regressions".
//
// Usage:
//   bench_compare <baseline.json> <current.json>
//       [--tolerance=0.10] [--higher=k1,k2] [--lower=k3]
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/cli.h"

namespace {

// ----------------------------------------------------------- JSON subset
// Parses exactly the dialect bench_util.h's BenchJson writes: one object
// with "bench" (string) and "rows" (array of flat objects whose values
// are strings, numbers or null). Anything else is a parse error.

struct JsonValue {
  enum class Kind { kString, kNumber, kNull } kind = Kind::kNull;
  std::string text;
  double number = 0.0;
};

struct BenchRow {
  std::string label;
  std::vector<std::pair<std::string, JsonValue>> metrics;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : metrics) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(std::string text) : text_(std::move(text)) {}

  std::vector<BenchRow> parse_bench() {
    std::vector<BenchRow> rows;
    expect('{');
    bool first = true;
    while (!try_consume('}')) {
      if (!first) expect(',');
      first = false;
      const std::string key = parse_string();
      expect(':');
      if (key == "rows") {
        rows = parse_rows();
      } else {
        (void)parse_value();  // "bench" name and future metadata
      }
    }
    return rows;
  }

 private:
  std::vector<BenchRow> parse_rows() {
    std::vector<BenchRow> rows;
    expect('[');
    if (try_consume(']')) return rows;
    do {
      rows.push_back(parse_row());
    } while (try_consume(','));
    expect(']');
    return rows;
  }

  BenchRow parse_row() {
    BenchRow row;
    expect('{');
    bool first = true;
    while (!try_consume('}')) {
      if (!first) expect(',');
      first = false;
      const std::string key = parse_string();
      expect(':');
      JsonValue value = parse_value();
      if (key == "label" && value.kind == JsonValue::Kind::kString) {
        row.label = value.text;
      } else {
        row.metrics.emplace_back(key, std::move(value));
      }
    }
    return row;
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue v;
    if (peek() == '"') {
      v.kind = JsonValue::Kind::kString;
      v.text = parse_string();
      return v;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return v;
    }
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double number = std::strtod(begin, &end);
    if (end == begin) fail("expected a JSON value");
    pos_ += static_cast<std::size_t>(end - begin);
    v.kind = JsonValue::Kind::kNumber;
    v.number = number;
    return v;
  }

  std::string parse_string() {
    if (peek() != '"') fail("expected a string");
    ++pos_;
    std::string out;
    // No skip_ws in here: whitespace inside a string literal is content.
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'u': {
            // BenchJson only emits \u00XX control escapes.
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            const std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            out.push_back(static_cast<char>(
                std::strtol(hex.c_str(), nullptr, 16)));
            break;
          }
          default: fail("unsupported escape");
        }
      } else {
        out.push_back(c);
      }
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool try_consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[noreturn]] void fail(const std::string& what) {
    throw gcs::Error("bench_compare: JSON parse error at byte " +
                     std::to_string(pos_) + ": " + what);
  }

  std::string text_;
  std::size_t pos_ = 0;
};

std::vector<BenchRow> load_bench(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw gcs::Error("bench_compare: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parser(buffer.str()).parse_bench();
}

// ------------------------------------------------------- metric policy

enum class Direction { kHigherIsBetter, kLowerIsBetter, kUntracked };

bool contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

Direction classify(const std::string& key,
                   const std::vector<std::string>& higher,
                   const std::vector<std::string>& lower) {
  for (const auto& k : higher) {
    if (key == k) return Direction::kHigherIsBetter;
  }
  for (const auto& k : lower) {
    if (key == k) return Direction::kLowerIsBetter;
  }
  if (contains(key, "rounds_per_second") || contains(key, "speedup") ||
      contains(key, "hidden") || contains(key, "saved") ||
      contains(key, "faster") || contains(key, "identical")) {
    return Direction::kHigherIsBetter;
  }
  if (contains(key, "ms") || contains(key, "seconds") ||
      (key.size() >= 2 && key.compare(key.size() - 2, 2, "_s") == 0)) {
    return Direction::kLowerIsBetter;
  }
  return Direction::kUntracked;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    gcs::CliFlags flags(argc, argv);
    if (flags.help_requested() || flags.positional().size() != 2) {
      std::cout << "usage: bench_compare <baseline.json> <current.json>"
                   " [--tolerance=0.10] [--higher=k1,k2] [--lower=k3]\n";
      return flags.help_requested() ? 0 : 2;
    }
    const std::string baseline_path = flags.positional()[0];
    const std::string current_path = flags.positional()[1];
    const double tolerance = flags.get_double("tolerance", 0.10);
    const auto higher = gcs::split_csv(flags.get_string("higher", ""));
    const auto lower = gcs::split_csv(flags.get_string("lower", ""));
    flags.reject_unknown();

    const auto baseline = load_bench(baseline_path);
    const auto current = load_bench(current_path);
    if (baseline.empty()) {
      throw gcs::Error("bench_compare: baseline " + baseline_path +
                       " has no rows — an empty gate passes everything; "
                       "regenerate or re-commit the baseline");
    }

    int regressions = 0;
    int tracked = 0;
    for (const auto& base_row : baseline) {
      const BenchRow* cur_row = nullptr;
      for (const auto& r : current) {
        if (r.label == base_row.label) {
          cur_row = &r;
          break;
        }
      }
      if (cur_row == nullptr) {
        std::cout << "REGRESSION  row '" << base_row.label
                  << "' missing from " << current_path << '\n';
        ++regressions;
        continue;
      }
      for (const auto& [key, base_value] : base_row.metrics) {
        if (base_value.kind != JsonValue::Kind::kNumber) continue;
        const Direction dir = classify(key, higher, lower);
        if (dir == Direction::kUntracked) continue;
        ++tracked;
        const JsonValue* cur_value = cur_row->find(key);
        if (cur_value == nullptr ||
            cur_value->kind != JsonValue::Kind::kNumber) {
          std::cout << "REGRESSION  " << base_row.label << " / " << key
                    << ": missing from current run\n";
          ++regressions;
          continue;
        }
        const double b = base_value.number;
        const double c = cur_value->number;
        bool bad = false;
        if (b != 0.0) {
          const double ratio = c / b;
          bad = dir == Direction::kHigherIsBetter
                    ? ratio < 1.0 - tolerance
                    : ratio > 1.0 + tolerance;
        } else {
          // A zero baseline can only regress in the lower-is-better
          // direction (cost appearing where there was none).
          bad = dir == Direction::kLowerIsBetter && c > 0.0;
        }
        if (bad) {
          std::cout << "REGRESSION  " << base_row.label << " / " << key
                    << ": " << b << " -> " << c << " ("
                    << (dir == Direction::kHigherIsBetter ? "want >= "
                                                          : "want <= ")
                    << (dir == Direction::kHigherIsBetter
                            ? b * (1.0 - tolerance)
                            : b * (1.0 + tolerance))
                    << ")\n";
          ++regressions;
        }
      }
    }
    // (regressions from whole-missing rows count even when no metric got
    // as far as classification — those must stay exit 1, not exit 2.)
    if (tracked == 0 && regressions == 0) {
      throw gcs::Error(
          "bench_compare: baseline " + baseline_path +
          " tracks no metrics (no key matches a known direction and no "
          "--higher/--lower was given) — the gate would be vacuous");
    }
    std::cout << "bench_compare: " << tracked << " tracked metric(s), "
              << regressions << " regression(s) beyond "
              << tolerance * 100 << "% ("
              << baseline_path << " vs " << current_path << ")\n";
    return regressions == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
}
