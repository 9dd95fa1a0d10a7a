// Minimal --key=value command-line parsing for benches and examples.
//
// Deliberately tiny: flags are "--name=value" or "--name value"; "--help"
// prints registered flags. A bare "--name" is boolean true. The parser
// cannot know which flags are boolean, so "--name token" is resolved when
// the flag is read: get_bool() on a token that is not a boolean literal
// reads true and hands the token back to positional(). Unknown flags throw
// from reject_unknown() (a typo silently changing an experiment's
// parameters is the failure mode we care about): a binary reads every flag
// it accepts, then calls it once.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace gcs {

class CliFlags {
 public:
  /// Parses argv. Throws gcs::Error on malformed input.
  CliFlags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Throws gcs::Error naming the first passed flag that no has()/get_*()
  /// call has read. Call once every flag the binary accepts has been read
  /// (including flags only some of its modes use).
  void reject_unknown() const;

  /// True when --help was passed; callers should print usage and exit 0.
  bool help_requested() const noexcept { return help_; }

  /// Positional (non-flag) arguments in order. Read boolean flags first:
  /// "--gate file" only yields "file" here once get_bool("gate") ran.
  std::vector<std::string> positional() const;

 private:
  std::optional<std::string> lookup(const std::string& name) const;

  mutable std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;  ///< names queried so far
  /// Flags given as "--name token" -> argv index of the token.
  mutable std::map<std::string, int> spaced_;
  /// Positional tokens keyed by argv index (keeps command-line order when
  /// get_bool() hands a token back).
  mutable std::map<int, std::string> positional_;
  bool help_ = false;
};

/// reject_unknown() for a main(): prints the error to stderr and exits 1
/// when a passed flag was never read.
void reject_unknown_or_exit(const CliFlags& flags);

/// Splits a comma-separated flag value ("a,b,c"); empty tokens are
/// dropped. The shape every list-valued --flag in the tools uses.
std::vector<std::string> split_csv(const std::string& text);

}  // namespace gcs
