// The client half of the stats plane: one HTTP/1.0 GET against a
// StatsServer (or anything speaking the same dialect), shared by
// tools/gcs_stat (/metrics) and tools/gcs_top (/health).
//
// A scrape must never hang its caller: `timeout_ms` is one deadline for
// the whole exchange (connect, request, every read of the response), so a
// server that accepts and then stays silent fails in bounded time, and the
// response is capped at kHttpGetMaxBytes so a runaway server cannot grow
// the caller without bound.
#pragma once

#include <cstddef>
#include <string>

namespace gcs::telemetry {

/// Largest response (status line, headers and body) http_get accepts.
inline constexpr std::size_t kHttpGetMaxBytes = std::size_t{4} << 20;

/// GETs `path` from `target` ("host:port", port 1..65535) and returns the
/// body of a 200 response. Throws gcs::Error on a malformed target, a
/// connect or read failure, the deadline, a response over
/// kHttpGetMaxBytes, a non-200 status, or a missing header terminator.
std::string http_get(const std::string& target, const std::string& path,
                     int timeout_ms);

}  // namespace gcs::telemetry
