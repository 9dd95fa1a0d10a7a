#include "telemetry/http_get.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "net/socket.h"

namespace gcs::telemetry {
namespace {

using Clock = std::chrono::steady_clock;

net::Address parse_target(const std::string& target) {
  const auto colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    throw Error("http_get: target '" + target + "' is not host:port");
  }
  const std::string port_text = target.substr(colon + 1);
  char* end = nullptr;
  errno = 0;
  const long port = std::strtol(port_text.c_str(), &end, 10);
  if (port_text.empty() || *end != '\0' || errno != 0 || port < 1 ||
      port > 65535) {
    throw Error("http_get: target '" + target +
                "' needs a port in 1..65535");
  }
  net::Address addr;
  addr.is_unix = false;
  addr.host = target.substr(0, colon);
  addr.port = static_cast<int>(port);
  return addr;
}

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

}  // namespace

std::string http_get(const std::string& target, const std::string& path,
                     int timeout_ms) {
  const net::Address addr = parse_target(target);
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  net::Socket sock = net::connect_to(addr, timeout_ms);
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: " + target + "\r\n\r\n";
  sock.write_all(request.data(), request.size());

  // Read to EOF (the server closes after one response), waiting for each
  // read no longer than what is left of the deadline.
  std::string response;
  char buf[4096];
  for (;;) {
    pollfd pfd{sock.fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, remaining_ms(deadline));
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw Error("http_get: poll on " + target + " failed: " +
                  std::strerror(errno));
    }
    if (ready == 0) {
      throw Error("http_get: " + target + " sent no complete response within " +
                  std::to_string(timeout_ms) + " ms");
    }
    const ssize_t got = ::read(sock.fd(), buf, sizeof(buf));
    if (got < 0) {
      if (errno == EINTR) continue;
      throw Error("http_get: read from " + target + " failed: " +
                  std::strerror(errno));
    }
    if (got == 0) break;
    if (response.size() + static_cast<std::size_t>(got) > kHttpGetMaxBytes) {
      throw Error("http_get: " + target + " sent more than " +
                  std::to_string(kHttpGetMaxBytes) + " bytes");
    }
    response.append(buf, static_cast<std::size_t>(got));
  }

  const auto eol = response.find("\r\n");
  const std::string status =
      eol == std::string::npos ? response : response.substr(0, eol);
  if (status.find(" 200 ") == std::string::npos) {
    throw Error("http_get: " + target + path + " answered '" + status + "'");
  }
  const auto blank = response.find("\r\n\r\n");
  if (blank == std::string::npos) {
    throw Error("http_get: " + target + " sent no header terminator");
  }
  return response.substr(blank + 4);
}

}  // namespace gcs::telemetry
