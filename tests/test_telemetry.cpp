// Tests for the live telemetry subsystem (src/telemetry/ + DESIGN.md
// "Telemetry layer"):
//   * histogram bucket semantics — boundary round-trips over all 252
//     buckets, zero and UINT64_MAX samples, monotone lower bounds;
//   * shard behaviour — cross-thread merge determinism (a snapshot is a
//     sum, independent of interleaving) and counter monotonicity under
//     concurrent increments;
//   * the off == zero-cost structural invariant — handles acquired while
//     disabled are dead and register nothing;
//   * Prometheus text exposition — TYPE lines, cumulative buckets, +Inf
//     fold, label rendering;
//   * the stats endpoint — a live HTTP scrape against a StatsServer on a
//     kernel-assigned port and on a tests/net_test_util.h ephemeral port;
//   * the scrape client (http_get) — deadline on a silent server, the
//     response cap, non-200 statuses and malformed targets;
//   * Chrome trace export — structural checks on the pid/tid/metadata
//     mapping from measure::RoundTrace;
//   * comm::TransportStats — the default Transport implementation (via
//     the in-process Fabric) and net::SocketFabric's full override.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "comm/fabric.h"
#include "measure/trace.h"
#include "net/launcher.h"
#include "net/socket.h"
#include "net/socket_fabric.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/http_get.h"
#include "telemetry/metrics.h"
#include "telemetry/stats_server.h"
#include "net_test_util.h"

namespace gcs::telemetry {
namespace {

/// Restores the enable state on scope exit — the state is process-global
/// and other suites in this binary must not inherit a test's toggle.
class EnabledGuard {
 public:
  explicit EnabledGuard(bool on) { set_enabled(on); }
  ~EnabledGuard() { set_enabled(false); }
};

/// Unique metric names per test run: the registry is append-only for the
/// process lifetime, so tests must not collide on names.
std::string unique_name(const std::string& stem) {
  static std::atomic<int> seq{0};
  return "test_" + stem + "_" + std::to_string(seq.fetch_add(1));
}

// ---------------------------------------------------------- bucket math

TEST(HistogramBuckets, BoundariesRoundTripForEveryBucket) {
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    const std::uint64_t lo = bucket_lower_bound(i);
    const std::uint64_t hi = bucket_upper_bound(i);
    EXPECT_LE(lo, hi) << "bucket " << i;
    EXPECT_EQ(bucket_index(lo), i) << "lower bound of bucket " << i;
    EXPECT_EQ(bucket_index(hi), i) << "upper bound of bucket " << i;
    if (i > 0) {
      EXPECT_EQ(bucket_upper_bound(i - 1), lo - 1)
          << "buckets " << i - 1 << "/" << i << " must tile";
    }
  }
}

TEST(HistogramBuckets, ZeroAndMaxLandInFirstAndLastBucket) {
  EXPECT_EQ(bucket_index(0), 0u);
  EXPECT_EQ(bucket_index(1), 1u);
  EXPECT_EQ(bucket_index(3), 3u);
  EXPECT_EQ(bucket_index(4), 4u);
  EXPECT_EQ(bucket_index(~std::uint64_t{0}), kHistogramBuckets - 1);
  EXPECT_EQ(bucket_upper_bound(kHistogramBuckets - 1), ~std::uint64_t{0});
}

TEST(HistogramBuckets, RelativeQuantizationErrorIsBounded) {
  // 4 sub-buckets per octave => a bucket spans at most 25% of its lower
  // bound (for v >= 4), the resolution claim in the header.
  for (std::size_t i = 4; i + 1 < kHistogramBuckets; ++i) {
    const double lo = static_cast<double>(bucket_lower_bound(i));
    const double hi = static_cast<double>(bucket_upper_bound(i));
    EXPECT_LE((hi - lo) / lo, 0.25 + 1e-12) << "bucket " << i;
  }
}

// ------------------------------------------------------ metric behaviour

TEST(Telemetry, DisabledAcquisitionIsDeadAndRegistersNothing) {
  EnabledGuard guard(false);
  auto& registry = Registry::instance();
  const std::size_t before = registry.metric_count();
  CounterHandle c = counter(unique_name("dead_counter"));
  GaugeHandle g = gauge(unique_name("dead_gauge"));
  HistogramHandle h = histogram(unique_name("dead_histogram"));
  EXPECT_FALSE(c.live());
  EXPECT_FALSE(g.live());
  EXPECT_FALSE(h.live());
  c.inc(5);
  g.set(7);
  h.observe(9);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(registry.metric_count(), before);
}

TEST(Telemetry, CounterIsMonotoneUnderConcurrentIncrements) {
  EnabledGuard guard(true);
  CounterHandle c = counter(unique_name("mono"));
  ASSERT_TRUE(c.live());

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::atomic<bool> go{false};
  std::atomic<bool> writers_done{false};
  std::atomic<bool> regression{false};

  // A reader polling value() must never observe a decrease: shards are
  // individually monotone and new shards start at zero.
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!writers_done.load(std::memory_order_acquire)) {
      const std::uint64_t now = c.value();
      if (now < last) regression.store(true);
      last = now;
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  writers_done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_FALSE(regression.load());
}

TEST(Telemetry, HistogramMergeAcrossThreadsIsDeterministic) {
  EnabledGuard guard(true);
  // The same multiset of samples, observed from many threads in whatever
  // interleaving the scheduler produces, must merge to the identical
  // snapshot (counts are sums, sum wraps in u64): run the experiment
  // twice and compare everything.
  auto run_once = [&] {
    HistogramHandle h = histogram(unique_name("merge"));
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
      threads.emplace_back([&h, t] {
        for (std::uint64_t i = 0; i < 5000; ++i) {
          h.observe((i * 2654435761u + static_cast<std::uint64_t>(t)) %
                    1000000);
        }
      });
    }
    for (auto& th : threads) th.join();
    return h.snapshot();
  };

  const Histogram::Snapshot a = run_once();
  const Histogram::Snapshot b = run_once();
  EXPECT_EQ(a.count, 6u * 5000u);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(Telemetry, HistogramObservesZeroAndMax) {
  EnabledGuard guard(true);
  HistogramHandle h = histogram(unique_name("edges"));
  ASSERT_TRUE(h.live());
  h.observe(0);
  h.observe(~std::uint64_t{0});
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[kHistogramBuckets - 1], 1u);
  // 0 + (2^64 - 1) wraps to 2^64 - 1 exactly.
  EXPECT_EQ(snap.sum, ~std::uint64_t{0});
}

// ------------------------------------------------------------ exposition

TEST(Telemetry, PrometheusTextRendersAllThreeKinds) {
  EnabledGuard guard(true);
  const std::string cname = unique_name("prom_counter");
  const std::string gname = unique_name("prom_gauge");
  const std::string hname = unique_name("prom_hist");
  CounterHandle c = counter(cname, label_kv("peer", 2));
  GaugeHandle g = gauge(gname);
  HistogramHandle h = histogram(hname);
  c.inc(41);
  c.inc();
  g.set(-7);
  h.observe(0);
  h.observe(5);
  h.observe(5);

  const std::string text = Registry::instance().prometheus_text();
  EXPECT_NE(text.find("# TYPE " + cname + " counter"), std::string::npos);
  EXPECT_NE(text.find(cname + "{peer=\"2\"} 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE " + gname + " gauge"), std::string::npos);
  EXPECT_NE(text.find(gname + " -7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE " + hname + " histogram"), std::string::npos);
  // Cumulative buckets: le="0" sees the zero sample, le="5" all three.
  EXPECT_NE(text.find(hname + "_bucket{le=\"0\"} 1"), std::string::npos);
  EXPECT_NE(text.find(hname + "_bucket{le=\"5\"} 3"), std::string::npos);
  EXPECT_NE(text.find(hname + "_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find(hname + "_sum 10"), std::string::npos);
  EXPECT_NE(text.find(hname + "_count 3"), std::string::npos);
}

// --------------------------------------------------------- stats server

/// GET /metrics from 127.0.0.1:port through the tools' client.
std::string scrape(int port) {
  return http_get("127.0.0.1:" + std::to_string(port), "/metrics", 2000);
}

TEST(StatsServer, ServesPrometheusTextOnKernelAssignedPort) {
  EnabledGuard guard(true);
  const std::string cname = unique_name("served");
  counter(cname).inc(3);

  StatsServer server(0);  // port 0: kernel assigns
  ASSERT_GT(server.port(), 0);
  const std::string body = scrape(server.port());
  EXPECT_NE(body.find(cname + " 3"), std::string::npos);
  EXPECT_NE(body.find("# TYPE"), std::string::npos);
  server.stop();
  EXPECT_GE(server.scrapes_served(), 1u);
}

TEST(StatsServer, ServesOnEphemeralTestPort) {
  EnabledGuard guard(true);
  const std::string cname = unique_name("served_eph");
  counter(cname).inc(9);

  const int port = net::ephemeral_tcp_port();
  StatsServer server(port);
  EXPECT_EQ(server.port(), port);
  const std::string body = scrape(port);
  EXPECT_NE(body.find(cname + " 9"), std::string::npos);
}

/// Raw HTTP/1.0 exchange returning the full response (status line
/// included), for the routing assertions scrape() hides.
std::string raw_request(int port, const std::string& request) {
  net::Address addr;
  addr.is_unix = false;
  addr.host = "127.0.0.1";
  addr.port = port;
  net::Socket sock = net::connect_to(addr, 2000);
  sock.write_all(request.data(), request.size());
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::read(sock.fd(), buf, sizeof(buf));
    if (got < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("read failed: ") + std::strerror(errno));
    }
    if (got == 0) break;
    response.append(buf, static_cast<std::size_t>(got));
  }
  return response;
}

TEST(StatsServer, RoutesHealthzRootAndUnknownTargets) {
  EnabledGuard guard(true);
  const std::string cname = unique_name("routed");
  counter(cname).inc(1);

  StatsServer server(0);
  ASSERT_GT(server.port(), 0);

  // /healthz is a liveness probe: 200 "ok" without the registry text.
  const std::string health =
      raw_request(server.port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);
  EXPECT_EQ(health.find(cname), std::string::npos);

  // "/" and a bare (legacy) request both serve the exposition text.
  const std::string root =
      raw_request(server.port(), "GET / HTTP/1.0\r\n\r\n");
  EXPECT_NE(root.find("200 OK"), std::string::npos);
  EXPECT_NE(root.find(cname), std::string::npos);
  const std::string legacy = raw_request(server.port(), "\r\n\r\n");
  EXPECT_NE(legacy.find(cname), std::string::npos);

  // Query strings do not change the route.
  const std::string query = raw_request(
      server.port(), "GET /metrics?x=1 HTTP/1.0\r\n\r\n");
  EXPECT_NE(query.find("200 OK"), std::string::npos);
  EXPECT_NE(query.find(cname), std::string::npos);

  // Anything else is a 404, not a metrics dump.
  const std::string missing =
      raw_request(server.port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos);
  EXPECT_NE(missing.find("not found\n"), std::string::npos);
  EXPECT_EQ(missing.find(cname), std::string::npos);
}

// ------------------------------------------------------------ http_get

/// A loopback listener that serves exactly one connection with `serve`
/// on its own thread (errors from a client hanging up are swallowed).
class OneShotServer {
 public:
  explicit OneShotServer(std::function<void(net::Socket&)> serve) {
    net::Address addr;
    addr.is_unix = false;
    addr.host = "127.0.0.1";
    listener_ = net::listen_on(addr, /*backlog=*/1);
    target_ = "127.0.0.1:" + std::to_string(addr.port);
    thread_ = std::thread([this, serve = std::move(serve)] {
      try {
        net::Socket conn = net::accept_from(listener_, 10000);
        serve(conn);
      } catch (const Error&) {
      }
    });
  }
  ~OneShotServer() { thread_.join(); }
  const std::string& target() const { return target_; }

 private:
  net::Socket listener_;
  std::string target_;
  std::thread thread_;
};

/// Reads until the client closes its end.
void drain_until_eof(net::Socket& conn) {
  char buf[4096];
  while (::read(conn.fd(), buf, sizeof(buf)) > 0) {
  }
}

/// Reads one request up to its blank line, as StatsServer does, so that
/// closing the connection afterwards sends a FIN rather than a reset.
void read_request(net::Socket& conn) {
  std::string request;
  char c;
  while (request.find("\r\n\r\n") == std::string::npos &&
         conn.read_exact(&c, 1)) {
    request.push_back(c);
  }
}

template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "no gcs::Error thrown";
  return "";
}

TEST(HttpGet, SilentServerFailsWithinTheDeadline) {
  // Accepts, then never answers: the deadline must cover the reads, not
  // only the connect.
  OneShotServer server(drain_until_eof);
  const auto start = std::chrono::steady_clock::now();
  const std::string error =
      error_of([&] { (void)http_get(server.target(), "/metrics", 200); });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_NE(error.find("within 200 ms"), std::string::npos) << error;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(HttpGet, OversizedResponseIsCapped) {
  OneShotServer server([](net::Socket& conn) {
    read_request(conn);
    const std::string head = "HTTP/1.0 200 OK\r\n\r\n";
    conn.write_all(head.data(), head.size());
    const std::string body(kHttpGetMaxBytes, 'x');
    conn.write_all(body.data(), body.size());
  });
  const std::string error =
      error_of([&] { (void)http_get(server.target(), "/metrics", 10000); });
  EXPECT_NE(error.find("more than"), std::string::npos) << error;
}

TEST(HttpGet, NonOkStatusThrows) {
  OneShotServer server([](net::Socket& conn) {
    read_request(conn);
    const std::string reply =
        "HTTP/1.0 503 Service Unavailable\r\n\r\nno provider\n";
    conn.write_all(reply.data(), reply.size());
  });
  const std::string error =
      error_of([&] { (void)http_get(server.target(), "/health", 10000); });
  EXPECT_NE(error.find("503 Service Unavailable"), std::string::npos)
      << error;
}

TEST(HttpGet, MalformedTargetsThrowTypedErrors) {
  for (const char* target :
       {"localhost", ":9200", "127.0.0.1:", "127.0.0.1:abc",
        "127.0.0.1:0", "127.0.0.1:65536", "127.0.0.1:-1", "127.0.0.1:92x"}) {
    EXPECT_THROW((void)http_get(target, "/metrics", 100), Error) << target;
  }
}

// --------------------------------------------------------- chrome trace

measure::RoundTrace example_trace(std::uint64_t round, int rank) {
  measure::RoundTrace t;
  t.round = round;
  t.scheme = "topkc:b=8";
  t.backend = "socket";
  auto span = [&](measure::Phase phase, const char* label, int worker,
                  int peer, double s0, double s1) {
    measure::TraceSpan sp;
    sp.phase = phase;
    sp.label = label;
    sp.rank = rank;
    sp.worker = worker;
    sp.peer = peer;
    sp.bytes = 128;
    sp.start_s = s0;
    sp.end_s = s1;
    t.spans.push_back(sp);
  };
  span(measure::Phase::kRound, "round", -1, -1, 0.0, 1e-3);
  span(measure::Phase::kStage, "stage0", -1, -1, 0.0, 9e-4);
  span(measure::Phase::kEncode, "stage0", -1, -1, 0.0, 2e-4);
  span(measure::Phase::kEncode, "stage0", 1, -1, 0.0, 2e-4);
  span(measure::Phase::kSend, "", -1, 1, 3e-4, 4e-4);
  span(measure::Phase::kRecv, "", -1, 1, 3e-4, 5e-4);
  span(measure::Phase::kDecode, "finish", -1, -1, 9e-4, 1e-3);
  return t;
}

TEST(ChromeTrace, EmitsEventsAndMetadataWithStablePidTidMapping) {
  std::vector<measure::RoundTrace> traces;
  traces.push_back(example_trace(0, 2));
  traces.push_back(example_trace(1, 2));
  const std::string json = chrome_trace_json(traces, /*default_rank=*/2);

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One process per rank, named.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 2\""), std::string::npos);
  // Thread lanes: pipeline, encode worker lanes, wire lanes.
  EXPECT_NE(json.find("\"pipeline\""), std::string::npos);
  EXPECT_NE(json.find("\"encode (caller)\""), std::string::npos);
  EXPECT_NE(json.find("\"encode worker 1\""), std::string::npos);
  EXPECT_NE(json.find("\"send -> peer 1\""), std::string::npos);
  EXPECT_NE(json.find("\"recv <- peer 1\""), std::string::npos);
  // Complete events with microsecond timestamps.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);

  // Structural sanity: braces and brackets balance (cheap well-formedness
  // check without a JSON parser).
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ChromeTrace, LaterRoundsAreShiftedPastEarlierOnes) {
  std::vector<measure::RoundTrace> traces;
  traces.push_back(example_trace(0, 0));
  traces.push_back(example_trace(1, 0));
  const std::string json = chrome_trace_json(traces, 0);
  // Round 0's envelope starts at ts 0; round 1's must start strictly
  // after round 0 ended (1000 us + the 50 us inter-round gap).
  const auto first = json.find("\"ts\": 0,");
  EXPECT_NE(first, std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1050,"), std::string::npos);
}

// ------------------------------------------------------- transport stats

TEST(TransportStats, DefaultImplementationCoversEpochAndByteTotals) {
  comm::Fabric fabric(2);
  fabric.send(0, 1, 7, ByteBuffer(16));
  (void)fabric.recv(1, 0, 7);
  const comm::TransportStats s0 = fabric.stats(0);
  const comm::TransportStats s1 = fabric.stats(1);
  EXPECT_EQ(s0.epoch, 0u);
  EXPECT_EQ(s0.bytes_sent, 16u);
  EXPECT_EQ(s0.bytes_received, 0u);
  EXPECT_EQ(s1.bytes_received, 16u);
  EXPECT_TRUE(s0.peers.empty());  // the default tracks no per-peer rows
  EXPECT_EQ(s0.stale_frames_rejected, 0u);
}

TEST(TransportStats, SocketFabricTracksPerPeerTraffic) {
  const std::string rendezvous = net::unique_unix_rendezvous();
  constexpr int kWorld = 3;
  std::vector<std::thread> threads;
  std::exception_ptr first_error;
  std::mutex error_mu;
  for (int rank = 0; rank < kWorld; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        net::SocketFabricConfig config;
        config.rendezvous = rendezvous;
        config.world_size = kWorld;
        config.rank = rank;
        config.recv_timeout_ms = 20000;
        net::SocketFabric fabric(config);
        // Everyone sends (rank+1) * 10 bytes to every other rank.
        for (int dst = 0; dst < kWorld; ++dst) {
          if (dst == rank) continue;
          fabric.send(rank, dst, 100 + static_cast<std::uint64_t>(rank),
                      ByteBuffer(static_cast<std::size_t>((rank + 1) * 10)));
        }
        for (int src = 0; src < kWorld; ++src) {
          if (src == rank) continue;
          const comm::Message m =
              fabric.recv(rank, src, 100 + static_cast<std::uint64_t>(src));
          EXPECT_EQ(m.payload.size(),
                    static_cast<std::size_t>((src + 1) * 10));
        }
        const comm::TransportStats s = fabric.stats(rank);
        EXPECT_EQ(s.epoch, 0u);
        EXPECT_EQ(s.bytes_sent,
                  static_cast<std::uint64_t>((rank + 1) * 10 * (kWorld - 1)));
        ASSERT_EQ(s.peers.size(), static_cast<std::size_t>(kWorld - 1));
        int last_rank = -1;
        for (const auto& peer : s.peers) {
          EXPECT_GT(peer.original_rank, last_rank);  // sorted
          last_rank = peer.original_rank;
          EXPECT_EQ(peer.bytes_sent,
                    static_cast<std::uint64_t>((rank + 1) * 10));
          EXPECT_EQ(peer.bytes_received,
                    static_cast<std::uint64_t>((peer.original_rank + 1) * 10));
        }
        EXPECT_EQ(s.stale_frames_rejected, 0u);
        EXPECT_EQ(s.peer_failures, 0u);
        EXPECT_EQ(s.rebuilds, 0u);
      } catch (...) {
        std::lock_guard lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace
}  // namespace gcs::telemetry
