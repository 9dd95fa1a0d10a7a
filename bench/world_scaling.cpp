// World-size sweep for the socket fabric's epoll reactor.
//
// Spins up in-process SocketFabric worlds over Unix-domain sockets — one
// real endpoint per rank, full-mesh rendezvous, real frames on real
// sockets — and times a ring exchange at growing world sizes, up to 64
// ranks (8 with --quick).
//
// Two numbers matter downstream:
//   * ring_throughput (rounds/s, one row per world) — reported for the
//     record, deliberately NOT gated: absolute loopback throughput is
//     machine noise across CI hosts.
//   * reactor_io_threads_per_rank (summary row) — gated with
//     --lower=...: one I/O thread per endpoint at any world size. Also
//     enforced structurally (exit code) per rank per world, so the ctest
//     fails even where bench_compare never runs.
//
// Gate:
//   bench_compare bench/baselines/BENCH_world_scaling.json
//       BENCH_world_scaling.json
//       --lower=reactor_io_threads_per_rank --tolerance=0.10
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/bytes.h"
#include "net/launcher.h"
#include "net/socket_fabric.h"

namespace {

using namespace gcs;
using namespace gcs::bench;

/// Reusable generation barrier for the rank threads (start/stop lines of
/// the timed window must be crossed together or the clock measures
/// rendezvous stragglers, not the exchange).
class Barrier {
 public:
  explicit Barrier(int n) : n_(n) {}
  void arrive_and_wait() {
    std::unique_lock lock(mu_);
    const std::uint64_t gen = generation_;
    if (++arrived_ == n_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != gen; });
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int n_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
};

struct SweepPoint {
  double rounds_per_s = 0.0;
  int io_threads_per_rank = 0;   ///< max observed across ranks
  bool io_threads_ok = true;     ///< every rank ran exactly one I/O thread
};

/// One sweep point: an n-rank UDS world rings `rounds` times with
/// `payload_bytes` messages; every rank is a genuine SocketFabric
/// endpoint on its own thread.
SweepPoint run_world(int n, int rounds, std::size_t payload_bytes,
                     int warmup) {
  const std::string rendezvous = net::unique_unix_rendezvous();
  Barrier barrier(n);
  std::vector<std::thread> threads;
  std::exception_ptr first_error;
  std::mutex error_mu;
  std::chrono::steady_clock::time_point t0, t1;
  std::atomic<int> max_io_threads{0};
  std::atomic<bool> io_threads_ok{true};

  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        net::SocketFabricConfig config;
        config.rendezvous = rendezvous;
        config.world_size = n;
        config.rank = rank;
        config.recv_timeout_ms = 60000;
        net::SocketFabric fabric(config);

        const int got = fabric.io_threads();
        if (got != 1) io_threads_ok = false;
        int seen = max_io_threads.load();
        while (got > seen && !max_io_threads.compare_exchange_weak(seen, got)) {
        }

        const int next = (rank + 1) % n;
        const int prev = (rank + n - 1) % n;
        const ByteBuffer payload(payload_bytes);
        const auto ring_round = [&](std::uint64_t tag) {
          fabric.send(rank, next, tag, payload);
          (void)fabric.recv(rank, prev, tag);
        };
        for (int r = 0; r < warmup; ++r) {
          ring_round(static_cast<std::uint64_t>(r));
        }
        barrier.arrive_and_wait();
        if (rank == 0) t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < rounds; ++r) {
          ring_round(1000 + static_cast<std::uint64_t>(r));
        }
        barrier.arrive_and_wait();
        if (rank == 0) t1 = std::chrono::steady_clock::now();
        barrier.arrive_and_wait();  // keep every endpoint alive until t1
      } catch (...) {
        std::lock_guard lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);

  SweepPoint point;
  const double seconds =
      std::chrono::duration<double>(t1 - t0).count();
  point.rounds_per_s = seconds > 0.0 ? rounds / seconds : 0.0;
  point.io_threads_per_rank = max_io_threads.load();
  point.io_threads_ok = io_threads_ok.load();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  if (flags.help_requested()) {
    std::cout << "world_scaling: --max-world=<n> --rounds=<n> "
                 "--payload=<bytes> --warmup=<n> --quick\n"
                 "Ring-exchange throughput and I/O-thread census for the\n"
                 "socket fabric's epoll reactor at growing world sizes\n"
                 "(up to --max-world).\n";
    return 0;
  }
  const bool quick = flags.has("quick");
  const int max_world =
      static_cast<int>(flags.get_int("max-world", quick ? 8 : 64));
  const int rounds = static_cast<int>(flags.get_int("rounds", quick ? 10 : 40));
  const auto payload = static_cast<std::size_t>(
      flags.get_int("payload", quick ? 16384 : 65536));
  const int warmup = static_cast<int>(flags.get_int("warmup", quick ? 1 : 3));
  reject_unknown_flags(flags, /*accepts_csv=*/false);

  print_header("World scaling",
               "Ring rounds/s and I/O threads per rank vs world size on "
               "the epoll reactor (O(1) threads)");

  auto& json = bench_json();
  AsciiTable table({"world", "rounds/s", "io threads/rank", "contract"});
  bool structural_ok = true;
  int reactor_max_io_threads = 0;
  for (int world = 2; world <= max_world; world *= 2) {
    const SweepPoint point = run_world(world, rounds, payload, warmup);
    const std::string row = "reactor w=" + std::to_string(world);
    json.set(row, "world", static_cast<double>(world));
    json.set(row, "ring_throughput", point.rounds_per_s);
    json.set(row, "io_threads_per_rank",
             static_cast<double>(point.io_threads_per_rank));
    table.add_row({std::to_string(world),
                   format_sig(point.rounds_per_s, 3),
                   std::to_string(point.io_threads_per_rank),
                   point.io_threads_ok ? "ok" : "VIOLATED"});
    structural_ok = structural_ok && point.io_threads_ok;
    reactor_max_io_threads =
        std::max(reactor_max_io_threads, point.io_threads_per_rank);
  }
  std::cout << table.to_string();

  // The gated figure: the O(1) thread census.
  std::cout << "\nreactor io threads per rank (max over worlds): "
            << reactor_max_io_threads << "\n";
  json.set("summary", "reactor_io_threads_per_rank",
           static_cast<double>(reactor_max_io_threads));
  json.set("summary", "max_world", static_cast<double>(max_world));
  json.write();

  if (!structural_ok || reactor_max_io_threads != 1) {
    std::cerr << "FAIL: reactor I/O threads per rank were not 1 at every "
                 "world size (max seen: "
              << reactor_max_io_threads << ")\n";
    return 1;
  }
  std::cout << "world-scaling structural checks passed (reactor I/O "
               "threads O(1) in world size)\n";
  return 0;
}
