#include "harness.h"

#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <iostream>

#include "net/launcher.h"

namespace ub {

namespace {

constexpr int kSetups = 5;
/// Control frames live outside the collectives' tag space (those set bit
/// 63); the low bits carry the cycle index.
constexpr std::uint64_t kCmdTag = std::uint64_t{1} << 62;

gcs::net::SocketFabricConfig fabric_config(const std::string& rendezvous,
                                           int rank) {
  gcs::net::SocketFabricConfig c;
  c.rendezvous = rendezvous;
  c.world_size = kWorld;
  c.rank = rank;
  // A wedged peer fails the run well inside the 180 s a run may take.
  c.recv_timeout_ms = 30000;
  return c;
}

void send_cmd(Endpoint& ep, std::uint64_t cycle, Cmd cmd) {
  for (int dst = 1; dst < kWorld; ++dst) {
    ep.fabric.send(0, dst, kCmdTag | cycle,
                   gcs::ByteBuffer{static_cast<std::byte>(cmd)});
  }
}

Cmd recv_cmd(Endpoint& ep, std::uint64_t cycle) {
  const gcs::comm::Message m =
      ep.fabric.recv(ep.fabric.rank(), 0, kCmdTag | cycle);
  if (m.payload.size() != 1) throw gcs::Error("bad control frame");
  return static_cast<Cmd>(m.payload[0]);
}

/// The timed loop. Rank 0 (`ep` may be null in-process) plans each cycle
/// and tells the peers.
void drive(Work& work, Endpoint* ep) {
  const auto start = Clock::now();
  bool last_done = false;
  for (std::uint64_t c = 0;; ++c) {
    const Cmd cmd = last_done ? Cmd::kStop : work.plan(seconds_since(start));
    if (ep != nullptr) send_cmd(*ep, c, cmd);
    if (cmd == Cmd::kStop) return;
    work.cycle(c, cmd == Cmd::kRunLast);
    last_done = cmd == Cmd::kRunLast;
  }
}

/// Pins the calling thread, and the threads it starts afterwards (a rank's
/// reactor loop, the encode pool), to the cores [first, last]. Ranks on
/// their own cores, as in a deployment, leave one core to the system;
/// left to the scheduler, migrating ranks raised the train step p90 by
/// half on a 4-core host. Too few cores: nothing is pinned.
void pin_to(int first, int last) {
  if (::sysconf(_SC_NPROCESSORS_ONLN) <= kWorld) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c <= last; ++c) CPU_SET(c, &set);
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw gcs::Error("sched_setaffinity failed");
  }
}

}  // namespace

Endpoint::Endpoint(const std::string& rendezvous, int rank)
    : fabric(fabric_config(rendezvous, rank)),
      probe(rank),
      timed(fabric, probe),
      plain(fabric, rank),
      traced(timed, rank) {}

void run_work(bool socket, const MakeWork& make, RunResult& result) {
  for (int i = 0; i < kSetups; ++i) {
    const bool keep = i + 1 == kSetups;
    const auto t0 = Clock::now();
    if (!socket) {
      pin_to(0, kWorld - 1);
      auto work = make(nullptr, result);
      work->setup();
      result.setup_s.push_back(seconds_since(t0));
      if (keep) drive(*work, nullptr);
      continue;
    }
    const std::string rendezvous = rendezvous_address();
    // Children inherit unflushed stdio buffers; flush so nothing prints
    // twice.
    std::cout.flush();
    std::cerr.flush();
    gcs::net::ForkedWorkers peers(1, kWorld, [&](int rank) {
      RunResult local;
      pin_to(rank, rank);
      Endpoint ep(rendezvous, rank);
      auto work = make(&ep, local);
      work->setup();
      for (std::uint64_t c = 0;; ++c) {
        const Cmd cmd = recv_cmd(ep, c);
        if (cmd == Cmd::kStop) break;
        work->cycle(c, cmd == Cmd::kRunLast);
      }
      return work->report();
    });
    pin_to(0, 0);
    Endpoint ep(rendezvous, 0);
    auto work = make(&ep, result);
    work->setup();
    result.setup_s.push_back(seconds_since(t0));
    if (keep) {
      drive(*work, &ep);
    } else {
      send_cmd(ep, 0, Cmd::kStop);
    }
    const std::vector<gcs::ByteBuffer> reports = peers.join();
    if (keep) work->merge(reports);
  }
}

gcs::net::Reactor::Stats reactor_stats(const Endpoint* ep) {
  return ep != nullptr ? ep->fabric.reactor_stats()
                       : gcs::net::Reactor::Stats{};
}

void book_traced_step(Probe& probe, LayerTotals t, double ms,
                      const gcs::net::Reactor::Stats& before,
                      const Endpoint* ep, int s, bool rank0,
                      RunResult& sink) {
  probe.drain(t);
  t.step_ns = static_cast<std::uint64_t>(ms * 1e6);
  t.steps = 1;
  const auto after = reactor_stats(ep);
  t.wakeups = after.wakeups - before.wakeups;
  t.readv_calls = after.readv_calls - before.readv_calls;
  t.flush_calls = after.flush_calls - before.flush_calls;
  // The layers' calls are disjoint intervals inside the step; more
  // attributed time than the step means a double count.
  if (static_cast<double>(t.attributed_ns()) >
      static_cast<double>(t.step_ns) * 1.01 + 20e3) {
    sink.fail(std::string(kSchemes[s].name) + ": layers account for " +
              std::to_string(t.attributed_ns()) + " ns of a " +
              std::to_string(t.step_ns) + " ns step");
  }
  sink.schemes[s].layers.add(t);
  if (rank0) sink.schemes[s].traced_step_ms.push_back(ms);
}

void RunResult::fail(const std::string& why) {
  if (++failed <= 10) std::cerr << "utilitybench: FAILED: " << why << '\n';
}

std::uint64_t hash_bits(std::span<const float> values) {
  // Word-wise FNV-style mix: cheap enough to run on every round's output.
  std::uint64_t h = 1469598103934665603ull;
  const std::size_t words = values.size() / 2;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes + 8 * i, 8);
    h = (h ^ w) * 1099511628211ull;
  }
  if (values.size() % 2 != 0) {
    std::uint32_t w = 0;
    std::memcpy(&w, &values.back(), 4);
    h = (h ^ w) * 1099511628211ull;
  }
  return h;
}

bool all_finite(std::span<const float> values) {
  for (const float v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

std::string rendezvous_address() {
  static std::atomic<int> seq{0};
  return "unix:.bench_build/ub-" + std::to_string(::getpid()) + "-" +
         std::to_string(seq.fetch_add(1));
}

std::vector<int> all_workers(int n) {
  std::vector<int> w(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) w[static_cast<std::size_t>(i)] = i;
  return w;
}

}  // namespace ub
