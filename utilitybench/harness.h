// Drives a workload through repeated set-ups and a timed loop, either in
// one process or as an SPMD job over a persistent 3-process socket mesh.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "bench.h"
#include "comm/collectives.h"
#include "net/socket_fabric.h"

namespace ub {

/// One rank's endpoint of the socket mesh. `plain` runs untraced rounds
/// straight on the fabric; `traced` runs them through the timing decorator.
struct Endpoint {
  Endpoint(const std::string& rendezvous, int rank);
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  gcs::net::SocketFabric fabric;
  Probe probe;
  TimedTransport timed;
  gcs::comm::Communicator plain;
  gcs::comm::Communicator traced;
};

/// What rank 0 tells every rank before each cycle.
enum class Cmd : std::uint8_t { kStop, kRun, kRunLast };

/// A workload's per-rank state. Every rank executes setup() and the same
/// sequence of cycle() calls; only rank 0 plans and merges.
class Work {
 public:
  virtual ~Work() = default;
  /// Construction of every scheme's pipeline plus warm-up (timed as set-up).
  virtual void setup() = 0;
  /// Rank 0: what to do next, `elapsed_s` into the timed loop. kRunLast
  /// marks the cycle whose outputs get the final checks.
  virtual Cmd plan(double elapsed_s) = 0;
  virtual void cycle(std::uint64_t index, bool last) = 0;
  /// Peers: what rank 0 needs to cross-check and merge.
  virtual gcs::ByteBuffer report() = 0;
  /// Rank 0: merges the peers' reports (indexed by rank - 1).
  virtual void merge(std::span<const gcs::ByteBuffer> peer_reports) = 0;
};

/// Reactor counters of `ep`'s fabric; zero in-process (`ep` null).
gcs::net::Reactor::Stats reactor_stats(const Endpoint* ep);

/// Books one traced step of scheme `s` that took `ms`: drains `probe` into
/// `t` (fields the probe does not own, such as the train times, are
/// kept), adds the reactor deltas since `before`, counts a failure when
/// the layers account for more than the step, and adds `t` to the
/// scheme's totals (and `ms` to its traced samples on rank 0).
void book_traced_step(Probe& probe, LayerTotals t, double ms,
                      const gcs::net::Reactor::Stats& before,
                      const Endpoint* ep, int s, bool rank0, RunResult& sink);

/// Builds one rank's work; `ep` is null for an in-process workload.
/// Failures and samples go to `sink`.
using MakeWork =
    std::function<std::unique_ptr<Work>(Endpoint* ep, RunResult& sink)>;

/// Sets the workload up kSetups times (recording each set-up time), keeps
/// the last set-up and runs its timed loop. With `socket`, ranks 1 and 2
/// are forked children on every set-up and this process is rank 0.
void run_work(bool socket, const MakeWork& make, RunResult& result);

}  // namespace ub
