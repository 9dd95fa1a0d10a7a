// Transport conformance battery: one parameterized suite, two
// implementations.
//
// Every comm::Transport in the tree — the in-process Fabric and the
// socket fabric on its epoll reactor loop — must present the same
// contract to the collectives: per-(src, dst) FIFO ordering, tagged
// delivery, zero-length frames, exact payload byte meters, monotone
// stats. A divergence here is a transport bug, not a test flake.
//
// Contract points that are *deliberately* implementation-specific get
// socket-only tests with a GTEST_SKIP on the in-process fabric:
//   * out-of-order tag receives (Fabric fails loudly on a head-of-line
//     tag mismatch; the socket fabrics buffer and re-order by design),
//   * typed comm::PeerFailure on peer exit and on recv timeout,
//   * stale-epoch rejection and elastic rebuild() semantics,
//   * io_threads() topology (1 reactor loop at any world size).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/fabric.h"
#include "comm/transport.h"
#include "common/bytes.h"
#include "net/launcher.h"
#include "net/socket_fabric.h"

namespace gcs {
namespace {

/// The transport implementations under conformance test.
enum class Impl {
  kFabric,         ///< comm::Fabric, in-process
  kSocketReactor,  ///< net::SocketFabric, epoll reactor loop
};

const char* impl_name(Impl impl) {
  switch (impl) {
    case Impl::kFabric: return "Fabric";
    case Impl::kSocketReactor: return "SocketReactor";
  }
  return "?";
}

bool is_socket(Impl impl) { return impl != Impl::kFabric; }

ByteBuffer bytes_of(std::initializer_list<int> xs) {
  ByteBuffer b;
  for (int x : xs) b.push_back(static_cast<std::byte>(x));
  return b;
}

/// Reusable thread barrier (std::barrier without the completion step):
/// conformance bodies use it to quiesce a shared fabric before counter
/// surgery, where a message-based barrier would itself leave messages in
/// flight.
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

/// Extra knobs for the socket harness; ignored by the in-process fabric
/// (which has no deadlines and no membership protocol).
struct WorldOptions {
  int recv_timeout_ms = 20000;
  bool elastic = false;
  int rejoin_window_ms = 2000;
};

/// Runs `body(transport, rank)` once per rank, each rank on its own
/// thread. For kFabric all ranks share one comm::Fabric; for the socket
/// impl each rank constructs its own net::SocketFabric endpoint over a
/// fresh Unix-domain rendezvous. The first
/// exception from any rank is rethrown here (after all threads joined);
/// on the shared fabric it also aborts the world so peers blocked on the
/// failed rank's messages cannot deadlock the test.
void run_world(Impl impl, int n,
               const std::function<void(comm::Transport&, int)>& body,
               const WorldOptions& opts = {}) {
  std::vector<std::thread> threads;
  std::exception_ptr first_error;
  std::mutex error_mu;
  const auto note = [&](std::exception_ptr e) {
    std::lock_guard lock(error_mu);
    if (!first_error) first_error = e;
  };

  if (impl == Impl::kFabric) {
    comm::Fabric fabric(n);
    for (int rank = 0; rank < n; ++rank) {
      threads.emplace_back([&, rank] {
        try {
          body(fabric, rank);
        } catch (...) {
          note(std::current_exception());
          fabric.abort();
        }
      });
    }
    for (auto& t : threads) t.join();
  } else {
    const std::string rendezvous = net::unique_unix_rendezvous();
    for (int rank = 0; rank < n; ++rank) {
      threads.emplace_back([&, rank] {
        try {
          net::SocketFabricConfig config;
          config.rendezvous = rendezvous;
          config.world_size = n;
          config.rank = rank;
          config.recv_timeout_ms = opts.recv_timeout_ms;
          config.elastic = opts.elastic;
          config.rejoin_window_ms = opts.rejoin_window_ms;
          net::SocketFabric fabric(config);
          body(fabric, rank);
        } catch (...) {
          note(std::current_exception());
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

class TransportConformance : public ::testing::TestWithParam<Impl> {};

INSTANTIATE_TEST_SUITE_P(
    AllTransports, TransportConformance,
    ::testing::Values(Impl::kFabric, Impl::kSocketReactor),
    [](const ::testing::TestParamInfo<Impl>& info) {
      return impl_name(info.param);
    });

TEST_P(TransportConformance, PerChannelFifoOrdering) {
  // Messages on one (src, dst, tag) stream arrive in send order — the
  // collectives' hop schedules depend on it.
  constexpr int kMessages = 64;
  run_world(GetParam(), 2, [&](comm::Transport& t, int rank) {
    if (rank == 0) {
      for (int i = 0; i < kMessages; ++i) t.send(0, 1, 7, bytes_of({i}));
    } else {
      for (int i = 0; i < kMessages; ++i) {
        const comm::Message m = t.recv(1, 0, 7);
        ASSERT_EQ(m.payload, bytes_of({i})) << "message " << i;
      }
    }
  });
}

TEST_P(TransportConformance, DistinctTagsDeliverInSendOrder) {
  // Receiving tags in the order they were sent works on every transport
  // (no reordering is demanded, so even the strict fabric accepts it).
  run_world(GetParam(), 2, [&](comm::Transport& t, int rank) {
    if (rank == 0) {
      for (int tag = 1; tag <= 4; ++tag) {
        t.send(0, 1, static_cast<std::uint64_t>(tag), bytes_of({tag * 3}));
      }
    } else {
      for (int tag = 1; tag <= 4; ++tag) {
        const comm::Message m =
            t.recv(1, 0, static_cast<std::uint64_t>(tag));
        EXPECT_EQ(m.tag, static_cast<std::uint64_t>(tag));
        EXPECT_EQ(m.payload, bytes_of({tag * 3}));
      }
    }
  });
}

TEST_P(TransportConformance, OutOfOrderTagRecvBuffersOnSocketFabrics) {
  // The socket fabrics park frames by tag so a recv can wait for a later
  // frame while earlier ones sit buffered. The in-process fabric
  // deliberately fails loudly instead (head-of-line tag mismatch is a
  // protocol bug under its strict contract) — skipped, not conformed.
  if (!is_socket(GetParam())) {
    GTEST_SKIP() << "Fabric's strict tag matching rejects reordering";
  }
  run_world(GetParam(), 2, [&](comm::Transport& t, int rank) {
    if (rank == 0) {
      t.send(0, 1, 10, bytes_of({1}));
      t.send(0, 1, 20, bytes_of({2}));
      t.send(0, 1, 30, bytes_of({3}));
    } else {
      EXPECT_EQ(t.recv(1, 0, 30).payload, bytes_of({3}));
      EXPECT_EQ(t.recv(1, 0, 10).payload, bytes_of({1}));
      EXPECT_EQ(t.recv(1, 0, 20).payload, bytes_of({2}));
    }
  });
}

TEST_P(TransportConformance, ZeroLengthPayloadsAreLegalMessages) {
  run_world(GetParam(), 2, [&](comm::Transport& t, int rank) {
    if (rank == 0) {
      t.send(0, 1, 5, ByteBuffer{});
      t.send(0, 1, 5, bytes_of({9}));
    } else {
      EXPECT_TRUE(t.recv(1, 0, 5).payload.empty());
      EXPECT_EQ(t.recv(1, 0, 5).payload, bytes_of({9}));
    }
  });
}

TEST_P(TransportConformance, SelfSendLoopsBack) {
  run_world(GetParam(), 2, [&](comm::Transport& t, int rank) {
    t.send(rank, rank, 42, bytes_of({rank + 1}));
    EXPECT_EQ(t.recv(rank, rank, 42).payload, bytes_of({rank + 1}));
  });
}

TEST_P(TransportConformance, ByteMetersCountExactPayloadBytes) {
  // Meters are payload bytes (framing overhead excluded), symmetric
  // across the pair, and visible through both the raw counters and the
  // uniform stats() snapshot.
  run_world(GetParam(), 2, [&](comm::Transport& t, int rank) {
    const ByteBuffer ping = bytes_of({1, 2, 3});        // 3 bytes
    const ByteBuffer pong = bytes_of({4, 5, 6, 7, 8});  // 5 bytes
    if (rank == 0) {
      t.send(0, 1, 1, ping);
      EXPECT_EQ(t.recv(0, 1, 2).payload, pong);
      EXPECT_EQ(t.bytes_sent(0), 3u);
      EXPECT_EQ(t.bytes_received(0), 5u);
      const comm::TransportStats s = t.stats(0);
      EXPECT_EQ(s.bytes_sent, 3u);
      EXPECT_EQ(s.bytes_received, 5u);
      EXPECT_EQ(s.epoch, 0u);
    } else {
      EXPECT_EQ(t.recv(1, 0, 1).payload, ping);
      t.send(1, 0, 2, pong);
      EXPECT_EQ(t.bytes_sent(1), 5u);
      EXPECT_EQ(t.bytes_received(1), 3u);
    }
  });
}

TEST_P(TransportConformance, StatsAreMonotoneAcrossRounds) {
  run_world(GetParam(), 2, [&](comm::Transport& t, int rank) {
    std::uint64_t last_sent = 0, last_recv = 0;
    const int peer = 1 - rank;
    for (int round = 0; round < 5; ++round) {
      const std::uint64_t tag = 100 + static_cast<std::uint64_t>(round);
      t.send(rank, peer, tag, bytes_of({round, round}));
      (void)t.recv(rank, peer, tag);
      const comm::TransportStats s = t.stats(rank);
      EXPECT_GE(s.bytes_sent, last_sent);
      EXPECT_GE(s.bytes_received, last_recv);
      EXPECT_EQ(s.bytes_sent, 2u * static_cast<std::uint64_t>(round + 1));
      last_sent = s.bytes_sent;
      last_recv = s.bytes_received;
    }
  });
}

TEST_P(TransportConformance, ResetCountersZeroesMetersWhenQuiescent) {
  // reset_counters demands quiescence (the shared fabric throws on
  // undelivered messages), so the ranks synchronize on a thread barrier
  // — a message-based barrier would itself be in flight. On the shared
  // fabric one rank resets for everyone; socket endpoints each own
  // their meters.
  const Impl impl = GetParam();
  Barrier barrier(2);
  run_world(impl, 2, [&](comm::Transport& t, int rank) {
    const int peer = 1 - rank;
    t.send(rank, peer, 3, bytes_of({1}));
    (void)t.recv(rank, peer, 3);
    EXPECT_GT(t.bytes_sent(rank), 0u);
    barrier.arrive_and_wait();  // both deliveries complete
    if (is_socket(impl) || rank == 0) t.reset_counters();
    barrier.arrive_and_wait();  // reset visible everywhere
    EXPECT_EQ(t.bytes_sent(rank), 0u);
    EXPECT_EQ(t.bytes_received(rank), 0u);
  });
}

TEST_P(TransportConformance, PerPeerStatsRowsKeyedByOriginalRank) {
  // Socket endpoints meter per-peer traffic; rows are keyed by the
  // peer's original rank and sorted. The in-process fabric tracks only
  // totals (its stats().peers stays empty) — skipped.
  if (!is_socket(GetParam())) {
    GTEST_SKIP() << "Fabric has no per-peer rows";
  }
  run_world(GetParam(), 3, [&](comm::Transport& t, int rank) {
    for (int peer = 0; peer < 3; ++peer) {
      if (peer == rank) continue;
      t.send(rank, peer, 50 + static_cast<std::uint64_t>(rank),
             bytes_of({rank}));
    }
    for (int peer = 0; peer < 3; ++peer) {
      if (peer == rank) continue;
      (void)t.recv(rank, peer, 50 + static_cast<std::uint64_t>(peer));
    }
    const comm::TransportStats s = t.stats(rank);
    ASSERT_EQ(s.peers.size(), 2u);
    int last = -1;
    for (const auto& row : s.peers) {
      EXPECT_GT(row.original_rank, last);  // sorted, no self row
      EXPECT_NE(row.original_rank, rank);
      EXPECT_EQ(row.bytes_sent, 1u);
      EXPECT_EQ(row.bytes_received, 1u);
      last = row.original_rank;
    }
  });
}

TEST_P(TransportConformance, PeerExitSurfacesTypedPeerFailure) {
  // A peer that exits cleanly turns a blocked recv into comm::PeerFailure
  // naming the failed rank — the exact class elastic recovery catches.
  // The in-process fabric has no peer processes to lose — skipped.
  if (!is_socket(GetParam())) {
    GTEST_SKIP() << "Fabric peers cannot exit";
  }
  run_world(GetParam(), 2, [&](comm::Transport& t, int rank) {
    if (rank == 1) return;  // fabric destructor closes the connection
    try {
      (void)t.recv(0, 1, 9);
      FAIL() << "recv from an exited peer must throw";
    } catch (const comm::PeerFailure& e) {
      EXPECT_EQ(e.peer(), 1);
    }
  });
}

TEST_P(TransportConformance, RecvTimeoutSurfacesTypedPeerFailure) {
  // A silent (alive but not sending) peer must not hang a recv past the
  // configured deadline; the timeout is a PeerFailure, not a generic
  // Error, so elastic callers treat it like any other peer loss.
  if (!is_socket(GetParam())) {
    GTEST_SKIP() << "Fabric recv has no deadline";
  }
  WorldOptions opts;
  opts.recv_timeout_ms = 300;
  run_world(GetParam(), 2, [&](comm::Transport& t, int rank) {
    if (rank == 0) {
      EXPECT_THROW((void)t.recv(0, 1, 9), comm::PeerFailure);
    } else {
      // Stay alive and silent — connection formally open, nothing sent —
      // well past rank 0's deadline, so what rank 0 sees is genuinely
      // the timeout and not this rank's exit EOF.
      (void)t;
      std::this_thread::sleep_for(std::chrono::milliseconds(1200));
    }
  }, opts);
}

TEST_P(TransportConformance, RebuildShrinksWorldAndCountsStaleFrames) {
  // Elastic membership end to end on the public API: rank 2 exits, the
  // survivors catch the PeerFailure, rebuild() into epoch 1 with a dense
  // 2-rank world, and traffic flows in the new epoch. Rank 1 also holds
  // an undelivered epoch-0 frame across the rebuild; teardown must count
  // it as stale-rejected, never deliver it into epoch 1.
  if (!is_socket(GetParam())) {
    GTEST_SKIP() << "Fabric is not elastic";
  }
  WorldOptions opts;
  opts.elastic = true;
  opts.rejoin_window_ms = 1500;
  run_world(GetParam(), 3, [&](comm::Transport& t, int rank) {
    if (rank == 2) {
      // Participate in round 0 so everyone is fully connected, then exit.
      t.send(2, 0, 1, bytes_of({2}));
      t.send(2, 1, 1, bytes_of({2}));
      return;
    }
    (void)t.recv(rank, 2, 1);
    if (rank == 0) {
      // Park a frame at rank 1 that is never received: tag 77 lands
      // first (FIFO), tag 78 is received — so 77 is provably buffered
      // when the epoch tears down.
      t.send(0, 1, 77, bytes_of({7, 7}));
      t.send(0, 1, 78, bytes_of({8}));
    } else {
      EXPECT_EQ(t.recv(1, 0, 78).payload, bytes_of({8}));
    }
    // Rank 2 is gone: the next recv from it fails with the typed error.
    EXPECT_THROW((void)t.recv(rank, 2, 2), comm::PeerFailure);
    const comm::Membership world = t.rebuild(1);
    EXPECT_EQ(world.epoch, 1u);
    ASSERT_EQ(world.world_size(), 2);
    EXPECT_EQ(world.original_ranks, (std::vector<int>{0, 1}));
    // Epoch-1 traffic flows; the parked epoch-0 frame is gone.
    const int peer = 1 - rank;
    t.send(rank, peer, 200, bytes_of({rank + 4}));
    EXPECT_EQ(t.recv(rank, peer, 200).payload, bytes_of({peer + 4}));
    const comm::TransportStats s = t.stats(rank);
    EXPECT_EQ(s.epoch, 1u);
    EXPECT_EQ(s.rebuilds, 1u);
    EXPECT_GE(s.peer_failures, 1u);
    if (rank == 1) EXPECT_GE(s.stale_frames_rejected, 1u);
  }, opts);
}

TEST_P(TransportConformance, IoThreadTopologyMatchesEngine) {
  // The structural point of the reactor: I/O thread count is O(1) in
  // world size — one loop, not one reader thread per peer.
  if (!is_socket(GetParam())) {
    GTEST_SKIP() << "Fabric has no I/O threads";
  }
  const Impl impl = GetParam();
  constexpr int kWorld = 4;
  run_world(impl, kWorld, [&](comm::Transport& t, int rank) {
    auto& fabric = dynamic_cast<net::SocketFabric&>(t);
    EXPECT_EQ(fabric.io_threads(), 1);
    // Quiesce: a full barrier round so no rank tears down while another
    // still counts on its connection.
    for (int peer = 0; peer < kWorld; ++peer) {
      if (peer != rank) t.send(rank, peer, 99, ByteBuffer{});
    }
    for (int peer = 0; peer < kWorld; ++peer) {
      if (peer != rank) (void)t.recv(rank, peer, 99);
    }
  });
}

TEST_P(TransportConformance, ReactorStatsTrackWireActivity) {
  // Reactor-only observability: the loop's wakeup/readv/flush counters
  // move when traffic flows. (The in-process fabric has no reactor.)
  if (GetParam() != Impl::kSocketReactor) {
    GTEST_SKIP() << "reactor counters exist only on the socket fabric";
  }
  run_world(GetParam(), 2, [&](comm::Transport& t, int rank) {
    const int peer = 1 - rank;
    for (int i = 0; i < 8; ++i) {
      t.send(rank, peer, 5, bytes_of({i}));
      (void)t.recv(rank, peer, 5);
    }
    auto& fabric = dynamic_cast<net::SocketFabric&>(t);
    const net::Reactor::Stats s = fabric.reactor_stats();
    EXPECT_GT(s.wakeups, 0u);
    EXPECT_GT(s.readv_calls, 0u);
    // 8 frames of (32-byte header + 1-byte payload) from the peer, at
    // minimum; coalescing may batch them into fewer readv calls.
    EXPECT_GE(s.readv_bytes, 8u * 33u);
    EXPECT_GT(s.flush_calls, 0u);
    EXPECT_GE(s.frames_flushed, 8u);
  });
}

}  // namespace
}  // namespace gcs
