// Tests for the real-socket transport: framing, rendezvous, tag-indexed
// reassembly, zero-length payloads, peer-exit and timeout behaviour, and
// byte-meter parity with the in-process fabric.
#include "net/socket_fabric.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>

#include "comm/chunked_collectives.h"
#include "comm/fabric.h"
#include "comm/group.h"
#include "common/check.h"
#include "net/framing.h"
#include "net/launcher.h"
#include "net/rendezvous.h"
#include "net_test_util.h"

namespace gcs::net {
namespace {

ByteBuffer bytes_of(std::initializer_list<int> xs) {
  ByteBuffer b;
  for (int x : xs) b.push_back(static_cast<std::byte>(x));
  return b;
}

/// Runs one body per rank on its own thread, each rank constructing its
/// own SocketFabric endpoint — the in-process stand-in for real worker
/// processes (which tests/test_socket_pipeline.cpp and the launcher
/// cover).
void run_socket_ranks(
    int n, const std::function<void(SocketFabric&, int)>& body,
    int recv_timeout_ms = 20000) {
  const std::string rendezvous = unique_unix_rendezvous();
  std::vector<std::thread> threads;
  std::exception_ptr first_error;
  std::mutex error_mu;
  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        SocketFabricConfig config;
        config.rendezvous = rendezvous;
        config.world_size = n;
        config.rank = rank;
        config.recv_timeout_ms = recv_timeout_ms;
        SocketFabric fabric(config);
        body(fabric, rank);
      } catch (...) {
        std::lock_guard lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

TEST(Framing, RoundTripsTagsAndPayloads) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket a(fds[0]), b(fds[1]);

  const ByteBuffer payload = bytes_of({1, 2, 3, 4, 5});
  write_frame(a, 7, 0, 42, payload);
  write_frame(a, 7, 0, 43, {});  // zero-length payloads are legal frames

  FrameHeader header;
  ByteBuffer received;
  ASSERT_TRUE(read_frame(b, header, received));
  EXPECT_EQ(header.src_rank, 7u);
  EXPECT_EQ(header.epoch, 0u);
  EXPECT_EQ(header.tag, 42u);
  EXPECT_EQ(received, payload);
  ASSERT_TRUE(read_frame(b, header, received));
  EXPECT_EQ(header.tag, 43u);
  EXPECT_TRUE(received.empty());

  a.close();  // clean EOF at a frame boundary
  EXPECT_FALSE(read_frame(b, header, received));
}

TEST(Framing, ScatterGatherWritePutsExactBytesOnTheWire) {
  // write_frame sends header+payload via one sendmsg; the stream must be
  // byte-for-byte the documented GCSF layout (little-endian magic,
  // src_rank, epoch, tag, length, then the raw payload) — the framing
  // contract peers parse against, independent of how many syscalls
  // produced it.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket a(fds[0]), b(fds[1]);

  const ByteBuffer payload = bytes_of({0xde, 0xad, 0xbe, 0xef, 0x42});
  const std::uint32_t src_rank = 0x01020304u;
  const std::uint64_t epoch = 0x0a0b0c0d0e0f1011ull;
  const std::uint64_t tag = 0x1122334455667788ull;
  write_frame(a, src_rank, epoch, tag, payload);

  ByteBuffer wire(kFrameHeaderBytes + payload.size());
  ASSERT_TRUE(b.read_exact(wire.data(), wire.size()));

  ByteBuffer expected;
  ByteWriter w(expected);
  w.put<std::uint32_t>(kFrameMagic);
  w.put<std::uint32_t>(src_rank);
  w.put<std::uint64_t>(epoch);
  w.put<std::uint64_t>(tag);
  w.put<std::uint64_t>(payload.size());
  w.put_bytes(payload);
  EXPECT_EQ(wire, expected);

  // The scatter-gather path and a manual two-part write_all produce the
  // identical stream.
  a.write_all(expected.data(), kFrameHeaderBytes);
  a.write_all(expected.data() + kFrameHeaderBytes, payload.size());
  FrameHeader got;
  ByteBuffer got_payload;
  ASSERT_TRUE(read_frame(b, got, got_payload));
  EXPECT_EQ(got.src_rank, src_rank);
  EXPECT_EQ(got.epoch, epoch);
  EXPECT_EQ(got.tag, tag);
  EXPECT_EQ(got_payload, payload);
}

TEST(Framing, ScatterGatherHandlesLargePayloads) {
  // Payloads beyond the socket buffer force partial sendmsg returns; the
  // iovec rebuild must resume mid-payload without corrupting the stream.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket a(fds[0]), b(fds[1]);

  ByteBuffer payload(1 << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 2654435761u >> 13);
  }
  std::thread writer([&] { write_frame(a, 3, 1, 99, payload); });
  FrameHeader header;
  ByteBuffer received;
  ASSERT_TRUE(read_frame(b, header, received));
  writer.join();
  EXPECT_EQ(header.src_rank, 3u);
  EXPECT_EQ(header.epoch, 1u);
  EXPECT_EQ(header.tag, 99u);
  EXPECT_EQ(received, payload);
}

TEST(Framing, BadMagicThrows) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket a(fds[0]), b(fds[1]);
  const char garbage[kFrameHeaderBytes] = "not a frame header, padding..";
  a.write_all(garbage, sizeof(garbage));
  FrameHeader header;
  ByteBuffer payload;
  EXPECT_THROW(read_frame(b, header, payload), Error);
}

TEST(Framing, PropertyRandomizedPartialWritesRoundTripBitIdentically) {
  // Property test: a randomized sequence of frames — interleaved tags,
  // epochs, payload sizes from empty to multi-segment — written through
  // an adversarial byte-dribbler (random split points force every
  // possible short read inside headers and payloads) must round-trip
  // bit-identically and in order. 32 seeded trials.
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull);
    const int frames = 1 + static_cast<int>(rng() % 12);
    struct Sent {
      std::uint32_t src;
      std::uint64_t epoch;
      std::uint64_t tag;
      ByteBuffer payload;
    };
    std::vector<Sent> sent;
    ByteBuffer stream;
    {
      // Serialize through a real socketpair to reuse write_frame
      // verbatim, collecting the exact byte stream it produces.
      int fds[2];
      ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
      Socket w(fds[0]), r(fds[1]);
      std::size_t total = 0;
      for (int f = 0; f < frames; ++f) {
        Sent s;
        s.src = static_cast<std::uint32_t>(rng() % 16);
        s.epoch = rng() % 4;
        s.tag = rng();  // interleaved, arbitrary tags
        s.payload.resize(static_cast<std::size_t>(rng() % 4096));
        for (auto& byte : s.payload) {
          byte = static_cast<std::byte>(rng() & 0xff);
        }
        write_frame(w, s.src, s.epoch, s.tag, s.payload);
        total += kFrameHeaderBytes + s.payload.size();
        sent.push_back(std::move(s));
      }
      stream.resize(total);
      ASSERT_TRUE(r.read_exact(stream.data(), stream.size()));
    }

    // Replay the identical bytes in random dribbles from another thread;
    // the reader must reassemble every frame exactly.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Socket w(fds[0]), r(fds[1]);
    std::thread dribbler([&, seed] {
      std::mt19937_64 chop(seed ^ 0xdeadbeefull);
      std::size_t at = 0;
      while (at < stream.size()) {
        const std::size_t n =
            std::min<std::size_t>(1 + chop() % 97, stream.size() - at);
        w.write_all(stream.data() + at, n);
        at += n;
      }
      w.close();  // clean EOF at the final frame boundary
    });
    for (const auto& s : sent) {
      FrameHeader header;
      ByteBuffer payload;
      ASSERT_TRUE(read_frame(r, header, payload)) << "seed " << seed;
      EXPECT_EQ(header.src_rank, s.src) << "seed " << seed;
      EXPECT_EQ(header.epoch, s.epoch) << "seed " << seed;
      EXPECT_EQ(header.tag, s.tag) << "seed " << seed;
      EXPECT_EQ(payload, s.payload) << "seed " << seed;
    }
    FrameHeader header;
    ByteBuffer payload;
    EXPECT_FALSE(read_frame(r, header, payload)) << "seed " << seed;
    dribbler.join();
  }
}

TEST(Address, ParsesAndRejects) {
  const Address unix_addr = Address::parse("unix:/tmp/x");
  EXPECT_TRUE(unix_addr.is_unix);
  EXPECT_EQ(unix_addr.path, "/tmp/x");
  const Address tcp_addr = Address::parse("tcp:127.0.0.1:29500");
  EXPECT_FALSE(tcp_addr.is_unix);
  EXPECT_EQ(tcp_addr.host, "127.0.0.1");
  EXPECT_EQ(tcp_addr.port, 29500);
  EXPECT_THROW(Address::parse("udp:127.0.0.1:1"), Error);
  EXPECT_THROW(Address::parse("tcp:127.0.0.1"), Error);
  EXPECT_THROW(Address::parse("tcp:127.0.0.1:99999"), Error);
  EXPECT_THROW(Address::parse("unix:"), Error);
}

TEST(SocketFabric, DeliversBothDirectionsAndMeters) {
  run_socket_ranks(2, [](SocketFabric& fabric, int rank) {
    comm::Communicator comm(fabric, rank);
    if (rank == 0) {
      comm.send(1, 5, bytes_of({10, 20, 30}));
      const auto msg = comm.recv(1, 6);
      EXPECT_EQ(msg.payload, bytes_of({40}));
      EXPECT_EQ(fabric.bytes_sent(0), 3u);
      EXPECT_EQ(fabric.bytes_received(0), 1u);
    } else {
      const auto msg = comm.recv(0, 5);
      EXPECT_EQ(msg.payload, bytes_of({10, 20, 30}));
      comm.send(0, 6, bytes_of({40}));
      EXPECT_EQ(fabric.bytes_received(1), 3u);
      EXPECT_EQ(fabric.bytes_sent(1), 1u);
    }
  });
}

TEST(SocketFabric, ReassemblesInterleavedTagStreams) {
  // Chunked collectives put several tagged streams in flight on one
  // connection; the receiver may ask for them in any order. The per-peer
  // reader must park early frames by tag instead of failing the way the
  // strict in-process fabric does on a head-of-line mismatch.
  run_socket_ranks(2, [](SocketFabric& fabric, int rank) {
    comm::Communicator comm(fabric, rank);
    if (rank == 0) {
      comm.send(1, 101, bytes_of({1}));
      comm.send(1, 102, bytes_of({2}));
      comm.send(1, 103, bytes_of({3}));
    } else {
      EXPECT_EQ(comm.recv(0, 103).payload, bytes_of({3}));
      EXPECT_EQ(comm.recv(0, 101).payload, bytes_of({1}));
      EXPECT_EQ(comm.recv(0, 102).payload, bytes_of({2}));
    }
  });
}

TEST(SocketFabric, ZeroLengthPayloadRoundTrips) {
  run_socket_ranks(2, [](SocketFabric& fabric, int rank) {
    comm::Communicator comm(fabric, rank);
    if (rank == 0) {
      comm.send(1, 9, ByteBuffer{});
    } else {
      const auto msg = comm.recv(0, 9);
      EXPECT_TRUE(msg.payload.empty());
      EXPECT_EQ(msg.tag, 9u);
      EXPECT_EQ(fabric.bytes_received(1), 0u);
    }
  });
}

TEST(SocketFabric, RecvAfterPeerExitThrowsCleanly) {
  run_socket_ranks(2, [](SocketFabric& fabric, int rank) {
    comm::Communicator comm(fabric, rank);
    if (rank == 0) {
      // Say goodbye and exit; the fabric destructor closes the mesh.
      comm.send(1, 1, bytes_of({1}));
    } else {
      EXPECT_EQ(comm.recv(0, 1).payload, bytes_of({1}));
      // Rank 0 is gone (or going); waiting for a frame that will never
      // come must produce a loud error, not a hang.
      try {
        (void)comm.recv(0, 2);
        FAIL() << "recv after peer exit should throw";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("closed"), std::string::npos)
            << e.what();
      }
    }
  });
}

TEST(SocketFabric, RecvTimesOutInsteadOfHanging) {
  std::atomic<bool> done{false};
  run_socket_ranks(
      2,
      [&](SocketFabric& fabric, int rank) {
        comm::Communicator comm(fabric, rank);
        if (rank == 0) {
          // Stay alive (so no EOF) until rank 1 has timed out.
          while (!done.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        } else {
          try {
            (void)comm.recv(0, 77);
            FAIL() << "recv with no sender should time out";
          } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("timed out"),
                      std::string::npos)
                << e.what();
          }
          done.store(true);
        }
      },
      /*recv_timeout_ms=*/200);
}

TEST(SocketFabric, SelfSendLoopsBack) {
  run_socket_ranks(1, [](SocketFabric& fabric, int rank) {
    comm::Communicator comm(fabric, rank);
    comm.send(0, 3, bytes_of({9}));
    EXPECT_EQ(comm.recv(0, 3).payload, bytes_of({9}));
    EXPECT_EQ(fabric.bytes_sent(0), 1u);
    EXPECT_EQ(fabric.bytes_received(0), 1u);
  });
}

TEST(SocketFabric, OwnsOnlyLocalRank) {
  run_socket_ranks(2, [](SocketFabric& fabric, int rank) {
    const int other = 1 - rank;
    EXPECT_THROW(fabric.send(other, rank, 1, ByteBuffer{}),
                 std::logic_error);
    EXPECT_THROW((void)fabric.bytes_sent(other), std::logic_error);
  });
}

TEST(SocketFabric, ResetCountersFailsWithUnmatchedFrames) {
  run_socket_ranks(2, [](SocketFabric& fabric, int rank) {
    comm::Communicator comm(fabric, rank);
    if (rank == 0) {
      comm.send(1, 50, bytes_of({1}));
      comm.send(1, 51, bytes_of({2}));
      (void)comm.recv(1, 60);
    } else {
      // Receive the second tag only; tag 50 stays parked in the
      // reassembly buffer, so a counter reset must refuse.
      EXPECT_EQ(comm.recv(0, 51).payload, bytes_of({2}));
      EXPECT_THROW(fabric.reset_counters(), Error);
      EXPECT_EQ(comm.recv(0, 50).payload, bytes_of({1}));
      fabric.reset_counters();  // drained now — allowed
      EXPECT_EQ(fabric.bytes_sent(1), 0u);
      comm.send(0, 60, bytes_of({3}));
    }
  });
}

TEST(SocketFabric, ChunkedRingMatchesInProcessFabricBytesAndValues) {
  // The same chunked collective over both transports: identical reduced
  // payloads and identical per-rank wire meters (the byte-identity
  // contract every socket mesh running aggregate_over relies on).
  const int n = 3;
  const std::size_t floats = 256;
  std::vector<ByteBuffer> inputs(n);
  for (int r = 0; r < n; ++r) {
    ByteWriter w(inputs[static_cast<std::size_t>(r)]);
    for (std::size_t i = 0; i < floats; ++i) {
      w.put<float>(static_cast<float>(r + 1) * 0.25f *
                   static_cast<float>(i % 17));
    }
  }
  const auto op = comm::make_fp32_sum();
  const auto chunks =
      comm::chunk_payload(inputs[0].size(), 128, op->granularity());

  comm::Fabric fabric(n);
  std::vector<ByteBuffer> in_process = inputs;
  comm::run_workers(fabric, [&](comm::Communicator& comm) {
    comm::chunked_ring_all_reduce(
        comm, in_process[static_cast<std::size_t>(comm.rank())], chunks,
        *op);
  });

  std::vector<ByteBuffer> over_sockets = inputs;
  std::vector<std::uint64_t> sent(n), received(n);
  run_socket_ranks(n, [&](SocketFabric& sf, int rank) {
    comm::Communicator comm(sf, rank);
    comm::chunked_ring_all_reduce(
        comm, over_sockets[static_cast<std::size_t>(rank)], chunks, *op);
    sent[static_cast<std::size_t>(rank)] = sf.bytes_sent(rank);
    received[static_cast<std::size_t>(rank)] = sf.bytes_received(rank);
  });

  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(over_sockets[static_cast<std::size_t>(r)],
              in_process[static_cast<std::size_t>(r)])
        << "rank " << r;
    EXPECT_EQ(sent[static_cast<std::size_t>(r)], fabric.bytes_sent(r))
        << "rank " << r;
    EXPECT_EQ(received[static_cast<std::size_t>(r)],
              fabric.bytes_received(r))
        << "rank " << r;
  }
}

TEST(SocketFabric, TcpMeshWithWildcardListenerRewrite) {
  // TCP ranks bind the wildcard and advertise it; rank 0 must rewrite
  // the peer-map hosts to where each HELLO actually came from (here
  // 127.0.0.1) or the r<->s mesh connections cannot form. A 3-rank mesh
  // forces at least one non-rank-0 connection (1<->2). The port comes
  // from the kernel and stays reserved (bound, never listening) until the
  // fabric's own SO_REUSEPORT listener takes over, so socket suites can
  // run under `ctest -j` without colliding or losing the port in the
  // close-then-rebind window.
  ReservedTcpPort reserved;
  const std::string rendezvous =
      "tcp:127.0.0.1:" + std::to_string(reserved.port());
  const int n = 3;
  std::vector<std::thread> threads;
  std::exception_ptr first_error;
  std::mutex error_mu;
  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        SocketFabricConfig config;
        config.rendezvous = rendezvous;
        config.world_size = n;
        config.rank = rank;
        SocketFabric fabric(config);
        comm::Communicator comm(fabric, rank);
        // Exercise the 1<->2 link specifically.
        if (rank == 1) {
          comm.send(2, 11, bytes_of({7}));
          EXPECT_EQ(comm.recv(2, 12).payload, bytes_of({8}));
        } else if (rank == 2) {
          EXPECT_EQ(comm.recv(1, 11).payload, bytes_of({7}));
          comm.send(1, 12, bytes_of({8}));
        } else {
          comm.send(1, 13, ByteBuffer{});
          comm.send(2, 13, ByteBuffer{});
        }
        if (rank != 0) (void)comm.recv(0, 13);
      } catch (...) {
        std::lock_guard lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// A hand-driven peer speaking the raw rendezvous + framing protocol —
/// the only way to put deliberately mis-stamped frames on a real fabric
/// connection (the genuine SocketFabric always stamps its current epoch).
struct FakeRank {
  Socket link;

  /// Joins `rendezvous` as original rank 1 of a 2-rank world at `epoch`,
  /// leaving `link` as the 0<->1 data connection.
  void join(const std::string& rendezvous, std::uint64_t epoch) {
    const Address rz = Address::parse(rendezvous);
    link = connect_to(rz, 10000);
    ByteBuffer hello;
    ByteWriter w(hello);
    const std::string advertised = rendezvous + ".fake-listener";
    w.put<std::uint32_t>(static_cast<std::uint32_t>(advertised.size()));
    w.put_bytes(std::as_bytes(
        std::span(advertised.data(), advertised.size())));
    w.put<std::uint64_t>(0);  // resume round
    write_frame(link, 1, epoch, kHelloTag, hello);
    FrameHeader header;
    ByteBuffer map;
    GCS_CHECK(read_frame(link, header, map));
    GCS_CHECK(header.tag == kPeerMapTag);
    GCS_CHECK(header.epoch == epoch);
  }
};

TEST(SocketFabric, StaleEpochFrameIsRejectedNotMisdelivered) {
  // The epoch contract end to end: a straggler frame stamped with an
  // older epoch must be dropped by the reader — never parked where a
  // same-tag recv of the current epoch would consume stale data. The
  // fake rank joins epoch 0, dies, re-joins the rebuild as epoch 1, and
  // then sends two frames under one tag: a stale epoch-0 one first, the
  // genuine epoch-1 one second. recv must deliver the second.
  const std::string rendezvous = unique_unix_rendezvous();
  std::exception_ptr rank0_error;
  std::thread rank0([&] {
    try {
      SocketFabricConfig config;
      config.rendezvous = rendezvous;
      config.world_size = 2;
      config.rank = 0;
      config.elastic = true;
      config.rejoin_window_ms = 10000;
      config.recv_timeout_ms = 20000;  // bound the worst case, not 60 s
      SocketFabric fabric(config);
      comm::Communicator comm(fabric, 0);
      EXPECT_EQ(comm.recv(1, 4).payload, bytes_of({7}));
      // The fake rank closes its link: the next recv is a peer failure,
      // and the elastic answer is a rebuild into epoch 1.
      EXPECT_THROW((void)comm.recv(1, 5), comm::PeerFailure);
      const comm::Membership world = fabric.rebuild(0);
      EXPECT_EQ(world.epoch, 1u);
      ASSERT_EQ(world.world_size(), 2);
      // Tag 5 again, now in epoch 1: the stale epoch-0 frame arrives
      // first but must not be the one delivered.
      EXPECT_EQ(comm.recv(1, 5).payload, bytes_of({42}));
      EXPECT_GE(fabric.stale_frames_rejected(), 1u);
    } catch (...) {
      rank0_error = std::current_exception();
    }
  });

  // Anything the fake-rank side throws must still join the rank-0
  // thread first (a joinable std::thread dying in unwind is terminate),
  // and rank 0's own error is the more useful one to surface.
  std::exception_ptr fake_error;
  try {
    FakeRank fake;
    fake.join(rendezvous, 0);
    write_frame(fake.link, 1, 0, 4, bytes_of({7}));
    fake.link.close();  // "dies"

    // Rejoin the rebuild (rank 0 re-listens on the same address for
    // epoch 1; connect_to retries until the listener exists).
    fake.join(rendezvous, 1);
    write_frame(fake.link, 1, /*epoch=*/0, 5, bytes_of({9}));   // stale
    write_frame(fake.link, 1, /*epoch=*/1, 5, bytes_of({42}));  // genuine
  } catch (...) {
    fake_error = std::current_exception();
  }
  rank0.join();
  if (rank0_error) std::rethrow_exception(rank0_error);
  if (fake_error) std::rethrow_exception(fake_error);
}

TEST(ForkedWorkers, CollectsReportsAndPropagatesFailures) {
  ForkedWorkers ok(0, 3, [](int rank) {
    ByteBuffer b;
    b.push_back(static_cast<std::byte>(rank * 10));
    return b;
  });
  const auto reports = ok.join();
  ASSERT_EQ(reports.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(reports[static_cast<std::size_t>(r)],
              bytes_of({r * 10}));
  }

  ForkedWorkers failing(0, 2, [](int rank) -> ByteBuffer {
    if (rank == 1) throw Error("worker exploded");
    return {};
  });
  try {
    failing.join();
    FAIL() << "join should surface the child's exception";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("worker exploded"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace gcs::net
