// Byte-level adversary against the reactor's reassembly machine.
//
// The epoll reactor (net/reactor.h) reassembles GCSF frames from
// arbitrary kernel segmentation: the adversary here feeds it streams cut
// at random byte boundaries, interleaved across channels, with random
// frame/payload sizes — then ends each stream with a randomly chosen
// fate: a clean EOF, a truncated header, a truncated payload, a corrupt
// magic, an implausible length, or a frame the sink itself rejects. The
// contract under fuzz is reject-or-deliver, never crash or mis-deliver:
//
//   * every well-formed frame before the corruption point is delivered
//     exactly once, in order, with byte-identical header and payload;
//   * nothing after the corruption point is ever delivered;
//   * the channel closes exactly once, with a reason that names what
//     actually happened.
//
// Runs are reproducible: the seed is logged on every run and can be
// pinned with GCS_FUZZ_SEED=<n> to replay a failure.
#include "net/reactor.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "net/framing.h"
#include "net/socket.h"

namespace gcs::net {
namespace {

std::uint64_t fuzz_seed() {
  if (const char* env = std::getenv("GCS_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return std::random_device{}();
}

/// One expected well-formed frame.
struct ExpectedFrame {
  std::uint32_t src_rank = 0;
  std::uint64_t epoch = 0;
  std::uint64_t tag = 0;
  ByteBuffer payload;
};

/// How a channel's stream ends.
enum class Fate {
  kCleanEof,         // close at a frame boundary
  kTruncatedHeader,  // EOF inside the 32-byte header
  kTruncatedPayload, // full header, EOF inside the payload
  kBadMagic,         // full header with corrupt magic
  kOversizedLength,  // full header with length > kMaxFramePayload
  kSinkRejects,      // well-formed frame the sink throws on
};
constexpr int kFateCount = 6;

/// Frames with this tag make the fuzz sink throw (the reactor must treat
/// that like any torn frame: close the channel, deliver nothing more).
constexpr std::uint64_t kPoisonTag = 0xdead'beef'dead'beefull;

/// Thread-safe recorder for one channel's delivered frames + close.
class RecordingSink final : public Reactor::Sink {
 public:
  void on_frame(const FrameHeader& header, ByteBuffer payload) override {
    if (header.tag == kPoisonTag) {
      throw Error("fuzz sink rejected poison frame");
    }
    std::lock_guard lock(mu_);
    ExpectedFrame f;
    f.src_rank = header.src_rank;
    f.epoch = header.epoch;
    f.tag = header.tag;
    f.payload = std::move(payload);
    delivered_.push_back(std::move(f));
    cv_.notify_all();
  }

  void on_close(const std::string& reason) override {
    std::lock_guard lock(mu_);
    ++closes_;
    close_reason_ = reason;
    cv_.notify_all();
  }

  void wait_closed() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return closes_ > 0; });
  }

  void wait_frames(std::size_t n) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return delivered_.size() >= n || closes_ > 0; });
  }

  int closes() const {
    std::lock_guard lock(mu_);
    return closes_;
  }
  std::string close_reason() const {
    std::lock_guard lock(mu_);
    return close_reason_;
  }
  std::vector<ExpectedFrame> delivered() const {
    std::lock_guard lock(mu_);
    return delivered_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<ExpectedFrame> delivered_;
  int closes_ = 0;
  std::string close_reason_;
};

/// One channel's scripted stream: the exact bytes to put on the wire and
/// the frames the reactor must hand the sink back.
struct ChannelPlan {
  Fate fate = Fate::kCleanEof;
  std::vector<ExpectedFrame> expected;  ///< must be delivered, in order
  ByteBuffer wire;                      ///< full stream incl. corruption
};

ByteBuffer random_payload(std::mt19937_64& rng) {
  // Mostly small (header-coalescing territory), occasionally large
  // enough to span many readv calls.
  std::uniform_int_distribution<int> kind(0, 9);
  std::size_t size;
  if (kind(rng) == 0) {
    size = std::uniform_int_distribution<std::size_t>(8192, 65536)(rng);
  } else {
    size = std::uniform_int_distribution<std::size_t>(0, 512)(rng);
  }
  ByteBuffer p(size);
  for (std::size_t i = 0; i < size; ++i) {
    p[i] = static_cast<std::byte>(rng() & 0xff);
  }
  return p;
}

void append_frame(ByteBuffer& wire, const ExpectedFrame& f) {
  std::byte header[kFrameHeaderBytes];
  encode_frame_header(header, f.src_rank, f.epoch, f.tag, f.payload.size());
  wire.insert(wire.end(), header, header + kFrameHeaderBytes);
  wire.insert(wire.end(), f.payload.begin(), f.payload.end());
}

ChannelPlan make_plan(std::mt19937_64& rng, Fate fate) {
  ChannelPlan plan;
  plan.fate = fate;
  const int frames = std::uniform_int_distribution<int>(0, 10)(rng);
  for (int i = 0; i < frames; ++i) {
    ExpectedFrame f;
    f.src_rank = static_cast<std::uint32_t>(rng() & 0xffff);
    f.epoch = rng() & 0xffff;
    f.tag = rng();
    if (f.tag == kPoisonTag) f.tag = 0;  // poison only when scripted
    f.payload = random_payload(rng);
    append_frame(plan.wire, f);
    plan.expected.push_back(std::move(f));
  }

  switch (fate) {
    case Fate::kCleanEof:
      break;
    case Fate::kTruncatedHeader: {
      ExpectedFrame f;
      f.tag = 1;
      f.payload = random_payload(rng);
      ByteBuffer whole;
      append_frame(whole, f);
      const std::size_t keep =
          std::uniform_int_distribution<std::size_t>(1,
                                                     kFrameHeaderBytes - 1)(
              rng);
      plan.wire.insert(plan.wire.end(), whole.begin(),
                       whole.begin() + static_cast<std::ptrdiff_t>(keep));
      break;
    }
    case Fate::kTruncatedPayload: {
      ExpectedFrame f;
      f.tag = 2;
      f.payload = random_payload(rng);
      f.payload.resize(std::max<std::size_t>(f.payload.size(), 2));
      ByteBuffer whole;
      append_frame(whole, f);
      const std::size_t cut = std::uniform_int_distribution<std::size_t>(
          0, f.payload.size() - 1)(rng);
      plan.wire.insert(
          plan.wire.end(), whole.begin(),
          whole.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes +
                                                      cut));
      break;
    }
    case Fate::kBadMagic: {
      std::byte header[kFrameHeaderBytes];
      encode_frame_header(header, 0, 0, 3, 16);
      header[0] = static_cast<std::byte>(0x00);  // corrupt the magic
      plan.wire.insert(plan.wire.end(), header,
                       header + kFrameHeaderBytes);
      break;
    }
    case Fate::kOversizedLength: {
      std::byte header[kFrameHeaderBytes];
      encode_frame_header(header, 0, 0, 4, kMaxFramePayload + 1);
      plan.wire.insert(plan.wire.end(), header,
                       header + kFrameHeaderBytes);
      break;
    }
    case Fate::kSinkRejects: {
      ExpectedFrame poison;
      poison.tag = kPoisonTag;
      poison.payload = random_payload(rng);
      append_frame(plan.wire, poison);
      // A trailing well-formed frame that must NOT be delivered: the
      // channel died at the poison frame.
      ExpectedFrame after;
      after.tag = 5;
      after.payload = random_payload(rng);
      append_frame(plan.wire, after);
      break;
    }
  }
  return plan;
}

void check_close_reason(const ChannelPlan& plan, const std::string& reason) {
  const auto contains = [&](const char* needle) {
    return reason.find(needle) != std::string::npos;
  };
  switch (plan.fate) {
    case Fate::kCleanEof:
      EXPECT_EQ(reason, "peer exited");
      break;
    case Fate::kTruncatedHeader:
      EXPECT_TRUE(contains("socket closed mid-read")) << reason;
      break;
    case Fate::kTruncatedPayload:
      EXPECT_TRUE(contains("socket closed")) << reason;
      break;
    case Fate::kBadMagic:
      EXPECT_TRUE(contains("bad magic")) << reason;
      break;
    case Fate::kOversizedLength:
      EXPECT_TRUE(contains("implausible payload length")) << reason;
      break;
    case Fate::kSinkRejects:
      EXPECT_TRUE(contains("poison")) << reason;
      break;
  }
}

TEST(ReactorFuzz, RandomSegmentationRejectsOrDeliversNeverMisdelivers) {
  const std::uint64_t seed = fuzz_seed();
  std::cerr << "[reactor-fuzz] seed=" << seed
            << " (replay: GCS_FUZZ_SEED=" << seed << ")\n";
  std::mt19937_64 rng(seed);

  constexpr int kRounds = 4;
  constexpr int kChannels = 8;
  for (int round = 0; round < kRounds; ++round) {
    // Sinks outlive the reactor: the loop thread may deliver a late
    // on_close right up until ~Reactor joins it.
    std::vector<std::unique_ptr<RecordingSink>> sinks;
    Reactor reactor;
    std::vector<ChannelPlan> plans;
    std::vector<Socket> writers;

    for (int c = 0; c < kChannels; ++c) {
      // Cycle through every fate each round, extra slots random.
      const Fate fate = static_cast<Fate>(
          c < kFateCount
              ? c
              : std::uniform_int_distribution<int>(0, kFateCount - 1)(rng));
      plans.push_back(make_plan(rng, fate));
      sinks.push_back(std::make_unique<RecordingSink>());
      int fds[2];
      ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
      reactor.add_channel(Socket(fds[0]), sinks.back().get());
      writers.emplace_back(fds[1]);
    }

    // Drip the streams onto the wire in random-size segments, hopping
    // between channels so partial frames interleave arbitrarily — the
    // adversarial version of kernel segmentation.
    std::vector<std::size_t> cursor(kChannels, 0);
    std::vector<int> open;
    for (int c = 0; c < kChannels; ++c) open.push_back(c);
    while (!open.empty()) {
      const std::size_t pick = std::uniform_int_distribution<std::size_t>(
          0, open.size() - 1)(rng);
      const int c = open[pick];
      const ChannelPlan& plan = plans[static_cast<std::size_t>(c)];
      std::size_t& at = cursor[static_cast<std::size_t>(c)];
      if (at >= plan.wire.size()) {
        writers[static_cast<std::size_t>(c)].close();  // EOF
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
        continue;
      }
      const std::size_t n = std::min<std::size_t>(
          std::uniform_int_distribution<std::size_t>(1, 4096)(rng),
          plan.wire.size() - at);
      try {
        writers[static_cast<std::size_t>(c)].write_all(plan.wire.data() + at,
                                                       n);
        at += n;
      } catch (const Error&) {
        // The reactor already closed a corrupted channel: writes past the
        // corruption point hit EPIPE. Nothing after that point matters —
        // the delivered-frame assertions below still check the prefix.
        writers[static_cast<std::size_t>(c)].close();
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }

    for (int c = 0; c < kChannels; ++c) {
      const ChannelPlan& plan = plans[static_cast<std::size_t>(c)];
      RecordingSink& sink = *sinks[static_cast<std::size_t>(c)];
      sink.wait_closed();
      EXPECT_EQ(sink.closes(), 1) << "round " << round << " channel " << c;
      check_close_reason(plan, sink.close_reason());

      const std::vector<ExpectedFrame> got = sink.delivered();
      ASSERT_EQ(got.size(), plan.expected.size())
          << "round " << round << " channel " << c << " fate "
          << static_cast<int>(plan.fate) << " reason '"
          << sink.close_reason() << "'";
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].src_rank, plan.expected[i].src_rank);
        EXPECT_EQ(got[i].epoch, plan.expected[i].epoch);
        EXPECT_EQ(got[i].tag, plan.expected[i].tag);
        ASSERT_EQ(got[i].payload, plan.expected[i].payload)
            << "round " << round << " channel " << c << " frame " << i;
      }
    }
  }
}

TEST(ReactorFuzz, SendPathRoundTripsThroughCoalescingFlush) {
  // The send side under the same randomness: frames queued on one end of
  // a socketpair (coalescing writev, EPOLLOUT residue, backpressure) must
  // reassemble byte-identically on the other end — both ends channels of
  // the same reactor.
  const std::uint64_t seed = fuzz_seed() ^ 0x5eed'f00dull;
  std::cerr << "[reactor-fuzz] send-path seed=" << seed << "\n";
  std::mt19937_64 rng(seed);

  constexpr int kPairs = 4;
  constexpr int kFramesPerPair = 200;
  // Sinks before the reactor: they must survive until ~Reactor joins
  // the loop thread (shutdown_channel reports tx closes asynchronously).
  std::vector<std::unique_ptr<RecordingSink>> rx_sinks;
  std::vector<std::unique_ptr<RecordingSink>> tx_sinks;
  Reactor reactor;
  std::vector<int> tx_channels;
  std::vector<std::vector<ExpectedFrame>> sent(kPairs);

  for (int p = 0; p < kPairs; ++p) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    tx_sinks.push_back(std::make_unique<RecordingSink>());
    rx_sinks.push_back(std::make_unique<RecordingSink>());
    tx_channels.push_back(
        reactor.add_channel(Socket(fds[0]), tx_sinks.back().get()));
    reactor.add_channel(Socket(fds[1]), rx_sinks.back().get());
  }

  for (int i = 0; i < kFramesPerPair; ++i) {
    for (int p = 0; p < kPairs; ++p) {
      ExpectedFrame f;
      f.src_rank = static_cast<std::uint32_t>(p);
      f.epoch = 7;
      f.tag = static_cast<std::uint64_t>(i);
      f.payload = random_payload(rng);
      reactor.send(tx_channels[static_cast<std::size_t>(p)], f.src_rank,
                   f.epoch, f.tag, f.payload);
      sent[static_cast<std::size_t>(p)].push_back(std::move(f));
    }
  }

  // Wait for full delivery BEFORE tearing the pairs down: a shutdown
  // while EAGAIN residue is still queued would drop tail frames by
  // design (the peer is being declared dead), which is not what this
  // test measures.
  for (int p = 0; p < kPairs; ++p) {
    rx_sinks[static_cast<std::size_t>(p)]->wait_frames(kFramesPerPair);
  }
  // Then EOF the transmit side: the receive channels close cleanly.
  for (int p = 0; p < kPairs; ++p) {
    reactor.shutdown_channel(tx_channels[static_cast<std::size_t>(p)]);
  }
  for (int p = 0; p < kPairs; ++p) {
    rx_sinks[static_cast<std::size_t>(p)]->wait_closed();
    const auto got = rx_sinks[static_cast<std::size_t>(p)]->delivered();
    const auto& want = sent[static_cast<std::size_t>(p)];
    ASSERT_EQ(got.size(), want.size()) << "pair " << p;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].tag, want[i].tag);
      ASSERT_EQ(got[i].payload, want[i].payload)
          << "pair " << p << " frame " << i;
    }
  }
  const Reactor::Stats s = reactor.stats();
  EXPECT_GE(s.frames_flushed, static_cast<std::uint64_t>(kPairs) *
                                  static_cast<std::uint64_t>(kFramesPerPair));
  EXPECT_GT(s.flush_calls, 0u);
}

TEST(ReactorFuzz, BackpressuredQueueCoalescesFramesPerWritev) {
  // Deterministic coalescing proof. A large "plug" frame fills the
  // socketpair buffer (nobody reads yet), so every following small frame
  // fails its opportunistic inline flush with EAGAIN and queues. Only
  // when this thread starts draining the peer end does EPOLLOUT fire —
  // and the reactor must then flush the backlog in scatter-gather
  // batches, many frames per writev, not one syscall per frame.
  // Sink before the reactor: closing rx below hangs up the tx channel,
  // and the loop thread reports that on_close until ~Reactor joins it.
  RecordingSink tx_sink;
  Reactor reactor;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int tx = reactor.add_channel(Socket(fds[0]), &tx_sink);
  Socket rx(fds[1]);

  constexpr std::size_t kPlugBytes = std::size_t{4} << 20;
  constexpr int kSmallFrames = 300;
  reactor.send(tx, 0, 0, 1, ByteBuffer(kPlugBytes));
  for (int i = 0; i < kSmallFrames; ++i) {
    reactor.send(tx, 0, 0, 100 + static_cast<std::uint64_t>(i),
                 ByteBuffer(16));
  }

  // Drain the peer side; every frame must come back intact and in order.
  FrameHeader header;
  ByteBuffer payload;
  ASSERT_TRUE(read_frame(rx, header, payload));
  EXPECT_EQ(header.tag, 1u);
  EXPECT_EQ(payload.size(), kPlugBytes);
  for (int i = 0; i < kSmallFrames; ++i) {
    ASSERT_TRUE(read_frame(rx, header, payload)) << "frame " << i;
    EXPECT_EQ(header.tag, 100 + static_cast<std::uint64_t>(i));
    EXPECT_EQ(payload.size(), 16u);
  }

  // The last bytes reach the peer inside the reactor's writev, before the
  // loop thread bumps its counters: wait (bounded) for the final tally.
  const auto expected_frames = static_cast<std::uint64_t>(kSmallFrames) + 1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  Reactor::Stats s = reactor.stats();
  while (s.frames_flushed < expected_frames &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    s = reactor.stats();
  }
  EXPECT_EQ(s.frames_flushed, expected_frames);
  // The backlog of small frames coalesced: far fewer writev calls than
  // frames. (The plug itself may take several partial writevs; even
  // charging all of those, 300 queued frames must not cost 300 flushes.)
  EXPECT_LT(s.flush_calls, static_cast<std::uint64_t>(kSmallFrames) / 2);
}

}  // namespace
}  // namespace gcs::net
