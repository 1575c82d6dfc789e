// Unit tests for the simulated network (the Section 1.1 substrate).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/runtime/latch.h"

namespace guardians {
namespace {

Packet MakePacket(NodeId src, NodeId dst, uint64_t id, size_t size = 16) {
  Packet p;
  p.msg_id = id;
  p.src = src;
  p.dst = dst;
  p.payload = Bytes(size, static_cast<uint8_t>(id));
  p.Seal();
  return p;
}

TEST(NetworkTest, DeliversToRegisteredSink) {
  Network network(1);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  CountdownLatch arrived(1);
  std::atomic<uint64_t> got{0};
  network.SetSink(b, [&](Packet&& p) {
    got = p.msg_id;
    arrived.CountDown();
  });
  network.SetDefaultLink(LinkParams{Micros(100), Micros(0), 0, 0, 0});
  network.Send(MakePacket(a, b, 42));
  ASSERT_TRUE(arrived.WaitFor(Millis(2000)));
  EXPECT_EQ(got.load(), 42u);
  EXPECT_EQ(network.stats().packets_delivered, 1u);
}

TEST(NetworkTest, LatencyIsApplied) {
  Network network(1);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  CountdownLatch arrived(1);
  network.SetSink(b, [&](Packet&&) { arrived.CountDown(); });
  network.SetDefaultLink(LinkParams{Millis(20), Micros(0), 0, 0, 0});
  const TimePoint begin = Now();
  network.Send(MakePacket(a, b, 1));
  ASSERT_TRUE(arrived.WaitFor(Millis(5000)));
  EXPECT_GE(ToMicros(Now() - begin), 19000);
}

TEST(NetworkTest, DropProbabilityLosesRoughlyThatFraction) {
  Network network(7);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  std::atomic<int> delivered{0};
  network.SetSink(b, [&](Packet&&) { ++delivered; });
  network.SetDefaultLink(LinkParams{Micros(10), Micros(0), 0.5, 0, 0});
  constexpr int kPackets = 600;
  for (int i = 0; i < kPackets; ++i) {
    network.Send(MakePacket(a, b, i));
  }
  network.DrainForTesting();
  EXPECT_GT(delivered.load(), kPackets / 4);
  EXPECT_LT(delivered.load(), 3 * kPackets / 4);
  EXPECT_EQ(network.stats().packets_dropped +
                network.stats().packets_delivered,
            static_cast<uint64_t>(kPackets));
}

TEST(NetworkTest, CorruptionFlipsBitsButDelivers) {
  Network network(3);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  std::atomic<int> failed_crc{0};
  std::atomic<int> total{0};
  network.SetSink(b, [&](Packet&& p) {
    ++total;
    if (!p.Verify()) {
      ++failed_crc;
    }
  });
  network.SetDefaultLink(LinkParams{Micros(10), Micros(0), 0, 1.0, 0});
  for (int i = 0; i < 50; ++i) {
    network.Send(MakePacket(a, b, i));
  }
  network.DrainForTesting();
  EXPECT_EQ(total.load(), 50);
  // With corrupt_prob=1 every packet was mangled, and the error-detection
  // bits catch every one.
  EXPECT_EQ(failed_crc.load(), 50);
  EXPECT_EQ(network.stats().packets_corrupted, 50u);
}

TEST(NetworkTest, PartitionCutsBothDirections) {
  Network network(1);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  std::atomic<int> delivered{0};
  network.SetSink(a, [&](Packet&&) { ++delivered; });
  network.SetSink(b, [&](Packet&&) { ++delivered; });
  network.SetDefaultLink(LinkParams{Micros(10), Micros(0), 0, 0, 0});
  network.SetPartitioned(a, b, true);
  network.Send(MakePacket(a, b, 1));
  network.Send(MakePacket(b, a, 2));
  network.DrainForTesting();
  EXPECT_EQ(delivered.load(), 0);
  network.SetPartitioned(a, b, false);
  network.Send(MakePacket(a, b, 3));
  network.DrainForTesting();
  EXPECT_EQ(delivered.load(), 1);
}

TEST(NetworkTest, DownNodeNeitherSendsNorReceives) {
  Network network(1);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  std::atomic<int> delivered{0};
  network.SetSink(b, [&](Packet&&) { ++delivered; });
  network.SetDefaultLink(LinkParams{Micros(10), Micros(0), 0, 0, 0});

  network.SetNodeUp(b, false);
  network.Send(MakePacket(a, b, 1));  // lost at delivery
  network.DrainForTesting();
  EXPECT_EQ(delivered.load(), 0);

  network.SetNodeUp(b, true);
  network.SetNodeUp(a, false);
  network.Send(MakePacket(a, b, 2));  // refused at send
  network.DrainForTesting();
  EXPECT_EQ(delivered.load(), 0);

  network.SetNodeUp(a, true);
  network.Send(MakePacket(a, b, 3));
  network.DrainForTesting();
  EXPECT_EQ(delivered.load(), 1);
}

TEST(NetworkTest, InFlightPacketsLostWhenDestinationCrashes) {
  Network network(1);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  std::atomic<int> delivered{0};
  network.SetSink(b, [&](Packet&&) { ++delivered; });
  network.SetDefaultLink(LinkParams{Millis(50), Micros(0), 0, 0, 0});
  network.Send(MakePacket(a, b, 1));
  network.SetNodeUp(b, false);  // crash while the packet is in flight
  network.DrainForTesting();
  EXPECT_EQ(delivered.load(), 0);
}

TEST(NetworkTest, PerLinkParamsOverrideDefault) {
  Network network(1);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  const NodeId c = network.AddNode("c");
  network.SetDefaultLink(LinkParams{Millis(30), Micros(0), 0, 0, 0});
  network.SetLink(a, b, LinkParams{Micros(100), Micros(0), 0, 0, 0});
  EXPECT_EQ(network.GetLink(a, b).latency, Micros(100));
  EXPECT_EQ(network.GetLink(b, a).latency, Micros(100));
  EXPECT_EQ(network.GetLink(a, c).latency, Millis(30));

  CountdownLatch fast(1);
  network.SetSink(b, [&](Packet&&) { fast.CountDown(); });
  const TimePoint begin = Now();
  network.Send(MakePacket(a, b, 1));
  ASSERT_TRUE(fast.WaitFor(Millis(2000)));
  EXPECT_LT(ToMicros(Now() - begin), 20000);
}

TEST(NetworkTest, BandwidthAddsSerializationDelay) {
  Network network(1);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  CountdownLatch arrived(1);
  network.SetSink(b, [&](Packet&&) { arrived.CountDown(); });
  // 1 byte per microsecond: a ~1KB packet takes ~1ms extra.
  network.SetDefaultLink(LinkParams{Micros(0), Micros(0), 0, 0, 1.0});
  const TimePoint begin = Now();
  network.Send(MakePacket(a, b, 1, 1000));
  ASSERT_TRUE(arrived.WaitFor(Millis(2000)));
  EXPECT_GE(ToMicros(Now() - begin), 1000);
}

TEST(NetworkTest, LocalDeliveryBypassesLinkParams) {
  Network network(1);
  const NodeId a = network.AddNode("a");
  CountdownLatch arrived(1);
  network.SetSink(a, [&](Packet&&) { arrived.CountDown(); });
  network.SetDefaultLink(LinkParams{Millis(60), Micros(0), 1.0, 0, 0});
  network.Send(MakePacket(a, a, 1));
  // Same-node traffic is immediate and lossless despite the brutal link.
  ASSERT_TRUE(arrived.WaitFor(Millis(2000)));
}

TEST(NetworkTest, NodeNames) {
  Network network(1);
  const NodeId a = network.AddNode("alpha");
  EXPECT_EQ(network.NodeName(a), "alpha");
  EXPECT_EQ(network.NodeName(999), "?");
  EXPECT_EQ(network.node_count(), 1u);
}

TEST(NetworkTest, DuplicationDeliversExtraCopies) {
  Network network(11);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  std::atomic<int> delivered{0};
  network.SetSink(b, [&](Packet&&) { ++delivered; });
  network.SetDefaultLink(LinkParams{Micros(10), Micros(0), 0, 0, 0, 1.0});
  constexpr int kPackets = 40;
  for (int i = 0; i < kPackets; ++i) {
    network.Send(MakePacket(a, b, i));
  }
  network.DrainForTesting();
  // dup_prob = 1: every send produces exactly one extra in-flight copy.
  EXPECT_EQ(delivered.load(), 2 * kPackets);
  const NetworkStats stats = network.stats();
  EXPECT_EQ(stats.packets_sent, static_cast<uint64_t>(kPackets));
  EXPECT_EQ(stats.packets_duplicated, static_cast<uint64_t>(kPackets));
  EXPECT_EQ(stats.packets_delivered, static_cast<uint64_t>(2 * kPackets));
  EXPECT_EQ(stats.packets_dropped, 0u);
}

TEST(NetworkTest, ConservationLawHoldsUnderLossAndDuplication) {
  Network network(23);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  std::atomic<int> delivered{0};
  network.SetSink(b, [&](Packet&&) { ++delivered; });
  // Loss and duplication together: a send-time drop consumes the packet
  // before the duplication roll, a surviving send may add one extra copy.
  network.SetDefaultLink(LinkParams{Micros(10), Micros(0), 0.3, 0, 0, 0.3});
  constexpr int kPackets = 500;
  for (int i = 0; i < kPackets; ++i) {
    network.Send(MakePacket(a, b, i));
  }
  network.DrainForTesting();
  const NetworkStats stats = network.stats();
  EXPECT_EQ(stats.packets_sent, static_cast<uint64_t>(kPackets));
  EXPECT_GT(stats.packets_duplicated, 0u);
  EXPECT_GT(stats.packets_dropped, 0u);
  // The conservation law: every accepted send and every injected copy is
  // eventually resolved exactly once, as a delivery or as a drop.
  EXPECT_EQ(stats.packets_delivered + stats.packets_dropped,
            stats.packets_sent + stats.packets_duplicated);
  EXPECT_EQ(stats.packets_delivered,
            static_cast<uint64_t>(delivered.load()));
}

TEST(NetworkTest, DuplicateSharesPayloadBufferWithOriginal) {
  // The zero-copy wire path: duplicate injection must not clone payload
  // bytes. With corruption off, both twins arrive as views of one buffer.
  Network network(11);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  std::mutex mu;
  std::vector<Packet> received;
  network.SetSink(b, [&](Packet&& p) {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(std::move(p));
  });
  network.SetDefaultLink(LinkParams{Micros(10), Micros(0), 0, 0, 0, 1.0});
  network.Send(MakePacket(a, b, 7));
  network.DrainForTesting();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_TRUE(received[0].payload.SharesBufferWith(received[1].payload));
  EXPECT_EQ(received[0].payload, received[1].payload);
  EXPECT_TRUE(received[0].Verify());
  EXPECT_TRUE(received[1].Verify());
}

TEST(NetworkTest, CorruptionIsCopyOnWriteIsolatedFromSharedTwin) {
  // corrupt_prob=1 and dup_prob=1: the corruption COW happens before the
  // duplicate is cloned, so the twins share the *corrupted* buffer — the
  // same observable outcome as the old deep-copy engine (both fail CRC) —
  // while the sender's prototype packet is never written through.
  Network network(3);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  std::mutex mu;
  std::vector<Packet> received;
  network.SetSink(b, [&](Packet&& p) {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(std::move(p));
  });
  network.SetDefaultLink(LinkParams{Micros(10), Micros(0), 0, 1.0, 0, 1.0});

  Packet prototype = MakePacket(a, b, 9);
  const Bytes original = prototype.payload.ToBytes();
  network.Send(prototype);  // by-value: the network corrupts its own copy
  network.DrainForTesting();

  // The caller's packet still shows the bytes it sealed — the corruption
  // wrote through a private COW buffer, not the shared one.
  EXPECT_EQ(prototype.payload, original);
  EXPECT_TRUE(prototype.Verify());

  ASSERT_EQ(received.size(), 2u);
  for (const Packet& p : received) {
    EXPECT_FALSE(p.Verify()) << "corruption must break the CRC";
    EXPECT_FALSE(p.payload == ConstByteSpan(original));
  }
  // Corruption preceded duplication, so the twins share the bad buffer.
  EXPECT_TRUE(received[0].payload.SharesBufferWith(received[1].payload));
  EXPECT_EQ(received[0].payload, received[1].payload);
}

TEST(NetworkTest, CorruptedFragmentDoesNotBleedIntoSiblings) {
  // All fragments of one message are slices of one encode buffer. When the
  // network corrupts exactly one of them, the COW must confine the damage:
  // every sibling still verifies and still shows its original bytes.
  Network network(5);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  std::mutex mu;
  std::vector<Packet> received;
  network.SetSink(b, [&](Packet&& p) {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(std::move(p));
  });
  network.SetDefaultLink(LinkParams{Micros(10), Micros(0), 0, 0, 0});
  network.SetLink(a, b, LinkParams{Micros(10), Micros(0), 0, 0, 0});

  Bytes message(64, 0);
  for (size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<uint8_t>(i);
  }
  auto packets = Fragment(BufferSlice(Bytes(message)), /*msg_id=*/1, a, b,
                          /*max_payload=*/16);
  ASSERT_EQ(packets.size(), 4u);
  for (size_t i = 1; i < packets.size(); ++i) {
    ASSERT_TRUE(packets[i].payload.SharesBufferWith(packets[0].payload));
  }

  // Corrupt fragment 2 by hand through the COW hatch (deterministic stand-in
  // for the network's corruption roll) and send everything.
  packets[2].payload.MutableData()[0] ^= 0x40;  // stale CRC kept on purpose
  // The COW detached fragment 2 into its own private buffer.
  for (size_t i = 0; i < packets.size(); ++i) {
    if (i != 2) {
      EXPECT_FALSE(packets[i].payload.SharesBufferWith(packets[2].payload));
    }
  }
  for (auto& p : packets) {
    network.Send(std::move(p));
  }
  network.DrainForTesting();

  ASSERT_EQ(received.size(), 4u);
  int bad = 0;
  for (const Packet& p : received) {
    if (!p.Verify()) {
      ++bad;
      EXPECT_EQ(p.frag_index, 2u);
      continue;
    }
    // Every intact sibling shows exactly its slice of the original message.
    const size_t begin = p.frag_index * 16u;
    EXPECT_EQ(p.payload,
              ConstByteSpan(message.data() + begin, p.payload.size()));
  }
  EXPECT_EQ(bad, 1);
}

// Sum of one per-shard counter, net.shard.<k>.<suffix>, over every shard.
uint64_t ShardSum(const MetricsRegistry& metrics, const std::string& suffix) {
  uint64_t total = 0;
  for (const auto& [name, value] : metrics.CountersWithPrefix("net.shard.")) {
    if (name.ends_with(suffix)) {
      total += value;
    }
  }
  return total;
}

// Busy work standing in for a sink's delivery cost: a dependent chain the
// compiler cannot drop, since the caller keeps the result.
uint64_t SinkWork(uint64_t seed, int steps) {
  uint64_t x = seed;
  for (int i = 0; i < steps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return x;
}

TEST(NetworkTest, DuplicateCountsBitIdenticalAcrossShardCounts) {
  // Loss, duplication, and corruption are all decided at Send() under one
  // lock and one rng: for a fixed seed the counts must not depend on how
  // many delivery workers drain the heaps, nor on whether the sending
  // thread drains them itself (the zero-latency input, delivery requested).
  constexpr uint64_t kSeed = 1979;
  constexpr int kPackets = 400;
  struct Input {
    LinkParams link;
    bool deliver_inline;
  };
  for (const Input& input :
       {Input{LinkParams{Micros(10), Micros(5), 0.2, 0.1, 0, 0.25}, false},
        Input{LinkParams{Micros(0), Micros(0), 0.2, 0.1, 0, 0.25}, true}}) {
    std::vector<NetworkStats> runs;
    for (size_t shards : {1u, 2u, 4u}) {
      MetricsRegistry metrics;
      Network network(kSeed, &metrics, nullptr, shards);
      const NodeId a = network.AddNode("a");
      const NodeId b = network.AddNode("b");
      network.SetSink(b, [](Packet&&) {});
      network.SetDefaultLink(input.link);
      for (int i = 0; i < kPackets; ++i) {
        network.Send(MakePacket(a, b, i), input.deliver_inline);
      }
      network.DrainForTesting();
      runs.push_back(network.stats());
      if (input.deliver_inline) {
        // Every surviving message went inline: this thread is the only
        // sender, so it always finds the shard idle.
        EXPECT_EQ(ShardSum(metrics, ".batch.inline"),
                  ShardSum(metrics, ".batch.drains"));
        EXPECT_GT(ShardSum(metrics, ".batch.inline"), 0u);
      } else {
        EXPECT_EQ(ShardSum(metrics, ".batch.inline"), 0u);
      }
    }
    ASSERT_EQ(runs.size(), 3u);
    for (size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].packets_duplicated, runs[0].packets_duplicated)
          << "shard count changed the duplicate count";
      EXPECT_EQ(runs[i].packets_dropped, runs[0].packets_dropped);
      EXPECT_EQ(runs[i].packets_corrupted, runs[0].packets_corrupted);
      EXPECT_EQ(runs[i].packets_delivered, runs[0].packets_delivered);
      EXPECT_EQ(runs[i].packets_delivered + runs[i].packets_dropped,
                runs[i].packets_sent + runs[i].packets_duplicated);
    }
    EXPECT_GT(runs[0].packets_duplicated, 0u);
  }
}

// --- The drain token: who delivers -------------------------------------------

TEST(NetworkTest, RequestedDeliveryOfADueMessageRunsOnTheSendingThread) {
  MetricsRegistry metrics;
  Network network(5, &metrics, nullptr, /*shards=*/2);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");  // shard (b - 1) % 2 == 1
  std::mutex mu;
  std::vector<std::thread::id> sink_threads;
  std::vector<uint64_t> got;
  network.SetBatchSink(b, [&](std::vector<Packet>&& packets) {
    std::lock_guard<std::mutex> lock(mu);
    sink_threads.push_back(std::this_thread::get_id());
    for (const Packet& p : packets) {
      got.push_back(p.msg_id);
    }
  });
  network.SetDefaultLink(LinkParams{Micros(0), Micros(0), 0, 0, 0});
  const std::thread::id self = std::this_thread::get_id();

  // Requested and due: delivered before Send returns, on this thread, all
  // of a message's packets in one sink call.
  network.Send(MakePacket(a, b, 1), /*deliver_inline=*/true);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(got, (std::vector<uint64_t>{1}));
    EXPECT_EQ(sink_threads, (std::vector<std::thread::id>{self}));
  }
  std::vector<Packet> message;
  for (uint64_t id : {2, 3, 4}) {
    message.push_back(MakePacket(a, b, id));
  }
  network.Send(message, /*deliver_inline=*/true);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(got, (std::vector<uint64_t>{1, 2, 3, 4}));
    EXPECT_EQ(sink_threads, (std::vector<std::thread::id>{self, self}));
  }
  EXPECT_EQ(metrics.CounterValue("net.shard.1.batch.inline"), 2u);
  EXPECT_EQ(metrics.CounterValue("net.shard.1.batch.drains"), 2u);
  EXPECT_EQ(metrics.CounterValue("net.shard.1.batch.packets"), 4u);
  EXPECT_EQ(metrics.CounterValue("net.shard.1.enqueued"), 4u);

  // Not requested: the worker delivers.
  network.Send(MakePacket(a, b, 5));
  network.DrainForTesting();
  // Requested, but not due yet (latency > 0): the worker delivers.
  network.SetDefaultLink(LinkParams{Micros(300), Micros(0), 0, 0, 0});
  network.Send(MakePacket(a, b, 6), /*deliver_inline=*/true);
  network.DrainForTesting();
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(got, (std::vector<uint64_t>{1, 2, 3, 4, 5, 6}));
    ASSERT_EQ(sink_threads.size(), 4u);
    EXPECT_NE(sink_threads[2], self);
    EXPECT_NE(sink_threads[3], self);
  }
  EXPECT_EQ(metrics.CounterValue("net.shard.1.batch.inline"), 2u);
  EXPECT_EQ(metrics.CounterValue("net.shard.1.batch.drains"), 4u);
  EXPECT_EQ(network.stats().packets_delivered, 6u);
}

TEST(NetworkTest, InlineSendersAndTheWorkerNeverOverlapASink) {
  // The worker drains a backlog for b while four threads send to b. In the
  // first round each sender goes in bursts, waiting for a burst to arrive
  // before the next, so the shard keeps turning idle and busy; the second
  // message of every burst asks for no inline delivery (the worker takes
  // it) and the others ask for it, so each sender's stream mixes both kinds
  // of drain. In the second round every message asks for inline delivery
  // and nobody waits. b's sink must never be entered twice at once, and
  // each sender's messages must arrive in its send order.
  constexpr int kSenders = 4;
  constexpr uint64_t kPerRound = 600;
  constexpr uint64_t kBurst = 4;
  constexpr uint64_t kBacklog = 1000;
  MetricsRegistry metrics;
  Network network(9, &metrics, nullptr, /*shards=*/2);
  std::vector<NodeId> senders;
  for (int s = 0; s <= kSenders; ++s) {
    senders.push_back(network.AddNode("s" + std::to_string(s)));
  }
  const NodeId b = network.AddNode("b");
  std::atomic<bool> in_sink{false};
  std::atomic<bool> overlapped{false};
  std::atomic<bool> out_of_order{false};
  std::atomic<uint64_t> work{0};
  std::mutex mu;
  std::vector<uint64_t> next(kSenders + 1, 0);  // per sender; guarded by mu
  std::vector<std::atomic<uint64_t>> arrived(kSenders + 1);
  network.SetBatchSink(b, [&](std::vector<Packet>&& packets) {
    if (in_sink.exchange(true)) {
      overlapped = true;
    }
    for (const Packet& p : packets) {
      // Some work per packet, so drains overlap in time with sends.
      work.fetch_add(SinkWork(p.msg_id, 8000) & 1);
      const uint64_t sender = p.msg_id / 1'000'000;
      const uint64_t seq = p.msg_id % 1'000'000;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (seq != next[sender]) {
          out_of_order = true;
        }
        next[sender] = seq + 1;
      }
      arrived[sender].fetch_add(1);
    }
    in_sink = false;
  });
  network.SetDefaultLink(LinkParams{Micros(0), Micros(0), 0, 0, 0});
  for (uint64_t i = 0; i < kBacklog; ++i) {
    network.Send(MakePacket(senders[0], b, i));  // heaped for the worker
  }
  for (const bool paced : {true, false}) {
    std::vector<std::thread> threads;
    for (int s = 1; s <= kSenders; ++s) {
      threads.emplace_back([&, s] {
        const uint64_t first = paced ? 0 : kPerRound;
        for (uint64_t i = first; i < first + kPerRound; ++i) {
          network.Send(MakePacket(senders[s], b, s * 1'000'000 + i),
                       /*deliver_inline=*/!paced || i % kBurst != 1);
          if (paced && (i + 1) % kBurst == 0) {
            while (arrived[s].load() < i + 1) {
              std::this_thread::yield();
            }
          }
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    network.DrainForTesting();
  }
  EXPECT_FALSE(overlapped.load()) << "b's sink ran concurrently with itself";
  EXPECT_FALSE(out_of_order.load()) << "a sender's messages were reordered";
  EXPECT_EQ(network.stats().packets_delivered,
            kBacklog + 2 * kSenders * kPerRound);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(next[0], kBacklog);
    for (int s = 1; s <= kSenders; ++s) {
      EXPECT_EQ(next[s], 2 * kPerRound);
    }
  }
  // Both kinds of drain ran.
  const uint64_t inline_drains = ShardSum(metrics, ".batch.inline");
  EXPECT_GT(inline_drains, 0u);
  EXPECT_GT(ShardSum(metrics, ".batch.drains"), inline_drains);
}

TEST(NetworkTest, NoSinkRunsAfterShutdownReturnsWhileSendersDrainInline) {
  // Shutdown races four senders, one per destination and shard: three ask
  // for inline delivery, one leaves its packets to its shard's worker. One
  // inline sink is held open while Shutdown runs (until Shutdown returns,
  // or 200 ms): Shutdown must wait it out, and no sender may start a drain
  // once Shutdown has begun.
  Network network(13, nullptr, nullptr, /*shards=*/4);
  const NodeId a = network.AddNode("a");
  std::vector<NodeId> dsts;
  for (int s = 0; s < 4; ++s) {
    dsts.push_back(network.AddNode("d" + std::to_string(s)));
  }
  std::atomic<bool> shut_down{false};
  std::atomic<bool> hold_next{false};
  std::atomic<bool> holding{false};
  std::atomic<uint64_t> ran_after{0};
  std::atomic<uint64_t> delivered{0};
  auto count = [&] {
    delivered.fetch_add(1);
    // Checked on the way out: a sink still running when Shutdown returned
    // sees the flag.
    if (shut_down.load()) {
      ran_after.fetch_add(1);
    }
  };
  auto inline_sink = [&](Packet&&) {
    if (hold_next.exchange(false)) {
      holding = true;
      const Deadline hold(Millis(200));
      while (!shut_down.load() && !hold.Expired()) {
        std::this_thread::yield();
      }
    }
    count();
  };
  for (int s = 0; s < 3; ++s) {
    network.SetSink(dsts[s], inline_sink);
  }
  network.SetSink(dsts[3], [&](Packet&&) { count(); });
  network.SetDefaultLink(LinkParams{Micros(0), Micros(0), 0, 0, 0});
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int s = 0; s < 4; ++s) {
    threads.emplace_back([&, s] {
      for (uint64_t i = 0; !stop.load(); ++i) {
        network.Send(MakePacket(a, dsts[s], i), /*deliver_inline=*/s != 3);
      }
    });
  }
  while (delivered.load() < 200) {
    std::this_thread::yield();
  }
  hold_next = true;
  while (!holding.load()) {
    std::this_thread::yield();
  }
  network.Shutdown();
  shut_down = true;
  std::this_thread::sleep_for(Millis(5));  // senders keep sending meanwhile
  stop = true;
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(ran_after.load(), 0u);
  EXPECT_TRUE(network.DrainForTesting(Millis(100)));  // returns once stopped
}

TEST(NetworkTest, MixedDestinationDrainKeepsPerDestinationOrder) {
  // One shard owns every node, and virtual time makes all 30 packets due
  // at once, so a single drain holds three destinations, one of them down.
  // Each live destination gets one sink call carrying its packets in send
  // order, the calls come in first-appearance order, and the down node's
  // packets are counted as dst_down drops.
  SimulatedClock sim;
  MetricsRegistry metrics;
  Network network(3, &metrics, nullptr, /*shards=*/1, /*batch_max=*/64,
                  &sim);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  const NodeId c = network.AddNode("c");
  const NodeId d = network.AddNode("d");
  std::mutex mu;
  std::vector<NodeId> calls;
  std::vector<uint64_t> got_b;
  std::vector<uint64_t> got_c;
  auto record = [&](NodeId node, std::vector<uint64_t>* got) {
    return [&mu, &calls, node, got](std::vector<Packet>&& packets) {
      std::lock_guard<std::mutex> lock(mu);
      calls.push_back(node);
      for (const Packet& p : packets) {
        got->push_back(p.msg_id);
      }
    };
  };
  network.SetBatchSink(b, record(b, &got_b));
  network.SetBatchSink(c, record(c, &got_c));
  network.SetSink(d, [](Packet&&) {});
  network.SetNodeUp(d, false);
  network.SetDefaultLink(LinkParams{Millis(1), Micros(0), 0, 0, 0});
  std::vector<uint64_t> sent_b;
  std::vector<uint64_t> sent_c;
  for (uint64_t i = 0; i < 30; ++i) {
    const NodeId dst = i % 3 == 0 ? c : i % 3 == 1 ? d : b;
    network.Send(MakePacket(a, dst, i));
    if (dst == b) {
      sent_b.push_back(i);
    } else if (dst == c) {
      sent_c.push_back(i);
    }
  }
  sim.Advance(Millis(1));
  network.DrainForTesting();

  EXPECT_EQ(metrics.CounterValue("net.shard.0.batch.drains"), 1u);
  EXPECT_EQ(metrics.CounterValue("net.shard.0.batch.packets"), 30u);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(calls, (std::vector<NodeId>{c, b}));
  EXPECT_EQ(got_b, sent_b);
  EXPECT_EQ(got_c, sent_c);
  EXPECT_EQ(metrics.CounterValue("net.drop.dst_down"), 10u);
  EXPECT_EQ(metrics.CounterValue("net.shard.0.delivered"), 20u);
  EXPECT_EQ(metrics.CounterValue("net.shard.0.dropped"), 10u);
  EXPECT_EQ(network.stats().packets_delivered, 20u);
}

TEST(NetworkTest, TotalsEqualTheirBreakdowns) {
  // The registry is the network's only ledger: stats() reads its net.*
  // totals, and each finer counter family (drop reasons, links, shards)
  // must sum to the matching total. A network that owns its registry must
  // count exactly like one given a caller's.
  auto run = [](MetricsRegistry* metrics) {
    Network network(4242, metrics, nullptr, /*shards=*/2);
    const NodeId a = network.AddNode("a");
    const NodeId b = network.AddNode("b");
    const NodeId c = network.AddNode("c");
    network.SetSink(b, [](Packet&&) {});
    network.SetSink(c, [](Packet&&) {});
    network.SetDefaultLink(
        LinkParams{Micros(10), Micros(5), 0.2, 0.1, 0, 0.25});
    auto burst = [&](uint64_t first) {
      for (uint64_t i = first; i < first + 100; ++i) {
        network.Send(MakePacket(a, i % 2 == 0 ? b : c, i));
      }
      network.DrainForTesting();
    };
    burst(0);
    network.SetPartitioned(a, b, true);
    burst(100);
    network.SetNodeUp(c, false);  // copies to c now die at delivery
    burst(200);
    return network.stats();
  };
  MetricsRegistry metrics;
  const NetworkStats given = run(&metrics);
  const NetworkStats owned = run(nullptr);
  EXPECT_EQ(given.packets_sent, owned.packets_sent);
  EXPECT_EQ(given.packets_delivered, owned.packets_delivered);
  EXPECT_EQ(given.packets_dropped, owned.packets_dropped);
  EXPECT_EQ(given.packets_corrupted, owned.packets_corrupted);
  EXPECT_EQ(given.packets_duplicated, owned.packets_duplicated);
  EXPECT_EQ(given.bytes_sent, owned.bytes_sent);
  EXPECT_EQ(given.packets_sent, 300u);
  EXPECT_GT(given.packets_corrupted, 0u);
  EXPECT_GT(given.packets_duplicated, 0u);
  EXPECT_GT(metrics.CounterValue("net.drop.loss"), 0u);
  EXPECT_GT(metrics.CounterValue("net.drop.partition"), 0u);
  EXPECT_GT(metrics.CounterValue("net.drop.dst_down"), 0u);

  auto sum = [&metrics](const std::string& prefix,
                        const std::string& suffix) {
    uint64_t total = 0;
    for (const auto& [name, value] : metrics.CountersWithPrefix(prefix)) {
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
        total += value;
      }
    }
    return total;
  };
  EXPECT_EQ(sum("net.drop.", ""), given.packets_dropped);
  EXPECT_EQ(sum("net.link.", ".sent"), given.packets_sent);
  EXPECT_EQ(sum("net.link.", ".delivered"), given.packets_delivered);
  EXPECT_EQ(sum("net.link.", ".dropped"), given.packets_dropped);
  EXPECT_EQ(sum("net.link.", ".corrupted"), given.packets_corrupted);
  EXPECT_EQ(sum("net.link.", ".duplicated"), given.packets_duplicated);
  EXPECT_EQ(sum("net.shard.", ".delivered"), given.packets_delivered);
  EXPECT_EQ(sum("net.shard.", ".dropped"),
            metrics.CounterValue("net.drop.dst_down"));
  EXPECT_EQ(given.packets_delivered + given.packets_dropped,
            given.packets_sent + given.packets_duplicated);
}

}  // namespace
}  // namespace guardians
