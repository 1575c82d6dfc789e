// Unit tests for the simulated network (the Section 1.1 substrate).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
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

TEST(NetworkTest, DuplicateCountsBitIdenticalAcrossShardCounts) {
  // Loss, duplication, and corruption are all decided at Send() under one
  // lock and one rng: for a fixed seed the counts must not depend on how
  // many delivery workers drain the heaps.
  constexpr uint64_t kSeed = 1979;
  constexpr int kPackets = 400;
  std::vector<NetworkStats> runs;
  for (size_t shards : {1u, 2u, 4u}) {
    Network network(kSeed, nullptr, nullptr, shards);
    const NodeId a = network.AddNode("a");
    const NodeId b = network.AddNode("b");
    network.SetSink(b, [](Packet&&) {});
    network.SetDefaultLink(
        LinkParams{Micros(10), Micros(5), 0.2, 0.1, 0, 0.25});
    for (int i = 0; i < kPackets; ++i) {
      network.Send(MakePacket(a, b, i));
    }
    network.DrainForTesting();
    runs.push_back(network.stats());
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
