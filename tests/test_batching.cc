// Batched delivery drains (DESIGN.md §12).
//
// The invariant the tentpole must not break: loss, corruption, duplication
// and latency are all decided at Send() under one lock and one rng, so the
// outcome counts — delivered, dropped, duplicated, dedup-suppressed — are
// bit-identical for a given seed at EVERY (delivery_batch_max,
// delivery_shards) combination. Batching may only change how many lock
// round-trips those outcomes cost, never which outcomes happen.
//
// Runs under the tsan label: the multi-threaded cases exercise concurrent
// Send() against batched drains, PushRun fan-in, DrainForTesting's
// barrier with batches mid-flight, and Shutdown with a loaded heap.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/guardian/system.h"
#include "src/net/network.h"

namespace guardians {
namespace {

PortType BatchPortType() {
  return PortType("batch_put",
                  {MessageSig{"put", {ArgType::Of(TypeTag::kString)}, {}}});
}

struct Counts {
  NetworkStats net;
  uint64_t delivered = 0;
  uint64_t suppressed = 0;
  uint64_t port_full = 0;
  uint64_t credits = 0;

  void ExpectEq(const Counts& other, const std::string& what) const {
    EXPECT_EQ(net.packets_sent, other.net.packets_sent) << what;
    EXPECT_EQ(net.packets_delivered, other.net.packets_delivered) << what;
    EXPECT_EQ(net.packets_dropped, other.net.packets_dropped) << what;
    EXPECT_EQ(net.packets_duplicated, other.net.packets_duplicated) << what;
    EXPECT_EQ(net.packets_corrupted, other.net.packets_corrupted) << what;
    EXPECT_EQ(delivered, other.delivered) << what;
    EXPECT_EQ(suppressed, other.suppressed) << what;
    EXPECT_EQ(port_full, other.port_full) << what;
    EXPECT_EQ(credits, other.credits) << what;
  }
};

// One deterministic workload: 400 tracked sends from one thread through a
// lossy, duplicating link into a passive receiver with room for everything.
// Single-threaded sends fix the global Send order, which (with the seed)
// fixes every wire outcome; the delivery side may then run at any batch
// size and shard count.
Counts RunWorkload(size_t batch_max, size_t shards) {
  SystemConfig config;
  config.seed = 97;
  config.delivery_batch_max = batch_max;
  config.delivery_shards = shards;
  config.default_link.latency = Micros(30);
  config.default_link.jitter = Micros(10);
  config.default_link.drop_prob = 0.05;
  config.default_link.dup_prob = 0.02;
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  for (auto* node : {&a, &b}) {
    node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  }
  Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
  Guardian* receiver = *b.Create<ShellGuardian>("shell", "receiver", {});
  Port* target = receiver->AddPort(BatchPortType(), /*capacity=*/1024);
  for (int i = 0; i < 400; ++i) {
    const uint64_t seq = a.NextDedupSeq();
    auto sent = sender->SendFull(target->name(), "put",
                                 {Value::Str("m" + std::to_string(i))},
                                 PortName{}, PortName{}, seq);
    EXPECT_TRUE(sent.ok());
  }
  system.network().DrainForTesting();
  Counts c;
  c.net = system.network().stats();
  c.delivered = system.metrics().CounterValue("deliver.delivered");
  c.suppressed = system.metrics().CounterValue("deliver.dup.suppressed");
  c.port_full = system.metrics().CounterValue("deliver.drop.port_full");
  c.credits = system.metrics().CounterValue("flow.credits_granted");
  return c;
}

TEST(BatchingTest, CountsBitIdenticalAcrossBatchSizesAndShardCounts) {
  const Counts baseline = RunWorkload(/*batch_max=*/1, /*shards=*/1);
  // The dice really rolled: a workload where nothing is ever dropped or
  // duplicated would pass this test vacuously.
  EXPECT_GT(baseline.net.packets_dropped, 0u);
  EXPECT_GT(baseline.net.packets_duplicated, 0u);
  EXPECT_GT(baseline.suppressed, 0u);
  EXPECT_EQ(baseline.port_full, 0u);

  for (size_t batch_max : {1u, 8u, 64u}) {
    for (size_t shards : {1u, 4u}) {
      if (batch_max == 1 && shards == 1) {
        continue;
      }
      const Counts c = RunWorkload(batch_max, shards);
      c.ExpectEq(baseline, "batch_max=" + std::to_string(batch_max) +
                               " shards=" + std::to_string(shards));
    }
  }
}

TEST(BatchingTest, BatchedDrainsMovePacketsInBulkAndBatchOneDoesNot) {
  // A burst sent well inside the link latency is all due at once; a
  // batched shard must then move many packets per lock round-trip.
  auto run = [](size_t batch_max) {
    SystemConfig config;
    config.seed = 11;
    config.delivery_batch_max = batch_max;
    config.delivery_shards = 2;
    config.default_link.latency = Millis(5);  // queue the whole burst first
    System system(config);
    NodeRuntime& a = system.AddNode("a");
    NodeRuntime& b = system.AddNode("b");
    for (auto* node : {&a, &b}) {
      node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    }
    Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
    Guardian* receiver = *b.Create<ShellGuardian>("shell", "receiver", {});
    Port* target = receiver->AddPort(BatchPortType(), /*capacity=*/512);
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(sender->Send(target->name(), "put",
                               {Value::Str("m")}).ok());
    }
    system.network().DrainForTesting();
    uint64_t drains = 0;
    uint64_t packets = 0;
    for (size_t k = 0; k < system.network().shard_count(); ++k) {
      const std::string prefix = "net.shard." + std::to_string(k);
      drains += system.metrics().CounterValue(prefix + ".batch.drains");
      packets += system.metrics().CounterValue(prefix + ".batch.packets");
    }
    EXPECT_EQ(packets, system.network().stats().packets_delivered);
    return std::make_pair(drains, packets);
  };

  const auto [drains_batched, packets_batched] = run(/*batch_max=*/64);
  EXPECT_LT(drains_batched, packets_batched)
      << "some drain must have moved more than one packet";

  // batch_max = 1 is the old engine bit for bit: one drain per packet.
  const auto [drains_single, packets_single] = run(/*batch_max=*/1);
  EXPECT_EQ(drains_single, packets_single);
  EXPECT_EQ(packets_single, packets_batched);
}

TEST(BatchingTest, ConcurrentSendersDrainBarrierAndConservationLaw) {
  // tsan workhorse: many threads Send() while shard workers drain batches
  // into the same destination ports. After the barrier, the conservation
  // law must hold exactly — no packet may be double-resolved or leaked by
  // the grouped delivery path.
  SystemConfig config;
  config.seed = 13;
  config.delivery_batch_max = 32;
  config.delivery_shards = 4;
  config.default_link.latency = Micros(100);
  config.default_link.jitter = Micros(50);
  config.default_link.drop_prob = 0.02;
  config.default_link.dup_prob = 0.02;
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  NodeRuntime& c = system.AddNode("c");
  for (auto* node : {&a, &b, &c}) {
    node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  }
  Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
  Guardian* rb = *b.Create<ShellGuardian>("shell", "rb", {});
  Guardian* rc = *c.Create<ShellGuardian>("shell", "rc", {});
  Port* tb = rb->AddPort(BatchPortType(), /*capacity=*/2048);
  Port* tc = rc->AddPort(BatchPortType(), /*capacity=*/2048);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([sender, tb, tc, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Port* target = (t + i) % 2 == 0 ? tb : tc;
        EXPECT_TRUE(sender->Send(target->name(), "put",
                                 {Value::Str("m")}).ok());
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  system.network().DrainForTesting();

  const NetworkStats stats = system.network().stats();
  EXPECT_EQ(stats.packets_sent, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.packets_delivered + stats.packets_dropped,
            stats.packets_sent + stats.packets_duplicated);
  EXPECT_EQ(system.metrics().CounterValue("deliver.delivered"),
            stats.packets_delivered);
  EXPECT_EQ(tb->enqueued() + tc->enqueued(), stats.packets_delivered);
}

TEST(BatchingTest, ShutdownWithBatchesInFlightDoesNotCrashOrHang) {
  // Load every shard heap with far-future packets and tear the system
  // down: Shutdown must stop the workers without delivering (or leaking)
  // the backlog, and must win any race with a batch mid-drain.
  for (int round = 0; round < 3; ++round) {
    SystemConfig config;
    config.seed = 17 + static_cast<uint64_t>(round);
    config.delivery_batch_max = 64;
    config.delivery_shards = 4;
    config.default_link.latency = Millis(50);  // still in-heap at teardown
    System system(config);
    NodeRuntime& a = system.AddNode("a");
    NodeRuntime& b = system.AddNode("b");
    for (auto* node : {&a, &b}) {
      node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    }
    Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
    Guardian* receiver = *b.Create<ShellGuardian>("shell", "receiver", {});
    Port* target = receiver->AddPort(BatchPortType(), /*capacity=*/1024);
    for (int i = 0; i < 256; ++i) {
      ASSERT_TRUE(sender->Send(target->name(), "put",
                               {Value::Str("m")}).ok());
    }
    // ~System: Crash() the nodes, then Network::Shutdown() with ~256
    // packets still heaped. DrainForTesting afterwards must return
    // immediately (documented contract), not wait for the dead backlog.
    system.network().Shutdown();
    system.network().DrainForTesting();
  }
}

}  // namespace
}  // namespace guardians
