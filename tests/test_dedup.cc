// The at-most-once layer (DESIGN.md §10): the DedupTable's window and
// reply-cache mechanics, duplicate suppression and cached-reply replay
// end-to-end, retry-safety of non-idempotent operations (including remote
// creation), the durable dedup journal across a crash, and the behaviour
// of a retry storm across a partition heal.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/airline/flight_guardian.h"
#include "src/airline/types.h"
#include "src/guardian/port.h"
#include "src/guardian/system.h"
#include "src/sendprims/reliable_send.h"
#include "src/sendprims/remote_call.h"
#include "src/sendprims/sync_send.h"

namespace guardians {
namespace {

// ---------------------------------------------------------------------------
// DedupTable unit tests
// ---------------------------------------------------------------------------

DedupTable::CachedReply Reply(const std::string& command) {
  DedupTable::CachedReply r;
  r.command = command;
  return r;
}

TEST(DedupTableTest, ClassifyMarkCacheReplayRoundTrip) {
  DedupTable table;
  EXPECT_EQ(table.Classify(7, 1, nullptr), DedupTable::Verdict::kFresh);
  table.MarkSeen(7, 1);
  EXPECT_EQ(table.Classify(7, 1, nullptr), DedupTable::Verdict::kDuplicate);
  // A different session's seq 1 is unrelated.
  EXPECT_EQ(table.Classify(8, 1, nullptr), DedupTable::Verdict::kFresh);

  table.CacheReply(7, 1, Reply("ok"));
  DedupTable::CachedReply replay;
  EXPECT_EQ(table.Classify(7, 1, &replay), DedupTable::Verdict::kReplay);
  EXPECT_EQ(replay.command, "ok");
  EXPECT_EQ(table.HighWater(7), 1u);
}

TEST(DedupTableTest, WindowFloorIsConservativelySeen) {
  DedupTable::Config config;
  config.window = 4;
  DedupTable table(config);
  table.MarkSeen(1, 10);  // floor slides to 6
  // In-window seqs the session never sent are still fresh (reordering
  // within the window must not be mistaken for duplication)...
  EXPECT_EQ(table.Classify(1, 8, nullptr), DedupTable::Verdict::kFresh);
  // ...but anything at or below the floor is conservatively a duplicate:
  // dropping an ancient straggler is allowed, executing it twice is not.
  EXPECT_EQ(table.Classify(1, 6, nullptr), DedupTable::Verdict::kDuplicate);
  EXPECT_EQ(table.Classify(1, 2, nullptr), DedupTable::Verdict::kDuplicate);
}

TEST(DedupTableTest, ReplyCacheEvictsOldestFirst) {
  DedupTable::Config config;
  config.reply_cache_capacity = 2;
  DedupTable table(config);
  table.CacheReply(1, 1, Reply("a"));
  table.CacheReply(1, 2, Reply("b"));
  table.CacheReply(1, 3, Reply("c"));
  EXPECT_EQ(table.cached_reply_count(), 2u);
  // The evicted op stays seen — its duplicate is suppressed, just no
  // longer answerable.
  EXPECT_EQ(table.Classify(1, 1, nullptr), DedupTable::Verdict::kDuplicate);
  EXPECT_EQ(table.Classify(1, 2, nullptr), DedupTable::Verdict::kReplay);
  EXPECT_EQ(table.Classify(1, 3, nullptr), DedupTable::Verdict::kReplay);
}

TEST(DedupTableTest, UnmarkMakesASeqFreshAgain) {
  DedupTable table;
  table.MarkSeen(5, 3);
  table.Unmark(5, 3);
  // The push failed, the message was thrown away: the retry must land.
  EXPECT_EQ(table.Classify(5, 3, nullptr), DedupTable::Verdict::kFresh);
}

TEST(DedupTableTest, AckedTracksDequeuedOps) {
  DedupTable table;
  table.MarkSeen(5, 3);
  EXPECT_FALSE(table.Acked(5, 3));
  table.MarkAcked(5, 3);
  EXPECT_TRUE(table.Acked(5, 3));
  EXPECT_FALSE(table.Acked(5, 4));
}

TEST(DedupTableTest, RestoreFloorMakesRecoveredSeqsSeenAndAcked) {
  DedupTable table;
  table.RestoreFloor(9, 5);
  EXPECT_EQ(table.Classify(9, 3, nullptr), DedupTable::Verdict::kDuplicate);
  EXPECT_TRUE(table.Acked(9, 5));
  EXPECT_EQ(table.Classify(9, 6, nullptr), DedupTable::Verdict::kFresh);
  EXPECT_EQ(table.HighWater(9), 5u);
}

// ---------------------------------------------------------------------------
// End-to-end: suppression, replay, journal recovery, retry safety
// ---------------------------------------------------------------------------

PortType CounterPortType() {
  return PortType("count_req", {MessageSig{"inc", {}, {"val"}}});
}

PortType CounterReplyType() {
  return PortType("count_reply",
                  {MessageSig{"val", {ArgType::Of(TypeTag::kInt)}, {}}});
}

class DedupSystemTest : public ::testing::Test {
 protected:
  DedupSystemTest() : system_(MakeConfig()) {
    client_node_ = &system_.AddNode("client");
    region_ = &system_.AddNode("region");
    for (auto* node : {client_node_, region_}) {
      node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    }
    region_->RegisterGuardianType("flight", MakeFactory<FlightGuardian>());
    client_ = *client_node_->Create<ShellGuardian>("shell", "client", {});
    server_ = *region_->Create<ShellGuardian>("shell", "server", {});
  }

  static SystemConfig MakeConfig() {
    SystemConfig config;
    config.seed = 4242;
    config.default_link.latency = Micros(100);
    return config;
  }

  FlightConfig MakeFlight(int64_t flight_no, int capacity) {
    FlightConfig fc;
    fc.flight_no = flight_no;
    fc.capacity = capacity;
    fc.organization = FlightOrganization::kOneAtATime;
    fc.logging = true;
    fc.checkpoint_every = 64;
    return fc;
  }

  System system_;
  NodeRuntime* client_node_ = nullptr;
  NodeRuntime* region_ = nullptr;
  Guardian* client_ = nullptr;
  Guardian* server_ = nullptr;
};

TEST_F(DedupSystemTest, ReliableSendDeliversOneCopyUnderFullDuplication) {
  // Every packet is duplicated on the wire; the receiving process must
  // still see exactly one copy, and the extra one must be counted as
  // suppressed, not delivered.
  LinkParams dupy;
  dupy.latency = Micros(100);
  dupy.dup_prob = 1.0;
  system_.network().SetLink(client_node_->id(), region_->id(), dupy);

  Port* port = server_->AddPort(CounterPortType(), 16);
  std::atomic<int> received{0};
  server_->Fork("count", [this, port, &received] {
    while (server_->Receive(port, Micros::max()).ok()) {
      ++received;
    }
  });

  ReliableSendOptions options;
  options.ack_timeout = Millis(1000);
  options.max_attempts = 3;
  auto result =
      ReliableSend(*client_, port->name(), "inc", {}, options);
  ASSERT_TRUE(result.ok()) << result.status();

  system_.network().DrainForTesting();
  std::this_thread::sleep_for(Millis(50));
  EXPECT_EQ(received.load(), 1);
  EXPECT_GE(system_.metrics().CounterValue("deliver.dup.suppressed"), 1u);
}

TEST_F(DedupSystemTest, NonIdempotentRetryExecutesExactlyOnce) {
  // The server is slow: the first attempt's reply arrives after the
  // caller's per-attempt timeout, forcing a retry of a NON-idempotent
  // operation. The retry must be suppressed (the original is still in
  // progress), and the late reply satisfies the call: one execution.
  Port* port = server_->AddPort(CounterPortType(), 16);
  std::atomic<int> executions{0};
  server_->Fork("slow_counter", [this, port, &executions] {
    for (;;) {
      auto request = server_->Receive(port, Micros::max());
      if (!request.ok()) {
        return;
      }
      std::this_thread::sleep_for(Millis(400));
      const int val = ++executions;
      if (!request->reply_to.IsNull()) {
        (void)server_->Send(request->reply_to, "val", {Value::Int(val)});
      }
    }
  });

  RemoteCallOptions options;
  options.timeout = Millis(150);  // < the 400ms service time
  options.max_attempts = 5;
  auto reply = RemoteCall(*client_, port->name(), "inc", {},
                          CounterReplyType(), options);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->command, "val");
  EXPECT_GE(reply->attempts, 2);  // the slow first attempt really timed out
  system_.network().DrainForTesting();
  EXPECT_EQ(executions.load(), 1);
  EXPECT_GE(system_.metrics().CounterValue("deliver.dup.suppressed"), 1u);
}

TEST_F(DedupSystemTest, CachedReplyAnswersDuplicateAndSurvivesCrash) {
  auto flight = region_->Create<FlightGuardian>(
      "flight", "f1", MakeFlight(1, 1 << 10).ToArgs(), /*persistent=*/true);
  ASSERT_TRUE(flight.ok());
  const PortName flight_port = (*flight)->ProvidedPorts()[0];

  // A tracked request sent by hand so the retry can reuse the exact
  // (session, seq) identity across the region's crash.
  Port* reply_port = client_->AddPort(ReservationReplyType(), 8);
  const uint64_t seq = client_node_->NextDedupSeq();
  auto send = [&] {
    return client_->SendFull(flight_port, "reserve",
                             {Value::Str("p0"), Value::Str("d0")},
                             reply_port->name(), PortName{}, seq);
  };

  ASSERT_TRUE(send().ok());
  auto first = client_->Receive(reply_port, Millis(2000));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->command, "ok");

  // A duplicate of the identical request: answered from the reply cache
  // without re-executing.
  ASSERT_TRUE(send().ok());
  auto replayed = client_->Receive(reply_port, Millis(2000));
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->command, "ok");
  EXPECT_EQ(system_.metrics().CounterValue("deliver.dup.replayed"), 1u);

  // Power-fail the region. The dedup journal is stable storage: after
  // recovery the same duplicate is still answered from the cache, not
  // re-executed.
  region_->Crash();
  ASSERT_TRUE(region_->Restart().ok());
  ASSERT_TRUE(send().ok());
  auto recovered = client_->Receive(reply_port, Millis(5000));
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->command, "ok");
  EXPECT_EQ(system_.metrics().CounterValue("deliver.dup.replayed"), 2u);

  auto* recovered_flight = dynamic_cast<FlightGuardian*>(
      region_->FindGuardian(flight_port.guardian));
  ASSERT_NE(recovered_flight, nullptr);
  const FlightDb db = recovered_flight->SnapshotDb();
  EXPECT_TRUE(db.CheckInvariants());
  EXPECT_TRUE(db.IsReserved("p0", "d0"));
  EXPECT_EQ(db.Passengers("d0").size(), 1u);
}

TEST_F(DedupSystemTest, CompactionKeepsTheReplyThatTriggeredIt) {
  // Regression: a reply used to be cached only after the journal lock was
  // released, so the compaction its own append triggered snapshotted the
  // cache without it, truncated the log and re-appended the rest. After a
  // crash its sender's session had no record at all: the duplicate was
  // classified fresh and re-executed.
  auto flight = region_->Create<FlightGuardian>(
      "flight", "f2", MakeFlight(2, 1 << 10).ToArgs(), /*persistent=*/true);
  ASSERT_TRUE(flight.ok());
  const PortName flight_port = (*flight)->ProvidedPorts()[0];

  // Fillers: tracked calls from the client node, so the region journals
  // one reply per call.
  Port* counter = server_->AddPort(CounterPortType(), 16);
  server_->Fork("counter", [this, counter] {
    for (;;) {
      auto request = server_->Receive(counter, Micros::max());
      if (!request.ok()) {
        return;
      }
      (void)server_->Send(request->reply_to, "val", {Value::Int(0)});
    }
  });
  const uint64_t fillers = NodeRuntime::kDedupCompactEvery - 1;
  for (uint64_t i = 0; i < fillers; ++i) {
    auto reply = RemoteCall(*client_, counter->name(), "inc", {},
                            CounterReplyType());
    ASSERT_TRUE(reply.ok()) << "filler " << i << ": " << reply.status();
  }
  ASSERT_EQ(system_.metrics().CounterValue("node.dedup.journaled"), fillers);

  // The triggering reply: the only operation of a second node's session,
  // so no other record of that session can restore its floor.
  NodeRuntime& other_node = system_.AddNode("other");
  other_node.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  Guardian* other = *other_node.Create<ShellGuardian>("shell", "other", {});
  Port* reply_port = other->AddPort(ReservationReplyType(), 8);
  const uint64_t seq = other_node.NextDedupSeq();
  auto send = [&] {
    return other->SendFull(flight_port, "reserve",
                           {Value::Str("p0"), Value::Str("d0")},
                           reply_port->name(), PortName{}, seq);
  };
  ASSERT_TRUE(send().ok());
  auto first = other->Receive(reply_port, Millis(2000));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->command, "ok");
  ASSERT_EQ(system_.metrics().CounterValue("node.dedup.journaled"),
            NodeRuntime::kDedupCompactEvery);

  region_->Crash();
  ASSERT_TRUE(region_->Restart().ok());
  ASSERT_TRUE(send().ok());
  auto recovered = other->Receive(reply_port, Millis(5000));
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->command, "ok") << "the reserve re-executed";
  EXPECT_EQ(system_.metrics().CounterValue("deliver.dup.replayed"), 1u);
}

TEST_F(DedupSystemTest, FailedJournalAppendIsNotCountedAsJournaled) {
  // Regression: node.dedup.journaled was bumped after every append attempt,
  // so with a failed stable store a reply that never reached the journal
  // still read as journaled.
  region_->stable_store().SetFailed(true);
  Port* counter = server_->AddPort(CounterPortType(), 16);
  server_->Fork("counter", [this, counter] {
    for (;;) {
      auto request = server_->Receive(counter, Micros::max());
      if (!request.ok()) {
        return;
      }
      (void)server_->Send(request->reply_to, "val", {Value::Int(7)});
    }
  });
  auto reply = RemoteCall(*client_, counter->name(), "inc", {},
                          CounterReplyType());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->command, "val");  // the reply still goes out
  EXPECT_EQ(system_.metrics().CounterValue("node.dedup.journaled"), 0u);
}

TEST_F(DedupSystemTest, CreationRetriesConvergeOnOneGuardian) {
  // Remote creation is not idempotent; under full duplication every
  // creation request reaches the primordial twice, and the client issues
  // it twice more on top. All roads must lead to the same guardian.
  LinkParams dupy;
  dupy.latency = Micros(100);
  dupy.dup_prob = 1.0;
  system_.network().SetLink(client_node_->id(), region_->id(), dupy);

  auto first = CreateGuardianAt(*client_, region_->PrimordialPort(),
                                "flight", "fx", MakeFlight(7, 64).ToArgs(),
                                /*persistent=*/true, Millis(2000));
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_FALSE(first->empty());
  auto second = CreateGuardianAt(*client_, region_->PrimordialPort(),
                                 "flight", "fx", MakeFlight(7, 64).ToArgs(),
                                 /*persistent=*/true, Millis(2000));
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_FALSE(second->empty());
  EXPECT_TRUE((*first)[0] == (*second)[0])
      << "creation retries produced distinct guardians";
  EXPECT_NE(region_->FindGuardianByName("fx"), nullptr);
}

TEST_F(DedupSystemTest, PartitionHealRetryStormDoesNotDoubleBook) {
  // Cut the link mid-call: the client's attempts pile up against the
  // partition, then the heal lets the storm through — duplicated 1:1 by
  // the link on top. The seat must be booked exactly once.
  LinkParams dupy;
  dupy.latency = Micros(100);
  dupy.dup_prob = 1.0;
  system_.network().SetLink(client_node_->id(), region_->id(), dupy);

  auto flight = region_->Create<FlightGuardian>(
      "flight", "f9", MakeFlight(9, 2).ToArgs(), /*persistent=*/true);
  ASSERT_TRUE(flight.ok());
  const PortName flight_port = (*flight)->ProvidedPorts()[0];

  system_.network().SetPartitioned(client_node_->id(), region_->id(), true);
  std::thread healer([this] {
    std::this_thread::sleep_for(Millis(400));
    system_.network().SetPartitioned(client_node_->id(), region_->id(),
                                     false);
  });

  RemoteCallOptions options;
  options.timeout = Millis(150);
  options.max_attempts = 20;  // spans the 400ms partition comfortably
  auto reply = RemoteCall(*client_, flight_port, "reserve",
                          {Value::Str("p0"), Value::Str("d0")},
                          ReservationReplyType(), options);
  healer.join();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->command, "ok");
  EXPECT_GT(reply->attempts, 1);  // the partition really forced retries

  system_.network().DrainForTesting();
  const FlightDb db = dynamic_cast<FlightGuardian*>(
                          region_->FindGuardian(flight_port.guardian))
                          ->SnapshotDb();
  EXPECT_TRUE(db.CheckInvariants());
  EXPECT_TRUE(db.IsReserved("p0", "d0"));
  EXPECT_EQ(db.Passengers("d0").size(), 1u) << "seat double-booked";
  EXPECT_GE(system_.metrics().CounterValue("deliver.dup.suppressed"), 1u);
}

TEST_F(DedupSystemTest, ReliableSendHonoursOverallDeadline) {
  // Nobody ever receives: without a deadline this would grind through all
  // max_attempts x ack_timeout; the overall deadline cuts it off and is
  // counted.
  Port* port = server_->AddPort(CounterPortType(), 16);
  ReliableSendOptions options;
  options.ack_timeout = Millis(100);
  options.max_attempts = 1000;
  options.initial_backoff = Millis(5);
  options.jitter = 0.0;
  options.deadline = Millis(300);

  const TimePoint start = Now();
  auto result = ReliableSend(*client_, port->name(), "inc", {}, options);
  const int64_t elapsed = ToMicros(Now() - start);
  EXPECT_EQ(result.status().code(), Code::kTimeout);
  EXPECT_GE(elapsed, 290000);
  EXPECT_LT(elapsed, 2000000);
  EXPECT_EQ(system_.metrics().CounterValue(
                "sendprims.reliable.deadline_exceeded"),
            1u);
}

// ---------------------------------------------------------------------------
// Duplicate-ack-storm regression (SyncSend ack-port capacity)
// ---------------------------------------------------------------------------

PortType StormPortType() {
  return PortType("storm",
                  {MessageSig{"flood", {ArgType::Of(TypeTag::kPortName)}, {}},
                   MessageSig{"put", {}, {}}});
}

// SyncSend's transient ack port had a hardcoded capacity of 4: a burst of
// stale/duplicate acks could evict the real receipt ack, turning a
// delivered message into a spurious timeout + retry. The capacity now
// comes from SystemConfig::sync_ack_capacity. The storm is staged
// deterministically: the receiver is told the ack port's (predictable)
// name up front, floods it with stale acks, and only then dequeues the
// synchronized send — so the real ack always arrives behind the storm.
TEST(SyncAckStorm, StaleAckBurstCannotEvictTheRealAck) {
  SystemConfig config;
  config.seed = 77;
  config.default_link.latency = Micros(100);
  config.sync_ack_capacity = 48;  // distinctive, to prove the plumbing
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  for (auto* node : {&a, &b}) {
    node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  }
  Guardian* client = *a.Create<ShellGuardian>("shell", "storm_client", {});
  Guardian* server = *b.Create<ShellGuardian>("shell", "storm_server", {});
  Port* storm_port = server->AddPort(StormPortType(), 16);

  constexpr int kStaleAcks = 32;  // would bury a 4-slot buffer many times
  server->Fork("storm", [server, storm_port] {
    auto flood = server->Receive(storm_port, Millis(5000));
    if (!flood.ok() || flood->args.empty()) {
      return;
    }
    auto ack_name = flood->args[0].AsPort();
    if (!ack_name.ok()) {
      return;
    }
    for (int i = 0; i < kStaleAcks; ++i) {
      (void)server->Send(*ack_name, "ack",
                         {Value::Str("stale-" + std::to_string(i))});
    }
    // Only now dequeue the synchronized send: its receipt ack leaves after
    // every stale ack is already on the wire.
    (void)server->Receive(storm_port, Millis(5000));
  });

  // SyncSend's ack port is the client shell's first port: index 0.
  PortName predicted_ack;
  predicted_ack.node = a.id();
  predicted_ack.guardian = client->id();
  predicted_ack.port_index = 0;
  predicted_ack.type_hash = AckPortType().hash();

  ASSERT_TRUE(
      client->Send(storm_port->name(), "flood", {Value::OfPort(predicted_ack)})
          .ok());
  Status st = SyncSend(*client, storm_port->name(), "put", {}, Millis(5000));
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(system.metrics().CounterValue("sendprims.sync.timeouts"), 0u);

  // The ack port (retired by now, but still visible in the stats) really
  // was sized from config, not the old hardcoded 4.
  const auto stats = client->PortStats();
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats[0].type_name, "sys_ack");
  EXPECT_EQ(stats[0].capacity, config.sync_ack_capacity);
  EXPECT_GE(stats[0].enqueued, 1u);  // the real ack got in
}

}  // namespace
}  // namespace guardians
