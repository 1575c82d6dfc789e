// The at-most-once layer (DESIGN.md §10): the DedupTable's window and
// reply-cache mechanics, duplicate suppression and cached-reply replay
// end-to-end, retry-safety of non-idempotent operations (including remote
// creation), the durable dedup journal and its segment rotation across a
// crash, and the behaviour of a retry storm across a partition heal. The
// journal's record writer is checked byte for byte against the Value-tree
// encoding it replaces, and its device bytes and device traffic are
// pinned.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <string_view>
#include <thread>

#include "src/airline/flight_guardian.h"
#include "src/airline/types.h"
#include "src/fault/fault_injector.h"
#include "src/guardian/dedup.h"
#include "src/guardian/system.h"
#include "src/sendprims/reliable_send.h"
#include "src/sendprims/remote_call.h"
#include "src/sendprims/sync_send.h"
#include "src/store/stable_store.h"
#include "src/store/wal.h"
#include "src/transmit/complex.h"
#include "src/wire/value_codec.h"

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
  // ...but anything at or below the floor is conservatively seen:
  // dropping an ancient straggler is allowed, executing it twice is not.
  EXPECT_EQ(table.Classify(1, 6, nullptr), DedupTable::Verdict::kBelowWindow);
  EXPECT_EQ(table.Classify(1, 2, nullptr), DedupTable::Verdict::kBelowWindow);
}

TEST(DedupTableTest, BelowWindowIsClassedApartFromInWindowDuplicates) {
  DedupTable::Config config;
  config.window = 4;
  DedupTable table(config);
  table.CacheReply(1, 5, Reply("kept"));
  table.MarkSeen(1, 9);   // floor slides to 5
  table.MarkSeen(1, 10);  // floor slides to 6
  // In the window and seen: an ordinary duplicate (in progress or
  // reply-less).
  EXPECT_EQ(table.Classify(1, 9, nullptr), DedupTable::Verdict::kDuplicate);
  // At or below the floor, nothing cached: seen only by the floor's rule,
  // whether or not it ever ran.
  EXPECT_EQ(table.Classify(1, 6, nullptr), DedupTable::Verdict::kBelowWindow);
  EXPECT_EQ(table.Classify(1, 4, nullptr), DedupTable::Verdict::kBelowWindow);
  // Below the floor but still cached: answered, not lost.
  DedupTable::CachedReply replay;
  EXPECT_EQ(table.Classify(1, 5, &replay), DedupTable::Verdict::kReplay);
  EXPECT_EQ(replay.command, "kept");
  // In the window, never seen: fresh.
  EXPECT_EQ(table.Classify(1, 8, nullptr), DedupTable::Verdict::kFresh);
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

TEST(DedupTableTest, AReplyCachedAfterItsSessionWasForgottenIsStillSeen) {
  // A reply is cached without looking its seq up again when no session
  // was forgotten since the request was admitted. Here the idle sweep
  // forgot the session while the request ran: caching the reply must
  // mark it seen again, or a duplicate would classify fresh and run twice.
  DedupTable table;
  table.MarkSeen(1, 5);
  table.Touch(1, TimePoint{} + Micros(10));
  const uint64_t epoch = table.forget_epoch();
  ASSERT_EQ(table.ExpireIdleSessions(TimePoint{} + Micros(1000), Micros(100)),
            1u);
  table.CacheAdmittedReply(1, 5, epoch, Reply("late"));
  EXPECT_EQ(table.Classify(1, 5, nullptr), DedupTable::Verdict::kReplay);
  // With no sweep in between, the admitted seq is taken as seen.
  table.MarkSeen(2, 7);
  table.CacheAdmittedReply(2, 7, table.forget_epoch(), Reply("now"));
  EXPECT_EQ(table.Classify(2, 7, nullptr), DedupTable::Verdict::kReplay);
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
  EXPECT_EQ(table.Classify(9, 3, nullptr), DedupTable::Verdict::kBelowWindow);
  EXPECT_TRUE(table.Acked(9, 5));
  EXPECT_EQ(table.Classify(9, 6, nullptr), DedupTable::Verdict::kFresh);
  EXPECT_EQ(table.HighWater(9), 5u);
}

// ---------------------------------------------------------------------------
// The dedup-journal record writer
// ---------------------------------------------------------------------------

// What the journal wrote before EncodeDedupRecord: the record as a Value
// tree, encoded as Wal::AppendValue does.
Result<Bytes> ReferenceRecord(uint64_t session, uint64_t seq, uint64_t hw,
                              const DedupTable::CachedReply& reply) {
  return EncodeValueToBytes(Value::Record(
      {{"s", Value::Int(static_cast<int64_t>(session))},
       {"q", Value::Int(static_cast<int64_t>(seq))},
       {"hw", Value::Int(static_cast<int64_t>(hw))},
       {"to", Value::OfPort(reply.reply_to)},
       {"cmd", Value::Str(reply.command)},
       {"args", Value::Array(reply.args)}}));
}

Result<Bytes> WrittenRecord(uint64_t session, uint64_t seq, uint64_t hw,
                            const DedupTable::CachedReply& reply) {
  WireEncoder enc;
  GUARDIANS_RETURN_IF_ERROR(EncodeDedupRecord(session, seq, hw, reply, enc));
  return enc.Take();
}

// An int wrapped in `levels` one-element arrays.
Value Nested(int levels) {
  Value v = Value::Int(7);
  for (int i = 0; i < levels; ++i) {
    v = Value::Array({std::move(v)});
  }
  return v;
}

TEST(DedupRecordTest, WriterMatchesTheValueTreeEncodingByteForByte) {
  // Session ids are random 64-bit values, so the high bit is often set.
  const uint64_t session = 0xF00DFACEu | (uint64_t{1} << 63);
  // A record sits at depth 0, its args array at 1 and each arg at 2, so an
  // arg of max_depth - 2 nested arrays reaches the depth limit exactly.
  const int deepest = DefaultLimits().max_depth - 2;
  const std::pair<const char*, ValueList> cases[] = {
      {"no args", {}},
      {"16 B blob", {Value::Int(-3), Value::Blob(Bytes(16, 0x5A))}},
      {"8 KiB blob", {Value::Blob(Bytes(8192, 0xA5))}},
      {"port name", {Value::OfPort(PortName{4, 77, 2, 0xBEEF})}},
      {"nested to the depth limit", {Nested(deepest), Value::Str("tail")}},
  };
  for (const auto& [name, args] : cases) {
    DedupTable::CachedReply reply{"echoed", args, PortName{3, 9, 1, 0xFEED}};
    auto want = ReferenceRecord(session, 41, 1000, reply);
    auto got = WrittenRecord(session, 41, 1000, reply);
    ASSERT_TRUE(want.ok()) << name << ": " << want.status();
    ASSERT_TRUE(got.ok()) << name << ": " << got.status();
    EXPECT_EQ(*got, *want) << name;
  }
}

TEST(DedupRecordTest, WriterRejectsWhatTheReferenceRejects) {
  // One level past the depth limit: the reference refuses to encode the
  // record, and so must the writer (the Wal append then never happens).
  const int too_deep = DefaultLimits().max_depth - 1;
  DedupTable::CachedReply reply{"echoed", {Nested(too_deep)},
                                PortName{3, 9, 1, 0xFEED}};
  auto want = ReferenceRecord(5, 6, 7, reply);
  auto got = WrittenRecord(5, 6, 7, reply);
  ASSERT_FALSE(want.ok());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), want.status().code());
}

Bytes FromHex(std::string_view hex) {
  Bytes out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

TEST(DedupRecordTest, JournalFrameAndFloorRecordBytesArePinned) {
  // One reply's frame as the device holds it, [u32 len][u32 crc][record],
  // taken from the journal before the record was encoded straight into
  // its frame. The frame written that way must match it byte for byte.
  constexpr std::string_view kFrame =
      "5600000025a33f870706017302e39490ffe1ffffffff010171025202687702d00f"
      "02746f0803000000090000000000000001000000edfe00000000000003636d6404"
      "066563686f656404617267730603020505040102030404047461696c";
  // A floor record: {s, q: 0, hw}.
  constexpr std::string_view kFloor =
      "0703017302e39490ffe1ffffffff010171020002687702d00f";
  const uint64_t session = 0xF00DFACEu | (uint64_t{1} << 63);
  const ValueList args = {Value::Int(-3), Value::Blob(Bytes{1, 2, 3, 4}),
                          Value::Str("tail")};
  DedupTable::CachedReply reply{"echoed", args, PortName{3, 9, 1, 0xFEED}};
  WireEncoder enc;
  enc.PutU64(0);  // the header Wal::AppendFrame fills in
  ASSERT_TRUE(EncodeDedupRecord(session, 41, 1000, reply, enc).ok());
  Bytes frame = enc.Take();
  StableStore store;
  Wal wal(&store, "pin");
  ASSERT_TRUE(wal.AppendFrame(frame).ok());
  EXPECT_EQ(store.Read("pin.log"), FromHex(kFrame));
  EXPECT_EQ(frame, FromHex(kFrame));  // the caller keeps what was written

  WireEncoder floor;
  ASSERT_TRUE(EncodeDedupFloor(session, 1000, floor).ok());
  EXPECT_EQ(floor.bytes(), FromHex(kFloor));
  auto tree = EncodeValueToBytes(
      Value::Record({{"s", Value::Int(static_cast<int64_t>(session))},
                     {"q", Value::Int(0)},
                     {"hw", Value::Int(1000)}}));
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(floor.bytes(), *tree);

  // Both read back without decoding the args; a replay decodes them.
  auto floor_header = ReadDedupRecordHeader(floor.bytes());
  ASSERT_TRUE(floor_header.ok()) << floor_header.status();
  EXPECT_EQ(floor_header->session, session);
  EXPECT_EQ(floor_header->seq, 0u);
  EXPECT_EQ(floor_header->high_water, 1000u);
  EXPECT_FALSE(floor_header->has_reply);
  const BufferSlice record =
      BufferSlice(Buffer::Adopt(std::move(frame)), Wal::kFrameHeader,
                  FromHex(kFrame).size() - Wal::kFrameHeader);
  auto header = ReadDedupRecordHeader(record);
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->session, session);
  EXPECT_EQ(header->seq, 41u);
  EXPECT_EQ(header->high_water, 1000u);
  ASSERT_TRUE(header->has_reply);
  EXPECT_EQ(header->command, "echoed");
  EXPECT_TRUE(header->reply_to == reply.reply_to);
  auto replayed = DedupLayer::ReplayArgs(
      DedupTable::CachedReply{"echoed", {}, reply.reply_to, record}, nullptr);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_TRUE(*replayed == args);
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

TEST_F(DedupSystemTest, RecoveredReplyReplaysTheWrittenArgsIntact) {
  // A reply whose args span the codec's shapes is journaled by the record
  // writer; after a crash DedupLayer::Recover caches it from those bytes,
  // and a duplicate of the request is answered with exactly those args.
  const PortType request_type("fetch_req", {MessageSig{"get", {}, {"got"}}});
  const PortType reply_type(
      "fetch_reply",
      {MessageSig{"got", {ArgType::Any(), ArgType::Any(), ArgType::Any()},
                  {}}});
  const ValueList reply_args = {Value::Blob(Bytes(8192, 0xA5)),
                                Value::OfPort(PortName{1, 2, 3, 4}),
                                Nested(4)};
  Port* port = server_->AddPort(request_type, 16);
  server_->Fork("fetch", [this, port, reply_args] {
    for (;;) {
      auto request = server_->Receive(port, Micros::max());
      if (!request.ok()) {
        return;
      }
      (void)server_->Send(request->reply_to, "got", reply_args);
    }
  });

  Port* reply_port = client_->AddPort(reply_type, 8);
  const uint64_t seq = client_node_->NextDedupSeq();
  auto send = [&] {
    return client_->SendFull(port->name(), "get", {}, reply_port->name(),
                             PortName{}, seq);
  };
  ASSERT_TRUE(send().ok());
  auto first = client_->Receive(reply_port, Millis(2000));
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->command, "got");
  EXPECT_TRUE(first->args == reply_args);
  ASSERT_EQ(system_.metrics().CounterValue("node.dedup.journaled"), 1u);

  // The server guardian dies with the node; only the journal can answer.
  region_->Crash();
  ASSERT_TRUE(region_->Restart().ok());
  ASSERT_TRUE(send().ok());
  auto replayed = client_->Receive(reply_port, Millis(5000));
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->command, "got");
  EXPECT_TRUE(replayed->args == reply_args);
  EXPECT_EQ(system_.metrics().CounterValue("deliver.dup.replayed"), 1u);
}

// A counter service on `server`: answers every "inc" with val(0).
Port* ServeCounter(Guardian* server) {
  Port* counter = server->AddPort(CounterPortType(), 16);
  server->Fork("counter", [server, counter] {
    for (;;) {
      auto request = server->Receive(counter, Micros::max());
      if (!request.ok()) {
        return;
      }
      (void)server->Send(request->reply_to, "val", {Value::Int(0)});
    }
  });
  return counter;
}

TEST_F(DedupSystemTest, AnAbstractReplyReplaysAfterACrash) {
  // A cached reply's args are decoded only when a duplicate is answered,
  // with the node's transmit registry. Recovery used to decode every
  // journaled reply's args with no registry at all, so one abstract value
  // in a reply made the node's restart fail.
  for (NodeRuntime* node : {client_node_, region_}) {
    ASSERT_TRUE(
        node->transmit_registry().Register("complex", RectComplexDecoder())
            .ok());
  }
  const PortType request_type("cx_req", {MessageSig{"get", {}, {"got"}}});
  const PortType reply_type(
      "cx_reply", {MessageSig{"got", {ArgType::Any()}, {}}});
  Port* port = server_->AddPort(request_type, 16);
  server_->Fork("complex", [this, port] {
    for (;;) {
      auto request = server_->Receive(port, Micros::max());
      if (!request.ok()) {
        return;
      }
      (void)server_->Send(request->reply_to, "got",
                          {Value::Abstract(MakeRectComplex(1.5, -2.0))});
    }
  });
  Port* reply_port = client_->AddPort(reply_type, 8);
  const uint64_t seq = client_node_->NextDedupSeq();
  auto send = [&] {
    return client_->SendFull(port->name(), "get", {}, reply_port->name(),
                             PortName{}, seq);
  };
  ASSERT_TRUE(send().ok());
  auto first = client_->Receive(reply_port, Millis(2000));
  ASSERT_TRUE(first.ok()) << first.status();

  region_->Crash();
  ASSERT_TRUE(region_->Restart().ok());
  ASSERT_TRUE(send().ok());
  auto replayed = client_->Receive(reply_port, Millis(5000));
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->command, "got");
  EXPECT_TRUE(replayed->args == first->args);
  EXPECT_EQ(system_.metrics().CounterValue("deliver.dup.replayed"), 1u);
}

TEST_F(DedupSystemTest, RotationKeepsTheReplyThatTriggeredIt) {
  // Regression (first seen with the snapshot compaction this rotation
  // replaced): a reply used to be cached only after the journal lock was
  // released, so the rewrite its own append triggered left it out. After
  // a crash its sender's session had no record at all: the duplicate was
  // classified fresh and re-executed. The reply that fills a segment is
  // cached before the rotation, and its session gets a floor record.
  auto flight = region_->Create<FlightGuardian>(
      "flight", "f2", MakeFlight(2, 1 << 10).ToArgs(), /*persistent=*/true);
  ASSERT_TRUE(flight.ok());
  const PortName flight_port = (*flight)->ProvidedPorts()[0];

  // Fillers: tracked calls from the client node, so the region journals
  // one reply per call.
  Port* counter = ServeCounter(server_);
  const uint64_t fillers = DedupLayer::kSegmentReplies - 1;
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
            DedupLayer::kSegmentReplies);
  ASSERT_EQ(system_.metrics().CounterValue("node.dedup.rotations"), 1u);

  region_->Crash();
  ASSERT_TRUE(region_->Restart().ok());
  ASSERT_TRUE(send().ok());
  auto recovered = other->Receive(reply_port, Millis(5000));
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->command, "ok") << "the reserve re-executed";
  EXPECT_EQ(system_.metrics().CounterValue("deliver.dup.replayed"), 1u);
}

TEST_F(DedupSystemTest, CrashInsideRotationKeepsTheLiveReplies) {
  // A rotation appends a floor record per session, truncates the other
  // segment and names it active. The crash lands before, after and (for
  // the append) torn inside each of those mutations, which follow the
  // filling reply's own append. Each time, the reserve answered just
  // before the rotation must replay from the recovered cache, not run
  // again.
  auto flight = region_->Create<FlightGuardian>(
      "flight", "f3", MakeFlight(3, 1 << 10).ToArgs(), /*persistent=*/true);
  ASSERT_TRUE(flight.ok());
  const PortName flight_port = (*flight)->ProvidedPorts()[0];
  Port* reply_port = client_->AddPort(ReservationReplyType(), 8);
  struct Step {
    uint64_t mutation;  // 1 is the filling reply's append
    CrashWhen when;
    Mutation kind;
  };
  const Step steps[] = {
      {2, CrashWhen::kBefore, Mutation::kAppend},
      {2, CrashWhen::kTorn, Mutation::kAppend},
      {2, CrashWhen::kAfter, Mutation::kAppend},
      {3, CrashWhen::kBefore, Mutation::kTruncate},
      {3, CrashWhen::kAfter, Mutation::kTruncate},
      {4, CrashWhen::kBefore, Mutation::kPutCell},
      {4, CrashWhen::kAfter, Mutation::kPutCell},
  };
  NodeRuntime* region = region_;
  uint64_t round = 0;
  for (const Step& step : steps) {
    const CrashPlan plan{step.mutation, step.when};
    SCOPED_TRACE(plan.ToString());
    ++round;
    // The crash takes each round's (volatile) counter guardian with it.
    Guardian* server = *region_->Create<ShellGuardian>(
        "shell", "server" + std::to_string(round), {});
    Port* counter = ServeCounter(server);
    auto filler = [&] {
      return RemoteCall(*client_, counter->name(), "inc", {},
                        CounterReplyType());
    };
    // Start at a fresh segment: call until a rotation completes (after a
    // crash the active segment may already be full).
    const uint64_t rotations =
        system_.metrics().CounterValue("node.dedup.rotations");
    while (system_.metrics().CounterValue("node.dedup.rotations") ==
           rotations) {
      ASSERT_TRUE(filler().ok());
    }
    for (uint64_t i = 0; i + 2 < DedupLayer::kSegmentReplies; ++i) {
      ASSERT_TRUE(filler().ok()) << "filler " << i;
    }
    // One reserve answered before the rotation...
    const std::string passenger = "p" + std::to_string(round);
    const uint64_t seq = client_node_->NextDedupSeq();
    auto send = [&] {
      return client_->SendFull(flight_port, "reserve",
                               {Value::Str(passenger), Value::Str("d0")},
                               reply_port->name(), PortName{}, seq);
    };
    ASSERT_TRUE(send().ok());
    auto first = client_->Receive(reply_port, Millis(2000));
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->command, "ok");
    // ...and the reply that fills the segment, crashing at the plan.
    ASSERT_TRUE(FaultInjector::Instance()
                    .Arm(plan, region, [region] { region->BeginCrash(); })
                    .ok());
    RemoteCallOptions once;
    once.timeout = Millis(300);
    once.max_attempts = 1;
    auto trigger = RemoteCall(*client_, counter->name(), "inc", {},
                              CounterReplyType(), once);
    EXPECT_FALSE(trigger.ok());
    const bool fired = FaultInjector::Instance().triggered();
    const DeviceOp fired_on = FaultInjector::Instance().fired_on();
    FaultInjector::Instance().Disarm();
    ASSERT_TRUE(fired);
    EXPECT_EQ(fired_on.kind, step.kind) << fired_on.ToString();
    EXPECT_EQ(fired_on.name.rfind("node/dedup.", 0), 0u)
        << fired_on.ToString();

    const uint64_t replayed =
        system_.metrics().CounterValue("deliver.dup.replayed");
    ASSERT_TRUE(region_->Restart().ok());
    ASSERT_TRUE(send().ok());
    auto retried = client_->Receive(reply_port, Millis(5000));
    ASSERT_TRUE(retried.ok());
    EXPECT_EQ(retried->command, "ok") << "the reserve re-executed";
    EXPECT_EQ(system_.metrics().CounterValue("deliver.dup.replayed"),
              replayed + 1);
  }
}

// A one-way port whose executions outlive the node's crashes: the guardian
// is persistent, and its tally is the test's.
std::atomic<int> g_tallied{0};

PortType TallyPortType() {
  return PortType("tally", {MessageSig{"put", {}, {}}});
}

class TallyGuardian : public Guardian {
 public:
  Status Setup(const ValueList&) override {
    AddPort(TallyPortType(), 64, /*provided=*/true);
    return OkStatus();
  }
  void Main() override {
    for (;;) {
      if (!Receive(port(0), Micros::max()).ok()) {
        return;
      }
      ++g_tallied;
    }
  }
};

TEST_F(DedupSystemTest, FloorsSurviveRotation) {
  // A session's last reply is journaled with the high-water mark of that
  // moment. The one-way tracked messages it sends afterwards raise the
  // mark, but no reply of theirs is journaled: only the rotation's floor
  // record carries the raised mark past a crash. Without it their retries
  // would classify fresh after the restart and execute twice.
  g_tallied = 0;
  region_->RegisterGuardianType("tally", MakeFactory<TallyGuardian>());
  auto tally = region_->Create<TallyGuardian>("tally", "tally", {},
                                              /*persistent=*/true);
  ASSERT_TRUE(tally.ok());
  const PortName tally_port = (*tally)->ProvidedPorts()[0];

  // The session's last reply...
  Port* counter = ServeCounter(server_);
  ASSERT_TRUE(
      RemoteCall(*client_, counter->name(), "inc", {}, CounterReplyType())
          .ok());
  // ...then one-way tracked messages, as ReliableSend sends them: each
  // attempt under one seq, with an ack port.
  constexpr int kOneWay = 5;
  Port* ack_port = client_->AddPort(AckPortType(), 16);
  std::vector<uint64_t> seqs;
  for (int i = 0; i < kOneWay; ++i) {
    seqs.push_back(client_node_->NextDedupSeq());
    ASSERT_TRUE(client_
                    ->SendFull(tally_port, "put", {}, PortName{},
                               ack_port->name(), seqs.back())
                    .ok());
    ASSERT_TRUE(client_->Receive(ack_port, Millis(2000)).ok());
  }
  ASSERT_EQ(g_tallied.load(), kOneWay);

  // Another node's calls fill the segment: the rotation writes the floors.
  NodeRuntime& other_node = system_.AddNode("other");
  other_node.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  Guardian* other = *other_node.Create<ShellGuardian>("shell", "other", {});
  while (system_.metrics().CounterValue("node.dedup.rotations") == 0) {
    ASSERT_TRUE(
        RemoteCall(*other, counter->name(), "inc", {}, CounterReplyType())
            .ok());
  }

  region_->Crash();
  ASSERT_TRUE(region_->Restart().ok());
  const uint64_t suppressed =
      system_.metrics().CounterValue("deliver.dup.suppressed");
  for (const uint64_t seq : seqs) {
    ASSERT_TRUE(client_
                    ->SendFull(tally_port, "put", {}, PortName{},
                               ack_port->name(), seq)
                    .ok());
    // The floor counts the original as dequeued, so the suppressed retry
    // earns a replacement ack.
    EXPECT_TRUE(client_->Receive(ack_port, Millis(2000)).ok());
  }
  system_.network().DrainForTesting();
  EXPECT_EQ(g_tallied.load(), kOneWay) << "a one-way message ran twice";
  EXPECT_EQ(system_.metrics().CounterValue("deliver.dup.suppressed"),
            suppressed + kOneWay);
}

TEST_F(DedupSystemTest, RepliesOverBothSegmentsRecoverInOrder) {
  // One and a half segments of replies: the older segment holds the first
  // kSegmentReplies, the active one the rest. Recovery reads the older
  // segment first, so the FIFO keeps the newest kSegmentReplies and the
  // oldest half segment is evicted, as it was before the crash.
  const PortType request_type(
      "index_req", {MessageSig{"get", {ArgType::Of(TypeTag::kInt)}, {"got"}}});
  const PortType reply_type(
      "index_reply", {MessageSig{"got", {ArgType::Of(TypeTag::kInt)}, {}}});
  Port* port = server_->AddPort(request_type, 16);
  server_->Fork("index", [this, port] {
    for (;;) {
      auto request = server_->Receive(port, Micros::max());
      if (!request.ok()) {
        return;
      }
      (void)server_->Send(request->reply_to, "got", {request->args[0]});
    }
  });
  Port* reply_port = client_->AddPort(reply_type, 16);
  const int k = static_cast<int>(DedupLayer::kSegmentReplies);
  const int total = k + k / 2;
  std::vector<uint64_t> seqs;
  auto send = [&](int i) {
    return client_->SendFull(port->name(), "get", {Value::Int(i)},
                             reply_port->name(), PortName{}, seqs[i]);
  };
  for (int i = 0; i < total; ++i) {
    seqs.push_back(client_node_->NextDedupSeq());
    ASSERT_TRUE(send(i).ok());
    auto reply = client_->Receive(reply_port, Millis(2000));
    ASSERT_TRUE(reply.ok()) << i;
    ASSERT_EQ(reply->args[0].int_value(), i);
  }
  ASSERT_EQ(system_.metrics().CounterValue("node.dedup.rotations"), 1u);

  region_->Crash();
  ASSERT_TRUE(region_->Restart().ok());
  // Every kept reply replays with its own args, from both segments.
  for (int i = total - k; i < total; ++i) {
    ASSERT_TRUE(send(i).ok());
    auto replayed = client_->Receive(reply_port, Millis(5000));
    ASSERT_TRUE(replayed.ok()) << i;
    EXPECT_EQ(replayed->args[0].int_value(), i);
  }
  EXPECT_EQ(system_.metrics().CounterValue("deliver.dup.replayed"),
            static_cast<uint64_t>(k));
  // The newest evicted reply and the oldest are suppressed unanswered,
  // and neither runs again.
  for (const int i : {total - k - 1, 0}) {
    ASSERT_TRUE(send(i).ok());
    EXPECT_FALSE(client_->Receive(reply_port, Millis(200)).ok()) << i;
  }
  EXPECT_EQ(system_.metrics().CounterValue("deliver.dup.replayed"),
            static_cast<uint64_t>(k));
}

TEST_F(DedupSystemTest, JournalWritesOneAppendPerReply) {
  // Counted, not timed: an echo that keeps no log of its own answers 1,000
  // tracked calls with 8 KiB replies. Its node's device sees one journal
  // append per reply, plus a floor record per rotation (one session), one
  // truncate and one active-cell write per rotation, and nothing else.
  Port* port = server_->AddPort(
      PortType("blob_req", {MessageSig{"get", {}, {"got"}}}), 16);
  const PortType reply_type(
      "blob_reply", {MessageSig{"got", {ArgType::Of(TypeTag::kBytes)}, {}}});
  server_->Fork("blob", [this, port] {
    const Value blob = Value::Blob(Bytes(8192, 0x5A));
    for (;;) {
      auto request = server_->Receive(port, Micros::max());
      if (!request.ok()) {
        return;
      }
      (void)server_->Send(request->reply_to, "got", {blob});
    }
  });
  constexpr uint64_t kCalls = 1000;
  const uint64_t rotations = kCalls / DedupLayer::kSegmentReplies;
  FaultInjector::Instance().StartCounting(region_);
  for (uint64_t i = 0; i < kCalls; ++i) {
    auto reply = RemoteCall(*client_, port->name(), "get", {}, reply_type);
    ASSERT_TRUE(reply.ok()) << i << ": " << reply.status();
  }
  const std::vector<DeviceOp> ops = FaultInjector::Instance().StopCounting();
  uint64_t appends = 0;
  uint64_t truncates = 0;
  uint64_t active_cells = 0;
  for (const DeviceOp& op : ops) {
    if (op.kind == Mutation::kAppend &&
        (op.name == "node/dedup.0.log" || op.name == "node/dedup.1.log")) {
      ++appends;
    } else if (op.kind == Mutation::kTruncate) {
      ++truncates;
    } else if (op.kind == Mutation::kPutCell &&
               op.name == "node/dedup.active") {
      ++active_cells;
    } else {
      ADD_FAILURE() << "unexpected device op " << op.ToString();
    }
  }
  EXPECT_EQ(system_.metrics().CounterValue("node.dedup.rotations"),
            rotations);
  EXPECT_EQ(appends, kCalls + rotations);
  EXPECT_EQ(truncates, rotations);
  EXPECT_EQ(active_cells, rotations);
}

TEST_F(DedupSystemTest, RequestsBelowTheWindowAreCounted) {
  // ROADMAP's probe: guardian A's first attempt is dropped by the link,
  // then guardian B on the same node makes 1,100 calls to the same server.
  // The node's sessions share one window of 1,024 seqs, so A's retry, sent
  // under its first attempt's seq, sits below the window floor: it is
  // dropped as seen although it never ran. Behaviour stays what
  // at-most-once allows; the loss is counted.
  Port* counter = server_->AddPort(CounterPortType(), 16);
  std::atomic<int> executions{0};
  server_->Fork("counter", [this, counter, &executions] {
    for (;;) {
      auto request = server_->Receive(counter, Micros::max());
      if (!request.ok()) {
        return;
      }
      ++executions;
      (void)server_->Send(request->reply_to, "val", {Value::Int(0)});
    }
  });
  Port* a_reply = client_->AddPort(CounterReplyType(), 8);
  const uint64_t seq = client_node_->NextDedupSeq();
  auto attempt = [&] {
    return client_->SendFull(counter->name(), "inc", {}, a_reply->name(),
                             PortName{}, seq);
  };
  LinkParams lossy = MakeConfig().default_link;
  lossy.drop_prob = 1.0;
  system_.network().SetLink(client_node_->id(), region_->id(), lossy);
  ASSERT_TRUE(attempt().ok());
  system_.network().DrainForTesting();
  system_.network().SetLink(client_node_->id(), region_->id(),
                            MakeConfig().default_link);

  Guardian* b = *client_node_->Create<ShellGuardian>("shell", "b", {});
  for (int i = 0; i < 1100; ++i) {
    ASSERT_TRUE(
        RemoteCall(*b, counter->name(), "inc", {}, CounterReplyType()).ok())
        << i;
  }
  ASSERT_EQ(executions.load(), 1100);
  EXPECT_EQ(system_.metrics().CounterValue("deliver.dup.below_window"), 0u);

  // A's retries cross a clean link and are dropped unanswered.
  for (int retry = 0; retry < 2; ++retry) {
    ASSERT_TRUE(attempt().ok());
    EXPECT_FALSE(client_->Receive(a_reply, Millis(200)).ok());
  }
  EXPECT_EQ(executions.load(), 1100);
  EXPECT_GE(system_.metrics().CounterValue("deliver.dup.below_window"), 1u);
  EXPECT_NE(system_.Report().find("deliver.dup.below_window"),
            std::string::npos);
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
