// Unit tests for stable storage and the write-ahead log (Section 2.2).
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/fault/fault_injector.h"
#include "src/store/stable_store.h"
#include "src/store/wal.h"
#include "src/wire/value_codec.h"

namespace guardians {
namespace {

// A checkpoint snapshot: Wal::kSnapshotPrefix bytes reserved for the epoch,
// then the payload.
Bytes Snapshot(std::string_view payload) {
  Bytes snapshot(Wal::kSnapshotPrefix, 0);
  const Bytes bytes = ToBytes(payload);
  snapshot.insert(snapshot.end(), bytes.begin(), bytes.end());
  return snapshot;
}

TEST(StableStoreTest, StreamsAppendAndRead) {
  StableStore store;
  ASSERT_TRUE(store.Append("log", ToBytes("abc")).ok());
  ASSERT_TRUE(store.Append("log", ToBytes("def")).ok());
  EXPECT_EQ(ToString(store.Read("log")), "abcdef");
  EXPECT_EQ(store.StreamSize("log"), 6u);
  EXPECT_TRUE(store.Read("missing").empty());
}

// Arms `plan` on `store`, runs `mutate` under the store's scope, and
// returns the mutation the crash fired on ("" when nothing fired).
template <typename Mutate>
std::string CrashWith(StableStore& store, const CrashPlan& plan,
                      Mutate mutate) {
  ScopedFaultScope scope(&store);
  EXPECT_TRUE(FaultInjector::Instance().Arm(plan, &store, nullptr).ok());
  std::string fired;
  try {
    mutate();
  } catch (const CrashTriggered& crash) {
    EXPECT_EQ(crash.plan, plan);
    fired = crash.op.ToString();
  }
  FaultInjector::Instance().Disarm();
  return fired;
}

TEST(StableStoreTest, ACrashPlanLandsBeforeAfterOrInsideItsMutation) {
  // The second append is the plan's mutation: before it, nothing of it is
  // on the device; after it, all of it; torn, its first half.
  const std::pair<CrashWhen, const char*> cases[] = {
      {CrashWhen::kBefore, "abcd"},
      {CrashWhen::kAfter, "abcdefgh"},
      {CrashWhen::kTorn, "abcdef"}};
  for (const auto& [when, left] : cases) {
    StableStore store;
    const std::string fired = CrashWith(store, {2, when}, [&] {
      ASSERT_TRUE(store.Append("s", ToBytes("abcd")).ok());
      ASSERT_TRUE(store.Append("s", ToBytes("efgh")).ok());
    });
    EXPECT_EQ(fired, "append s");
    EXPECT_EQ(ToString(store.Read("s")), left);
  }
  // Cell writes are atomic: a torn plan on one leaves the old value.
  StableStore store;
  ASSERT_TRUE(store.PutCell("c", ToBytes("old")).ok());
  EXPECT_EQ(CrashWith(store, {1, CrashWhen::kTorn},
                      [&] { (void)store.PutCell("c", ToBytes("new")); }),
            "put_cell c");
  EXPECT_EQ(ToString(*store.GetCell("c")), "old");
}

TEST(StableStoreTest, ACrashPlanCountsOnlyItsScopesMutations) {
  StableStore store;
  const int other_node = 0;
  ASSERT_TRUE(FaultInjector::Instance()
                  .Arm({1, CrashWhen::kBefore}, &other_node, nullptr)
                  .ok());
  // Neither an unscoped thread nor another node's scope reaches the plan.
  ASSERT_TRUE(store.Append("s", ToBytes("a")).ok());
  {
    ScopedFaultScope scope(&store);
    ASSERT_TRUE(store.Truncate("s", 0).ok());
  }
  EXPECT_FALSE(FaultInjector::Instance().triggered());
  {
    ScopedFaultScope scope(&other_node);
    EXPECT_THROW((void)store.Delete("s"), CrashTriggered);
  }
  EXPECT_TRUE(FaultInjector::Instance().triggered());
  EXPECT_EQ(FaultInjector::Instance().fired_on().ToString(), "delete s");
  FaultInjector::Instance().Disarm();
}

TEST(StableStoreTest, TruncateAndDelete) {
  StableStore store;
  ASSERT_TRUE(store.Append("s", ToBytes("0123456789")).ok());
  ASSERT_TRUE(store.Truncate("s", 4).ok());
  EXPECT_EQ(ToString(store.Read("s")), "0123");
  EXPECT_FALSE(store.Truncate("missing", 0).ok());
  store.Delete("s");
  EXPECT_EQ(store.StreamSize("s"), 0u);
}

TEST(StableStoreTest, Cells) {
  StableStore store;
  store.PutCell("meta", ToBytes("v1"));
  EXPECT_EQ(ToString(*store.GetCell("meta")), "v1");
  store.PutCell("meta", ToBytes("v2"));  // replace-on-write
  EXPECT_EQ(ToString(*store.GetCell("meta")), "v2");
  EXPECT_EQ(store.GetCell("nope").status().code(), Code::kNotFound);
  store.DeleteCell("meta");
  EXPECT_FALSE(store.GetCell("meta").ok());
}

TEST(StableStoreTest, ChopTailSimulatesTornWrite) {
  StableStore store;
  ASSERT_TRUE(store.Append("s", ToBytes("hello")).ok());
  store.ChopTail("s", 2);
  EXPECT_EQ(ToString(store.Read("s")), "hel");
  store.ChopTail("s", 100);
  EXPECT_TRUE(store.Read("s").empty());
  store.ChopTail("missing", 5);  // harmless
}

TEST(StableStoreTest, DeviceFailure) {
  StableStore store;
  store.SetFailed(true);
  EXPECT_EQ(store.Append("s", ToBytes("x")).code(), Code::kStorageError);
  store.SetFailed(false);
  EXPECT_TRUE(store.Append("s", ToBytes("x")).ok());
}

TEST(StableStoreTest, FailedDeviceRejectsAllMutatingOps) {
  StableStore store;
  ASSERT_TRUE(store.Append("s", ToBytes("data")).ok());
  store.PutCell("c", ToBytes("v1"));
  store.SetFailed(true);
  // Every mutating operation fails; nothing reaches the media.
  EXPECT_EQ(store.Append("s", ToBytes("x")).code(), Code::kStorageError);
  EXPECT_EQ(store.PutCell("c", ToBytes("v2")).code(), Code::kStorageError);
  EXPECT_EQ(store.Truncate("s", 1).code(), Code::kStorageError);
  EXPECT_EQ(store.Delete("s").code(), Code::kStorageError);
  EXPECT_EQ(store.DeleteCell("c").code(), Code::kStorageError);
  // Reads still serve what was stable before the failure.
  EXPECT_EQ(ToString(store.Read("s")), "data");
  EXPECT_EQ(ToString(*store.GetCell("c")), "v1");
}

TEST(StableStoreTest, AccountingAndListing) {
  StableStore store;
  ASSERT_TRUE(store.Append("a", ToBytes("12")).ok());
  ASSERT_TRUE(store.Append("b", ToBytes("345")).ok());
  store.PutCell("c", ToBytes("6"));
  EXPECT_EQ(store.TotalBytes(), 6u);
  EXPECT_EQ(store.ListStreams(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(store.append_count(), 2u);
}

TEST(WalTest, AppendAndRecover) {
  StableStore store;
  Wal wal(&store, "g/test");
  ASSERT_TRUE(wal.Append(ToBytes("one")).ok());
  ASSERT_TRUE(wal.Append(ToBytes("two")).ok());
  auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok());
  EXPECT_FALSE(recovery->snapshot.has_value());
  ASSERT_EQ(recovery->records.size(), 2u);
  EXPECT_EQ(ToString(recovery->records[0]), "one");
  EXPECT_EQ(ToString(recovery->records[1]), "two");
  EXPECT_FALSE(recovery->torn_tail);
}

TEST(WalTest, EmptyLogRecoversEmpty) {
  StableStore store;
  Wal wal(&store, "g/empty");
  auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->records.empty());
  EXPECT_FALSE(recovery->torn_tail);
}

class WalTornTail : public ::testing::TestWithParam<size_t> {};

TEST_P(WalTornTail, ChoppedTailDiscardsOnlyTheLastRecord) {
  StableStore store;
  Wal wal(&store, "g/torn");
  ASSERT_TRUE(wal.Append(ToBytes("record-aaaa")).ok());
  ASSERT_TRUE(wal.Append(ToBytes("record-bbbb")).ok());
  ASSERT_TRUE(wal.Append(ToBytes("record-cccc")).ok());
  // Chop 1..(frame size) bytes: the final record becomes torn; the first
  // two must always survive.
  store.ChopTail("g/torn.log", GetParam());
  auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  ASSERT_GE(recovery->records.size(), 2u);
  EXPECT_EQ(ToString(recovery->records[0]), "record-aaaa");
  EXPECT_EQ(ToString(recovery->records[1]), "record-bbbb");
  if (recovery->records.size() == 2) {
    EXPECT_TRUE(recovery->torn_tail);
  }
}

INSTANTIATE_TEST_SUITE_P(ChopSizes, WalTornTail,
                         ::testing::Values(1, 2, 5, 8, 11, 18));

TEST(WalTest, MidStreamCorruptionIsDeviceFailure) {
  StableStore store;
  Wal wal(&store, "g/bad");
  ASSERT_TRUE(wal.Append(ToBytes("record-aaaa")).ok());
  ASSERT_TRUE(wal.Append(ToBytes("record-bbbb")).ok());
  // Flip a payload byte of the FIRST record: not a torn tail.
  Bytes raw = store.Read("g/bad.log");
  raw[10] ^= 0xFF;
  store.Delete("g/bad.log");
  ASSERT_TRUE(store.Append("g/bad.log", raw).ok());
  auto recovery = wal.Recover();
  EXPECT_EQ(recovery.status().code(), Code::kLogCorrupt);
}

TEST(WalTest, GarbageOnlyFinalFrameIsTornTail) {
  StableStore store;
  Wal wal(&store, "g/tail");
  ASSERT_TRUE(wal.Append(ToBytes("good")).ok());
  ASSERT_TRUE(wal.Append(ToBytes("last")).ok());
  Bytes raw = store.Read("g/tail.log");
  raw.back() ^= 0xFF;  // corrupt inside the final frame's payload
  store.Delete("g/tail.log");
  ASSERT_TRUE(store.Append("g/tail.log", raw).ok());
  auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->records.size(), 1u);
  EXPECT_TRUE(recovery->torn_tail);
}

TEST(WalTest, CheckpointReplacesPrefix) {
  StableStore store;
  Wal wal(&store, "g/cp");
  ASSERT_TRUE(wal.Append(ToBytes("old-1")).ok());
  ASSERT_TRUE(wal.Append(ToBytes("old-2")).ok());
  ASSERT_TRUE(wal.Checkpoint(Snapshot("SNAP")).ok());
  ASSERT_TRUE(wal.Append(ToBytes("new-1")).ok());
  auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok());
  ASSERT_TRUE(recovery->snapshot.has_value());
  EXPECT_EQ(ToString(*recovery->snapshot), "SNAP");
  ASSERT_EQ(recovery->records.size(), 1u);
  EXPECT_EQ(ToString(recovery->records[0]), "new-1");
}

TEST(WalTest, CheckpointCellKeepsItsBytes) {
  // Checkpoint writes the epoch into the prefix the caller reserved; the
  // cells must hold what the writer that copied the snapshot behind the
  // epoch left (these bytes were taken from it).
  StableStore store;
  Wal wal(&store, "g/pin");
  ASSERT_TRUE(wal.Append(ToBytes("op")).ok());
  ASSERT_TRUE(wal.Checkpoint(Snapshot("SNAP1")).ok());
  ASSERT_TRUE(wal.Checkpoint(Snapshot("SNAP2")).ok());
  auto snap = store.GetCell("g/pin.snap");
  auto epoch = store.GetCell("g/pin.epoch");
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*snap, (Bytes{2, 0, 0, 0, 0, 0, 0, 0, 'S', 'N', 'A', 'P', '2'}));
  EXPECT_EQ(*epoch, (Bytes{2, 0, 0, 0, 0, 0, 0, 0}));
  // A snapshot without room for the epoch is refused, not truncated.
  EXPECT_EQ(wal.Checkpoint(ToBytes("SNAP")).code(), Code::kInvalidArgument);
}

TEST(WalTest, CheckpointPropagatesDeviceFailure) {
  StableStore store;
  Wal wal(&store, "g/devfail");
  ASSERT_TRUE(wal.Append(ToBytes("op-1")).ok());
  store.SetFailed(true);
  EXPECT_EQ(wal.Checkpoint(Snapshot("SNAP")).code(), Code::kStorageError);
  store.SetFailed(false);
  // The failed checkpoint left no committed snapshot; the log still wins.
  auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_FALSE(recovery->snapshot.has_value());
  ASSERT_EQ(recovery->records.size(), 1u);
  EXPECT_EQ(ToString(recovery->records[0]), "op-1");
}

TEST(WalTest, CrashBetweenSnapshotWriteAndTruncateRollsForward) {
  StableStore store;
  Wal wal(&store, "g/mid");
  ASSERT_TRUE(wal.Append(ToBytes("old-1")).ok());
  ASSERT_TRUE(wal.Checkpoint(Snapshot("SNAP1")).ok());
  ASSERT_TRUE(wal.Append(ToBytes("covered-1")).ok());
  ASSERT_TRUE(wal.Append(ToBytes("covered-2")).ok());

  // Crash the checkpoint through the real injection machinery, right after
  // its first mutation: the snapshot write, before the truncate.
  EXPECT_EQ(CrashWith(store, {1, CrashWhen::kAfter},
                      [&] { (void)wal.Checkpoint(Snapshot("SNAP2")); }),
            "put_cell g/mid.snap");

  // The new snapshot is on media but the covered records were never
  // truncated. Recovery must prefer the snapshot (it covers them) rather
  // than replaying them on top of it, and must repair the half-done
  // checkpoint.
  auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_TRUE(recovery->interrupted_checkpoint);
  ASSERT_TRUE(recovery->snapshot.has_value());
  EXPECT_EQ(ToString(*recovery->snapshot), "SNAP2");
  EXPECT_TRUE(recovery->records.empty());

  // Rolled forward: a second recovery is ordinary, and the log keeps
  // working.
  auto again = wal.Recover();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->interrupted_checkpoint);
  EXPECT_EQ(ToString(*again->snapshot), "SNAP2");
  ASSERT_TRUE(wal.Append(ToBytes("new-1")).ok());
  auto final_rec = wal.Recover();
  ASSERT_TRUE(final_rec.ok());
  ASSERT_EQ(final_rec->records.size(), 1u);
  EXPECT_EQ(ToString(final_rec->records[0]), "new-1");
}

TEST(WalTest, RecoverValuesRejectsUndecodablePayload) {
  StableStore store;
  Wal wal(&store, "g/undec");
  // A CRC-valid frame whose payload is not a wire-encoded Value: framing
  // accepts it, value decoding must not.
  ASSERT_TRUE(wal.Append(Bytes{0xFF, 0xFE, 0xFD}).ok());
  ASSERT_TRUE(wal.AppendValue(Value::Record({{"op", Value::Str("x")}}))
                  .ok());
  auto values = wal.RecoverValues();
  EXPECT_FALSE(values.ok());
  // Framing-level recovery of the same log is fine.
  auto raw = wal.Recover();
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->records.size(), 2u);
}

TEST(WalTest, ValueRecords) {
  StableStore store;
  Wal wal(&store, "g/vals");
  ASSERT_TRUE(wal.AppendValue(Value::Record({{"op", Value::Str("reserve")},
                                             {"n", Value::Int(3)}}))
                  .ok());
  auto values = wal.RecoverValues();
  ASSERT_TRUE(values.ok());
  ASSERT_EQ(values->size(), 1u);
  EXPECT_EQ((*values)[0].field("op")->string_value(), "reserve");
  EXPECT_EQ((*values)[0].field("n")->int_value(), 3);
}

TEST(WalTest, SizeAndAppendCountTrack) {
  StableStore store;
  Wal wal(&store, "g/size");
  EXPECT_EQ(wal.SizeBytes(), 0u);
  ASSERT_TRUE(wal.Append(Bytes(100, 1)).ok());
  EXPECT_EQ(wal.SizeBytes(), 108u);  // 8-byte frame header
  EXPECT_EQ(wal.appended(), 1u);
}

TEST(WalTest, TwoWalsShareAStoreIndependently) {
  StableStore store;
  Wal a(&store, "g/a");
  Wal b(&store, "g/b");
  ASSERT_TRUE(a.Append(ToBytes("A")).ok());
  ASSERT_TRUE(b.Append(ToBytes("B")).ok());
  EXPECT_EQ(ToString(a.Recover()->records[0]), "A");
  EXPECT_EQ(ToString(b.Recover()->records[0]), "B");
}

}  // namespace
}  // namespace guardians
