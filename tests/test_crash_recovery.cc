// Crash/recovery semantics (Section 2.2): persistent guardian id stability,
// meta-log replay, torn-tail tolerance, permanence under repeated
// crash/restart cycles with fault injection.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "src/airline/flight_guardian.h"
#include "src/bank/account_guardian.h"
#include "src/fault/fault_injector.h"
#include "src/guardian/system.h"
#include "src/sendprims/remote_call.h"

namespace guardians {
namespace {

class CrashTest : public ::testing::Test {
 protected:
  CrashTest() : system_(MakeConfig()) {
    node_ = &system_.AddNode("server");
    client_node_ = &system_.AddNode("client");
    node_->RegisterGuardianType("flight", MakeFactory<FlightGuardian>());
    node_->RegisterGuardianType(AccountGuardian::kTypeName,
                                MakeFactory<AccountGuardian>());
    node_->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    client_node_->RegisterGuardianType("shell",
                                       MakeFactory<ShellGuardian>());
    client_ = *client_node_->Create<ShellGuardian>("shell", "client", {});
  }

  static SystemConfig MakeConfig() {
    SystemConfig config;
    config.seed = 1979;
    config.default_link.latency = Micros(100);
    return config;
  }

  FlightGuardian* MakeFlight(const std::string& name, int64_t flight_no,
                             bool persistent = true) {
    FlightConfig config;
    config.flight_no = flight_no;
    config.capacity = 100;
    auto flight =
        node_->Create<FlightGuardian>("flight", name, config.ToArgs(),
                                      persistent);
    EXPECT_TRUE(flight.ok()) << flight.status();
    return *flight;
  }

  std::string Reserve(const PortName& port, const std::string& passenger,
                      const std::string& date, int attempts = 1) {
    RemoteCallOptions options;
    options.timeout = Millis(500);
    options.max_attempts = attempts;
    auto reply = RemoteCall(
        *client_, port, "reserve",
        {Value::Str(passenger), Value::Str(date)},
        PortType("rr", {MessageSig{"ok", {}, {}},
                        MessageSig{"pre_reserved", {}, {}},
                        MessageSig{"full", {}, {}},
                        MessageSig{"wait_list", {}, {}}}),
        options);
    return reply.ok() ? reply->command
                      : std::string(CodeName(reply.status().code()));
  }

  System system_;
  NodeRuntime* node_ = nullptr;
  NodeRuntime* client_node_ = nullptr;
  Guardian* client_ = nullptr;
};

TEST_F(CrashTest, PersistentGuardianKeepsIdAndPortName) {
  FlightGuardian* flight = MakeFlight("f1", 1);
  const PortName before = flight->ProvidedPorts()[0];
  ASSERT_EQ(Reserve(before, "smith", "d1"), "ok");

  node_->Crash();
  ASSERT_TRUE(node_->Restart().ok());

  auto* recovered =
      dynamic_cast<FlightGuardian*>(node_->FindGuardian(before.guardian));
  ASSERT_NE(recovered, nullptr);
  const PortName after = recovered->ProvidedPorts()[0];
  EXPECT_EQ(before, after);
  EXPECT_EQ(before.type_hash, after.type_hash);
  // The old name still works and the state survived.
  EXPECT_EQ(Reserve(before, "smith", "d1"), "pre_reserved");
}

TEST_F(CrashTest, NonPersistentGuardianIsForgotten) {
  FlightGuardian* flight = MakeFlight("temp", 2, /*persistent=*/false);
  const PortName port = flight->ProvidedPorts()[0];
  ASSERT_EQ(Reserve(port, "smith", "d1"), "ok");

  node_->Crash();
  ASSERT_TRUE(node_->Restart().ok());
  EXPECT_EQ(node_->FindGuardian(port.guardian), nullptr);
  // Sends to it are discarded ("target guardian doesn't exist").
  EXPECT_EQ(Reserve(port, "smith", "d1"), "failure");
}

TEST_F(CrashTest, GuardianIdsNeverCollideAcrossRestarts) {
  MakeFlight("keep", 1, true);
  FlightGuardian* ephemeral = MakeFlight("temp", 2, false);
  const GuardianId old_id = ephemeral->id();

  node_->Crash();
  ASSERT_TRUE(node_->Restart().ok());

  // A new guardian must not reuse the dead ephemeral's id, or stale port
  // names would silently route to the wrong guardian.
  FlightGuardian* fresh = MakeFlight("fresh", 3, false);
  EXPECT_GT(fresh->id(), old_id);
}

TEST_F(CrashTest, DestroyedGuardianIsNotRecovered) {
  FlightGuardian* flight = MakeFlight("gone", 4, true);
  const GuardianId gid = flight->id();
  ASSERT_TRUE(node_->DestroyGuardian(gid).ok());
  node_->Crash();
  ASSERT_TRUE(node_->Restart().ok());
  EXPECT_EQ(node_->FindGuardian(gid), nullptr);
}

TEST_F(CrashTest, CrashInsideDestroysLogRewriteKeepsTheOtherGuardians) {
  // Regression: DestroyGuardian rewrote the meta log as Checkpoint({}) and
  // then re-appended every other guardian's creation record, so a crash
  // between the two forgot every persistent guardian on the node. The
  // kept records are now the checkpoint's snapshot, installed in one
  // crash-atomic step. The crash lands on every device boundary of the
  // rewrite: before and after each of the checkpoint's mutations.
  const char* const kRewrite[] = {"put_cell node/meta.snap",
                                   "truncate node/meta.log",
                                   "put_cell node/meta.epoch"};
  NodeRuntime* node = node_;
  for (uint64_t mutation = 1; mutation <= 3; ++mutation) {
    for (const CrashWhen when : {CrashWhen::kBefore, CrashWhen::kAfter}) {
      const CrashPlan plan{mutation, when};
      SCOPED_TRACE(plan.ToString());
      const std::string tag = plan.ToString();
      const GuardianId keep =
          (*node_->Create<ShellGuardian>("shell", "keep " + tag, {}, true))
              ->id();
      const GuardianId doomed =
          (*node_->Create<ShellGuardian>("shell", "doomed " + tag, {}, true))
              ->id();
      ASSERT_TRUE(FaultInjector::Instance()
                      .Arm(plan, node, [node] { node->BeginCrash(); })
                      .ok());
      const Status destroyed = node_->DestroyGuardian(doomed);
      const bool fired = FaultInjector::Instance().triggered();
      const DeviceOp fired_on = FaultInjector::Instance().fired_on();
      FaultInjector::Instance().Disarm();
      ASSERT_TRUE(fired);
      EXPECT_EQ(fired_on.ToString(), kRewrite[mutation - 1]);
      EXPECT_EQ(destroyed.code(), Code::kNodeDown);
      ASSERT_TRUE(node_->Restart().ok());
      EXPECT_NE(node_->FindGuardian(keep), nullptr);
      // The destroy is durable once the snapshot is on the device.
      const bool destroyed_durably =
          mutation > 1 || when == CrashWhen::kAfter;
      EXPECT_EQ(node_->FindGuardian(doomed) == nullptr, destroyed_durably);
    }
  }
}

TEST_F(CrashTest, DestroyOnAFailedStoreReportsItAndKeepsTheGuardian) {
  // A destroy whose log rewrite fails returns the store's error and
  // changes nothing: the guardian runs on, and is recovered after a crash.
  const GuardianId gid =
      (*node_->Create<ShellGuardian>("shell", "stays", {}, true))->id();
  node_->stable_store().SetFailed(true);
  EXPECT_EQ(node_->DestroyGuardian(gid).code(), Code::kStorageError);
  node_->stable_store().SetFailed(false);
  EXPECT_NE(node_->FindGuardian(gid), nullptr);
  node_->Crash();
  ASSERT_TRUE(node_->Restart().ok());
  EXPECT_NE(node_->FindGuardian(gid), nullptr);
}

TEST_F(CrashTest, RepeatedCrashRestartCyclesPreserveEveryAckedOp) {
  FlightGuardian* flight = MakeFlight("cycle", 5);
  PortName port = flight->ProvidedPorts()[0];
  std::vector<std::string> acked;
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (int i = 0; i < 8; ++i) {
      const std::string passenger =
          "p" + std::to_string(cycle) + "-" + std::to_string(i);
      if (Reserve(port, passenger, "d1") == "ok") {
        acked.push_back(passenger);
      }
    }
    node_->Crash();
    ASSERT_TRUE(node_->Restart().ok());
  }
  auto* recovered =
      dynamic_cast<FlightGuardian*>(node_->FindGuardian(port.guardian));
  ASSERT_NE(recovered, nullptr);
  const FlightDb db = recovered->SnapshotDb();
  for (const auto& passenger : acked) {
    EXPECT_TRUE(db.IsReserved(passenger, "d1")) << passenger;
  }
  EXPECT_EQ(acked.size(), 32u);
}

TEST_F(CrashTest, TornLogTailLosesAtMostTheUnackedOp) {
  FlightGuardian* flight = MakeFlight("torn", 6);
  PortName port = flight->ProvidedPorts()[0];
  ASSERT_EQ(Reserve(port, "a", "d1"), "ok");
  ASSERT_EQ(Reserve(port, "b", "d1"), "ok");

  node_->Crash();
  // A crash in the middle of the *next* append: chop bytes off the log.
  node_->stable_store().ChopTail("g/torn/flight.log", 3);
  ASSERT_TRUE(node_->Restart().ok());

  auto* recovered =
      dynamic_cast<FlightGuardian*>(node_->FindGuardian(port.guardian));
  ASSERT_NE(recovered, nullptr);
  const FlightDb db = recovered->SnapshotDb();
  // "a" was acked with an intact record; "b"'s record was torn — it is as
  // if b's request had never been done, which the timeout semantics allow.
  EXPECT_TRUE(db.IsReserved("a", "d1"));
  EXPECT_FALSE(db.IsReserved("b", "d1"));
  // And b can simply retry (idempotent).
  EXPECT_EQ(Reserve(port, "b", "d1"), "ok");
}

TEST_F(CrashTest, CheckpointedGuardianRecoversSameState) {
  FlightConfig config;
  config.flight_no = 7;
  config.capacity = 100;
  config.checkpoint_every = 8;
  auto flight = node_->Create<FlightGuardian>("flight", "ckpt",
                                              config.ToArgs(), true);
  ASSERT_TRUE(flight.ok());
  PortName port = (*flight)->ProvidedPorts()[0];
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(Reserve(port, "p" + std::to_string(i), "d1"), "ok");
  }
  const FlightDb before = (*flight)->SnapshotDb();

  node_->Crash();
  ASSERT_TRUE(node_->Restart().ok());

  auto* recovered =
      dynamic_cast<FlightGuardian*>(node_->FindGuardian(port.guardian));
  ASSERT_NE(recovered, nullptr);
  EXPECT_TRUE(before.Equals(recovered->SnapshotDb()));
}

TEST_F(CrashTest, ClientObservesOnlyTimeoutsDuringOutage) {
  FlightGuardian* flight = MakeFlight("outage", 8);
  PortName port = flight->ProvidedPorts()[0];
  node_->Crash();
  EXPECT_EQ(Reserve(port, "x", "d1"), "timeout");
  ASSERT_TRUE(node_->Restart().ok());
  EXPECT_EQ(Reserve(port, "x", "d1", /*attempts=*/3), "ok");
}

TEST_F(CrashTest, AccountLogDedupSurvivesCrash) {
  auto account = node_->Create<AccountGuardian>(
      AccountGuardian::kTypeName, "acct",
      {Value::Str("eve"), Value::Int(10)}, true);
  ASSERT_TRUE(account.ok());
  const PortName port = (*account)->ProvidedPorts()[0];

  RemoteCallOptions options;
  options.timeout = Millis(500);
  options.max_attempts = 3;
  auto deposit = [&](const std::string& txid) {
    return RemoteCall(*client_, port, "deposit",
                      {Value::Int(5), Value::Str(txid)}, BankReplyType(),
                      options);
  };
  ASSERT_TRUE(deposit("t1").ok());
  node_->Crash();
  ASSERT_TRUE(node_->Restart().ok());
  // The same txid after recovery must not re-apply.
  auto reply = deposit("t1");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->args[0].int_value(), 15);
  auto* recovered = dynamic_cast<AccountGuardian*>(
      node_->FindGuardian(port.guardian));
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->BalanceForTesting(), 15);
}

TEST_F(CrashTest, RestartWhileUpIsRejected) {
  EXPECT_FALSE(node_->Restart().ok());
}

TEST_F(CrashTest, DoubleCrashIsIdempotent) {
  node_->Crash();
  node_->Crash();  // harmless
  EXPECT_FALSE(node_->IsUp());
  ASSERT_TRUE(node_->Restart().ok());
  EXPECT_TRUE(node_->IsUp());
}

}  // namespace
}  // namespace guardians
