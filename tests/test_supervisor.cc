// The node supervisor: autonomous restart of crashed nodes, quarantine of
// crash-looping ones, and the quarantine-aware FailoverCall ordering.
#include <gtest/gtest.h>

#include <thread>

#include "src/airline/flight_guardian.h"
#include "src/airline/types.h"
#include "src/fault/fault_injector.h"
#include "src/fault/supervisor.h"
#include "src/guardian/system.h"
#include "src/sendprims/failover.h"
#include "src/sendprims/remote_call.h"

namespace guardians {
namespace {

SystemConfig MakeConfig() {
  SystemConfig config;
  config.seed = 1979;
  config.default_link.latency = Micros(100);
  return config;
}

SupervisorConfig FastConfig() {
  SupervisorConfig config;
  config.poll_interval = Millis(2);
  config.initial_backoff = Millis(2);
  config.max_backoff = Millis(50);
  config.rapid_window = Millis(2000);
  config.quarantine_strikes = 3;
  return config;
}

FlightGuardian* MakeFlight(NodeRuntime& node, const std::string& name,
                           int64_t flight_no) {
  FlightConfig config;
  config.flight_no = flight_no;
  config.capacity = 100;
  auto flight = node.Create<FlightGuardian>("flight", name, config.ToArgs(),
                                            /*persistent=*/true);
  EXPECT_TRUE(flight.ok()) << flight.status();
  return *flight;
}

TEST(SupervisorTest, RestartsACrashedNodeAutonomously) {
  System system(MakeConfig());
  NodeRuntime& region = system.AddNode("region");
  NodeRuntime& client = system.AddNode("client");
  region.RegisterGuardianType("flight", MakeFactory<FlightGuardian>());
  client.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  Guardian* clerk = *client.Create<ShellGuardian>("shell", "clerk", {});
  FlightGuardian* flight = MakeFlight(region, "f1", 1);
  const PortName port = flight->ProvidedPorts()[0];

  Supervisor supervisor(&system, FastConfig());
  supervisor.Ignore(client.id());
  supervisor.Start();

  // Crash the region from *inside* the reserve's log-then-reply window:
  // right after its first mutation, the reserve's log append. The test
  // never calls Restart(); the clerk's retries must ride out the supervised
  // recovery on their own.
  NodeRuntime* region_ptr = &region;
  ASSERT_TRUE(FaultInjector::Instance()
                  .Arm({1, CrashWhen::kAfter}, region_ptr,
                       [region_ptr] { region_ptr->BeginCrash(); })
                  .ok());
  RemoteCallOptions options;
  options.timeout = Millis(250);
  options.max_attempts = 8;
  auto reply = RemoteCall(*clerk, port, "reserve",
                          {Value::Str("smith"), Value::Str("d1")},
                          ReservationReplyType(), options);
  EXPECT_TRUE(FaultInjector::Instance().triggered());
  EXPECT_EQ(FaultInjector::Instance().fired_on().kind, Mutation::kAppend);
  EXPECT_EQ(FaultInjector::Instance().fired_on().name, "g/f1/flight.log");
  FaultInjector::Instance().Disarm();
  ASSERT_TRUE(reply.ok()) << reply.status();
  // The crash hit after the log write, so the retry finds it reserved.
  EXPECT_TRUE(reply->command == "ok" || reply->command == "pre_reserved")
      << reply->command;

  EXPECT_TRUE(region.IsUp());
  EXPECT_GE(supervisor.Health(region.id()).restarts, 1u);
  EXPECT_FALSE(supervisor.IsQuarantined(region.id()));
  EXPECT_GE(system.metrics().counter("supervisor.restarts")->value(), 1u);

  // The acked state survived into the supervised incarnation.
  auto* recovered =
      dynamic_cast<FlightGuardian*>(region.FindGuardian(port.guardian));
  ASSERT_NE(recovered, nullptr);
  EXPECT_TRUE(recovered->SnapshotDb().IsReserved("smith", "d1"));
}

TEST(SupervisorTest, QuarantinesANodeWhoseRecoveryKeepsFailing) {
  System system(MakeConfig());
  NodeRuntime& node = system.AddNode("sick");
  node.RegisterGuardianType("flight", MakeFactory<FlightGuardian>());
  // Two persistent creations so the meta log has a frame *after* the one
  // we corrupt — mid-stream corruption, which recovery correctly refuses
  // to repair (kLogCorrupt), so every restart attempt fails.
  MakeFlight(node, "f1", 1);
  MakeFlight(node, "f2", 2);
  node.Crash();
  StableStore& store = node.stable_store();
  Bytes raw = store.Read("node/meta.log");
  ASSERT_GT(raw.size(), 16u);
  raw[10] ^= 0xFF;  // payload byte of the first frame
  store.Delete("node/meta.log");
  ASSERT_TRUE(store.Append("node/meta.log", raw).ok());

  Supervisor supervisor(&system, FastConfig());
  supervisor.Start();

  Deadline deadline(Millis(5000));
  while (!supervisor.IsQuarantined(node.id()) && !deadline.Expired()) {
    std::this_thread::sleep_for(Millis(5));
  }
  ASSERT_TRUE(supervisor.IsQuarantined(node.id()));
  const auto health = supervisor.Health(node.id());
  EXPECT_GE(health.strikes, 3);
  EXPECT_EQ(health.restarts, 0u);
  EXPECT_FALSE(node.IsUp());
  EXPECT_GE(system.metrics().counter("supervisor.restart_failures")->value(),
            2u);
  EXPECT_EQ(system.metrics().counter("supervisor.quarantined")->value(), 1u);
  // Quarantine is sticky: the supervisor leaves the node alone now.
  std::this_thread::sleep_for(Millis(20));
  EXPECT_FALSE(node.IsUp());
}

TEST(SupervisorTest, FailoverCallDemotesQuarantinedReplica) {
  System system(MakeConfig());
  NodeRuntime& r0 = system.AddNode("r0");
  NodeRuntime& r1 = system.AddNode("r1");
  NodeRuntime& client = system.AddNode("client");
  r0.RegisterGuardianType("flight", MakeFactory<FlightGuardian>());
  r1.RegisterGuardianType("flight", MakeFactory<FlightGuardian>());
  client.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  Guardian* clerk = *client.Create<ShellGuardian>("shell", "clerk", {});
  const PortName p0 = MakeFlight(r0, "f", 7)->ProvidedPorts()[0];
  const PortName p1 = MakeFlight(r1, "f", 7)->ProvidedPorts()[0];

  Supervisor supervisor(&system, FastConfig());  // oracle installed, not
                                                 // started: r0 stays down
  r0.Crash();
  supervisor.ForceQuarantine(r0.id());

  RemoteCallOptions per_target;
  per_target.timeout = Millis(250);
  per_target.max_attempts = 1;
  const TimePoint t0 = Now();
  auto result = FailoverCall(*clerk, {p0, p1}, "flight_stats",
                             {Value::Str("manager")},
                             ReservationReplyType(), per_target);
  const Micros elapsed{ToMicros(Now() - t0)};
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->reply.command, "stats_info");
  // The healthy replica was tried FIRST, so the answer indexes the
  // caller's original list and no per-target timeout was burned.
  EXPECT_EQ(result->target_index, 1);
  EXPECT_LT(elapsed, Millis(200));
  EXPECT_EQ(
      system.metrics().counter("sendprims.failover.quarantine_skips")->value(),
      1u);
  EXPECT_EQ(system.metrics().counter("sendprims.failover.failovers")->value(),
            0u);

  // Quarantine lifted: the original order applies again.
  supervisor.ClearQuarantine(r0.id());
  ASSERT_TRUE(r0.Restart().ok());
  auto back = FailoverCall(*clerk, {p0, p1}, "flight_stats",
                           {Value::Str("manager")},
                           ReservationReplyType(), per_target);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->target_index, 0);
}

}  // namespace
}  // namespace guardians
