// Integration tests of the full Figure 2 airline: regional partitioning,
// forwarding with reply bypass (Figure 4), clerk transactions with deferred
// cancels and undo (Figure 5), access control, and crash recovery.
#include <gtest/gtest.h>

#include "src/airline/airline_system.h"
#include "src/airline/flight_guardian.h"
#include "src/airline/workload.h"
#include "src/guardian/system.h"
#include "src/sendprims/remote_call.h"

namespace guardians {
namespace {

class AirlineTest : public ::testing::Test {
 protected:
  AirlineTest() : system_(MakeConfig()) {}

  static SystemConfig MakeConfig() {
    SystemConfig config;
    config.seed = 11;
    config.default_link.latency = Micros(150);
    return config;
  }

  void Build(const AirlineParams& params) {
    auto topology = BuildAirline(system_, params);
    ASSERT_TRUE(topology.ok()) << topology.status();
    topology_ = topology.take();
    NodeRuntime& clerk_node = system_.node(topology_.region_nodes[0]);
    auto shell = clerk_node.Create<ShellGuardian>("shell", "clerk-shell", {});
    ASSERT_TRUE(shell.ok());
    shell_ = *shell;
  }

  // Reserve directly against a regional port (admin-style).
  std::string DirectReserve(int region, int64_t flight,
                            const std::string& passenger,
                            const std::string& date) {
    RemoteCallOptions options;
    options.timeout = Millis(1000);
    options.max_attempts = 2;
    auto reply = RemoteCall(*shell_, topology_.regional_ports[region],
                            "reserve",
                            {Value::Int(flight), Value::Str(passenger),
                             Value::Str(date)},
                            ReservationReplyType(), options);
    return reply.ok() ? reply->command
                      : std::string(CodeName(reply.status().code()));
  }

  std::vector<std::string> ListPassengers(int region, int64_t flight,
                                          const std::string& date,
                                          const std::string& principal) {
    RemoteCallOptions options;
    options.timeout = Millis(1000);
    auto reply = RemoteCall(
        *shell_, topology_.regional_ports[region], "list_passengers",
        {Value::Int(flight), Value::Str(date), Value::Str(principal)},
        ReservationReplyType(), options);
    std::vector<std::string> names;
    if (reply.ok() && reply->command == "info") {
      for (const auto& v : reply->args[0].items()) {
        names.push_back(v.string_value());
      }
    } else if (reply.ok()) {
      names.push_back("<" + reply->command + ">");
    }
    return names;
  }

  System system_;
  AirlineTopology topology_;
  Guardian* shell_ = nullptr;
};

TEST_F(AirlineTest, ReserveCancelListAcrossRegions) {
  AirlineParams params;
  params.regions = 2;
  params.flights_per_region = 2;
  params.capacity = 2;
  Build(params);

  // Reserve on a region-1 flight from a shell at region 0's node.
  EXPECT_EQ(DirectReserve(1, FlightNo(1, 0), "smith", "1979-09-03"), "ok");
  EXPECT_EQ(DirectReserve(1, FlightNo(1, 0), "smith", "1979-09-03"),
            "pre_reserved");
  EXPECT_EQ(DirectReserve(1, FlightNo(1, 0), "jones", "1979-09-03"), "ok");
  // Capacity 2 + waitlist: third passenger is wait-listed.
  EXPECT_EQ(DirectReserve(1, FlightNo(1, 0), "brown", "1979-09-03"),
            "wait_list");

  // Only a manager may list passengers.
  auto names = ListPassengers(1, FlightNo(1, 0), "1979-09-03", "manager");
  EXPECT_EQ(names.size(), 2u);
  auto denied = ListPassengers(1, FlightNo(1, 0), "1979-09-03", "clerk");
  ASSERT_EQ(denied.size(), 1u);
  EXPECT_EQ(denied[0], "<denied>");

  // Unknown flight.
  EXPECT_EQ(DirectReserve(0, 999, "smith", "1979-09-03"), "no_such_flight");
}

TEST_F(AirlineTest, ClerkTransactionWithDeferredCancelAndUndo) {
  AirlineParams params;
  params.regions = 2;
  params.flights_per_region = 2;
  params.capacity = 10;
  Build(params);

  Clerk clerk(*shell_, "passenger-1");
  std::vector<ClerkOp> ops = {
      {ClerkOp::Kind::kReserve, FlightNo(0, 0), "1979-09-05"},
      {ClerkOp::Kind::kReserve, FlightNo(1, 1), "1979-09-06"},
      // Change of mind: undo the second reserve (cancelled at done-time).
      {ClerkOp::Kind::kUndoLast, 0, ""},
      {ClerkOp::Kind::kDone, 0, ""},
  };
  TransSummary summary =
      clerk.RunTransaction(topology_.user_ports[0], ops, Millis(2000));
  EXPECT_TRUE(summary.started);
  EXPECT_TRUE(summary.completed);
  EXPECT_EQ(summary.reserves_standing, 1);
  EXPECT_EQ(summary.outcomes["ok"], 2);
  EXPECT_EQ(summary.outcomes["undone"], 1);

  // The undone reserve was cancelled; the first stands.
  auto first = ListPassengers(0, FlightNo(0, 0), "1979-09-05", "manager");
  EXPECT_EQ(first, std::vector<std::string>{"passenger-1"});
  auto second = ListPassengers(1, FlightNo(1, 1), "1979-09-06", "manager");
  EXPECT_TRUE(second.empty());
}

TEST_F(AirlineTest, CrashTimeoutRetryAfterRestartIsIdempotent) {
  AirlineParams params;
  params.regions = 2;
  params.flights_per_region = 1;
  params.capacity = 5;
  params.logging = true;
  Build(params);

  // A reservation that must survive the crash.
  ASSERT_EQ(DirectReserve(1, FlightNo(1, 0), "durable", "1979-09-10"), "ok");

  NodeRuntime& region1 = system_.node(topology_.region_nodes[1]);
  region1.Crash();

  // While the node is down: timeout — nothing is known about the true
  // state of affairs.
  EXPECT_EQ(DirectReserve(1, FlightNo(1, 0), "during", "1979-09-10"),
            "timeout");

  ASSERT_TRUE(region1.Restart().ok());

  // Retry after restart: idempotent, and the pre-crash reservation is
  // still there (permanence of effect).
  EXPECT_EQ(DirectReserve(1, FlightNo(1, 0), "durable", "1979-09-10"),
            "pre_reserved");
  EXPECT_EQ(DirectReserve(1, FlightNo(1, 0), "during", "1979-09-10"), "ok");
  auto names = ListPassengers(1, FlightNo(1, 0), "1979-09-10", "manager");
  EXPECT_EQ(names.size(), 2u);
}

TEST_F(AirlineTest, WorkloadRunsToCompletionAndStaysConsistent) {
  AirlineParams params;
  params.regions = 2;
  params.flights_per_region = 3;
  params.capacity = 4;
  params.organization = FlightOrganization::kSerializer;
  Build(params);

  WorkloadParams wl;
  wl.regions = 2;
  wl.flights_per_region = 3;
  wl.dates = 4;
  wl.transactions = 8;
  wl.ops_per_transaction = 5;
  wl.seed = 3;
  auto scripts = GenerateTransactions(wl);

  int completed = 0;
  for (size_t t = 0; t < scripts.size(); ++t) {
    Clerk clerk(*shell_, "pax-" + std::to_string(t));
    TransSummary summary = clerk.RunTransaction(
        topology_.user_ports[t % topology_.user_ports.size()], scripts[t],
        Millis(2000));
    if (summary.completed) {
      ++completed;
    }
  }
  EXPECT_EQ(completed, static_cast<int>(scripts.size()));

  // Every flight's inventory satisfies its invariants.
  for (RegionalManager* regional : topology_.regionals) {
    EXPECT_GT(regional->flight_count(), 0u);
  }
  for (NodeId node_id : topology_.region_nodes) {
    NodeRuntime& node = system_.node(node_id);
    for (GuardianId gid = 2; gid < 64; ++gid) {
      Guardian* guardian = node.FindGuardian(gid);
      if (guardian == nullptr) {
        continue;
      }
      auto* flight = dynamic_cast<FlightGuardian*>(guardian);
      if (flight != nullptr) {
        EXPECT_TRUE(flight->SnapshotDb().CheckInvariants());
      }
    }
  }
}

TEST(SerializerCreditTest, WorkerRepliesAreDeliveredByTheWorkerItself) {
  // A serializer flight's dispatcher receives each reserve with the
  // receive credit and hands it to the worker with the request, so the
  // worker's reply is delivered inline: by the worker's own drain, never
  // by the caller's shard worker. Without the hand-off no reply is.
  SystemConfig config;
  config.seed = 41;
  config.default_link.latency = Micros(0);
  System system(config);
  NodeRuntime& client = system.AddNode("client");
  NodeRuntime& region = system.AddNode("region");
  client.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  region.RegisterGuardianType("flight", MakeFactory<FlightGuardian>());
  FlightConfig flight;
  flight.flight_no = 7;
  flight.capacity = 1000;
  flight.organization = FlightOrganization::kSerializer;
  auto created = region.CreateGuardian("flight", "f7", flight.ToArgs());
  ASSERT_TRUE(created.ok());
  const PortName to = (*created)->ProvidedPorts()[0];
  Guardian* shell = *client.Create<ShellGuardian>("shell", "clerk", {});
  ASSERT_TRUE(system.WaitQuiescent());
  // Replies travel to the client node: its shard, (id - 1) mod shards.
  const std::string shard =
      "net.shard." +
      std::to_string((client.id() - 1) % system.network().shard_count()) +
      ".batch.";
  const MetricsRegistry& metrics = system.metrics();
  const uint64_t drains = metrics.CounterValue(shard + "drains");
  const uint64_t inlined = metrics.CounterValue(shard + "inline");
  constexpr int kCalls = 50;
  for (int i = 0; i < kCalls; ++i) {
    RemoteCallOptions options;
    options.timeout = Millis(5000);
    auto reply = RemoteCall(
        *shell, to, "reserve",
        {Value::Str("p" + std::to_string(i)), Value::Str("1979-09-06")},
        ReservationReplyType(), options);
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->command, "ok");
  }
  EXPECT_EQ(metrics.CounterValue(shard + "drains") - drains,
            uint64_t{kCalls});
  EXPECT_EQ(metrics.CounterValue(shard + "inline") - inlined,
            uint64_t{kCalls});
}

}  // namespace
}  // namespace guardians
