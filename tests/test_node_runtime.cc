// Tests of NodeRuntime mechanics: message-id uniqueness, stats accounting,
// guardian destruction, transmit-side errors, and the send primitives'
// message economics (the §3 "can implement the others" construction).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/fault/chaos.h"
#include "src/guardian/system.h"
#include "src/sendprims/remote_call.h"
#include "src/sendprims/sync_send.h"
#include "tests/wait_test_util.h"

namespace guardians {
namespace {

PortType EchoType() {
  return PortType("node_echo",
                  {MessageSig{"echo", {ArgType::Of(TypeTag::kString)},
                              {"echoed"}},
                   MessageSig{"drop", {}, {}}});
}

PortType EchoReply() {
  return PortType("node_echo_reply",
                  {MessageSig{"echoed", {ArgType::Of(TypeTag::kString)},
                              {}}});
}

class Echoer : public Guardian {
 public:
  Status Setup(const ValueList&) override {
    AddPort(EchoType(), 64, /*provided=*/true);
    return OkStatus();
  }
  void Main() override {
    for (;;) {
      auto m = Receive(port(0), Micros::max());
      if (!m.ok()) {
        return;
      }
      if (m->command == "echo" && !m->reply_to.IsNull()) {
        Status st = Send(m->reply_to, "echoed", {m->args[0]});
        (void)st;
      }
    }
  }
};

class NodeRuntimeTest : public ::testing::Test {
 protected:
  NodeRuntimeTest() : system_(MakeConfig()) {
    a_ = &system_.AddNode("a");
    b_ = &system_.AddNode("b");
    a_->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    b_->RegisterGuardianType("echo", MakeFactory<Echoer>());
    driver_ = *a_->Create<ShellGuardian>("shell", "driver", {});
    echoer_ = *b_->Create<Echoer>("echo", "echoer", {});
    echo_port_ = echoer_->ProvidedPorts()[0];
  }

  static SystemConfig MakeConfig() {
    SystemConfig config;
    config.seed = 333;
    config.default_link.latency = Micros(100);
    return config;
  }

  System system_;
  NodeRuntime* a_ = nullptr;
  NodeRuntime* b_ = nullptr;
  Guardian* driver_ = nullptr;
  Echoer* echoer_ = nullptr;
  PortName echo_port_;
};

TEST_F(NodeRuntimeTest, MessageIdsAreUniqueAcrossNodes) {
  std::set<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.insert(a_->NextMsgId());
    ids.insert(b_->NextMsgId());
  }
  EXPECT_EQ(ids.size(), 2000u);
}

TEST_F(NodeRuntimeTest, StatsAccountForDeliveriesAndDiscards) {
  const MetricsRegistry& metrics = system_.metrics();
  ASSERT_TRUE(driver_->Send(echo_port_, "drop", {}).ok());
  system_.network().DrainForTesting();
  EXPECT_EQ(metrics.CounterValue("node.messages_sent"), 1u);
  EXPECT_EQ(metrics.CounterValue("deliver.delivered"), 1u);

  PortName missing = echo_port_;
  missing.guardian = 4040;
  ASSERT_TRUE(driver_->Send(missing, "drop", {}).ok());
  system_.network().DrainForTesting();
  EXPECT_EQ(metrics.CounterValue("deliver.drop.no_guardian"), 1u);

  PortName bad_index = echo_port_;
  bad_index.port_index = 99;
  ASSERT_TRUE(driver_->Send(bad_index, "drop", {}).ok());
  system_.network().DrainForTesting();
  EXPECT_EQ(metrics.CounterValue("deliver.drop.no_port"), 1u);
}

TEST_F(NodeRuntimeTest, SendToNullPortRejectedLocally) {
  EXPECT_EQ(driver_->Send(PortName{}, "drop", {}).code(),
            Code::kInvalidArgument);
}

TEST_F(NodeRuntimeTest, SendWithUnknownTypeHashRejected) {
  PortName forged = echo_port_;
  forged.type_hash = 0xDEAD;  // not in the guardian-header library
  EXPECT_EQ(driver_->Send(forged, "drop", {}).code(), Code::kTypeError);
}

TEST_F(NodeRuntimeTest, DestroyGuardianStopsItAndFreesTheName) {
  ASSERT_TRUE(b_->DestroyGuardian(echo_port_.guardian).ok());
  EXPECT_EQ(b_->FindGuardian(echo_port_.guardian), nullptr);
  EXPECT_FALSE(b_->DestroyGuardian(echo_port_.guardian).ok());

  RemoteCallOptions options;
  options.timeout = Millis(500);
  auto reply = RemoteCall(*driver_, echo_port_, "echo", {Value::Str("x")},
                          EchoReply(), options);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->command, "failure");
}

TEST_F(NodeRuntimeTest, FailureMessagesCannotLoop) {
  // A failure synthesized for a missing guardian carries no reply port, so
  // a second failure is never produced even if the first is undeliverable.
  PortName missing = echo_port_;
  missing.guardian = 5050;
  Port* reply_port = driver_->AddPort(EchoReply(), 8);
  ASSERT_TRUE(driver_->Send(missing, "echo", {Value::Str("x")},
                            reply_port->name())
                  .ok());
  // Retire the reply port before the failure can arrive.
  driver_->RetirePort(reply_port);
  system_.network().DrainForTesting();
  std::this_thread::sleep_for(Millis(50));
  // Exactly one failure was synthesized in the whole system (node b's,
  // for the missing guardian); the undeliverable failure made none.
  EXPECT_EQ(
      system_.metrics().CounterValue("deliver.failures_synthesized"), 1u);
}

TEST_F(NodeRuntimeTest, PrimordialRejectsMalformedCreateGracefully) {
  // Wrong arg types are caught by the send-side check.
  EXPECT_EQ(driver_
                ->Send(b_->PrimordialPort(), "create_guardian",
                       {Value::Int(1), Value::Int(2), Value::Int(3),
                        Value::Int(4)})
                .code(),
            Code::kTypeError);
}

TEST_F(NodeRuntimeTest, SyncSendUsesExactlyTwoWireMessages) {
  // The §3 construction: synchronization send = no-wait send + ack. The
  // runtime acks at delivery, and the echoer's own Main loop consumes the
  // message (a second receiver here would race it for the same port).
  const uint64_t before = system_.network().stats().packets_sent;
  Status st = SyncSend(*driver_, echo_port_, "drop", {}, Millis(3000));
  EXPECT_TRUE(st.ok()) << st;
  system_.network().DrainForTesting();
  const uint64_t after = system_.network().stats().packets_sent;
  EXPECT_EQ(after - before, 2u);  // message + receipt ack, nothing else
}

TEST_F(NodeRuntimeTest, NoWaitSendUsesExactlyOneWireMessage) {
  const uint64_t before = system_.network().stats().packets_sent;
  ASSERT_TRUE(driver_->Send(echo_port_, "drop", {}).ok());
  system_.network().DrainForTesting();
  EXPECT_EQ(system_.network().stats().packets_sent - before, 1u);
}

TEST_F(NodeRuntimeTest, RemoteCallReportsAttempts) {
  RemoteCallOptions options;
  options.timeout = Millis(500);
  options.max_attempts = 3;
  auto reply = RemoteCall(*driver_, echo_port_, "echo", {Value::Str("hi")},
                          EchoReply(), options);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->attempts, 1);  // clean network: first attempt wins
  EXPECT_EQ(reply->command, "echoed");
}

TEST_F(NodeRuntimeTest, RemoteCallDoesNotRetryLocalTypeErrors) {
  RemoteCallOptions options;
  options.timeout = Millis(500);
  options.max_attempts = 5;
  const uint64_t before =
      system_.metrics().CounterValue("node.messages_sent");
  auto reply = RemoteCall(*driver_, echo_port_, "echo", {Value::Int(3)},
                          EchoReply(), options);
  EXPECT_EQ(reply.status().code(), Code::kTypeError);
  // Nothing ever sent.
  EXPECT_EQ(system_.metrics().CounterValue("node.messages_sent"), before);
}

TEST_F(NodeRuntimeTest, TransmitRegistryKnownness) {
  EXPECT_FALSE(a_->transmit_registry().Knows("complex"));
  EXPECT_TRUE(a_->KnowsGuardianType("shell"));
  EXPECT_FALSE(a_->KnowsGuardianType("echo"));
}

TEST_F(NodeRuntimeTest, PortTypeRegistryIsSystemWide) {
  // The echo header was "compiled into the library" when the port was
  // added at node b; node a can check sends against it.
  EXPECT_TRUE(system_.port_types().Knows(EchoType().hash()));
  const PortType* looked_up = system_.port_types().Lookup(EchoType().hash());
  ASSERT_NE(looked_up, nullptr);
  EXPECT_EQ(looked_up->name(), "node_echo");
  // Conflicting redefinition of the same hash is rejected; identical
  // re-registration is idempotent.
  EXPECT_TRUE(system_.port_types().Register(EchoType()).ok());
}

// Drains run by a sending thread, summed over every shard.
uint64_t InlineDrains(System& system) {
  uint64_t total = 0;
  for (const auto& [name, value] :
       system.metrics().CountersWithPrefix("net.shard.")) {
    if (name.ends_with(".batch.inline")) {
      total += value;
    }
  }
  return total;
}

// Zero-latency request/reply: every hop is delivered by the thread that
// sends it (a caller's request by the caller, the echo's reply by the
// echo), so one node's DeliverBatch runs on another node's guardian
// thread, concurrently with the first node's own worker and guardians.
// The tsan preset runs this end to end.
TEST(NodeRuntimeInlineTest, ZeroLatencyCallersRunEveryHopInline) {
  constexpr int kCalls = 1500;
  SystemConfig config;
  config.seed = 404;
  config.default_link.latency = Micros(0);
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  a.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  b.RegisterGuardianType("echo", MakeFactory<Echoer>());
  Echoer* echoer = *b.Create<Echoer>("echo", "echoer", {});
  const PortName echo_port = echoer->ProvidedPorts()[0];
  // One caller with small arguments, one whose every message takes three
  // fragments each way.
  const std::string payloads[] = {std::string(16, 's'),
                                  std::string(3000, 'f')};
  std::atomic<int> bad_replies{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    Guardian* caller =
        *a.Create<ShellGuardian>("shell", "caller" + std::to_string(c), {});
    callers.emplace_back([&, caller, c] {
      RemoteCallOptions options;
      options.timeout = Millis(10000);
      for (int i = 0; i < kCalls; ++i) {
        SetCurrentTraceId(0);
        const std::string arg = payloads[c] + std::to_string(i);
        auto reply = RemoteCall(*caller, echo_port, "echo", {Value::Str(arg)},
                                EchoReply(), options);
        if (!reply.ok() || reply->command != "echoed" ||
            reply->args.size() != 1 || reply->args[0].string_value() != arg) {
          bad_replies.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  EXPECT_EQ(bad_replies.load(), 0);
  ASSERT_TRUE(system.WaitQuiescent());
  const NetworkStats stats = system.network().stats();
  EXPECT_EQ(stats.packets_delivered + stats.packets_dropped,
            stats.packets_sent + stats.packets_duplicated);
  EXPECT_GT(InlineDrains(system), 0u);
}

// Opened by the test once every request sits in the gated echoer's port.
std::atomic<bool> g_echo_gate_open{false};

class GatedEchoer : public Echoer {
 public:
  void Main() override {
    while (!g_echo_gate_open.load()) {
      std::this_thread::sleep_for(Micros(200));
    }
    Echoer::Main();
  }
};

// A receiver that leaves messages waiting holds no receive credit: each
// reply it sends with a backlog behind it goes to the shard worker, and
// only the reply sent after the port has emptied may run on its thread.
TEST(NodeRuntimeInlineTest, BackloggedReceiverLeavesItsRepliesToTheWorker) {
  constexpr int kRequests = 8;
  g_echo_gate_open = false;
  SystemConfig config;
  config.seed = 405;
  config.default_link.latency = Micros(0);
  System system(config);
  // Destroyed before the system, so the echoer's Main always gets past
  // the gate and the system can join it.
  struct OpenGateOnExit {
    ~OpenGateOnExit() { g_echo_gate_open = true; }
  } open_gate_on_exit;
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  a.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  b.RegisterGuardianType("gated_echo", MakeFactory<GatedEchoer>());
  Guardian* driver = *a.Create<ShellGuardian>("shell", "driver", {});
  GatedEchoer* echoer = *b.Create<GatedEchoer>("gated_echo", "echoer", {});
  const PortName echo_port = echoer->ProvidedPorts()[0];
  Port* replies = driver->AddPort(EchoReply(), 64);
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(driver->Send(echo_port, "echo", {Value::Str(std::to_string(i))},
                             replies->name())
                    .ok());
  }
  ASSERT_TRUE(system.WaitQuiescent());
  const uint64_t inline_before = InlineDrains(system);
  g_echo_gate_open = true;
  for (int i = 0; i < kRequests; ++i) {
    auto reply = driver->Receive(replies, Millis(5000));
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->args[0].string_value(), std::to_string(i));
  }
  ASSERT_TRUE(system.WaitQuiescent());
  // A credited echoer would have delivered all eight on its own thread.
  EXPECT_LE(InlineDrains(system) - inline_before, 1u);
}

// --- How blocked threads wait (DESIGN.md §8) -------------------------------

// Counts what arrives on one roomy port (the no-wait stream's sink).
class CountingSink : public Guardian {
 public:
  Status Setup(const ValueList&) override {
    AddPort(EchoType(), 4096, /*provided=*/true);
    return OkStatus();
  }
  void Main() override {
    while (Receive(port(0), Micros::max()).ok()) {
      received.fetch_add(1);
    }
  }
  std::atomic<int> received{0};
};

// A paced stream of no-wait sends, the shape of the paper's primitive: the
// sending thread never receives, so the shard worker delivers every
// message, and both it and the sink wait ~10 us (wall time) between
// messages. Returns the world's registry after the sink took them all.
struct StreamWaits {
  uint64_t receive_spun = 0;
  uint64_t receive_parked = 0;
  uint64_t shard_spun = 0;
  uint64_t shard_parked = 0;
  bool report_names_them = false;
};

StreamWaits RunPacedStream(SystemConfig config) {
  constexpr int kMessages = 3000;
  config.seed = 406;
  config.default_link.latency = Micros(0);
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  a.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  b.RegisterGuardianType("sink", MakeFactory<CountingSink>());
  Guardian* generator = *a.Create<ShellGuardian>("shell", "generator", {});
  CountingSink* sink = *b.Create<CountingSink>("sink", "sink", {});
  const PortName to = sink->ProvidedPorts()[0];
  TimePoint due = Now();
  for (int i = 0; i < kMessages; ++i) {
    due += Micros(10);
    while (Now() < due) {
    }
    EXPECT_TRUE(generator->Send(to, "drop", {}).ok());
  }
  const TimePoint give_up = Now() + Millis(10'000);
  while (sink->received.load() < kMessages && Now() < give_up) {
    std::this_thread::sleep_for(Micros(100));
  }
  EXPECT_EQ(sink->received.load(), kMessages);
  const MetricsRegistry& metrics = system.metrics();
  StreamWaits waits;
  waits.receive_spun = metrics.CounterValue("guardian.wait.spun");
  waits.receive_parked = metrics.CounterValue("guardian.wait.parked");
  for (size_t k = 0; k < system.network().shard_count(); ++k) {
    const std::string prefix = "net.shard." + std::to_string(k) + ".wait.";
    waits.shard_spun += metrics.CounterValue(prefix + "spun");
    waits.shard_parked += metrics.CounterValue(prefix + "parked");
  }
  const std::string report = system.Report();
  waits.report_names_them =
      report.find("guardian.wait.parked") != std::string::npos &&
      report.find(".wait.parked") != std::string::npos;
  return waits;
}

// On the wall clock those short waits spin, and the registry says how
// each blocked wait ended, receives and shard workers apart.
TEST(NodeRuntimeWaitTest, ReportCountsHowReceivesAndShardWorkersWaited) {
  // A loaded host can stretch the waits past the spin budget; a fresh
  // world gets up to two more tries to show the spins.
  StreamWaits waits = RunPacedStream(SystemConfig{});
  for (int retry = 0;
       retry < 2 && (waits.receive_spun == 0 || waits.shard_spun == 0);
       ++retry) {
    waits = RunPacedStream(SystemConfig{});
  }
  EXPECT_GT(waits.receive_spun + waits.receive_parked, 0u);
  EXPECT_GT(waits.shard_spun + waits.shard_parked, 0u);
  EXPECT_TRUE(waits.report_names_them);
  if (waits.receive_spun == 0 || waits.shard_spun == 0) {
    if (const char* why = wait_test::WhyShortWaitsMayNotSpin()) {
      GTEST_SKIP() << "short waits never spun: " << why;
    }
    ADD_FAILURE() << "short waits never spun on free CPUs (receives "
                  << waits.receive_spun << ", shards " << waits.shard_spun
                  << ")";
  }
}

// Virtual time only moves while its participants are parked in clock
// waits, so nothing may spin on a simulated clock: neither the same
// stream on virtual time (whose waits are just as short in wall time) nor
// a whole simulated-time chaos seed ends a wait mid-spin even once.
TEST(NodeRuntimeWaitTest, NothingSpinsOnASimulatedClock) {
  SimulatedClock sim;
  SystemConfig config;
  config.sim_clock = &sim;
  const StreamWaits waits = RunPacedStream(config);
  EXPECT_EQ(waits.receive_spun, 0u);
  EXPECT_EQ(waits.shard_spun, 0u);
  EXPECT_GT(waits.receive_parked, 0u);

  ChaosConfig chaos;
  chaos.seed = 11;
  chaos.epochs = 3;
  chaos.sim_time = true;
  ChaosReport report = ChaosEngine(chaos).Run();
  EXPECT_GT(report.ops_attempted, 0);
  EXPECT_EQ(report.waits_spun, 0u);
}

}  // namespace
}  // namespace guardians
