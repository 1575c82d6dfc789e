// Tests of NodeRuntime mechanics: message-id uniqueness, stats accounting,
// guardian destruction, transmit-side errors, and the send primitives'
// message economics (the §3 "can implement the others" construction).
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "src/guardian/system.h"
#include "src/sendprims/remote_call.h"
#include "src/sendprims/sync_send.h"

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
  auto looked_up = system_.port_types().Lookup(EchoType().hash());
  ASSERT_TRUE(looked_up.ok());
  EXPECT_EQ(looked_up->name(), "node_echo");
  // Conflicting redefinition of the same hash is rejected; identical
  // re-registration is idempotent.
  EXPECT_TRUE(system_.port_types().Register(EchoType()).ok());
}

}  // namespace
}  // namespace guardians
