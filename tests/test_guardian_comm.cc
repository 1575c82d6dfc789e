// Tests of the Section 3.4 communication semantics at the guardian level:
// buffering and discard-on-full, receive priority, timeouts, the
// synchronization send's receipt semantics, retries under loss, and stale
// port names.
#include <gtest/gtest.h>

#include <thread>

#include "src/guardian/system.h"
#include "src/sendprims/remote_call.h"
#include "src/sendprims/sync_send.h"

namespace guardians {
namespace {

PortType TinyPortType() {
  return PortType("tiny",
                  {MessageSig{"put", {ArgType::Of(TypeTag::kInt)}, {}}});
}

PortType PairPortType() {
  return PortType("pair",
                  {MessageSig{"hi", {}, {}},
                   MessageSig{"lo", {}, {}}});
}

class CommTest : public ::testing::Test {
 protected:
  CommTest() : system_(MakeConfig()) {
    a_ = &system_.AddNode("a");
    b_ = &system_.AddNode("b");
    for (auto* node : {a_, b_}) {
      node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    }
    sender_ = *a_->Create<ShellGuardian>("shell", "sender", {});
    receiver_ = *b_->Create<ShellGuardian>("shell", "receiver", {});
  }

  static SystemConfig MakeConfig() {
    SystemConfig config;
    config.seed = 77;
    config.default_link.latency = Micros(100);
    return config;
  }

  System system_;
  NodeRuntime* a_ = nullptr;
  NodeRuntime* b_ = nullptr;
  Guardian* sender_ = nullptr;
  Guardian* receiver_ = nullptr;
};

TEST_F(CommTest, MessagesQueueUpToCapacityThenDiscard) {
  Port* port = receiver_->AddPort(TinyPortType(), /*capacity=*/3);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(sender_->Send(port->name(), "put", {Value::Int(i)}).ok());
  }
  system_.network().DrainForTesting();
  EXPECT_EQ(port->depth(), 3u);
  EXPECT_EQ(port->enqueued(), 3u);
  EXPECT_EQ(system_.metrics().CounterValue("deliver.drop.port_full"), 3u);
  // Without a reply port, the discards are silent: no failures synthesized.
  EXPECT_EQ(
      system_.metrics().CounterValue("deliver.failures_synthesized"), 0u);

  // Draining the port makes room again.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(receiver_->Receive(port, Millis(100)).ok());
  }
  ASSERT_TRUE(sender_->Send(port->name(), "put", {Value::Int(9)}).ok());
  system_.network().DrainForTesting();
  EXPECT_EQ(port->depth(), 1u);
}

TEST_F(CommTest, ReceiveScansPortListInPriorityOrder) {
  Port* high = receiver_->AddPort(PairPortType(), 8);
  Port* low = receiver_->AddPort(PairPortType(), 8);
  ASSERT_TRUE(sender_->Send(low->name(), "lo", {}).ok());
  ASSERT_TRUE(sender_->Send(high->name(), "hi", {}).ok());
  system_.network().DrainForTesting();
  // Both queued; the first port in the list wins regardless of arrival.
  auto first = receiver_->Receive({high, low}, Millis(200));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->command, "hi");
  auto second = receiver_->Receive({high, low}, Millis(200));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->command, "lo");
}

TEST_F(CommTest, ReceiveTimesOutWhenNothingArrives) {
  Port* port = receiver_->AddPort(TinyPortType(), 8);
  const TimePoint begin = Now();
  auto out = receiver_->Receive(port, Millis(50));
  EXPECT_EQ(out.status().code(), Code::kTimeout);
  EXPECT_GE(ToMicros(Now() - begin), 45000);
}

TEST_F(CommTest, ZeroTimeoutPollsWithoutBlocking) {
  Port* port = receiver_->AddPort(TinyPortType(), 8);
  EXPECT_EQ(receiver_->Receive(port, Micros(0)).status().code(),
            Code::kTimeout);
  ASSERT_TRUE(sender_->Send(port->name(), "put", {Value::Int(1)}).ok());
  system_.network().DrainForTesting();
  EXPECT_TRUE(receiver_->Receive(port, Micros(0)).ok());
}

TEST_F(CommTest, SyncSendCompletesOnlyWhenTargetProcessReceives) {
  Port* port = receiver_->AddPort(TinyPortType(), 8);
  std::atomic<bool> sync_done{false};
  std::thread syncer([&] {
    Status st = SyncSend(*sender_, port->name(), "put", {Value::Int(1)},
                         Millis(5000));
    EXPECT_TRUE(st.ok()) << st;
    sync_done = true;
  });
  // The message is *delivered* quickly, but no process has received it, so
  // the synchronization send must still be blocked.
  system_.network().DrainForTesting();
  std::this_thread::sleep_for(Millis(50));
  EXPECT_FALSE(sync_done.load());
  EXPECT_EQ(port->depth(), 1u);

  // The moment a receive dequeues it, the sender unblocks.
  ASSERT_TRUE(receiver_->Receive(port, Millis(1000)).ok());
  syncer.join();
  EXPECT_TRUE(sync_done.load());
  EXPECT_EQ(system_.metrics().CounterValue("deliver.acks_sent"), 1u);
}

TEST_F(CommTest, SyncSendTimesOutIfNobodyReceives) {
  Port* port = receiver_->AddPort(TinyPortType(), 8);
  Status st = SyncSend(*sender_, port->name(), "put", {Value::Int(1)},
                       Millis(80));
  EXPECT_EQ(st.code(), Code::kTimeout);
}

TEST_F(CommTest, RemoteCallRetriesUntilLossyLinkCooperates) {
  // A very lossy link: single attempts usually fail, a retry budget wins.
  system_.network().SetLink(a_->id(), b_->id(),
                            LinkParams{Micros(100), Micros(0), 0.5, 0, 0});
  PortType ping_type("ping_req", {MessageSig{"hi", {}, {"hi"}}});
  Port* port = receiver_->AddPort(ping_type, 64);
  // Echo process.
  receiver_->Fork("echo", [this, port] {
    for (;;) {
      auto received = receiver_->Receive(port, Micros::max());
      if (!received.ok()) {
        return;
      }
      if (!received->reply_to.IsNull()) {
        Status st = receiver_->Send(received->reply_to, "hi", {});
        (void)st;
      }
    }
  });
  PortType reply_type("pair_reply", {MessageSig{"hi", {}, {}}});
  int succeeded = 0;
  int attempts_used = 0;
  for (int i = 0; i < 10; ++i) {
    RemoteCallOptions options;
    options.timeout = Millis(60);
    options.max_attempts = 25;
    auto reply = RemoteCall(*sender_, port->name(), "hi", {}, reply_type,
                            options);
    if (reply.ok()) {
      ++succeeded;
      attempts_used += reply->attempts;
    }
  }
  // 25 attempts at ~84% round-trip failure: virtually certain success.
  EXPECT_EQ(succeeded, 10);
  EXPECT_GT(attempts_used, 10);  // the loss actually forced retries
}

TEST_F(CommTest, StaleNameAfterPortChangeYieldsTypeMismatchFailure) {
  Port* old_port = receiver_->AddPort(TinyPortType(), 8);
  PortName stale = old_port->name();
  // The guardian retires the port; a *different* port type now lives at
  // another index, but the stale name still points at index 0.
  receiver_->RetirePort(old_port);
  auto reply_port = sender_->AddPort(
      PortType("r", {MessageSig{"ok", {}, {}}}), 8);
  ASSERT_TRUE(system_.port_types().Register(TinyPortType()).ok());
  // Sending to the retired port: the drop is attributed to the port being
  // retired — not "no port" and not "full" — so the sender can tell that
  // retrying this name is pointless until the port is recreated.
  ASSERT_TRUE(sender_->Send(stale, "put", {Value::Int(1)}).ok());
  system_.network().DrainForTesting();
  const MetricsRegistry& metrics = system_.metrics();
  EXPECT_EQ(metrics.CounterValue("deliver.drop.port_retired"), 1u);
  EXPECT_EQ(metrics.CounterValue("deliver.drop.no_port"), 0u);
  EXPECT_EQ(metrics.CounterValue("deliver.drop.port_full"), 0u);
  EXPECT_EQ(old_port->discarded_retired(), 1u);
  (void)reply_port;
}

TEST_F(CommTest, ReceiveOnClosedNodeReturnsNodeDown) {
  Port* port = receiver_->AddPort(TinyPortType(), 8);
  std::thread closer([this] {
    std::this_thread::sleep_for(Millis(30));
    b_->Crash();
  });
  auto out = receiver_->Receive(port, Micros::max());
  EXPECT_EQ(out.status().code(), Code::kNodeDown);
  closer.join();
}

TEST_F(CommTest, SendFromCrashedNodeFailsLocally) {
  Port* port = receiver_->AddPort(TinyPortType(), 8);
  const PortName name = port->name();
  a_->Crash();
  EXPECT_EQ(sender_->Send(name, "put", {Value::Int(1)}).code(),
            Code::kNodeDown);
}

TEST_F(CommTest, LargeMessageFragmentsAndReassembles) {
  PortType big_type("big",
                    {MessageSig{"blob", {ArgType::Of(TypeTag::kBytes)}, {}}});
  Port* port = receiver_->AddPort(big_type, 8);
  Bytes payload(10000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_TRUE(
      sender_->Send(port->name(), "blob", {Value::Blob(payload)}).ok());
  auto out = receiver_->Receive(port, Millis(2000));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->args[0].bytes_value(), payload);
  // The default packet payload is 1KB, so this took >= 10 packets.
  EXPECT_GE(system_.network().stats().packets_sent, 10u);
}

TEST_F(CommTest, CorruptedFragmentLosesTheWholeMessageSilently) {
  PortType big_type("big2",
                    {MessageSig{"blob", {ArgType::Of(TypeTag::kBytes)}, {}}});
  Port* port = receiver_->AddPort(big_type, 8);
  system_.network().SetLink(a_->id(), b_->id(),
                            LinkParams{Micros(100), Micros(0), 0, 1.0, 0});
  ASSERT_TRUE(
      sender_->Send(port->name(), "blob", {Value::Blob(Bytes(5000, 1))})
          .ok());
  auto out = receiver_->Receive(port, Millis(300));
  EXPECT_EQ(out.status().code(), Code::kTimeout);
  EXPECT_GT(system_.metrics().CounterValue("deliver.drop.corrupt_fragment"),
            0u);
}

TEST_F(CommTest, NoOrderingGuaranteeAcknowledgedInApi) {
  // With jitter, two back-to-back messages may invert; the runtime must
  // deliver both without confusion (exact inversion is probabilistic, so
  // only delivery of both is asserted here; the PORTQ bench measures the
  // inversion rate).
  system_.network().SetLink(a_->id(), b_->id(),
                            LinkParams{Micros(300), Micros(300), 0, 0, 0});
  Port* port = receiver_->AddPort(TinyPortType(), 8);
  ASSERT_TRUE(sender_->Send(port->name(), "put", {Value::Int(1)}).ok());
  ASSERT_TRUE(sender_->Send(port->name(), "put", {Value::Int(2)}).ok());
  int sum = 0;
  for (int i = 0; i < 2; ++i) {
    auto out = receiver_->Receive(port, Millis(2000));
    ASSERT_TRUE(out.ok());
    sum += static_cast<int>(out->args[0].int_value());
  }
  EXPECT_EQ(sum, 3);
}

}  // namespace
}  // namespace guardians
