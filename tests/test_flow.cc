// Credit-based flow control (DESIGN.md §11): the AIMD congestion window's
// open/close/reopen mechanics in isolation, the end-to-end nack/credit
// loop through a System, determinism of credit-affected counts across
// delivery_shards, and the converged-window saturation property — a slow
// receiver stops causing deliver.drop.port_full once the window tracks its
// capacity.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/guardian/system.h"
#include "src/net/flow.h"
#include "src/sendprims/reliable_send.h"
#include "src/sendprims/remote_call.h"
#include "src/sendprims/sync_send.h"

namespace guardians {
namespace {

PortName P(uint32_t node, uint64_t guardian, uint32_t index) {
  PortName p;
  p.node = node;
  p.guardian = guardian;
  p.port_index = index;
  return p;
}

PortType FlowPortType() {
  return PortType("flow_put",
                  {MessageSig{"put", {ArgType::Of(TypeTag::kString)}, {}}});
}

// ---------------------------------------------------------------------------
// FlowController unit tests (no system, no wire)
// ---------------------------------------------------------------------------

TEST(FlowControllerTest, WindowHalvesOnNackAndGrowsOnCredit) {
  FlowControlConfig config;
  config.initial_window = 8.0;
  FlowController fc(config, nullptr, nullptr, 1);
  const PortName p = P(2, 5, 0);

  EXPECT_DOUBLE_EQ(fc.WindowFor(p), 8.0);
  fc.OnFullNack(p, 16, 16, 0);
  EXPECT_DOUBLE_EQ(fc.WindowFor(p), 4.0);  // multiplicative decrease
  fc.OnFullNack(p, 16, 16, 0);
  fc.OnFullNack(p, 16, 16, 0);
  fc.OnFullNack(p, 16, 16, 0);
  EXPECT_DOUBLE_EQ(fc.WindowFor(p), 1.0);  // floored at min_window

  fc.OnCredit(p, 0, 16);
  const double grown = fc.WindowFor(p);
  EXPECT_GT(grown, 1.0);  // additive increase
  EXPECT_LT(grown, 3.0);  // ...but only additive, not a jump

  // Sustained credit converges on the advertised capacity and stays there.
  for (int i = 0; i < 10000; ++i) {
    fc.OnCredit(p, 0, 16);
  }
  EXPECT_DOUBLE_EQ(fc.WindowFor(p), 16.0);

  // Windows are per destination port: a sibling port is untouched.
  EXPECT_DOUBLE_EQ(fc.WindowFor(P(2, 5, 1)), 8.0);
}

TEST(FlowControllerTest, AcquireTracksInFlightAndSlotReleasesOnDrop) {
  FlowControlConfig config;
  config.initial_window = 2.0;
  FlowController fc(config, nullptr, nullptr, 1);
  const PortName p = P(3, 1, 0);
  {
    FlowSlot s1 = fc.Acquire(p, Deadline(Micros(0)));
    FlowSlot s2 = fc.Acquire(p, Deadline(Micros(0)));
    EXPECT_TRUE(s1.ok());
    EXPECT_TRUE(s2.ok());
    EXPECT_EQ(fc.InFlightFor(p), 2u);
    // The window is exhausted and the deadline already passed: deferred
    // away without sending.
    FlowSlot s3 = fc.Acquire(p, Deadline(Micros(0)));
    EXPECT_FALSE(s3.ok());
  }
  EXPECT_EQ(fc.InFlightFor(p), 0u);  // RAII released both slots
}

TEST(FlowControllerTest, BlockedAcquireWakesWhenWindowReopens) {
  FlowControlConfig config;
  config.initial_window = 1.0;
  FlowController fc(config, nullptr, nullptr, 1);
  const PortName p = P(3, 1, 0);

  FlowSlot held = fc.Acquire(p, Deadline(Micros(0)));
  ASSERT_TRUE(held.ok());
  std::atomic<bool> got{false};
  std::thread waiter([&fc, &p, &got] {
    FlowSlot s = fc.Acquire(p, Deadline(Millis(5000)));
    got.store(s.ok());
  });
  std::this_thread::sleep_for(Millis(20));
  held.Release();  // frees the only slot; the waiter must wake and claim it
  waiter.join();
  EXPECT_TRUE(got.load());
  EXPECT_EQ(fc.InFlightFor(p), 0u);
}

TEST(FlowControllerTest, CongestedHoldClosesThenReopens) {
  FlowControlConfig config;
  config.initial_window = 4.0;
  config.reopen_initial = Millis(50);
  config.reopen_max = Millis(100);
  FlowController fc(config, nullptr, nullptr, 1);
  const PortName p = P(2, 1, 0);

  // A full nack closes the destination even though the window has room.
  fc.OnFullNack(p, 4, 4, 0);
  EXPECT_EQ(fc.InFlightFor(p), 0u);
  FlowSlot during_hold = fc.Acquire(p, Deadline(Millis(5)));
  EXPECT_FALSE(during_hold.ok());

  // Any credit clears the hold immediately.
  fc.OnCredit(p, 0, 4);
  FlowSlot after_credit = fc.Acquire(p, Deadline(Millis(5)));
  EXPECT_TRUE(after_credit.ok());
  after_credit.Release();

  // With no credit, the hold simply elapses.
  fc.OnFullNack(p, 4, 4, 0);
  const TimePoint start = Now();
  FlowSlot after_hold = fc.Acquire(p, Deadline(Millis(5000)));
  EXPECT_TRUE(after_hold.ok());
  EXPECT_GE(ToMicros(Now() - start), 40000);  // waited out most of 50ms
}

TEST(FlowControllerTest, DisabledControllerGrantsWithoutAccounting) {
  FlowControlConfig config;
  config.enabled = false;
  FlowController fc(config, nullptr, nullptr, 1);
  const PortName p = P(9, 9, 0);
  FlowSlot s = fc.Acquire(p, Deadline(Micros(0)));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(fc.InFlightFor(p), 0u);
  fc.OnFullNack(p, 4, 4, 0);
  EXPECT_DOUBLE_EQ(fc.WindowFor(p), config.initial_window);  // inert
}

TEST(FlowControllerTest, ShutdownWakesWaitersAndResetRestoresAccounting) {
  FlowControlConfig config;
  config.initial_window = 1.0;
  FlowController fc(config, nullptr, nullptr, 1);
  const PortName p = P(4, 1, 0);

  FlowSlot held = fc.Acquire(p, Deadline(Micros(0)));
  ASSERT_TRUE(held.ok());
  std::atomic<bool> got{false};
  std::thread waiter([&fc, &p, &got] {
    FlowSlot s = fc.Acquire(p, Deadline(Millis(10000)));
    got.store(s.ok());  // granted unaccounted: the node is going down
  });
  std::this_thread::sleep_for(Millis(20));
  fc.Shutdown();
  waiter.join();
  EXPECT_TRUE(got.load());

  // Restart: fresh windows, accounting back on; the pre-reset slot's
  // release is recognised as stale (epoch) and cannot underflow.
  fc.Reset();
  held.Release();
  EXPECT_EQ(fc.InFlightFor(p), 0u);
  FlowSlot s = fc.Acquire(p, Deadline(Micros(0)));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(fc.InFlightFor(p), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: the nack/credit loop through a System
// ---------------------------------------------------------------------------

TEST(FlowSystemTest, FullPortNackFailsFastHalvesWindowAndCreditReopens) {
  SystemConfig config;
  config.seed = 21;
  config.default_link.latency = Micros(50);
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  for (auto* node : {&a, &b}) {
    node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  }
  Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
  Guardian* receiver = *b.Create<ShellGuardian>("shell", "receiver", {});
  Port* target = receiver->AddPort(FlowPortType(), /*capacity=*/1);

  // Fill the port (nobody is receiving yet).
  ASSERT_TRUE(sender->Send(target->name(), "put", {Value::Str("fill")}).ok());
  system.network().DrainForTesting();

  // The synchronized send is shed at the full port; the nack reaches the
  // ack port well before the 2s ack timeout and halves the window.
  const double window_before = a.flow().WindowFor(target->name());
  const TimePoint start = Now();
  Status st =
      SyncSend(*sender, target->name(), "put", {Value::Str("x")}, Millis(2000));
  const int64_t elapsed_us = ToMicros(Now() - start);
  EXPECT_EQ(st.code(), Code::kPortFull) << st;
  EXPECT_LT(elapsed_us, 1000000) << "nack should beat the ack timeout";
  EXPECT_LT(a.flow().WindowFor(target->name()), window_before);
  EXPECT_GE(system.metrics().CounterValue("flow.full_nacks"), 1u);
  EXPECT_EQ(system.metrics().CounterValue("sendprims.sync.full_nacks"), 1u);

  // A receiver starts draining: the retry waits out the congested hold,
  // lands, and its receipt ack carries credit.
  std::thread drain([receiver, target] {
    for (int i = 0; i < 2; ++i) {
      (void)receiver->Receive(target, Millis(5000));
    }
  });
  Status retry =
      SyncSend(*sender, target->name(), "put", {Value::Str("x")}, Millis(5000));
  drain.join();
  EXPECT_TRUE(retry.ok()) << retry;
  EXPECT_GE(system.metrics().CounterValue("flow.credits_granted"), 1u);
  // The credit also learned the receiver's capacity: the window is clamped
  // to the 1-slot port, so the sender can never again overrun it.
  EXPECT_DOUBLE_EQ(a.flow().WindowFor(target->name()), 1.0);
}

TEST(FlowSystemTest, ReliableSendRidesNacksWithoutBlindBackoff) {
  SystemConfig config;
  config.seed = 23;
  config.default_link.latency = Micros(50);
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  for (auto* node : {&a, &b}) {
    node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  }
  Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
  Guardian* receiver = *b.Create<ShellGuardian>("shell", "receiver", {});
  Port* target = receiver->AddPort(FlowPortType(), /*capacity=*/1);

  ASSERT_TRUE(sender->Send(target->name(), "put", {Value::Str("fill")}).ok());
  system.network().DrainForTesting();

  // The receiver frees the slot only after 20ms: early attempts are nacked
  // and paced by the congested hold, not by the (huge) blind backoff.
  std::thread drain([receiver, target] {
    std::this_thread::sleep_for(Millis(20));
    for (int i = 0; i < 2; ++i) {
      (void)receiver->Receive(target, Millis(5000));
    }
  });

  ReliableSendOptions options;
  options.ack_timeout = Millis(1000);
  options.max_attempts = 50;
  options.initial_backoff = Millis(250);  // would dwarf the test if used
  options.jitter = 0.0;
  auto result =
      ReliableSend(*sender, target->name(), "put", {Value::Str("x")}, options);
  drain.join();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(system.metrics().CounterValue("sendprims.reliable.full_nacks"),
            1u);
  // No attempt timed out, so the blind backoff never fired.
  EXPECT_EQ(system.metrics().CounterValue("sendprims.reliable.timeouts"), 0u);
  EXPECT_EQ(
      system.metrics().histogram("sendprims.reliable.backoff_us")->count(),
      0u);
  EXPECT_EQ(result->total_backoff.count(), 0);
}

// The flow.nack trace point (DESIGN.md §11) lands in the shed message's
// trace. The nack is applied on the sender's delivery path, a thread with
// no current trace of its own, so the point used to be dropped.
TEST(FlowSystemTest, FullNackIsRecordedInTheShedMessagesTrace) {
  SystemConfig config;
  config.seed = 31;
  config.default_link.latency = Micros(50);
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  for (auto* node : {&a, &b}) {
    node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  }
  Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
  Guardian* receiver = *b.Create<ShellGuardian>("shell", "receiver", {});
  Port* target = receiver->AddPort(FlowPortType(), /*capacity=*/1);
  ASSERT_TRUE(sender->Send(target->name(), "put", {Value::Str("fill")}).ok());
  system.network().DrainForTesting();

  // A tracked send to the full port: shed, and nacked back to its ack port.
  SetCurrentTraceId(0);  // the send starts its own trace
  Status st =
      SyncSend(*sender, target->name(), "put", {Value::Str("x")}, Millis(2000));
  ASSERT_EQ(st.code(), Code::kPortFull) << st;
  const uint64_t trace_id = CurrentTraceId();
  ASSERT_NE(trace_id, 0u);
  system.network().DrainForTesting();
  const std::string dump = system.traces().DumpTrace(trace_id);
  EXPECT_NE(dump.find("flow.nack"), std::string::npos) << dump;
}

// A system failure(...) is not a good reply: RemoteCall's last attempt
// ends on the full-port nack, and the window that nack just halved earns no
// implicit credit for it (credits come from application replies only).
TEST(FlowSystemTest, FailureReplyToRemoteCallEarnsNoCredit) {
  SystemConfig config;
  config.seed = 29;
  config.default_link.latency = Micros(50);
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  for (auto* node : {&a, &b}) {
    node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  }
  Guardian* caller = *a.Create<ShellGuardian>("shell", "caller", {});
  Guardian* server = *b.Create<ShellGuardian>("shell", "server", {});
  const PortType call_type(
      "flow_call", {MessageSig{"call", {ArgType::Of(TypeTag::kString)},
                               {"done"}}});
  const PortType reply_type("flow_call_reply",
                            {MessageSig{"done", {}, {}}});
  // The server never receives; one message fills its 1-slot port.
  Port* target = server->AddPort(call_type, /*capacity=*/1);
  ASSERT_TRUE(caller->Send(target->name(), "call", {Value::Str("fill")}).ok());
  system.network().DrainForTesting();

  const uint64_t credits_before =
      system.metrics().CounterValue("flow.implicit_credits");
  RemoteCallOptions options;
  options.timeout = Millis(2000);
  options.max_attempts = 1;
  auto reply = RemoteCall(*caller, target->name(), "call", {Value::Str("x")},
                          reply_type, options);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->command, kFailureCommand);
  EXPECT_GE(system.metrics().CounterValue("flow.full_nacks"), 1u);
  EXPECT_EQ(system.metrics().CounterValue("flow.implicit_credits"),
            credits_before);
}

// ---------------------------------------------------------------------------
// Shedding the shed-notice itself: when even the control headroom cannot
// admit an fc_full nack, the event is loud (flow.nacks_shed) and the
// sender degrades to the plain ack-timeout path instead of livelocking
// ---------------------------------------------------------------------------

TEST(FlowSystemTest, ShedNackIsCountedAndSenderDegradesToTimeout) {
  SystemConfig config;
  config.seed = 41;
  config.default_link.latency = Micros(50);
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  for (auto* node : {&a, &b}) {
    node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  }
  Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
  Guardian* receiver = *b.Create<ShellGuardian>("shell", "receiver", {});
  Port* target = receiver->AddPort(FlowPortType(), /*capacity=*/1);

  // Fill the data port (nobody drains it).
  ASSERT_TRUE(sender->Send(target->name(), "put", {Value::Str("fill")}).ok());

  // Stuff the sender's ack port solid — capacity plus the control headroom
  // the returning nack would otherwise ride in on.
  Port* ack_port = sender->AddPort(AckPortType(), /*capacity=*/1);
  const size_t solid = 1 + Port::kControlHeadroom;
  for (size_t i = 0; i < solid; ++i) {
    ASSERT_TRUE(
        receiver->Send(ack_port->name(), "ack", {Value::Str("junk")}).ok());
  }
  system.network().DrainForTesting();
  ASSERT_EQ(ack_port->depth(), solid);

  // The send is shed at the full target; its fc_full nack comes back to
  // the jammed ack port and is shed in turn. Before this PR that second
  // shed vanished into the generic full-port counters.
  auto sent = sender->SendFull(target->name(), "put", {Value::Str("x")},
                               PortName{}, ack_port->name(), 0);
  ASSERT_TRUE(sent.ok());
  system.network().DrainForTesting();
  EXPECT_GE(system.metrics().CounterValue("flow.nacks_shed"), 1u);
  // The flow controller still learned (fc fields are consumed on the
  // delivery path, before the port push): the hold/window reacted. Only
  // the *waiting primitive* lost its wake-up message.
  EXPECT_GE(system.metrics().CounterValue("flow.full_nacks"), 1u);

  // Degradation, not livelock: the waiter sees junk acks but never the
  // nack, falls through to its deadline, and returns in bounded time —
  // the pre-§11 timeout path.
  const TimePoint start = Now();
  const Deadline deadline(Millis(100));
  Status last = OkStatus();
  for (;;) {
    auto got = sender->Receive(ack_port, deadline.Remaining());
    if (!got.ok()) {
      last = got.status();
      break;
    }
    EXPECT_NE(got->command, kFailureCommand) << "the nack was shed";
  }
  EXPECT_EQ(last.code(), Code::kTimeout);
  EXPECT_LT(ToMicros(Now() - start), 5'000'000) << "waiter must not livelock";
}

// ---------------------------------------------------------------------------
// Determinism: credit decisions must not perturb seed-determinism at any
// delivery_shards count (the PR 2 / PR 4 discipline)
// ---------------------------------------------------------------------------

TEST(FlowSystemTest, CountsBitIdenticalAcrossDeliveryShards) {
  struct Counts {
    NetworkStats net;
    uint64_t suppressed = 0;
    uint64_t delivered = 0;
    uint64_t port_full = 0;
    uint64_t credits = 0;
  };
  auto run = [](size_t shards) {
    SystemConfig config;
    config.seed = 31;
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
    // Passive receiver with room for everything: the only loss/dup rolls
    // are the wire's, all decided at Send() in global send order.
    Port* target = receiver->AddPort(FlowPortType(), /*capacity=*/1024);
    for (int i = 0; i < 400; ++i) {
      const uint64_t seq = a.NextDedupSeq();
      auto sent =
          sender->SendFull(target->name(), "put",
                           {Value::Str("m" + std::to_string(i))}, PortName{},
                           PortName{}, seq);
      EXPECT_TRUE(sent.ok());
    }
    system.network().DrainForTesting();
    Counts c;
    c.net = system.network().stats();
    c.suppressed = system.metrics().CounterValue("deliver.dup.suppressed");
    c.delivered = system.metrics().CounterValue("deliver.delivered");
    c.port_full = system.metrics().CounterValue("deliver.drop.port_full");
    c.credits = system.metrics().CounterValue("flow.credits_granted");
    return c;
  };

  const Counts one = run(1);
  EXPECT_GT(one.net.packets_dropped, 0u);     // the dice really rolled
  EXPECT_GT(one.net.packets_duplicated, 0u);
  EXPECT_EQ(one.port_full, 0u);
  for (size_t shards : {4u}) {
    const Counts many = run(shards);
    EXPECT_EQ(many.net.packets_sent, one.net.packets_sent) << shards;
    EXPECT_EQ(many.net.packets_dropped, one.net.packets_dropped) << shards;
    EXPECT_EQ(many.net.packets_duplicated, one.net.packets_duplicated)
        << shards;
    EXPECT_EQ(many.net.packets_delivered, one.net.packets_delivered)
        << shards;
    EXPECT_EQ(many.suppressed, one.suppressed) << shards;
    EXPECT_EQ(many.delivered, one.delivered) << shards;
    EXPECT_EQ(many.port_full, one.port_full) << shards;
    EXPECT_EQ(many.credits, one.credits) << shards;
  }
}

// ---------------------------------------------------------------------------
// Saturation: once the window converges, a slow receiver never causes
// port_full drops (the tsan-labeled concurrency test)
// ---------------------------------------------------------------------------

TEST(FlowSystemTest, SlowReceiverNeverDropsOnceWindowConverges) {
  SystemConfig config;
  config.seed = 37;
  config.default_link.latency = Micros(20);
  config.flow.initial_window = 1.0;  // one slot, so deferral really happens
  System system(config);
  NodeRuntime& a = system.AddNode("senders");
  NodeRuntime& b = system.AddNode("sink");
  for (auto* node : {&a, &b}) {
    node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  }
  Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
  Guardian* receiver = *b.Create<ShellGuardian>("shell", "sink", {});
  Port* target = receiver->AddPort(FlowPortType(), /*capacity=*/16);

  std::atomic<int> consumed{0};
  std::atomic<bool> stop{false};
  std::thread slow([receiver, target, &consumed, &stop] {
    while (!stop.load()) {
      auto got = receiver->Receive(target, Millis(500));
      if (got.ok()) {
        ++consumed;
        // The slow part: the service time, not the dequeue.
        std::this_thread::sleep_for(Micros(200));
      }
    }
  });

  // Invariant under test: acks (and so credits) are sent at dequeue, so a
  // message in the queue always has its sender's window slot held —
  // depth <= in_flight <= window <= advertised capacity. With generous ack
  // timeouts, nothing is shed no matter how hard the senders push.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> failures{0};
  std::atomic<bool> go{false};  // start barrier: all senders race the
                                // 1-slot window together
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([sender, target, &failures, &go] {
      while (!go.load()) {
        std::this_thread::yield();
      }
      ReliableSendOptions options;
      options.ack_timeout = Millis(5000);
      options.max_attempts = 3;
      for (int i = 0; i < kPerThread; ++i) {
        auto result =
            ReliableSend(*sender, target->name(), "put", {Value::Str("m")},
                         options);
        if (!result.ok()) {
          ++failures;
        }
      }
    });
  }
  go.store(true);
  for (auto& t : threads) {
    t.join();
  }
  system.network().DrainForTesting();
  while (consumed.load() < kThreads * kPerThread) {
    std::this_thread::sleep_for(Millis(1));
  }
  stop.store(true);
  slow.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(consumed.load(), kThreads * kPerThread);
  EXPECT_EQ(system.metrics().CounterValue("deliver.drop.port_full"), 0u);
  EXPECT_GE(system.metrics().CounterValue("flow.credits_granted"), 1u);
  EXPECT_GE(system.metrics().CounterValue("flow.sends_deferred"), 1u)
      << "the window never closed: the test exercised nothing";
}

}  // namespace
}  // namespace guardians
