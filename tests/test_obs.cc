// Tests of the observability layer: counters and histograms, drop-reason
// attribution (a retired port is not a full one), trace-id propagation
// across fragmentation and reply hops, the ReliableSend backoff, and the
// NodeName dangling-reference regression.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/guardian/system.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sendprims/reliable_send.h"

namespace guardians {
namespace {

PortType EchoPortType() {
  return PortType("obs_echo",
                  {MessageSig{"put",
                              {ArgType::Of(TypeTag::kString)},
                              {"got"}}});
}

PortType EchoReplyType() {
  return PortType("obs_echo_reply",
                  {MessageSig{"got", {ArgType::Of(TypeTag::kString)}, {}}});
}

// ---------------------------------------------------------------------------
// Metrics primitives
// ---------------------------------------------------------------------------

TEST(Metrics, CounterAndRegistryBasics) {
  MetricsRegistry registry;
  Counter* c = registry.counter("a.b");
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->value(), 5u);
  // Get-or-create: same name, same counter.
  EXPECT_EQ(registry.counter("a.b"), c);
  EXPECT_EQ(registry.CounterValue("a.b"), 5u);
  EXPECT_EQ(registry.CounterValue("missing"), 0u);

  registry.counter("a.c")->Inc();
  registry.counter("z")->Inc();
  auto prefixed = registry.CountersWithPrefix("a.");
  ASSERT_EQ(prefixed.size(), 2u);
  EXPECT_EQ(prefixed["a.b"], 5u);
  EXPECT_EQ(prefixed["a.c"], 1u);
}

TEST(Metrics, HistogramBucketing) {
  Histogram h({10, 100, 1000});
  for (uint64_t v : {1u, 9u, 10u, 11u, 100u, 500u, 1000u, 5000u, 9999u}) {
    h.Observe(v);
  }
  EXPECT_EQ(h.count(), 9u);
  EXPECT_EQ(h.sum(), 1u + 9 + 10 + 11 + 100 + 500 + 1000 + 5000 + 9999);
  auto buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(buckets[0], 3u);      // <= 10
  EXPECT_EQ(buckets[1], 2u);      // <= 100
  EXPECT_EQ(buckets[2], 2u);      // <= 1000
  EXPECT_EQ(buckets[3], 2u);      // overflow
  EXPECT_FALSE(h.ToString().empty());
}

TEST(Metrics, ReportListsNonzeroCounters) {
  MetricsRegistry registry;
  registry.counter("hits")->Inc(3);
  registry.counter("never");
  const std::string report = registry.Report();
  EXPECT_NE(report.find("hits"), std::string::npos);
  EXPECT_EQ(report.find("never"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace buffer
// ---------------------------------------------------------------------------

TEST(Trace, RecordAndDump) {
  TraceBuffer traces;
  traces.Record(7, 1, "send", "hello");
  traces.Record(7, 0, "net.delivered");
  traces.Record(7, 2, "recv", "hello");
  traces.Record(0, 1, "send", "untraced is a no-op");
  EXPECT_EQ(traces.trace_count(), 1u);
  ASSERT_TRUE(traces.HasTrace(7));
  const std::string dump = traces.DumpTrace(7);
  EXPECT_NE(dump.find("send"), std::string::npos);
  EXPECT_NE(dump.find("net.delivered"), std::string::npos);
  EXPECT_NE(dump.find("recv"), std::string::npos);
  auto found = traces.FindTraceWithPoint("net.");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 7u);
  EXPECT_FALSE(traces.FindTraceWithPoint("port.drop.").has_value());
}

// ---------------------------------------------------------------------------
// Drop-reason attribution
// ---------------------------------------------------------------------------

TEST(DropReasons, PortPushDistinguishesFullFromRetired) {
  Mailbox mailbox;
  PortName pn;
  Port port(pn, EchoPortType(), &mailbox, /*capacity=*/1);
  EXPECT_EQ(port.Push(Received{}), PushResult::kOk);
  EXPECT_EQ(port.Push(Received{}), PushResult::kFull);
  EXPECT_EQ(port.discarded_full(), 1u);
  EXPECT_EQ(port.discarded_retired(), 0u);
  port.Retire();
  // Retiring discards the message still queued (counted into the retired
  // ledger — it was enqueued but will never be received), and subsequent
  // pushes are rejected into the same bucket.
  EXPECT_EQ(port.discarded_retired(), 1u);
  EXPECT_EQ(port.Push(Received{}), PushResult::kRetired);
  EXPECT_EQ(port.discarded_full(), 1u);
  EXPECT_EQ(port.discarded_retired(), 2u);
}

// Regression for the Retire() accounting bug: messages sitting in the
// queue at retire time used to vanish from the ledger entirely. The
// conservation law is enqueued == popped + discarded-at-retire, with
// rejected pushes accounted separately on top.
TEST(DropReasons, RetireCountsQueuedMessagesIntoLedger) {
  Mailbox mailbox;
  PortName pn;
  Port port(pn, EchoPortType(), &mailbox, /*capacity=*/8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(port.Push(Received{}), PushResult::kOk);
  }
  // Consume two; three stay queued.
  {
    std::lock_guard<std::mutex> lock(mailbox.mu);
    (void)port.PopLocked();
    (void)port.PopLocked();
  }
  port.Retire();
  EXPECT_EQ(port.depth(), 0u);
  EXPECT_EQ(port.enqueued(), 5u);
  EXPECT_EQ(port.discarded_retired(), 3u);  // the queued messages died here
  EXPECT_EQ(port.discarded_full(), 0u);
  // Ledger closes: everything enqueued was either received or counted as
  // discarded at retirement.
  EXPECT_EQ(port.enqueued(), 2u + port.discarded_retired());
  // A post-retirement push lands in the same bucket, on top.
  EXPECT_EQ(port.Push(Received{}), PushResult::kRetired);
  EXPECT_EQ(port.discarded_retired(), 4u);
}

// Control traffic (acks, failure nacks, probes) is admitted into bounded
// headroom above capacity when the data buffer is full — backpressure
// signals must never themselves be shed (DESIGN.md §11).
TEST(DropReasons, ControlTrafficUsesHeadroomAboveCapacity) {
  Mailbox mailbox;
  PortName pn;
  Port port(pn, EchoPortType(), &mailbox, /*capacity=*/2);
  EXPECT_EQ(port.Push(Received{}), PushResult::kOk);
  EXPECT_EQ(port.Push(Received{}), PushResult::kOk);
  // Data is shed at capacity...
  EXPECT_EQ(port.Push(Received{}), PushResult::kFull);
  // ...but control still gets in, counted as headroom use.
  EXPECT_EQ(port.Push(Received{}, /*control=*/true), PushResult::kOk);
  EXPECT_EQ(port.control_overflow(), 1u);
  // The headroom itself is bounded.
  for (size_t i = 1; i < Port::kControlHeadroom; ++i) {
    EXPECT_EQ(port.Push(Received{}, /*control=*/true), PushResult::kOk);
  }
  EXPECT_EQ(port.Push(Received{}, /*control=*/true), PushResult::kFull);
  EXPECT_EQ(port.control_overflow(), Port::kControlHeadroom);
}

class ObsSystemTest : public ::testing::Test {
 protected:
  ObsSystemTest() : system_(MakeConfig()) {
    a_ = &system_.AddNode("a");
    b_ = &system_.AddNode("b");
    for (auto* node : {a_, b_}) {
      node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    }
    sender_ = *a_->Create<ShellGuardian>("shell", "sender", {});
    receiver_ = *b_->Create<ShellGuardian>("shell", "receiver", {});
    SetCurrentTraceId(0);
  }

  static SystemConfig MakeConfig() {
    SystemConfig config;
    config.seed = 11;
    config.default_link.latency = Micros(50);
    // Small enough that the big payload below fragments into many packets.
    config.limits.max_packet_payload = 64;
    return config;
  }

  System system_;
  NodeRuntime* a_ = nullptr;
  NodeRuntime* b_ = nullptr;
  ShellGuardian* sender_ = nullptr;
  ShellGuardian* receiver_ = nullptr;
};

TEST_F(ObsSystemTest, RetiredPortDropIsAttributedAsRetiredNotFull) {
  Port* target = receiver_->AddPort(EchoPortType(), /*capacity=*/4);
  const PortName stale = target->name();
  receiver_->RetirePort(target);
  Port* reply_port = sender_->AddPort(EchoReplyType(), 4);

  ASSERT_TRUE(sender_
                  ->SendFull(stale, "put", {Value::Str("x")},
                             reply_port->name(), PortName{})
                  .ok());
  system_.network().DrainForTesting();

  EXPECT_EQ(system_.metrics().CounterValue("deliver.drop.port_retired"), 1u);
  EXPECT_EQ(system_.metrics().CounterValue("deliver.drop.port_full"), 0u);
  EXPECT_EQ(system_.metrics().CounterValue("deliver.drop.no_port"), 0u);

  // The system failure reply names the real reason.
  auto failure = sender_->Receive(reply_port, Millis(2000));
  ASSERT_TRUE(failure.ok());
  EXPECT_EQ(failure->command, std::string(kFailureCommand));
  ASSERT_FALSE(failure->args.empty());
  EXPECT_NE(failure->args[0].string_value().find("retired"),
            std::string::npos);

  // The trace of the lost message ends at the retired-port drop and never
  // claims the port was full.
  auto dropped = system_.traces().FindTraceWithPoint("port.drop.retired");
  ASSERT_TRUE(dropped.has_value());
  const std::string dump = system_.traces().DumpTrace(*dropped);
  EXPECT_NE(dump.find("send"), std::string::npos);
  EXPECT_NE(dump.find("port.drop.retired"), std::string::npos);
  EXPECT_EQ(dump.find("port.drop.full"), std::string::npos);
}

TEST_F(ObsSystemTest, FullPortDropIsAttributedAsFull) {
  Port* target = receiver_->AddPort(EchoPortType(), /*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        sender_->Send(target->name(), "put", {Value::Str("x")}).ok());
  }
  system_.network().DrainForTesting();
  EXPECT_EQ(target->discarded_full(), 3u);
  EXPECT_EQ(system_.metrics().CounterValue("deliver.drop.port_full"), 3u);
  EXPECT_EQ(system_.metrics().CounterValue("deliver.drop.port_retired"), 0u);
  EXPECT_EQ(system_.metrics().CounterValue("deliver.delivered"), 2u);
}

// ---------------------------------------------------------------------------
// Trace-id propagation
// ---------------------------------------------------------------------------

TEST_F(ObsSystemTest, TraceIdSurvivesFragmentationAndReplyHops) {
  Port* target = receiver_->AddPort(EchoPortType(), 8);
  Port* reply_port = sender_->AddPort(EchoReplyType(), 8);

  // ~20 fragments at max_packet_payload = 64.
  const std::string big(1280, 'x');
  auto sent = sender_->SendFull(target->name(), "put", {Value::Str(big)},
                                reply_port->name(), PortName{});
  ASSERT_TRUE(sent.ok());
  // An origin send mints trace_id = msg_id.
  const uint64_t trace = *sent;
  EXPECT_EQ(CurrentTraceId(), trace);

  // Clear this thread's trace so the receive leg must get the id off the
  // wire, not from the thread-local.
  SetCurrentTraceId(0);
  auto request = receiver_->Receive(target, Millis(2000));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->trace_id, trace);   // survived fragmentation
  EXPECT_EQ(CurrentTraceId(), trace);    // receive joins the chain

  // The reply inherits the chain...
  ASSERT_TRUE(receiver_
                  ->Send(request->reply_to, "got", {Value::Str("ok")})
                  .ok());
  SetCurrentTraceId(0);
  auto reply = sender_->Receive(reply_port, Millis(2000));
  ASSERT_TRUE(reply.ok());
  // ...and arrives back under the same trace id.
  EXPECT_EQ(reply->trace_id, trace);

  // The trace shows both directions: request hops and the reply hop.
  // (Drain first: the delivery thread records port.enqueued after waking
  // the receiver, so the last hop may still be mid-record.)
  system_.network().DrainForTesting();
  auto events = system_.traces().Events(trace);
  int sends = 0, recvs = 0, delivered = 0, enqueued = 0;
  for (const auto& event : events) {
    if (event.point == "send") ++sends;
    if (event.point == "recv") ++recvs;
    if (event.point == "net.delivered") ++delivered;
    if (event.point == "port.enqueued") ++enqueued;
  }
  EXPECT_EQ(sends, 2);
  EXPECT_EQ(recvs, 2);
  EXPECT_EQ(enqueued, 2);
  EXPECT_GE(delivered, 2);  // one per reassembled message, at least
}

// ---------------------------------------------------------------------------
// ReliableSend backoff
// ---------------------------------------------------------------------------

TEST_F(ObsSystemTest, ReliableSendBacksOffBetweenTimedOutAttempts) {
  // A real port nobody ever receives from: every attempt times out.
  Port* target = receiver_->AddPort(EchoPortType(), 64);

  ReliableSendOptions options;
  options.ack_timeout = Millis(5);
  options.max_attempts = 3;
  options.initial_backoff = Millis(2);
  options.max_backoff = Millis(8);
  options.backoff_multiplier = 2.0;
  options.jitter = 0.0;  // deterministic delays: 2ms then 4ms

  const TimePoint start = Now();
  auto result = ReliableSend(*sender_, target->name(), "put",
                             {Value::Str("x")}, options);
  const auto elapsed = Now() - start;
  EXPECT_EQ(result.status().code(), Code::kTimeout);

  MetricsRegistry& metrics = system_.metrics();
  EXPECT_EQ(metrics.CounterValue("sendprims.reliable.calls"), 1u);
  EXPECT_EQ(metrics.CounterValue("sendprims.reliable.attempts"), 3u);
  EXPECT_EQ(metrics.CounterValue("sendprims.reliable.timeouts"), 3u);
  EXPECT_EQ(metrics.CounterValue("sendprims.reliable.exhausted"), 1u);
  Histogram* backoff = metrics.histogram("sendprims.reliable.backoff_us");
  EXPECT_EQ(backoff->count(), 2u);       // no sleep after the last attempt
  EXPECT_EQ(backoff->sum(), 6000u);      // 2ms + 4ms, jitter off
  // 3 timeouts of 5ms + 6ms of backoff actually elapsed.
  EXPECT_GE(ToMicros(elapsed), 3 * 5000 + 6000);
}

TEST_F(ObsSystemTest, ReliableSendOutcomeBreakdownSumsToCalls) {
  Port* target = receiver_->AddPort(EchoPortType(), 8);

  // Outcome 1: ok (a receiver is actually draining the port).
  std::thread drainer([this, target] {
    (void)receiver_->Receive(target, Millis(5000));
  });
  ReliableSendOptions options;
  options.ack_timeout = Millis(2000);
  options.max_attempts = 3;
  auto ok = ReliableSend(*sender_, target->name(), "put", {Value::Str("x")},
                         options);
  drainer.join();
  ASSERT_TRUE(ok.ok()) << ok.status();

  // Outcome 2: hard failure. "nudge" is not in the port's type; the send
  // fails locally with a type error, which no retry can cure. This used to
  // return with no counter at all, leaving the breakdown short of .calls.
  auto hard = ReliableSend(*sender_, target->name(), "nudge", {}, options);
  ASSERT_FALSE(hard.ok());
  ASSERT_NE(hard.status().code(), Code::kTimeout);

  // Outcome 3: exhausted (nobody receives; fast attempts, no backoff).
  options.ack_timeout = Millis(5);
  options.max_attempts = 2;
  options.initial_backoff = Micros(0);
  auto exhausted = ReliableSend(*sender_, target->name(), "put",
                                {Value::Str("x")}, options);
  EXPECT_EQ(exhausted.status().code(), Code::kTimeout);

  MetricsRegistry& metrics = system_.metrics();
  EXPECT_EQ(metrics.CounterValue("sendprims.reliable.hard_fail"), 1u);
  // The per-call outcome buckets account for every call — the failure
  // breakdown in System::Report() must sum exactly.
  EXPECT_EQ(metrics.CounterValue("sendprims.reliable.calls"),
            metrics.CounterValue("sendprims.reliable.ok") +
                metrics.CounterValue("sendprims.reliable.exhausted") +
                metrics.CounterValue("sendprims.reliable.deadline_exceeded") +
                metrics.CounterValue("sendprims.reliable.hard_fail"));
}

TEST_F(ObsSystemTest, SystemReportMentionsDropReasonsAndPorts) {
  Port* target = receiver_->AddPort(EchoPortType(), /*capacity=*/1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        sender_->Send(target->name(), "put", {Value::Str("x")}).ok());
  }
  system_.network().DrainForTesting();
  const std::string report = system_.Report();
  EXPECT_NE(report.find("dropped_full"), std::string::npos);
  EXPECT_NE(report.find("deliver.drop.port_full"), std::string::npos);
  EXPECT_NE(report.find("obs_echo"), std::string::npos);
  EXPECT_NE(report.find("traces:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Network regressions
// ---------------------------------------------------------------------------

TEST(NetworkRegression, NodeNameSafeUnderConcurrentAddNode) {
  Network net(1);
  ASSERT_EQ(net.AddNode("n1"), 1u);
  std::thread adder([&net] {
    for (int i = 2; i <= 512; ++i) {
      net.AddNode("n" + std::to_string(i));
    }
  });
  // Before NodeName returned by value, this read a reference into a vector
  // the adder thread was concurrently reallocating.
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(net.NodeName(1), "n1");
  }
  adder.join();
  EXPECT_EQ(net.NodeName(512), "n512");
  EXPECT_EQ(net.node_count(), 512u);
}

}  // namespace
}  // namespace guardians
