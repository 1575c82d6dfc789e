// Virtual time: the SimulatedClock contract (time moves only when
// stepped; per-node skew and drift), clock-aware Deadlines, reassembly
// age expiry on a caller-supplied clock, and whole-stack timeout paths
// (reliable-send backoff, remote-call budgets) running at simulation
// speed — no wall sleeps anywhere in these tests, which is the point.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/guardian/system.h"
#include "src/net/network.h"
#include "src/sendprims/reliable_send.h"
#include "src/sendprims/remote_call.h"
#include "src/wire/packet.h"

namespace guardians {
namespace {

// Wall-time budget for things that should take ~zero wall time. Generous
// on purpose: sanitizer builds and loaded CI boxes are slow, but nothing
// here should ever approach a virtual second per virtual second.
constexpr Micros kWallBudget = Micros(10'000'000);

TEST(SimulatedClockTest, TimeMovesOnlyWhenStepped) {
  SimulatedClock sim;
  const TimePoint t0 = sim.Now();
  EXPECT_EQ(sim.Now(), t0);
  sim.Advance(Micros(250));
  EXPECT_EQ(sim.Now(), t0 + Micros(250));
  sim.AdvanceTo(t0 + Micros(100));  // backward AdvanceTo is a no-op
  EXPECT_EQ(sim.Now(), t0 + Micros(250));
}

TEST(SimulatedClockTest, SleepForWakesOnStepNotWall) {
  SimulatedClock sim;
  const TimePoint wall_start = Now();
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    sim.SleepFor(Micros(3'600'000'000));  // one virtual hour
    woke.store(true);
  });
  ASSERT_TRUE(sim.WaitForWaiters(1));
  EXPECT_FALSE(woke.load());
  EXPECT_TRUE(sim.AdvanceToNextDeadline());
  sleeper.join();
  EXPECT_TRUE(woke.load());
  EXPECT_LT(Now() - wall_start, kWallBudget);
}

// Regression: the node-deadline -> base-time mapping divides by drift and
// the reverse mapping multiplies; double rounding once let the stepper
// advance exactly to the computed due instant while the node view was
// still a nanosecond short, wedging the whole simulation. Every drift
// here must round-trip: the sleeper wakes or the test times out.
TEST(SimulatedClockTest, DriftedDeadlinesRoundTripExactly) {
  for (double drift : {0.3, 0.5, 0.9999, 1.0001, 1.5, 1.875, 3.0}) {
    SimulatedClock sim;
    sim.SetNodeDrift(7, drift);
    ClockSource* view = sim.NodeView(7);
    std::thread sleeper([&] { view->SleepFor(Micros(123'457)); });
    ASSERT_TRUE(sim.WaitForWaiters(1)) << "drift " << drift;
    EXPECT_TRUE(sim.AdvanceToNextDeadline()) << "drift " << drift;
    sleeper.join();
  }
}

TEST(SimulatedClockTest, ForwardStepFiresNodeWaitWithoutBaseAdvance) {
  SimulatedClock sim;
  ClockSource* view = sim.NodeView(1);
  const TimePoint base0 = sim.Now();
  std::thread sleeper([&] { view->SleepFor(Micros(1'000'000'000)); });
  ASSERT_TRUE(sim.WaitForWaiters(1));
  sim.StepNode(1, Micros(1'000'000'001));  // the node's clock jumps past it
  sleeper.join();
  EXPECT_EQ(sim.Now(), base0);  // base time never moved
}

TEST(SimulatedClockTest, SkewAndDriftChangeOnlyThatNodesView) {
  SimulatedClock sim;
  const TimePoint t0 = sim.Now();
  sim.StepNode(2, Micros(500));
  sim.SetNodeDrift(3, 2.0);
  sim.Advance(Micros(1000));
  EXPECT_EQ(sim.NowFor(1), t0 + Micros(1000));         // untouched node
  EXPECT_EQ(sim.NowFor(2), t0 + Micros(1500));         // stepped
  EXPECT_EQ(sim.NowFor(3), t0 + Micros(2000));         // 2x drift
  EXPECT_EQ(sim.Now(), t0 + Micros(1000));             // base
}

// --- Deadline ---------------------------------------------------------------

// Regression: the shard worker's timed wait was a bare WaitOnce. The
// simulated clock drops the shard lock while it registers a wait, so a
// send that preempted the heap front inside that window lost its notify,
// and the worker slept on to the old front's instant: the early packet was
// delivered a virtual millisecond late.
TEST(NetworkVirtualTime, APreemptingPacketIsDeliveredAtItsOwnInstant) {
  SimulatedClock sim;
  Network network(1, nullptr, nullptr, /*shards=*/1,
                  Network::kDefaultBatchMax, &sim);
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  const NodeId c = network.AddNode("c");
  network.SetLink(a, b, LinkParams{Millis(1), Micros(0), 0, 0, 0});
  network.SetLink(c, b, LinkParams{Micros(10), Micros(0), 0, 0, 0});
  std::atomic<uint64_t> first{0};
  std::atomic<int> delivered{0};
  network.SetSink(b, [&](Packet&& p) {
    uint64_t none = 0;
    first.compare_exchange_strong(none, p.msg_id);
    delivered.fetch_add(1);
  });
  auto packet = [](NodeId src, NodeId dst, uint64_t id) {
    Packet p;
    p.msg_id = id;
    p.src = src;
    p.dst = dst;
    p.payload = Bytes(16, static_cast<uint8_t>(id));
    p.Seal();
    return p;
  };
  network.Send(packet(a, b, 1));  // due at +1 ms
  ASSERT_TRUE(sim.WaitForWaiters(1));
  network.Send(packet(c, b, 2));  // due at +10 us: the new heap front
  sim.Advance(Micros(10));
  const TimePoint give_up = Now() + Millis(2000);
  while (delivered.load() == 0 && Now() < give_up) {
    std::this_thread::sleep_for(Micros(100));
  }
  EXPECT_EQ(delivered.load(), 1);
  EXPECT_EQ(first.load(), 2u);
  sim.Advance(Millis(1));
  EXPECT_TRUE(network.DrainForTesting(Millis(2000)));
  EXPECT_EQ(delivered.load(), 2);
  network.Shutdown();
}

TEST(DeadlineTest, ExpiresOnVirtualAdvanceWithoutWallWaiting) {
  SimulatedClock sim;
  const TimePoint wall_start = Now();
  Deadline d(Micros(5'000'000), &sim);  // five virtual seconds
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.Remaining(), Micros(5'000'000));
  sim.Advance(Micros(2'000'000));
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.Remaining(), Micros(3'000'000));
  sim.Advance(Micros(3'000'000));
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.Remaining(), Micros(0));
  EXPECT_LT(Now() - wall_start, kWallBudget);
}

TEST(DeadlineTest, InfiniteNeverExpires) {
  SimulatedClock sim;
  Deadline d = Deadline::Infinite(&sim);
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
  sim.Advance(Micros(1'000'000'000'000));  // eleven virtual days
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.Remaining(), Micros::max());
}

TEST(DeadlineTest, RemainingIsMonotonicUnderBackwardSkew) {
  SimulatedClock sim;
  Deadline d(Micros(1'000'000), sim.NodeView(4));
  sim.Advance(Micros(400'000));
  const Micros spent = d.Remaining();
  EXPECT_EQ(spent, Micros(600'000));
  // The node's clock jumps backward: its raw view now says more budget is
  // left than was ever granted. Remaining() must clamp, not inflate.
  sim.StepNode(4, Micros(-300'000));
  EXPECT_LE(d.Remaining(), spent);
  sim.Advance(Micros(200'000));
  EXPECT_LE(d.Remaining(), spent);
}

// --- Reassembly expiry on a supplied clock ----------------------------------

TEST(ReassemblerVirtualTime, AgeExpiryRunsOnTheCallersClock) {
  Reassembler reassembler(/*max_partial=*/16, /*expiry=*/Micros(2'000'000));
  const Bytes msg(64, 0xAB);
  auto frags = Fragment(BufferSlice(msg), /*msg_id=*/1, /*src=*/1, /*dst=*/2,
                        /*max_payload=*/16);
  ASSERT_GT(frags.size(), 1u);
  SimulatedClock sim;
  // First fragment arrives; the rest never do.
  auto r = reassembler.Add(std::move(frags[0]), sim.Now());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
  EXPECT_EQ(reassembler.partial_count(), 1u);
  // Three virtual seconds later an unrelated packet triggers the sweep.
  sim.Advance(Micros(3'000'000));
  const Bytes other(8, 0x01);
  auto single = Fragment(BufferSlice(other), /*msg_id=*/2, /*src=*/3,
                         /*dst=*/2, /*max_payload=*/1024);
  ASSERT_EQ(single.size(), 1u);
  r = reassembler.Add(std::move(single[0]), sim.Now());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->has_value());
  EXPECT_EQ(reassembler.partial_count(), 0u);
  EXPECT_EQ(reassembler.expired(), 1u);
}

// --- Whole-stack timeout paths at simulation speed --------------------------

PortType SinkPortType() {
  return PortType("sink", {MessageSig{"put", {ArgType::Of(TypeTag::kInt)},
                                      {}}});
}

class SilentSink : public Guardian {
 public:
  Status Setup(const ValueList&) override {
    AddPort(SinkPortType(), 64, /*provided=*/true);
    return OkStatus();
  }
  void Main() override {
    for (;;) {
      auto m = Receive(port(0), Micros::max());
      if (!m.ok()) {
        return;
      }
    }
  }
};

// ReliableSend into a severed link: every attempt times out on the
// virtual clock and every inter-attempt backoff is a virtual sleep. With
// ~9.3 virtual seconds of budget, wall time stays bounded by the
// auto-stepper's real-time quiet windows — simulation speed, not wall
// speed. This is the "timeout-heavy test with zero wall sleep_for" shape
// the clock work exists for.
TEST(VirtualTimeEndToEnd, ReliableSendBackoffRunsAtSimSpeed) {
  SimulatedClock sim;
  sim.StartAutoStep();
  const TimePoint wall_start = Now();
  const TimePoint virt_start = sim.Now();
  {
    SystemConfig config;
    config.seed = 3;
    config.sim_clock = &sim;
    System system(config);
    NodeRuntime& a = system.AddNode("a");
    NodeRuntime& b = system.AddNode("b");
    a.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    b.RegisterGuardianType("sink", MakeFactory<SilentSink>());
    Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
    auto sink = b.Create<SilentSink>("sink", "sink", {}, false);
    const PortName port = (*sink)->ProvidedPorts()[0];
    system.network().SetPartitioned(a.id(), b.id(), true);

    ReliableSendOptions options;
    options.ack_timeout = Millis(800);
    options.max_attempts = 8;
    options.initial_backoff = Millis(100);
    options.backoff_multiplier = 2.0;
    options.max_backoff = Millis(400);
    options.jitter = 0.0;
    auto result = ReliableSend(*sender, port, "put", {Value::Int(1)},
                               options);
    EXPECT_FALSE(result.ok());
  }
  sim.StopAutoStep();
  // All eight 800ms attempt timeouts plus the backoff ladder elapsed in
  // virtual time...
  EXPECT_GE(sim.Now() - virt_start, Micros(6'400'000));
  // ...while the wall clock barely moved.
  EXPECT_LT(Now() - wall_start, kWallBudget);
}

// Remote calls against a partitioned peer exhaust generous virtual
// budgets instantly in wall terms, and the guardian Receive path (condvar
// wait through the node's clock) is what carries them.
TEST(VirtualTimeEndToEnd, RemoteCallBudgetsAreVirtual) {
  SimulatedClock sim;
  sim.StartAutoStep();
  const TimePoint wall_start = Now();
  {
    SystemConfig config;
    config.seed = 4;
    config.sim_clock = &sim;
    System system(config);
    NodeRuntime& a = system.AddNode("a");
    NodeRuntime& b = system.AddNode("b");
    a.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    b.RegisterGuardianType("sink", MakeFactory<SilentSink>());
    Guardian* caller = *a.Create<ShellGuardian>("shell", "caller", {});
    auto sink = b.Create<SilentSink>("sink", "sink", {}, false);
    const PortName port = (*sink)->ProvidedPorts()[0];
    system.network().SetPartitioned(a.id(), b.id(), true);

    RemoteCallOptions options;
    options.timeout = Micros(2'000'000);  // two virtual seconds per attempt
    options.max_attempts = 3;
    auto reply = RemoteCall(*caller, port, "put", {Value::Int(7)},
                            SinkPortType(), options);
    EXPECT_FALSE(reply.ok());
  }
  sim.StopAutoStep();
  EXPECT_LT(Now() - wall_start, kWallBudget);
}

}  // namespace
}  // namespace guardians
