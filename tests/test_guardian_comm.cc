// Tests of the Section 3.4 communication semantics at the guardian level:
// buffering and discard-on-full, receive priority, timeouts, the
// synchronization send's receipt semantics, retries under loss, and stale
// port names.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/common/spin_park.h"
#include "src/guardian/system.h"
#include "src/runtime/latch.h"
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

// --- How a blocked receive waits (DESIGN.md §8) ----------------------------

Received Put(int64_t i) {
  Received message;
  message.command = "put";
  message.args = {Value::Int(i)};
  return message;
}

// Receives blocked on the guardian's mailbox right now.
size_t Waiters(Guardian* guardian) {
  std::lock_guard<std::mutex> lock(guardian->mailbox().mu);
  return guardian->mailbox().WaitersLocked();
}

// Polls until pred() holds; false once `limit` of wall time has passed.
template <typename Pred>
bool Eventually(Pred pred, Micros limit = Millis(10'000)) {
  const TimePoint give_up = Now() + limit;
  while (!pred()) {
    if (Now() > give_up) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

// Receives parked on the guardian's mailbox right now (the rest of its
// waiters are spinning).
size_t ParkedWaiters(Guardian* guardian) {
  std::lock_guard<std::mutex> lock(guardian->mailbox().mu);
  size_t n = 0;
  for (const WaitRecord* r = guardian->mailbox().waiters; r != nullptr;
       r = r->next) {
    n += r->cv.HasWaiters() ? 1 : 0;
  }
  return n;
}

TEST_F(CommTest, APushWakesOnlyTheReceivesWaitingOnItsPort) {
  // Two processes of one guardian wait on different ports. Every push to
  // the busy port wakes its receiver and nobody else: the quiet receive
  // stays parked through all of them (with one condition variable per
  // mailbox, each push woke it, and it went back to sleep empty-handed).
  Port* busy = receiver_->AddPort(TinyPortType(), 8);
  Port* quiet = receiver_->AddPort(TinyPortType(), 8);
  constexpr int kPushes = 1000;
  std::atomic<int> taken{0};
  std::atomic<bool> quiet_done{false};
  receiver_->Fork("busy", [&] {
    for (int i = 0; i < kPushes; ++i) {
      if (!receiver_->Receive(busy, Micros::max()).ok()) {
        return;
      }
      taken.fetch_add(1);
    }
  });
  receiver_->Fork("quiet", [&] {
    EXPECT_TRUE(receiver_->Receive(quiet, Micros::max()).ok());
    quiet_done.store(true);
  });
  ASSERT_TRUE(Eventually([&] { return Waiters(receiver_) == 2; }));
  for (int i = 0; i < kPushes; ++i) {
    ASSERT_EQ(busy->Push(Put(i)), PushResult::kOk);
    ASSERT_TRUE(Eventually([&] { return taken.load() == i + 1; }));
  }
  EXPECT_FALSE(quiet_done.load());
  EXPECT_EQ(receiver_->idle_wakeups(), 0u);
  ASSERT_EQ(quiet->Push(Put(0)), PushResult::kOk);
  ASSERT_TRUE(Eventually([&] { return quiet_done.load(); }));
  EXPECT_EQ(receiver_->idle_wakeups(), 0u);
  b_->Crash();  // joins both processes before their captures go
}

TEST_F(CommTest, AReceiveOverAPortListRegistersOnceAndWakesOnAnyOfItsPorts) {
  Port* high = receiver_->AddPort(TinyPortType(), 8);
  Port* mid = receiver_->AddPort(TinyPortType(), 8);
  Port* low = receiver_->AddPort(TinyPortType(), 8);
  std::mutex mu;
  std::vector<const Port*> order;  // guarded by mu
  std::atomic<int> received{0};
  CountdownLatch gate(1);
  receiver_->Fork("list", [&] {
    for (int i = 0; i < 6; ++i) {
      auto message = receiver_->Receive({high, mid, low}, Micros::max());
      if (!message.ok()) {
        return;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(message->port);
      }
      received.fetch_add(1);
      if (i == 2) {
        gate.Wait();  // the test queues the next three meanwhile
      }
    }
  });
  // Blocked on three ports, the receive is one record, and a push to any
  // of them wakes it.
  int expected = 0;
  for (Port* port : {low, mid, high}) {
    ASSERT_TRUE(Eventually([&] { return Waiters(receiver_) == 1; }));
    ASSERT_EQ(port->Push(Put(expected)), PushResult::kOk);
    ++expected;
    ASSERT_TRUE(Eventually([&] { return received.load() == expected; }));
  }
  // Queued together, they come out in list order.
  for (Port* port : {low, mid, high}) {
    ASSERT_EQ(port->Push(Put(expected)), PushResult::kOk);
  }
  gate.CountDown();
  ASSERT_TRUE(Eventually([&] { return received.load() == 6; }));
  std::lock_guard<std::mutex> lock(mu);
  const std::vector<const Port*> want = {low, mid, high, high, mid, low};
  EXPECT_EQ(order, want);
  EXPECT_EQ(receiver_->idle_wakeups(), 0u);
}

void BusyWait(Micros d) {
  const TimePoint until = Now() + d;
  while (Now() < until) {
  }
}

// What one receiver knew as its latest receive began: when, and the moving
// average of its recent waits, which its wait compares with the spin
// budget. Written by the receiver; read once the crash has joined it.
struct ReceiveStart {
  TimePoint at;
  Clock::duration recent_wait{0};
};

// Starts one receiver per port, each taking messages off its own port until
// its node goes down; counts the receives they begin, what they take and
// their kNodeDown returns, and records each one's latest ReceiveStart in
// `starts` (one per port). The first `threads->size()` receivers are
// threads of the test (which spin when their waits are short), the rest
// processes of the guardian (tasks, which park).
void StartReceivers(Guardian* guardian, const std::vector<Port*>& ports,
                    std::atomic<int>* begun, std::atomic<int>* taken,
                    std::atomic<int>* node_down,
                    std::vector<ReceiveStart>* starts,
                    std::vector<std::thread>* threads) {
  starts->assign(ports.size(), ReceiveStart{});
  for (size_t i = 0; i < ports.size(); ++i) {
    Port* port = ports[i];
    ReceiveStart* start = &(*starts)[i];
    auto receiver = [=] {
      for (;;) {
        *start = ReceiveStart{Now(), internal::RecentWait()};
        begun->fetch_add(1);
        auto message = guardian->Receive(port, Micros::max());
        if (!message.ok()) {
          if (message.status().code() == Code::kNodeDown) {
            node_down->fetch_add(1);
          }
          return;
        }
        taken->fetch_add(1);
      }
    };
    if (i < threads->size()) {
      (*threads)[i] = std::thread(receiver);
    } else {
      guardian->Fork("r" + std::to_string(i), receiver);
    }
  }
}

// Crashes the node when it goes out of scope, and joins the receiving
// threads, so the receivers of a test that stops early are gone before the
// state they count into.
struct CrashOnExit {
  NodeRuntime* node;
  std::vector<std::thread>* threads;
  ~CrashOnExit() {
    node->Crash();
    for (std::thread& thread : *threads) {
      if (thread.joinable()) {
        thread.join();
      }
    }
  }
};

// Feeds `ports` in lockstep for `rounds` rounds: one message to each, then
// `gap` after the receivers have taken them all, so each receiver waits
// about that long for its next one; after a dozen such waits it spins.
// Returns the pushes accepted, or -1 if the receivers stopped taking.
int Feed(const std::vector<Port*>& ports, const std::atomic<int>& taken,
         int rounds, Micros gap) {
  int pushed = 0;
  for (int r = 0; r < rounds; ++r) {
    BusyWait(gap);
    for (Port* port : ports) {
      pushed += port->Push(Put(r)) == PushResult::kOk ? 1 : 0;
    }
    if (!Eventually([&] { return taken.load() == pushed; })) {
      return -1;
    }
  }
  return pushed;
}

TEST_F(CommTest, CrashReturnsNodeDownToSpinningAndParkedReceivers) {
  // Sixteen receivers of one guardian, each on a port of its own. Twelve
  // sleepers are processes of the guardian (tasks); they get nothing and
  // park. Four runners are threads of the test, the receivers that spin (a
  // task never does): they are fed in lockstep until their waits are short
  // enough to spin, and the crash comes as they wait for their next
  // message. The crash must return kNodeDown to all sixteen. A wait the
  // crash ends mid-spin counts as spun, so the counters say which kinds it
  // met.
  //
  // Catching a runner mid-spin is a race with the 30 us budget, so each
  // attempt crashes a fresh guardian, up to five. Each measures its own
  // premise from the runners, without asking the spin decision: was some
  // runner warm, its recent waits averaging under the budget as its final
  // receive began, and did the crash begin within half a budget of that
  // receive (the rest is the crash's own way to its mailbox)? Only an
  // attempt that met both and caught no spinner fails; a busy host keeps
  // the runners' waits long, and the test skips.
  constexpr int kReceivers = 16;
  constexpr int kRunners = 4;
  const MetricsRegistry& metrics = system_.metrics();
  Guardian* guardian = receiver_;
  uint64_t caught_spinning = 0;
  bool premise_met = false;
  std::string measured;
  for (int attempt = 1; attempt <= 5 && caught_spinning == 0; ++attempt) {
    if (attempt > 1) {
      ASSERT_TRUE(b_->Restart().ok());
      guardian = *b_->Create<ShellGuardian>(
          "shell", "receiver" + std::to_string(attempt), {});
    }
    std::vector<Port*> ports;
    for (int i = 0; i < kReceivers; ++i) {
      ports.push_back(guardian->AddPort(TinyPortType(), 8));
    }
    std::atomic<int> begun{0};
    std::atomic<int> taken{0};
    std::atomic<int> node_down{0};
    std::vector<ReceiveStart> starts;
    std::vector<std::thread> runner_threads(kRunners);
    CrashOnExit crash_on_exit{b_, &runner_threads};
    StartReceivers(guardian, ports, &begun, &taken, &node_down, &starts,
                   &runner_threads);
    ASSERT_TRUE(Eventually(
        [&] { return ParkedWaiters(guardian) == size_t{kReceivers}; }));
    const std::vector<Port*> runners(ports.begin(), ports.begin() + kRunners);
    const int pushed = Feed(runners, taken, 300, Micros(2));
    ASSERT_GT(pushed, 0);
    // Every wait the pushes ended is counted by now; the crash ends the
    // rest. It comes once every runner waits again: each has begun its
    // final receive, and (checked under the mailbox lock only then, so as
    // not to hold them up) registered its wait.
    const uint64_t spun = metrics.CounterValue("guardian.wait.spun");
    const uint64_t parked = metrics.CounterValue("guardian.wait.parked");
    ASSERT_TRUE(Eventually([&] {
      return begun.load() == pushed + kReceivers &&
             Waiters(guardian) == size_t{kReceivers};
    }));
    const TimePoint crash_began = Now();
    b_->Crash();  // returns once every receiving process has returned
    for (std::thread& runner : runner_threads) {
      runner.join();
    }
    EXPECT_EQ(node_down.load(), kReceivers);
    caught_spinning = metrics.CounterValue("guardian.wait.spun") - spun;
    // The sleepers, at least (the node's own guardians wait too).
    EXPECT_GE(metrics.CounterValue("guardian.wait.parked") - parked,
              uint64_t{kReceivers - kRunners});

    const ReceiveStart& warmest = *std::min_element(
        starts.begin(), starts.begin() + kRunners,
        [](const ReceiveStart& x, const ReceiveStart& y) {
          return x.recent_wait < y.recent_wait;
        });
    const int64_t recent_us = ToMicros(warmest.recent_wait);
    const int64_t crash_us = ToMicros(crash_began - warmest.at);
    premise_met = premise_met || (warmest.recent_wait < kSpinBudget &&
                                  2 * crash_us < kSpinBudget.count());
    measured += "\n  attempt " + std::to_string(attempt) +
                ": the warmest runner's waits averaged " +
                std::to_string(recent_us) + " us (budget " +
                std::to_string(kSpinBudget.count()) +
                " us), and the crash began " + std::to_string(crash_us) +
                " us into its final receive";
  }
  if (caught_spinning == 0) {
    if (!premise_met) {
      GTEST_SKIP() << "no attempt could have caught a runner mid-spin:"
                   << measured;
    }
    ADD_FAILURE() << "an attempt that could have caught a runner mid-spin "
                     "caught none:"
                  << measured;
  }
}

TEST_F(CommTest, ShortReceiveTimeoutsHoldWhileSpinning) {
  // Warm this thread up with receives that each wait ~5 us, so its next
  // waits spin. A spin never runs past the receive's deadline: a 20 us
  // timeout ends inside the spin, a 200 us one spins out its budget and
  // parks for the rest. Both return kTimeout on time. Whether the short
  // receive had to spin is decided from what this thread measured: the
  // moving average of its own recent waits as that receive began. A busy
  // host keeps the warm-up's waits long, and the test then skips.
  Port* port = receiver_->AddPort(TinyPortType(), 8);
  const MetricsRegistry& metrics = system_.metrics();
  constexpr int kWarm = 300;
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::atomic<int> taken{0};
    std::thread feeder([&] {
      for (int i = 0; i < kWarm; ++i) {
        while (taken.load() < i) {
          std::this_thread::yield();
        }
        BusyWait(Micros(5));
        (void)port->Push(Put(i));
      }
    });
    for (int i = 0; i < kWarm; ++i) {
      const bool ok = receiver_->Receive(port, Millis(10'000)).ok();
      EXPECT_TRUE(ok);
      taken.fetch_add(1);
      if (!ok) {
        break;
      }
    }
    taken.store(kWarm);
    feeder.join();
    if (metrics.CounterValue("guardian.wait.spun") > 0) {
      break;  // the short waits spin: this thread is warm
    }
  }
  bool short_timeout_parked = false;
  Clock::duration recent_wait{0};  // as the short receive began
  for (const Micros timeout : {Micros(20), Micros(200)}) {
    const uint64_t spun = metrics.CounterValue("guardian.wait.spun");
    const uint64_t parked = metrics.CounterValue("guardian.wait.parked");
    if (timeout < kSpinBudget) {
      recent_wait = internal::RecentWait();
    }
    const TimePoint begin = Now();
    auto out = receiver_->Receive(port, timeout);
    const int64_t took = ToMicros(Now() - begin);
    EXPECT_EQ(out.status().code(), Code::kTimeout) << timeout.count();
    EXPECT_GE(took, timeout.count());
    EXPECT_LT(took, timeout.count() + 50'000);
    const uint64_t spun_now = metrics.CounterValue("guardian.wait.spun") - spun;
    const uint64_t parked_now =
        metrics.CounterValue("guardian.wait.parked") - parked;
    EXPECT_EQ(spun_now + parked_now, 1u) << timeout.count();
    if (timeout >= kSpinBudget) {
      EXPECT_EQ(parked_now, 1u) << "a spin outlasted its budget";
    } else if (spun_now == 0) {
      short_timeout_parked = true;  // this thread was cold: it parked
    }
  }
  if (short_timeout_parked) {
    const std::string measured =
        "this thread's waits averaged " +
        std::to_string(ToMicros(recent_wait)) + " us as the 20 us receive "
        "began (budget " + std::to_string(kSpinBudget.count()) + " us)";
    if (recent_wait >= kSpinBudget) {
      GTEST_SKIP() << "the warm-up left this thread cold: " << measured;
    }
    ADD_FAILURE() << "the short receive parked although " << measured;
  }
}

}  // namespace
}  // namespace guardians
