// Tests of the task runtime (src/common/task.h): guardian processes run as
// user-space tasks on a pool of carrier threads, and every wait goes
// through one park seam, CondVar, that parks a task and blocks a foreign
// thread.
#include <dirent.h>
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/task.h"
#include "src/fault/fault_injector.h"
#include "src/guardian/system.h"
#include "src/runtime/latch.h"
#include "src/sendprims/remote_call.h"

namespace guardians {
namespace {

// The OS threads of this process, counted from /proc/self/task.
size_t OsThreads() {
  size_t n = 0;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (dirent* entry = readdir(dir)) {
      n += entry->d_name[0] != '.' ? 1 : 0;
    }
    closedir(dir);
  }
  return n;
}

TEST(TaskTest, ParkAndUnparkRoundTrip) {
  // A task parks on a CondVar, a second task makes it ready, and it
  // resumes where it parked with its own stack intact, a thousand times.
  CarrierPool pool(2);
  std::mutex mu;
  CondVar cv;
  int turn = 0;  // guarded by mu
  constexpr int kRounds = 1000;
  std::atomic<int> sum{0};
  {
    ProcessGroup group(pool);
    for (int me = 0; me < 2; ++me) {
      group.Fork("p" + std::to_string(me), [&, me] {
        int local = 0;  // lives on the task's stack across every park
        for (int r = 0; r < kRounds; ++r) {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return turn % 2 == me; });
          ++turn;
          local += r;
          cv.notify_all();
        }
        sum.fetch_add(local);
      });
    }
  }
  EXPECT_EQ(turn, 2 * kRounds);
  EXPECT_EQ(sum.load(), 2 * (kRounds * (kRounds - 1) / 2));
  EXPECT_TRUE(OnTask() == false);
}

TEST(TaskTest, ForeignThreadAndTaskWakeEachOther) {
  // A task notifies a foreign thread parked on a CondVar, and a foreign
  // thread notifies a parked task, on the same condition variable.
  CarrierPool pool(2);
  std::mutex mu;
  CondVar cv;
  int pings = 0;  // guarded by mu; odd: the task's turn
  constexpr int kRounds = 500;
  ProcessGroup group(pool);
  group.Fork("ponger", [&] {
    EXPECT_TRUE(OnTask());
    for (int r = 0; r < kRounds; ++r) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return pings % 2 == 1; });
      ++pings;
      cv.notify_all();
    }
  });
  for (int r = 0; r < kRounds; ++r) {
    std::unique_lock<std::mutex> lock(mu);
    ++pings;
    cv.notify_all();
    ASSERT_TRUE(cv.wait_until(lock, Now() + Millis(10'000),
                              [&] { return pings % 2 == 0; }))
        << "round " << r;
  }
  group.JoinAll();
  EXPECT_EQ(pings, 2 * kRounds);
}

TEST(TaskTest, TimedParksOnTheWallClockResumeAtTheirDeadline) {
  CarrierPool pool(2);
  std::atomic<int64_t> slept_us{0};
  std::atomic<bool> timed_out{false};
  const CarrierPool::Stats before = pool.stats();
  {
    ProcessGroup group(pool);
    group.Fork("sleeper", [&] {
      const TimePoint start = Now();
      WallClock::Get()->SleepFor(Millis(3));
      slept_us = ToMicros(Now() - start);
    });
    group.Fork("waiter", [&] {
      std::mutex mu;
      CondVar cv;
      std::unique_lock<std::mutex> lock(mu);
      timed_out = !cv.wait_until(lock, Now() + Millis(3));
    });
  }
  EXPECT_GE(slept_us.load(), 3000);
  EXPECT_TRUE(timed_out.load());
  EXPECT_GE(pool.stats().timers - before.timers, 2u);
}

TEST(TaskTest, TimedParksOnASimulatedClockRegisterWithTheClock) {
  // A process's sleep and timed receive are clock waits the stepper sees:
  // they resume when virtual time reaches them, whatever the wall clock.
  SimulatedClock sim;
  SystemConfig config;
  config.sim_clock = &sim;
  System system(config);
  NodeRuntime& node = system.AddNode("n");
  node.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  Guardian* g = *node.Create<ShellGuardian>("shell", "g", {});
  Port* port = g->AddPort(PortType("tick", {MessageSig{"tick", {}, {}}}), 4);
  // The delivery workers and the node's own guardians wait on the clock
  // too; count them once they have settled.
  std::this_thread::sleep_for(Millis(50));
  const size_t idle_waiters = sim.WaiterCount();
  std::atomic<bool> slept{false};
  std::atomic<int> receive_code{-1};
  g->Fork("sleeper", [&] {
    g->runtime().clock().SleepFor(Millis(5000));
    slept = true;
  });
  g->Fork("receiver", [&] {
    receive_code = static_cast<int>(g->Receive(port, Millis(7000)).status().code());
  });
  ASSERT_TRUE(sim.WaitForWaiters(idle_waiters + 2));
  std::this_thread::sleep_for(Millis(20));
  EXPECT_FALSE(slept.load());  // no wall time moves virtual time
  sim.Advance(Millis(5000));
  const TimePoint give_up = Now() + Millis(5000);
  while (!slept.load() && Now() < give_up) {
    std::this_thread::sleep_for(Micros(200));
  }
  EXPECT_TRUE(slept.load());
  EXPECT_EQ(receive_code.load(), -1);
  sim.Advance(Millis(2000));
  while (receive_code.load() == -1 && Now() < give_up) {
    std::this_thread::sleep_for(Micros(200));
  }
  EXPECT_EQ(receive_code.load(), static_cast<int>(Code::kTimeout));
}

TEST(TaskTest, ExceptionsUnwindATaskAfterItMovedCarriers) {
  // A task that parked (and may have resumed on another carrier) unwinds
  // its own frames; Guardian::Fork ends a process a CrashTriggered unwinds.
  CarrierPool pool(3);
  std::atomic<int> caught{0};
  {
    ProcessGroup group(pool);
    for (int i = 0; i < 8; ++i) {
      group.Fork("thrower", [&] {
        CountdownLatch never(1);
        try {
          for (int k = 0; k < 20; ++k) {
            (void)never.WaitFor(Micros(50));  // parks and resumes
          }
          throw std::runtime_error("unwind");
        } catch (const std::runtime_error&) {
          caught.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(caught.load(), 8);

  System system;
  NodeRuntime& node = system.AddNode("n");
  node.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  Guardian* g = *node.Create<ShellGuardian>("shell", "g", {});
  std::atomic<bool> after_throw{false};
  g->Fork("doomed", [&] {
    WallClock::Get()->SleepFor(Micros(100));
    throw CrashTriggered{CrashPlan{}, DeviceOp{}};
    after_throw = true;  // never reached
  });
  g->JoinProcesses();  // the process ended at the throw
  EXPECT_FALSE(after_throw.load());
}

TEST(TaskTest, CrashReturnsNodeDownToParkedTasksAndSpinningThreads) {
  // Parked tasks and a warm foreign receiver (the kind that spins) all see
  // kNodeDown when their node crashes.
  System system;
  NodeRuntime& node = system.AddNode("n");
  node.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  Guardian* g = *node.Create<ShellGuardian>("shell", "g", {});
  const PortType tiny("tiny", {MessageSig{"m", {}, {}}});
  constexpr int kTasks = 8;
  std::atomic<int> down{0};
  for (int i = 0; i < kTasks; ++i) {
    Port* port = g->AddPort(tiny, 4);
    g->Fork("parked", [&, port] {
      if (g->Receive(port, Micros::max()).status().code() == Code::kNodeDown) {
        down.fetch_add(1);
      }
    });
  }
  Port* warm = g->AddPort(tiny, 4);
  std::atomic<int> taken{0};
  std::atomic<bool> thread_down{false};
  std::thread receiver([&] {
    for (;;) {
      auto m = g->Receive(warm, Micros::max());
      if (!m.ok()) {
        thread_down = m.status().code() == Code::kNodeDown;
        return;
      }
      taken.fetch_add(1);
    }
  });
  // Feed it short waits, then crash while it waits for the next one.
  for (int i = 0; i < 300; ++i) {
    const TimePoint until = Now() + Micros(5);
    while (Now() < until) {
    }
    Received m;
    m.command = "m";
    (void)warm->Push(std::move(m));
    const TimePoint give_up = Now() + Millis(5000);
    while (taken.load() <= i && Now() < give_up) {
      std::this_thread::yield();
    }
  }
  node.Crash();
  receiver.join();
  EXPECT_EQ(down.load(), kTasks);
  EXPECT_TRUE(thread_down.load());
}

TEST(TaskTest, ARequestChainHandsOffOnOneCarrierWithoutParking) {
  // Four tasks pass a token around a ring: each hop makes the next task
  // ready from a task, so it runs next on the same carrier, and the carrier
  // never goes idle between hops. Counted, not timed.
  CarrierPool pool(1);
  constexpr int kTasks = 4;
  constexpr int kHops = 2000;
  std::mutex mu;
  CondVar cvs[kTasks];
  int hop = 0;  // guarded by mu
  CarrierPool::Stats first;
  CarrierPool::Stats last;
  {
    ProcessGroup group(pool);
    for (int me = 0; me < kTasks; ++me) {
      group.Fork("ring" + std::to_string(me), [&, me] {
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
          cvs[me].wait(lock, [&] { return hop % kTasks == me || hop >= kHops; });
          if (hop >= kHops) {
            return;
          }
          if (hop == 100) {
            first = pool.stats();
          } else if (hop == kHops - 100) {
            last = pool.stats();
          }
          ++hop;
          cvs[hop % kTasks].notify_one();
          if (hop >= kHops) {
            for (CondVar& cv : cvs) {
              cv.notify_all();
            }
          }
        }
      });
    }
  }
  EXPECT_EQ(hop, kHops);
  EXPECT_EQ(last.parked, first.parked);
  EXPECT_EQ(last.handoffs - first.handoffs, uint64_t{kHops - 200});
}

TEST(TaskTest, RepliesJournaledWithWriteLatencyNeverStallTheCarriers) {
  // Tracked replies are journaled under the node's log lock, and the store
  // models a write latency. With more replying guardians than carriers,
  // a task that slept that latency holding the lock would leave every
  // carrier blocked on it, and the calls would never finish.
  System system;
  NodeRuntime& client = system.AddNode("client");
  NodeRuntime& server = system.AddNode("server");
  client.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  const PortType echo_type(
      "journal_echo",
      {MessageSig{"echo", {ArgType::Of(TypeTag::kInt)}, {"echoed"}}});
  const PortType reply_type(
      "journal_echo_reply",
      {MessageSig{"echoed", {ArgType::Of(TypeTag::kInt)}, {}}});
  class Echo : public Guardian {
   public:
    explicit Echo(PortType type) : type_(std::move(type)) {}
    Status Setup(const ValueList&) override {
      AddPort(type_, 64, /*provided=*/true);
      return OkStatus();
    }
    void Main() override {
      for (;;) {
        auto m = Receive(port(0), Micros::max());
        if (!m.ok()) {
          return;
        }
        (void)Send(m->reply_to, "echoed", {m->args[0]});
      }
    }

   private:
    PortType type_;
  };
  server.RegisterGuardianType("echo", [echo_type] {
    return std::make_unique<Echo>(echo_type);
  });
  server.stable_store().SetWriteLatency(Micros(300));
  const size_t kEchoes = 4 * system.carriers().carriers();
  std::vector<PortName> echoes;
  for (size_t i = 0; i < kEchoes; ++i) {
    auto echo = server.CreateGuardian("echo", "echo" + std::to_string(i), {});
    ASSERT_TRUE(echo.ok());
    echoes.push_back((*echo)->ProvidedPorts()[0]);
  }
  constexpr int kCalls = 10;
  std::atomic<int> ok{0};
  std::vector<std::thread> callers;
  for (size_t i = 0; i < kEchoes; ++i) {
    callers.emplace_back([&, i] {
      Guardian* shell =
          *client.Create<ShellGuardian>("shell", "c" + std::to_string(i), {});
      RemoteCallOptions options;
      options.timeout = Millis(20'000);
      for (int k = 0; k < kCalls; ++k) {
        auto reply = RemoteCall(*shell, echoes[i], "echo", {Value::Int(k)},
                                reply_type, options);
        ok.fetch_add(reply.ok() && reply->command == "echoed" ? 1 : 0);
      }
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }
  EXPECT_EQ(ok.load(), static_cast<int>(kEchoes) * kCalls);
}

// A world of `guardians` guardians, each with a process blocked in Receive.
// Returns the OS threads the process runs on while they all wait.
size_t ThreadsOfAWorldOf(int guardians) {
  System system;
  NodeRuntime& node = system.AddNode("n");
  class Waiter : public Guardian {
   public:
    Status Setup(const ValueList&) override {
      AddPort(PortType("idle", {MessageSig{"m", {}, {}}}), 4);
      return OkStatus();
    }
    void Main() override { (void)Receive(port(0), Micros::max()); }
  };
  node.RegisterGuardianType("waiter", MakeFactory<Waiter>());
  std::vector<Guardian*> waiters;
  for (int i = 0; i < guardians; ++i) {
    auto g = node.CreateGuardian("waiter", "w" + std::to_string(i), {});
    EXPECT_TRUE(g.ok());
    if (g.ok()) {
      waiters.push_back(*g);
    }
  }
  // Every process is parked once every mailbox has its receive waiting.
  const TimePoint give_up = Now() + Millis(20'000);
  for (Guardian* g : waiters) {
    while (Now() < give_up) {
      {
        std::lock_guard<std::mutex> lock(g->mailbox().mu);
        if (g->mailbox().WaitersLocked() == 1) {
          break;
        }
      }
      std::this_thread::sleep_for(Micros(100));
    }
  }
  return OsThreads();
}

TEST(TaskTest, AThousandWaitingGuardiansRunOnTheCarriers) {
  // The carriers, the delivery shards, this test's thread and one spare:
  // the number of guardians does not enter.
  const size_t bound = CarrierPool::DefaultCarriers() +
                       Network::kDefaultShards + 2;
  const size_t small = ThreadsOfAWorldOf(64);
  EXPECT_LE(small, bound);
  const size_t large = ThreadsOfAWorldOf(1000);
  EXPECT_LE(large, bound);
  RecordProperty("threads_64", static_cast<int>(small));
  RecordProperty("threads_1000", static_cast<int>(large));
}

}  // namespace
}  // namespace guardians
