// Unit tests for the process/monitor/serializer runtime (Section 2.3's
// three organizations depend on these).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/common/clock.h"
#include "src/runtime/latch.h"
#include "src/runtime/monitor.h"
#include "src/runtime/process.h"
#include "src/runtime/serializer.h"

namespace guardians {
namespace {

TEST(ProcessTest, RunsBodyAndReportsDone) {
  std::atomic<bool> ran{false};
  Process p("t", [&] { ran = true; });
  p.Join();
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(p.Done());
}

TEST(ProcessGroupTest, JoinAllJoinsNestedForks) {
  ProcessGroup group;
  std::atomic<int> count{0};
  group.Fork("outer", [&] {
    ++count;
    group.Fork("inner", [&] { ++count; });
  });
  group.JoinAll();
  EXPECT_EQ(count.load(), 2);
  EXPECT_EQ(group.count(), 0u);
}

TEST(ProcessGroupTest, ReapReleasesFinishedOnly) {
  ProcessGroup group;
  CountdownLatch hold(1);
  group.Fork("fast", [] {});
  group.Fork("slow", [&] { hold.Wait(); });
  // Wait for "fast" to finish.
  for (int i = 0; i < 200 && group.count() == 2; ++i) {
    group.Reap();
    std::this_thread::sleep_for(Millis(1));
  }
  EXPECT_EQ(group.count(), 1u);
  hold.CountDown();
  group.JoinAll();
  EXPECT_EQ(group.count(), 0u);
}

TEST(ProcessGroupTest, ManyForksAllRun) {
  ProcessGroup group;
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    group.Fork("p" + std::to_string(i), [&] { ++count; });
  }
  group.JoinAll();
  EXPECT_EQ(count.load(), 64);
}

TEST(KeyedMonitorTest, MutualExclusionPerKey) {
  KeyedMonitor<std::string> monitor;
  std::atomic<int> in_critical{0};
  std::atomic<bool> violated{false};
  ProcessGroup group;
  for (int i = 0; i < 8; ++i) {
    group.Fork("p" + std::to_string(i), [&] {
      for (int j = 0; j < 50; ++j) {
        KeyedMonitor<std::string>::Request request(monitor, "the-date");
        if (in_critical.fetch_add(1) != 0) {
          violated = true;
        }
        std::this_thread::sleep_for(Micros(50));
        in_critical.fetch_sub(1);
      }
    });
  }
  group.JoinAll();
  EXPECT_FALSE(violated.load());
  EXPECT_GT(monitor.blocked_waits(), 0u);  // there was real contention
}

TEST(KeyedMonitorTest, DistinctKeysProceedConcurrently) {
  KeyedMonitor<int> monitor;
  CountdownLatch both_inside(2);
  ProcessGroup group;
  for (int key : {1, 2}) {
    group.Fork("k" + std::to_string(key), [&, key] {
      KeyedMonitor<int>::Request request(monitor, key);
      both_inside.CountDown();
      // If keys excluded each other, the second process could never enter
      // while the first waits here, and this would time out.
      EXPECT_TRUE(both_inside.WaitFor(Millis(2000)));
    });
  }
  group.JoinAll();
  EXPECT_EQ(both_inside.count(), 0u);
}

TEST(SerializerTest, ExecutesEverythingOnce) {
  Serializer serializer(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    serializer.Enqueue(i % 5, [&] { ++count; });
  }
  serializer.Drain();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(serializer.executed(), 100u);
}

TEST(SerializerTest, SameKeyIsFifoAndExclusive) {
  Serializer serializer(4);
  std::vector<int> order;
  std::mutex order_mu;
  std::atomic<int> inside{0};
  std::atomic<bool> violated{false};
  for (int i = 0; i < 40; ++i) {
    serializer.Enqueue(7, [&, i] {
      if (inside.fetch_add(1) != 0) {
        violated = true;
      }
      std::this_thread::sleep_for(Micros(100));
      {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(i);
      }
      inside.fetch_sub(1);
    });
  }
  serializer.Drain();
  EXPECT_FALSE(violated.load());
  ASSERT_EQ(order.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(order[i], i);  // strict arrival order per key
  }
}

TEST(SerializerTest, DistinctKeysOverlap) {
  Serializer serializer(4);
  CountdownLatch overlap(2);
  for (int key : {1, 2}) {
    serializer.Enqueue(key, [&] {
      overlap.CountDown();
      EXPECT_TRUE(overlap.WaitFor(Millis(2000)));
    });
  }
  serializer.Drain();
  EXPECT_EQ(overlap.count(), 0u);
}

TEST(SerializerTest, BusyKeyDoesNotBlockLaterKeys) {
  Serializer serializer(2);
  CountdownLatch release(1);
  CountdownLatch other_ran(1);
  serializer.Enqueue(1, [&] { release.Wait(); });
  serializer.Enqueue(1, [&] {});  // stuck behind the first
  serializer.Enqueue(2, [&] { other_ran.CountDown(); });
  // Key 2 must run even while key 1's first task is blocked.
  EXPECT_TRUE(other_ran.WaitFor(Millis(2000)));
  release.CountDown();
  serializer.Drain();
  EXPECT_EQ(serializer.executed(), 3u);
}

TEST(SerializerTest, DrainWaitsForRunningTasks) {
  Serializer serializer(2);
  std::atomic<bool> finished{false};
  serializer.Enqueue(1, [&] {
    std::this_thread::sleep_for(Millis(20));
    finished = true;
  });
  serializer.Drain();
  EXPECT_TRUE(finished.load());
}

TEST(SerializerTest, QueueDepthTracked) {
  Serializer serializer(1);
  CountdownLatch release(1);
  serializer.Enqueue(1, [&] { release.Wait(); });
  for (int i = 0; i < 10; ++i) {
    serializer.Enqueue(1, [] {});
  }
  release.CountDown();
  serializer.Drain();
  EXPECT_GE(serializer.max_queue_depth(), 10u);
}

TEST(SerializerTest, FinishingATaskWakesNoIdleWorker) {
  // One awaited task at a time on four workers: each task needs one wake,
  // and finishing it has nothing to hand to the three idle workers.
  Serializer serializer(4);
  for (int i = 0; i < 500; ++i) {
    CountdownLatch done(1);
    serializer.Enqueue(i % 3, [&] { done.CountDown(); });
    ASSERT_TRUE(done.WaitFor(Millis(5000))) << "task " << i;
  }
  serializer.Drain();
  EXPECT_EQ(serializer.executed(), 500u);
  EXPECT_LE(serializer.idle_wakeups(), 5u);
}

TEST(SerializerTest, FreedKeyGoesToASleepingWorkerWhenTheFinisherTakesAnother) {
  // Task A1 queues B (a free key) and then A2 (its own, busy key). When A1
  // returns, its worker may take B, the earlier request, before the other
  // worker wakes; B then waits for A2, so A2 must reach the sleeping worker.
  Serializer serializer(2);
  std::atomic<int> stuck{0};
  for (int round = 0; round < 200; ++round) {
    CountdownLatch a2_ran(1);
    serializer.Enqueue(1, [&] {
      serializer.Enqueue(2, [&] {
        if (!a2_ran.WaitFor(Millis(5000))) {
          ++stuck;
        }
      });
      serializer.Enqueue(1, [&] { a2_ran.CountDown(); });
    });
    serializer.Drain();
  }
  EXPECT_EQ(stuck.load(), 0);
  EXPECT_EQ(serializer.executed(), 600u);
}

TEST(LatchTest, CountsDownAndTimesOut) {
  CountdownLatch latch(2);
  EXPECT_FALSE(latch.WaitFor(Millis(10)));
  latch.CountDown();
  EXPECT_EQ(latch.count(), 1u);
  latch.CountDown();
  EXPECT_TRUE(latch.WaitFor(Millis(10)));
  latch.Wait();  // returns immediately at zero
}

TEST(LatchTest, OverCountingClampsToZero) {
  CountdownLatch latch(1);
  latch.CountDown(5);
  EXPECT_EQ(latch.count(), 0u);
}

}  // namespace
}  // namespace guardians
