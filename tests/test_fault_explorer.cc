// The crash-schedule explorer: every mutation the region node makes in the
// airline workload, crashed just before it, just after it and (appends)
// torn inside it, is a schedule; §2.2 permanence must hold after
// supervised recovery from each one.
#include <gtest/gtest.h>

#include "src/fault/explorer.h"
#include "src/fault/fault_injector.h"

namespace guardians {
namespace {

TEST(FaultInjectorTest, ArmValidatesThePlan) {
  FaultInjector& injector = FaultInjector::Instance();
  EXPECT_EQ(injector.Arm({0, CrashWhen::kBefore}, nullptr, nullptr).code(),
            Code::kInvalidArgument);
  ASSERT_TRUE(injector.Arm({1, CrashWhen::kTorn}, nullptr, nullptr).ok());
  // Double-arming is a harness bug, not a race to silently resolve.
  EXPECT_EQ(injector.Arm({1, CrashWhen::kAfter}, nullptr, nullptr).code(),
            Code::kInvalidArgument);
  injector.Disarm();
}

TEST(FaultInjectorTest, LayerIsInactiveUnlessCountingOrArmed) {
  // The gate every StableStore mutation checks: off by default, on only
  // inside a counting window or while a plan is armed.
  EXPECT_FALSE(FaultInjectionActive());
  FaultInjector::Instance().StartCounting(nullptr);
  EXPECT_TRUE(FaultInjectionActive());
  FaultInjector::Instance().StopCounting();
  EXPECT_FALSE(FaultInjectionActive());
  ASSERT_TRUE(FaultInjector::Instance()
                  .Arm({1, CrashWhen::kBefore}, nullptr, nullptr)
                  .ok());
  EXPECT_TRUE(FaultInjectionActive());
  FaultInjector::Instance().Disarm();
  EXPECT_FALSE(FaultInjectionActive());
}

TEST(CrashExplorerTest, EverySchedulePreservesPermanence) {
  auto report = ExploreCrashSchedules();
  ASSERT_TRUE(report.ok()) << report.status();

  // Exhaustiveness: the workload's mutations include every kind of write
  // its durability rests on (log appends, checkpoint cells, the truncate),
  // and there is one schedule per instant: before and after each mutation,
  // and torn inside each append.
  size_t appends = 0;
  size_t cells = 0;
  size_t truncates = 0;
  for (const DeviceOp& op : report->baseline) {
    appends += op.kind == Mutation::kAppend ? 1 : 0;
    cells += op.kind == Mutation::kPutCell ? 1 : 0;
    truncates += op.kind == Mutation::kTruncate ? 1 : 0;
  }
  EXPECT_GT(appends, 0u);
  EXPECT_GT(cells, 0u);
  EXPECT_GT(truncates, 0u);
  EXPECT_EQ(report->appends, appends);
  // The world never fills a dedup journal segment, so no rotation (its
  // floor appends, truncate and active-cell write) is among the schedules.
  for (const DeviceOp& op : report->baseline) {
    EXPECT_NE(op.name, "node/dedup.1.log") << op.ToString();
    EXPECT_NE(op.name, "node/dedup.active") << op.ToString();
  }
  EXPECT_EQ(report->schedules.size(),
            2 * report->baseline.size() + report->appends);

  // Every armed crash fired, on the mutation the baseline recorded for its
  // ordinal, and every recovery satisfied the §2.2 invariants.
  EXPECT_EQ(report->triggered, report->schedules.size());
  EXPECT_EQ(report->failures, 0u) << report->Summary();
  for (const ScheduleOutcome& s : report->schedules) {
    EXPECT_TRUE(s.triggered) << s.plan.ToString();
    ASSERT_LE(s.plan.mutation, report->baseline.size());
    EXPECT_EQ(s.fired_on, report->baseline[s.plan.mutation - 1])
        << s.plan.ToString() << " fired on " << s.fired_on.ToString();
    EXPECT_TRUE(s.verdict.ok()) << s.plan.ToString() << ": " << s.verdict;
  }
}

}  // namespace
}  // namespace guardians
