// Crash-schedule explorer: systematic coverage of the §2.2 fault model.
//
// A baseline run of an airline workload records every stable-store
// mutation the region node makes, in order. Each one yields a crash just
// before it and just after it, and each append a third, torn at its
// midpoint: that is every state a power failure can leave on the device
// during the workload. The explorer then re-runs the workload once per
// schedule — enumerated, not sampled — crashing the region node exactly
// there, letting a Supervisor restart it, and checking the permanence
// invariants on the recovered state:
//
//   - the plan fired on the mutation the baseline recorded for its ordinal
//     (same kind, same stream or cell), so the ordinals are deterministic,
//   - every acked operation survives (a reserve acked "ok"/"pre_reserved"
//     is present after recovery; an acked cancel stays absent),
//   - no phantoms (every passenger in the recovered db was actually
//     requested by the workload),
//   - guardian ids and port names are stable across the crash,
//   - the FlightDb's own invariants hold,
//   - a persistent guardian whose remote creation was acked still exists.
//
// Used by tests/test_fault_explorer.cc (tier-1) and bench_robustness.
#ifndef GUARDIANS_SRC_FAULT_EXPLORER_H_
#define GUARDIANS_SRC_FAULT_EXPLORER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/fault/fault_injector.h"

namespace guardians {

struct ScheduleOutcome {
  CrashPlan plan;
  bool triggered = false;      // the plan's mutation was actually reached
  DeviceOp fired_on;           // the mutation it fired on, once triggered
  Status verdict = OkStatus();  // invariant check result
  Micros recovery{0};          // mean supervised Restart() time of the run
  int acked = 0;               // operations the clerk saw acked
};

struct ExplorerReport {
  // The region node's mutations in the baseline run, in order. The schedule
  // space is 2 x mutations + appends.
  std::vector<DeviceOp> baseline;
  size_t appends = 0;
  std::vector<ScheduleOutcome> schedules;
  size_t triggered = 0;
  size_t failures = 0;
  double mean_recovery_us = 0;

  // "74 schedules over 27 mutations (20 appends), 74 triggered, 0
  // failures, ..."
  std::string Summary() const;
};

// Runs the whole enumeration. An error Status means the harness itself
// could not run (e.g. the baseline run failed verification); per-schedule
// invariant violations are reported in the outcomes' verdicts.
Result<ExplorerReport> ExploreCrashSchedules();

}  // namespace guardians

#endif  // GUARDIANS_SRC_FAULT_EXPLORER_H_
