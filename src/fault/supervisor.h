// Supervisor: an opt-in per-System watcher that brings crashed nodes back.
//
// The paper leaves "when does a crashed node run its recovery processes"
// to the environment; this is that environment. A background thread polls
// node liveness, restarts a down node after an exponential backoff with
// seeded jitter (so restart herds desynchronize but runs stay
// reproducible), and quarantines a node that keeps crashing right back —
// K rapid failures (a crash within the rapid window of the last recovery,
// or a failed restart) stop the restart loop and mark the node dead.
//
// Quarantine state is exported to the rest of the system two ways: the
// supervisor.* metrics/trace events below, and a health oracle installed
// into the System so FailoverCall can demote known-dead replicas without
// the send primitives ever linking this library.
//
//   supervisor.crashes_detected   down transitions observed
//   supervisor.restarts           successful Restart() calls
//   supervisor.restart_failures   Restart() errors (node re-crashed)
//   supervisor.quarantined        nodes given up on
//   supervisor.backoff_us         backoff waits chosen (histogram)
//   supervisor.recovery_us        Restart() wall time (histogram)
#ifndef GUARDIANS_SRC_FAULT_SUPERVISOR_H_
#define GUARDIANS_SRC_FAULT_SUPERVISOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <thread>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/common/task.h"
#include "src/guardian/system.h"
#include "src/obs/metrics.h"

namespace guardians {

struct SupervisorConfig {
  Micros poll_interval{Millis(5)};
  Micros initial_backoff{Millis(5)};
  Micros max_backoff{Millis(500)};
  double backoff_multiplier = 2.0;
  // Each backoff is scaled by a uniform factor in [1-jitter, 1+jitter].
  double jitter = 0.2;
  // K: strikes before a node is quarantined. A strike is a crash within
  // rapid_window of the last successful recovery, or a failed restart.
  int quarantine_strikes = 5;
  Micros rapid_window{Millis(1000)};
  uint64_t seed = 0x5EED5C0FFEEull;
};

class Supervisor {
 public:
  // Installs the health oracle immediately; the watcher thread only runs
  // between Start() and Stop(). `system` must outlive the supervisor, and
  // the supervisor must be stopped (or destroyed) before the System dies.
  explicit Supervisor(System* system, SupervisorConfig config = {});
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  void Start();
  void Stop();

  // Exempt a node from supervision (e.g. a client node a test crashes on
  // purpose).
  void Ignore(NodeId id);

  bool IsQuarantined(NodeId id) const;
  // Manually mark a node dead / alive again (tests, operators).
  void ForceQuarantine(NodeId id);
  void ClearQuarantine(NodeId id);
  // Operator-grade un-quarantine: like ClearQuarantine, but counted
  // (supervisor.unquarantines) and traced, so a harness that heals a long
  // partition can prove the node rejoined rotation. Without this, K-strike
  // quarantine is permanent — a healed node would stay demoted forever.
  void Unquarantine(NodeId id);

  struct NodeHealth {
    int strikes = 0;
    uint64_t restarts = 0;
    bool quarantined = false;
  };
  NodeHealth Health(NodeId id) const;

 private:
  struct NodeState {
    bool ignored = false;
    bool quarantined = false;
    bool down_seen = false;       // currently handling an outage
    int strikes = 0;
    uint64_t restarts = 0;
    TimePoint restart_at{};       // backoff deadline for the next attempt
    TimePoint last_recovery{};    // when the node last came back up
  };

  void RunLoop();
  void Scan();
  void HandleDown(NodeId id, NodeRuntime& node);
  Micros NextBackoffLocked(int strikes);
  void QuarantineLocked(NodeState& st, NodeId id, const std::string& why);

  System* system_;
  const SupervisorConfig config_;
  // The system's base time source: poll cadence, backoff deadlines and
  // the rapid-crash window all run on it, so a simulated clock drives
  // supervision too (recovery_us_ stays a wall measurement — it reports
  // real Restart() cost, not modeled time).
  const ClockSource* clock_;

  Counter* crashes_detected_;
  Counter* restarts_;
  Counter* restart_failures_;
  Counter* quarantined_count_;
  Counter* unquarantined_count_;
  Histogram* backoff_us_;
  Histogram* recovery_us_;
  uint64_t trace_id_;  // all supervisor.* trace events share one trace

  mutable std::mutex mu_;
  CondVar cv_;
  bool running_ = false;
  Rng rng_;
  std::map<NodeId, NodeState> state_;
  std::thread thread_;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_FAULT_SUPERVISOR_H_
