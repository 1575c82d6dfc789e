// Time helpers. All latencies and timeouts in the library are
// std::chrono::microseconds on the steady clock — by default. Every
// component that sleeps, polls, or arms a deadline does so through a
// ClockSource, so the whole stack can run on simulated time: a
// SimulatedClock only advances when explicitly stepped (or by its
// auto-stepper), per-node views can disagree about "now" (skew steps,
// drift multipliers), and timeout-heavy tests finish at simulation
// speed instead of wall speed. The wall-clock build pays nothing: the
// default WallClock forwards straight to std::chrono / std::thread.
#ifndef GUARDIANS_SRC_COMMON_CLOCK_H_
#define GUARDIANS_SRC_COMMON_CLOCK_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace guardians {

class CondVar;  // src/common/task.h

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;
using Micros = std::chrono::microseconds;
using Millis = std::chrono::milliseconds;

// The raw wall clock. Harness bookkeeping (log timestamps, bench wall
// budgets) stays on this even when the system under test runs simulated.
inline TimePoint Now() { return Clock::now(); }

inline int64_t ToMicros(Clock::duration d) {
  return std::chrono::duration_cast<Micros>(d).count();
}

// A source of time plus the two blocking shapes the library uses. The
// condvar wait takes the caller's own CondVar (the park seam of
// src/common/task.h) and held lock — a simulated clock registers the wait
// (mutex, cv, deadline) so a stepping thread can wake it when virtual time
// crosses the deadline; the wall clock waits on the CondVar directly. Both
// park a task and block a foreign thread.
class ClockSource {
 public:
  virtual ~ClockSource() = default;

  virtual TimePoint Now() const = 0;

  // Block the calling process for `d` on this clock.
  virtual void SleepFor(Micros d) const = 0;

  // Wait until pred() holds or `deadline` passes on this clock.
  // `lock` must be held on entry and is held again on return. Returns
  // pred()'s final value. TimePoint::max() waits forever. There is no
  // predicate-less form: a simulated clock drops `lock` while it
  // registers the wait, and only a re-check of pred() sees a notify sent
  // in that window.
  virtual bool WaitUntil(CondVar& cv,
                         std::unique_lock<std::mutex>& lock,
                         TimePoint deadline,
                         std::function<bool()> pred) const = 0;

  virtual bool is_simulated() const { return false; }
};

// Passthrough to the steady clock. Stateless; one shared instance.
class WallClock : public ClockSource {
 public:
  static WallClock* Get();

  TimePoint Now() const override { return Clock::now(); }
  void SleepFor(Micros d) const override;
  bool WaitUntil(CondVar& cv,
                 std::unique_lock<std::mutex>& lock, TimePoint deadline,
                 std::function<bool()> pred) const override;
};

// Virtual time. Base time advances only via Advance / AdvanceTo /
// AdvanceToNextDeadline or the optional auto-stepper; every blocked
// virtual wait is registered so the stepper can see the earliest
// pending deadline and wake exactly the waits it crosses, in a
// deterministic order (due time, then registration order).
//
// Per-node views (NodeView) let nodes disagree about "now": a view's
// time is anchor_value + (base - anchor_base) * drift, re-anchored by
// StepNode (a forward or backward jump) and SetNodeDrift. Waits made
// through a view carry node-local deadlines; due-ness is evaluated
// against the node's current mapping, so a skew step mid-wait makes the
// wait fire early (forward step) or late (backward step) exactly as a
// real skewed clock would.
class SimulatedClock : public ClockSource {
 public:
  SimulatedClock();
  ~SimulatedClock() override;

  TimePoint Now() const override;
  void SleepFor(Micros d) const override;
  bool WaitUntil(CondVar& cv,
                 std::unique_lock<std::mutex>& lock, TimePoint deadline,
                 std::function<bool()> pred) const override;
  bool is_simulated() const override { return true; }

  // --- stepping (driver / test side) ---

  // Advance base time by d (>= 0) and wake every wait it makes due.
  void Advance(Micros d);
  void AdvanceTo(TimePoint t);

  // Jump base time to the earliest registered finite deadline and wake
  // its waiters. Returns false (and advances nothing) when no finite
  // virtual deadline is registered.
  bool AdvanceToNextDeadline();

  // Block in *real* time until at least n virtual waits are registered
  // (or the real timeout passes). How tests rendezvous with a thread
  // they are about to step past a timeout.
  bool WaitForWaiters(size_t n, Micros real_timeout = Micros(2'000'000));
  size_t WaiterCount() const;

  // --- auto-stepper (chaos / whole-system runs) ---

  // Start a background thread that advances to the next deadline
  // whenever the waiter registry has been quiet for `quiet` of real
  // time (no registrations or wakeups — i.e. every participant is
  // blocked on virtual time and only a step can make progress).
  void StartAutoStep(Micros quiet = Micros(200));
  void StopAutoStep();

  // --- per-node skew / drift ---

  // Borrowed view; owned by (and valid for the life of) this clock.
  // Node 0 is the unskewed base view.
  ClockSource* NodeView(uint64_t node);
  // Step node's opinion of now by delta (may be negative).
  void StepNode(uint64_t node, Micros delta);
  // Node's clock runs at `rate` × base speed from this instant on.
  void SetNodeDrift(uint64_t node, double rate);
  TimePoint NowFor(uint64_t node) const;

 private:
  friend class SimNodeClock;

  struct Waiter {
    std::mutex* mu = nullptr;
    CondVar* cv = nullptr;
    uint64_t node = 0;
    TimePoint deadline = TimePoint::max();  // in the node's timeline
    uint64_t seq = 0;
  };
  struct NodeSkew {
    TimePoint anchor_value{};  // node time at anchor_base
    TimePoint anchor_base{};   // base time of the last re-anchor
    double drift = 1.0;
  };

  TimePoint NowForLocked(uint64_t node) const;  // time_mu_ held
  // Node view at a hypothetical base instant (time_mu_ held).
  TimePoint NowAtLocked(uint64_t node, TimePoint base) const;
  // Base-time instant at which node's clock shows `node_deadline`.
  TimePoint DueBaseLocked(uint64_t node, TimePoint node_deadline) const;
  bool WaitCommon(CondVar& cv,
                  std::unique_lock<std::mutex>& lock, uint64_t node,
                  TimePoint deadline, std::function<bool()>* pred) const;
  // Wake every registered wait that is due at the current time/skew.
  void NotifyDue();
  bool AdvanceToNextDeadlineInternal();
  void AutoStepLoop(Micros quiet);

  // Lock order: registry_mu_ -> (a waiter's mu) -> time_mu_. Never take
  // registry_mu_ or a waiter's mutex while holding time_mu_.
  mutable std::mutex time_mu_;
  TimePoint base_now_;
  std::map<uint64_t, NodeSkew> skew_;  // absent node: identity mapping

  mutable std::mutex registry_mu_;
  mutable std::condition_variable registry_cv_;  // real; register/wake churn
  mutable std::vector<Waiter*> waiters_;
  mutable uint64_t next_waiter_seq_ = 0;
  mutable uint64_t churn_ = 0;  // bumped on every register/deregister/step

  std::map<uint64_t, std::unique_ptr<ClockSource>> views_;
  std::mutex views_mu_;

  std::thread auto_stepper_;
  bool auto_stop_ = false;  // guarded by registry_mu_
};

// A simple deadline: constructed from a timeout on a clock (wall by
// default), queried for remaining time. Remaining() is clamped to be
// non-increasing so a backward skew step on the owning node's clock
// can never inflate a budget that was already partly spent.
class Deadline {
 public:
  explicit Deadline(Micros timeout, const ClockSource* clock = nullptr)
      : clock_(clock ? clock : WallClock::Get()),
        at_(clock_->Now() + timeout) {}

  static Deadline Infinite(const ClockSource* clock = nullptr) {
    return Deadline(TimePoint::max(), clock);
  }

  bool Expired() const {
    return at_ != TimePoint::max() && clock_->Now() >= at_;
  }
  bool IsInfinite() const { return at_ == TimePoint::max(); }
  TimePoint at() const { return at_; }
  const ClockSource* clock() const { return clock_; }

  Micros Remaining() const {
    if (at_ == TimePoint::max()) {
      return Micros::max();
    }
    const auto now = clock_->Now();
    Micros left = now >= at_ ? Micros(0)
                             : std::chrono::duration_cast<Micros>(at_ - now);
    if (left > floor_) left = floor_;
    floor_ = left;
    return left;
  }

 private:
  explicit Deadline(TimePoint at, const ClockSource* clock)
      : clock_(clock ? clock : WallClock::Get()), at_(at) {}
  const ClockSource* clock_;
  TimePoint at_;
  mutable Micros floor_{Micros::max()};
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_COMMON_CLOCK_H_
