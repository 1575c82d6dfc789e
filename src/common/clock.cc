#include "src/common/clock.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace guardians {

// ---------------------------------------------------------------- WallClock

WallClock* WallClock::Get() {
  static WallClock instance;
  return &instance;
}

bool WallClock::WaitUntil(std::condition_variable& cv,
                          std::unique_lock<std::mutex>& lock,
                          TimePoint deadline,
                          std::function<bool()> pred) const {
  if (deadline == TimePoint::max()) {
    cv.wait(lock, std::move(pred));
    return true;
  }
  return cv.wait_until(lock, deadline, std::move(pred));
}

// ----------------------------------------------------------- SimNodeClock

namespace {
constexpr double kMinDrift = 1e-6;
}  // namespace

// A node's borrowed view of the simulated clock: same registry, but all
// deadlines live in the node's (possibly skewed, drifting) timeline.
class SimNodeClock : public ClockSource {
 public:
  SimNodeClock(SimulatedClock* parent, uint64_t node)
      : parent_(parent), node_(node) {}

  TimePoint Now() const override { return parent_->NowFor(node_); }

  void SleepFor(Micros d) const override {
    std::mutex mu;
    std::condition_variable cv;
    std::unique_lock<std::mutex> lock(mu);
    const TimePoint deadline = Now() + d;
    parent_->WaitCommon(cv, lock, node_, deadline, nullptr);
  }

  bool WaitUntil(std::condition_variable& cv,
                 std::unique_lock<std::mutex>& lock, TimePoint deadline,
                 std::function<bool()> pred) const override {
    return parent_->WaitCommon(cv, lock, node_, deadline, &pred);
  }

  bool is_simulated() const override { return true; }

 private:
  SimulatedClock* parent_;
  uint64_t node_;
};

// ---------------------------------------------------------- SimulatedClock

SimulatedClock::SimulatedClock()
    // An arbitrary non-zero epoch so backward skew near the start cannot
    // underflow a zero time base.
    : base_now_(TimePoint() + std::chrono::hours(1000)) {}

SimulatedClock::~SimulatedClock() { StopAutoStep(); }

TimePoint SimulatedClock::Now() const {
  std::lock_guard<std::mutex> t(time_mu_);
  return base_now_;
}

TimePoint SimulatedClock::NowAtLocked(uint64_t node, TimePoint base) const {
  const auto it = skew_.find(node);
  if (it == skew_.end()) {
    return base;
  }
  const NodeSkew& s = it->second;
  const double elapsed_ns =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(base -
                                                               s.anchor_base)
              .count()) *
      s.drift;
  return s.anchor_value +
         std::chrono::nanoseconds(static_cast<int64_t>(elapsed_ns));
}

TimePoint SimulatedClock::NowForLocked(uint64_t node) const {
  return NowAtLocked(node, base_now_);
}

TimePoint SimulatedClock::NowFor(uint64_t node) const {
  std::lock_guard<std::mutex> t(time_mu_);
  return NowForLocked(node);
}

TimePoint SimulatedClock::DueBaseLocked(uint64_t node,
                                        TimePoint node_deadline) const {
  if (node_deadline == TimePoint::max()) {
    return TimePoint::max();
  }
  const auto it = skew_.find(node);
  if (it == skew_.end()) {
    return node_deadline;
  }
  const NodeSkew& s = it->second;
  const double ahead_ns = std::ceil(
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              node_deadline - s.anchor_value)
              .count()) /
      s.drift);
  TimePoint due =
      s.anchor_base + std::chrono::nanoseconds(static_cast<int64_t>(ahead_ns));
  // The divide here and the multiply in NowAtLocked don't round-trip
  // exactly in double; if `due` lands a hair before the node view reaches
  // the deadline, the auto-stepper would advance base time exactly to
  // `due`, find nobody due, and never be able to cross the gap — a
  // permanent stall. Nudge forward (geometrically, so the loop is
  // log-bounded in the FP error) until the forward mapping really is due.
  std::chrono::nanoseconds bump(1);
  while (NowAtLocked(node, due) < node_deadline) {
    due += bump;
    bump *= 2;
  }
  return due;
}

void SimulatedClock::SleepFor(Micros d) const {
  std::mutex mu;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lock(mu);
  const TimePoint deadline = Now() + d;
  WaitCommon(cv, lock, /*node=*/0, deadline, nullptr);
}

bool SimulatedClock::WaitUntil(std::condition_variable& cv,
                               std::unique_lock<std::mutex>& lock,
                               TimePoint deadline,
                               std::function<bool()> pred) const {
  return WaitCommon(cv, lock, /*node=*/0, deadline, &pred);
}

// The wait core. Registration and deregistration drop the caller's lock
// first (lock order forbids taking registry_mu_ under it); a pred-based
// wait re-checks pred after re-locking, so it can never miss a producer
// notify. Only SleepFor waits without a pred: nobody notifies a sleep.
bool SimulatedClock::WaitCommon(std::condition_variable& cv,
                                std::unique_lock<std::mutex>& lock,
                                uint64_t node, TimePoint deadline,
                                std::function<bool()>* pred) const {
  Waiter w;
  w.mu = lock.mutex();
  w.cv = &cv;
  w.node = node;
  w.deadline = deadline;

  lock.unlock();
  {
    std::lock_guard<std::mutex> reg(registry_mu_);
    w.seq = next_waiter_seq_++;
    waiters_.push_back(&w);
    ++churn_;
    registry_cv_.notify_all();
  }
  lock.lock();

  bool result;
  if (pred != nullptr) {
    for (;;) {
      if ((*pred)()) {
        result = true;
        break;
      }
      if (deadline != TimePoint::max() && NowFor(node) >= deadline) {
        result = false;
        break;
      }
      cv.wait(lock);
    }
  } else {
    // SleepFor: at most one block; report timeout-ness.
    if (deadline != TimePoint::max() && NowFor(node) >= deadline) {
      result = true;
    } else {
      cv.wait(lock);
      result = deadline != TimePoint::max() && NowFor(node) >= deadline;
    }
  }

  lock.unlock();
  {
    std::lock_guard<std::mutex> reg(registry_mu_);
    waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &w));
    ++churn_;
    registry_cv_.notify_all();
  }
  lock.lock();
  return result;
}

// registry_mu_ held. Wake every wait whose node clock has reached its
// deadline, in deterministic order: base-time due instant, then
// registration order. Locking (then releasing) the waiter's own mutex
// before the notify serializes with its pred/deadline re-check, so a
// wake posted between that check and the cv.wait cannot be lost.
void SimulatedClock::NotifyDue() {
  struct Due {
    TimePoint due_base;
    uint64_t seq;
    std::mutex* mu;
    std::condition_variable* cv;
  };
  std::vector<Due> due;
  {
    std::lock_guard<std::mutex> t(time_mu_);
    for (Waiter* w : waiters_) {
      if (w->deadline == TimePoint::max()) {
        continue;
      }
      if (NowForLocked(w->node) >= w->deadline) {
        due.push_back({DueBaseLocked(w->node, w->deadline), w->seq, w->mu,
                       w->cv});
      }
    }
  }
  std::sort(due.begin(), due.end(), [](const Due& a, const Due& b) {
    return a.due_base != b.due_base ? a.due_base < b.due_base
                                    : a.seq < b.seq;
  });
  for (const Due& d : due) {
    {
      std::lock_guard<std::mutex> hold(*d.mu);
    }
    d.cv->notify_all();
  }
}

void SimulatedClock::Advance(Micros d) {
  {
    std::lock_guard<std::mutex> t(time_mu_);
    base_now_ += d;
  }
  std::lock_guard<std::mutex> reg(registry_mu_);
  NotifyDue();
}

void SimulatedClock::AdvanceTo(TimePoint t) {
  {
    std::lock_guard<std::mutex> tl(time_mu_);
    if (t > base_now_) {
      base_now_ = t;
    }
  }
  std::lock_guard<std::mutex> reg(registry_mu_);
  NotifyDue();
}

bool SimulatedClock::AdvanceToNextDeadlineInternal() {
  {
    std::lock_guard<std::mutex> t(time_mu_);
    TimePoint earliest = TimePoint::max();
    for (Waiter* w : waiters_) {
      if (w->deadline == TimePoint::max()) {
        continue;
      }
      earliest = std::min(earliest, DueBaseLocked(w->node, w->deadline));
    }
    if (earliest == TimePoint::max()) {
      return false;
    }
    if (earliest > base_now_) {
      base_now_ = earliest;
    }
  }
  NotifyDue();
  return true;
}

bool SimulatedClock::AdvanceToNextDeadline() {
  std::lock_guard<std::mutex> reg(registry_mu_);
  return AdvanceToNextDeadlineInternal();
}

bool SimulatedClock::WaitForWaiters(size_t n, Micros real_timeout) {
  std::unique_lock<std::mutex> reg(registry_mu_);
  return registry_cv_.wait_for(reg, real_timeout,
                               [&] { return waiters_.size() >= n; });
}

size_t SimulatedClock::WaiterCount() const {
  std::lock_guard<std::mutex> reg(registry_mu_);
  return waiters_.size();
}

ClockSource* SimulatedClock::NodeView(uint64_t node) {
  std::lock_guard<std::mutex> v(views_mu_);
  auto& slot = views_[node];
  if (!slot) {
    slot = std::make_unique<SimNodeClock>(this, node);
  }
  return slot.get();
}

void SimulatedClock::StepNode(uint64_t node, Micros delta) {
  {
    std::lock_guard<std::mutex> t(time_mu_);
    NodeSkew& s = skew_[node];
    if (s.anchor_base == TimePoint()) {
      s.anchor_value = base_now_;
      s.anchor_base = base_now_;
    }
    const TimePoint current = NowForLocked(node);
    s.anchor_value = current + delta;
    s.anchor_base = base_now_;
  }
  // A forward step can make node-local deadlines due right now.
  std::lock_guard<std::mutex> reg(registry_mu_);
  ++churn_;
  registry_cv_.notify_all();
  NotifyDue();
}

void SimulatedClock::SetNodeDrift(uint64_t node, double rate) {
  {
    std::lock_guard<std::mutex> t(time_mu_);
    NodeSkew& s = skew_[node];
    if (s.anchor_base == TimePoint()) {
      s.anchor_value = base_now_;
      s.anchor_base = base_now_;
    }
    const TimePoint current = NowForLocked(node);
    s.anchor_value = current;
    s.anchor_base = base_now_;
    s.drift = rate < kMinDrift ? kMinDrift : rate;
  }
  std::lock_guard<std::mutex> reg(registry_mu_);
  ++churn_;
  registry_cv_.notify_all();
  NotifyDue();
}

void SimulatedClock::StartAutoStep(Micros quiet) {
  StopAutoStep();
  {
    std::lock_guard<std::mutex> reg(registry_mu_);
    auto_stop_ = false;
  }
  auto_stepper_ = std::thread([this, quiet] { AutoStepLoop(quiet); });
}

void SimulatedClock::StopAutoStep() {
  {
    std::lock_guard<std::mutex> reg(registry_mu_);
    auto_stop_ = true;
    registry_cv_.notify_all();
  }
  if (auto_stepper_.joinable()) {
    auto_stepper_.join();
  }
}

// Advance to the next virtual deadline whenever the registry has been
// quiet (no register/deregister/skew churn) for `quiet` of real time:
// every participant is then blocked on virtual time and only a step can
// make progress. Runnable threads reset the quiet window on every wait
// they enter or leave, so the stepper never races active work — and a
// step that can't advance (no finite deadline registered) just re-arms.
void SimulatedClock::AutoStepLoop(Micros quiet) {
  std::unique_lock<std::mutex> reg(registry_mu_);
  uint64_t last_churn = churn_;
  auto last_change = Clock::now();
  while (!auto_stop_) {
    registry_cv_.wait_for(reg, quiet);
    if (auto_stop_) {
      break;
    }
    if (churn_ != last_churn) {
      last_churn = churn_;
      last_change = Clock::now();
      continue;
    }
    if (Clock::now() - last_change >= quiet) {
      AdvanceToNextDeadlineInternal();
      last_change = Clock::now();
    }
  }
}

}  // namespace guardians
