#include "src/net/flow.h"

#include <algorithm>
#include <string>
#include <utility>

namespace guardians {

FlowSlot& FlowSlot::operator=(FlowSlot&& other) noexcept {
  if (this != &other) {
    Release();
    controller_ = other.controller_;
    to_ = other.to_;
    epoch_ = other.epoch_;
    ok_ = other.ok_;
    other.controller_ = nullptr;
    other.ok_ = false;
  }
  return *this;
}

void FlowSlot::Success() {
  if (controller_ != nullptr) {
    controller_->ReleaseSlot(to_, epoch_, /*success=*/true);
    controller_ = nullptr;
  }
}

void FlowSlot::Release() {
  if (controller_ != nullptr) {
    controller_->ReleaseSlot(to_, epoch_, /*success=*/false);
    controller_ = nullptr;
  }
}

FlowController::FlowController(FlowControlConfig config,
                               MetricsRegistry* metrics, TraceBuffer* traces,
                               uint32_t node, const ClockSource* clock)
    : config_(config), traces_(traces), node_(node),
      clock_(clock != nullptr ? clock : WallClock::Get()) {
  if (metrics != nullptr) {
    credits_granted_ = metrics->counter("flow.credits_granted");
    implicit_credits_ = metrics->counter("flow.implicit_credits");
    full_nacks_ = metrics->counter("flow.full_nacks");
    sends_deferred_ = metrics->counter("flow.sends_deferred");
    acquire_timeouts_ = metrics->counter("flow.acquire_timeouts");
    defer_wait_us_ = metrics->histogram("flow.defer_wait_us");
    window_hist_ = metrics->histogram(
        "flow.window", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
  }
}

FlowController::Entry& FlowController::EntryFor(const PortName& to) {
  auto it = entries_.find(to);
  if (it == entries_.end()) {
    Entry entry;
    entry.window = config_.initial_window;
    it = entries_.emplace(to, entry).first;
  }
  return it->second;
}

FlowSlot FlowController::Acquire(const PortName& to, const Deadline& deadline) {
  FlowSlot slot;
  if (!config_.enabled) {
    slot.ok_ = true;
    return slot;
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) {
    slot.ok_ = true;
    return slot;
  }

  const TimePoint started = clock_->Now();
  bool deferred = false;
  for (;;) {
    // Re-look-up each iteration: a concurrent Reset() invalidates
    // references into entries_.
    Entry& entry = EntryFor(to);
    const TimePoint now = clock_->Now();
    const bool congested = now < entry.congested_until;
    if (!congested &&
        static_cast<double>(entry.in_flight) < entry.window) {
      ++entry.in_flight;
      slot.controller_ = this;
      slot.to_ = to;
      slot.epoch_ = epoch_;
      slot.ok_ = true;
      if (window_hist_ != nullptr) {
        window_hist_->Observe(static_cast<uint64_t>(entry.window));
      }
      break;
    }
    if (deadline.Expired()) {
      if (acquire_timeouts_ != nullptr) acquire_timeouts_->Inc();
      break;  // slot.ok_ stays false: the send is abandoned unsent
    }
    if (!deferred) {
      deferred = true;
      if (sends_deferred_ != nullptr) sends_deferred_->Inc();
      if (traces_ != nullptr) {
        traces_->Record(CurrentTraceId(), node_, "flow.defer",
                        "window closed for " + to.ToString());
      }
    }
    // Wake when feedback arrives or — during a congested hold — when the
    // hold elapses; always bounded by the caller's deadline. The predicate
    // form matters on a simulated clock, which drops mu_ while it
    // registers the wait: feedback in that window moves feedback_seq_,
    // where its notify alone would be lost.
    TimePoint wake = deadline.IsInfinite() ? TimePoint::max() : deadline.at();
    if (congested) wake = std::min(wake, entry.congested_until);
    const uint64_t seen = feedback_seq_;
    clock_->WaitUntil(cv_, lock, wake,
                      [this, seen] { return feedback_seq_ != seen; });
    if (shutdown_) {
      slot.ok_ = true;  // unaccounted: the node is going down anyway
      break;
    }
  }
  if (deferred && defer_wait_us_ != nullptr) {
    defer_wait_us_->Observe(
        static_cast<uint64_t>(
            std::max<int64_t>(0, ToMicros(clock_->Now() - started))));
  }
  return slot;
}

void FlowController::ReleaseSlot(const PortName& to, uint64_t epoch,
                                 bool success) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch != epoch_) return;  // window state was Reset() meanwhile
  auto it = entries_.find(to);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  if (entry.in_flight > 0) --entry.in_flight;
  if (success) {
    if (implicit_credits_ != nullptr) implicit_credits_->Inc();
    Grow(entry);
  }
  NotifyLocked();
}

void FlowController::NotifyLocked() {
  ++feedback_seq_;
  cv_.notify_all();
}

void FlowController::Grow(Entry& entry) {
  entry.window = std::min(
      entry.window + config_.additive_increase / std::max(entry.window, 1.0),
      config_.max_window);
  if (entry.capacity_hint > 0) {
    entry.window = std::min(
        entry.window,
        std::max(static_cast<double>(entry.capacity_hint),
                 config_.min_window));
  }
}

void FlowController::OnCredit(const PortName& port, uint32_t queue_depth,
                              uint32_t capacity) {
  OnCreditBatch(port, queue_depth, capacity, 1);
}

void FlowController::OnCreditBatch(const PortName& port, uint32_t queue_depth,
                                   uint32_t capacity, uint32_t credits) {
  (void)queue_depth;
  if (!config_.enabled || credits == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;
  Entry& entry = EntryFor(port);
  if (capacity > 0) entry.capacity_hint = capacity;
  entry.congested_until = TimePoint{};
  entry.reopen = Micros{0};
  if (credits_granted_ != nullptr) credits_granted_->Inc(credits);
  for (uint32_t i = 0; i < credits; ++i) {
    Grow(entry);
  }
  NotifyLocked();
}

void FlowController::OnFullNack(const PortName& port, uint32_t queue_depth,
                                uint32_t capacity, uint64_t trace_id) {
  if (!config_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;
  Entry& entry = EntryFor(port);
  if (capacity > 0) entry.capacity_hint = capacity;
  entry.window =
      std::max(entry.window * config_.decrease_factor, config_.min_window);
  entry.reopen = entry.reopen.count() == 0
                     ? config_.reopen_initial
                     : std::min(entry.reopen * 2, config_.reopen_max);
  entry.congested_until = clock_->Now() + entry.reopen;
  if (full_nacks_ != nullptr) full_nacks_->Inc();
  if (traces_ != nullptr) {
    traces_->Record(trace_id, node_, "flow.nack",
                    port.ToString() + " depth=" + std::to_string(queue_depth));
  }
  // Waiters re-evaluate: the window shrank but congested_until also moved,
  // so they mostly re-arm their timed wait.
  NotifyLocked();
}

void FlowController::OnLocalSuccess(const PortName& port) {
  if (!config_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;
  Entry& entry = EntryFor(port);
  if (implicit_credits_ != nullptr) implicit_credits_->Inc();
  Grow(entry);
  NotifyLocked();
}

double FlowController::WindowFor(const PortName& to) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(to);
  return it == entries_.end() ? config_.initial_window : it->second.window;
}

size_t FlowController::InFlightFor(const PortName& to) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(to);
  return it == entries_.end() ? 0 : it->second.in_flight;
}

void FlowController::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
  NotifyLocked();
}

void FlowController::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  ++epoch_;
  shutdown_ = false;
  NotifyLocked();
}

}  // namespace guardians
