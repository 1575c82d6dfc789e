#include "src/fault/crashpoint.h"

#include <algorithm>

namespace guardians {

namespace {
thread_local const void* t_fault_scope = nullptr;
}  // namespace

ScopedFaultScope::ScopedFaultScope(const void* scope)
    : previous_(t_fault_scope) {
  t_fault_scope = scope;
}

ScopedFaultScope::~ScopedFaultScope() { t_fault_scope = previous_; }

const void* ScopedFaultScope::Current() { return t_fault_scope; }

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* instance = new FaultInjector();
  return *instance;
}

void FaultInjector::Register(CrashPoint* point) {
  std::lock_guard<std::mutex> lock(mu_);
  points_.push_back(point);
}

std::vector<std::string> FaultInjector::SiteNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(points_.size());
  for (const CrashPoint* point : points_) {
    names.emplace_back(point->name());
  }
  std::sort(names.begin(), names.end());
  return names;
}

void FaultInjector::StartCounting(const void* scope) {
  std::lock_guard<std::mutex> lock(mu_);
  counting_ = true;
  count_scope_ = scope;
  counts_.clear();
  UpdateActiveLocked();
}

std::map<std::string, uint64_t> FaultInjector::StopCounting() {
  std::lock_guard<std::mutex> lock(mu_);
  counting_ = false;
  count_scope_ = nullptr;
  UpdateActiveLocked();
  return std::move(counts_);
}

Status FaultInjector::Arm(const CrashPlan& plan, const void* scope,
                          std::function<void()> on_crash) {
  std::lock_guard<std::mutex> lock(mu_);
  if (armed_point_ != nullptr) {
    return Status(Code::kInvalidArgument,
                  "a crash plan is already armed (" +
                      std::string(armed_point_->name()) + ")");
  }
  if (plan.nth_hit == 0) {
    return Status(Code::kInvalidArgument, "nth_hit is 1-based");
  }
  auto it = std::find_if(points_.begin(), points_.end(),
                         [&plan](const CrashPoint* p) {
                           return plan.point == p->name();
                         });
  if (it == points_.end()) {
    return Status(Code::kNotFound,
                  "no crashpoint named '" + plan.point + "'");
  }
  armed_point_ = *it;
  armed_nth_ = plan.nth_hit;
  armed_hits_ = 0;
  armed_scope_ = scope;
  on_crash_ = std::move(on_crash);
  triggered_.store(false);
  UpdateActiveLocked();
  return OkStatus();
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_point_ = nullptr;
  armed_nth_ = 0;
  armed_hits_ = 0;
  armed_scope_ = nullptr;
  on_crash_ = nullptr;
  UpdateActiveLocked();
}

void FaultInjector::UpdateActiveLocked() {
  internal::g_fault_layer_active.store(counting_ || armed_point_ != nullptr,
                                       std::memory_order_relaxed);
}

void FaultInjector::OnHit(CrashPoint* point) {
  std::function<void()> on_crash;
  uint64_t ordinal = 0;
  bool fire = false;  // decided under mu_: a Disarm may follow at once
  {
    std::lock_guard<std::mutex> lock(mu_);
    const void* scope = ScopedFaultScope::Current();
    if (counting_ && scope == count_scope_) {
      ++counts_[point->name()];
    }
    if (armed_point_ == point && !triggered_.load() &&
        scope == armed_scope_) {
      ordinal = ++armed_hits_;
      if (ordinal == armed_nth_) {
        triggered_.store(true);
        on_crash = on_crash_;
        fire = true;
      }
    }
  }
  if (fire) {
    // The simulated power failure: take the node down (mailboxes close, no
    // further effect reaches stable storage from this node), then unwind
    // this thread so nothing after the site executes.
    if (on_crash) {
      on_crash();
    }
    throw CrashPointTriggered{point->name(), ordinal};
  }
}

}  // namespace guardians
