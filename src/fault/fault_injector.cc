#include "src/fault/fault_injector.h"

namespace guardians {

namespace {
thread_local const void* t_fault_scope = nullptr;

constexpr const char* kMutationNames[] = {"append", "put_cell", "truncate",
                                          "delete", "delete_cell"};
constexpr const char* kWhenNames[] = {"before", "after", "torn"};
}  // namespace

std::string DeviceOp::ToString() const {
  return std::string(kMutationNames[static_cast<int>(kind)])
      .append(" ")
      .append(name);
}

std::string CrashPlan::ToString() const {
  return std::string(kWhenNames[static_cast<int>(when)])
      .append(" mutation ")
      .append(std::to_string(mutation));
}

void ScheduledCrash::Fire() const {
  if (on_crash) {
    on_crash();
  }
  throw what;
}

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

void FaultInjector::StartCounting(const void* scope) {
  std::lock_guard<std::mutex> lock(mu_);
  counting_ = true;
  count_scope_ = scope;
  counted_.clear();
  UpdateActiveLocked();
}

std::vector<DeviceOp> FaultInjector::StopCounting() {
  std::lock_guard<std::mutex> lock(mu_);
  counting_ = false;
  count_scope_ = nullptr;
  UpdateActiveLocked();
  return std::move(counted_);
}

Status FaultInjector::Arm(const CrashPlan& plan, const void* scope,
                          std::function<void()> on_crash) {
  std::lock_guard<std::mutex> lock(mu_);
  if (armed_) {
    return Status(Code::kInvalidArgument,
                  "a crash plan is already armed (" + plan_.ToString() + ")");
  }
  if (plan.mutation == 0) {
    return Status(Code::kInvalidArgument, "mutation ordinals are 1-based");
  }
  armed_ = true;
  plan_ = plan;
  seen_ = 0;
  armed_scope_ = scope;
  on_crash_ = std::move(on_crash);
  fired_on_ = DeviceOp{};
  triggered_.store(false);
  UpdateActiveLocked();
  return OkStatus();
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = false;
  armed_scope_ = nullptr;
  on_crash_ = nullptr;
  UpdateActiveLocked();
}

DeviceOp FaultInjector::fired_on() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_on_;
}

void FaultInjector::UpdateActiveLocked() {
  internal::g_fault_layer_active.store(counting_ || armed_,
                                       std::memory_order_relaxed);
}

std::optional<ScheduledCrash> FaultInjector::OnMutation(
    Mutation kind, const std::string& name) {
  // Decided under mu_, with the crash action copied out: a Disarm may
  // follow at once, before the store reaches the instant.
  std::lock_guard<std::mutex> lock(mu_);
  const void* scope = ScopedFaultScope::Current();
  if (counting_ && scope == count_scope_) {
    counted_.push_back(DeviceOp{kind, name});
  }
  if (!armed_ || triggered_.load() || scope != armed_scope_ ||
      ++seen_ != plan_.mutation) {
    return std::nullopt;
  }
  triggered_.store(true);
  fired_on_ = DeviceOp{kind, name};
  return ScheduledCrash{CrashTriggered{plan_, fired_on_}, on_crash_};
}

}  // namespace guardians
