// Crash injection at the stable store's mutation boundaries.
//
// Section 2.2's permanence claim is that recovery rebuilds a consistent
// state no matter which instruction the power failed at. What a power
// failure leaves behind is decided by the stable store alone: the streams
// and cells on the device at that instant. So the schedulable crash
// instants are the device's own mutation boundaries, as in ALICE (Pillai et
// al., OSDI 2014): just before a mutation, just after it, or, for an append
// (the one mutation real media do not make atomically), torn at its
// midpoint. Crashing a node *between* operations never exercises those
// windows; a CrashPlan crashes *inside* one, at a repeatable instant.
//
// Model: StableStore asks the injector at every Append, PutCell, Truncate,
// Delete and DeleteCell. That costs one relaxed atomic load and a predicted
// branch while nothing is counting or armed, so the hook stays compiled
// into release binaries. A plan armed for a scope (a NodeRuntime*) names
// the k-th mutation since arming made by a thread whose ScopedFaultScope
// matches. At its instant the mutating thread runs the crash action
// (NodeRuntime::BeginCrash) and throws CrashTriggered, so no statement
// after the instant executes. Everything already on the device survives;
// everything after the instant never happens. That is the fault model,
// made schedulable.
#ifndef GUARDIANS_SRC_FAULT_FAULT_INJECTOR_H_
#define GUARDIANS_SRC_FAULT_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace guardians {

namespace internal {
// One process-wide flag gates the store's fast path. Relaxed because
// arming happens-before driving the workload through ordinary
// synchronization (thread creation, mutexes).
inline std::atomic<bool> g_fault_layer_active{false};
}  // namespace internal

// True while the injector is counting or armed.
inline bool FaultInjectionActive() {
  return internal::g_fault_layer_active.load(std::memory_order_relaxed);
}

// The stable-store operations a crash can be scheduled around.
enum class Mutation : uint8_t { kAppend, kPutCell, kTruncate, kDelete,
                                kDeleteCell };

// One mutation as the device saw it: its kind and the stream or cell it
// names.
struct DeviceOp {
  Mutation kind = Mutation::kAppend;
  std::string name;

  bool operator==(const DeviceOp&) const = default;
  std::string ToString() const;  // e.g. "append node/dedup.log"
};

// Where a plan's crash lands on its mutation.
enum class CrashWhen : uint8_t {
  kBefore,  // none of the mutation reaches the device
  kAfter,   // all of it does
  kTorn,    // an append's first half does; other mutations are atomic, so
            // for them this is kBefore
};

// One schedule: crash at `when` the `mutation`-th (1-based) mutation made
// in the armed scope since arming.
struct CrashPlan {
  uint64_t mutation = 1;
  CrashWhen when = CrashWhen::kBefore;

  bool operator==(const CrashPlan&) const = default;
  std::string ToString() const;  // e.g. "after mutation 5"
};

// Thrown on the mutating thread at the plan's instant, after the crash
// action has run. Unwinds the doomed thread so the operation in progress
// is abandoned mid-flight; Guardian::Fork and NodeRuntime's entry points
// catch it.
struct CrashTriggered {
  CrashPlan plan;
  DeviceOp op;
};

// The crash an armed plan scheduled on one mutation. The store calls Fire()
// at the instant the plan names.
struct ScheduledCrash {
  CrashTriggered what;
  std::function<void()> on_crash;

  // The simulated power failure: take the node down (mailboxes close, no
  // further effect reaches the device from it), then unwind this thread.
  [[noreturn]] void Fire() const;
};

// The calling process's fault scope (ProcessLocals): which node's stable-storage work it is
// doing. Guardian processes and NodeRuntime entry points set it to the
// owning NodeRuntime*, so mutations are attributed to the right node even
// though the injector is process-wide.
class ScopedFaultScope {
 public:
  explicit ScopedFaultScope(const void* scope);
  ~ScopedFaultScope();

  ScopedFaultScope(const ScopedFaultScope&) = delete;
  ScopedFaultScope& operator=(const ScopedFaultScope&) = delete;

  static const void* Current();

 private:
  const void* previous_;
};

// Process-wide singleton: at most one armed plan and at most one counting
// window at a time (the explorer runs schedules sequentially; concurrent
// Systems mutating from other scopes are simply not matched).
class FaultInjector {
 public:
  static FaultInjector& Instance();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Counting window: record every mutation attributed to `scope`, in order,
  // until StopCounting returns them. The explorer's baseline run uses this
  // to learn the schedule space.
  void StartCounting(const void* scope);
  std::vector<DeviceOp> StopCounting();

  // Arm one plan: at its instant, a thread scoped to `scope` runs
  // `on_crash` (typically NodeRuntime::BeginCrash) and then throws
  // CrashTriggered. Fails if the plan names mutation 0 or one is already
  // armed.
  Status Arm(const CrashPlan& plan, const void* scope,
             std::function<void()> on_crash);
  void Disarm();
  // True once the armed plan has fired (it fires at most once per Arm).
  bool triggered() const { return triggered_.load(); }
  // The mutation the armed plan fired on; meaningful once triggered().
  DeviceOp fired_on() const;

  // StableStore's hook, called while FaultInjectionActive(): the crash the
  // armed plan scheduled on this mutation, if any.
  std::optional<ScheduledCrash> OnMutation(Mutation kind,
                                           const std::string& name);

 private:
  FaultInjector() = default;
  void UpdateActiveLocked();

  mutable std::mutex mu_;

  bool counting_ = false;
  const void* count_scope_ = nullptr;
  std::vector<DeviceOp> counted_;

  bool armed_ = false;
  CrashPlan plan_;
  uint64_t seen_ = 0;  // mutations in the armed scope since arming
  const void* armed_scope_ = nullptr;
  std::function<void()> on_crash_;
  DeviceOp fired_on_;
  std::atomic<bool> triggered_{false};
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_FAULT_FAULT_INJECTOR_H_
