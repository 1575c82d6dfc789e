// Lightweight processes (Section 2.1; DESIGN.md §2 and §8).
//
// The paper's processes are CLU's lightweight processes: many sequential
// programs that mostly wait for messages. Here each one is a task, a
// user-space context with its own stack, run by a CarrierPool: one pool per
// System, of one carrier thread per hardware thread. A task that waits
// parks: it switches back to its carrier, which runs the next ready task.
// A task made ready by another task runs next on that task's carrier, so a
// request that passes through a chain of processes hands off in user space
// instead of through a kernel wake per hop.
//
// Every wait a process can reach goes through one park seam, CondVar: a
// condition variable over a std::mutex that parks the calling task, or
// blocks the calling thread when the caller is not a task (a test thread,
// a client's thread, a delivery shard worker). Those foreign threads stay
// OS threads and mix freely with tasks on one CondVar.
//
// Rules the runtime relies on:
//   - a task never parks while holding a runtime mutex: a carrier that
//     blocks on that mutex in the kernel cannot run the holder again;
//   - nothing caches a thread identity or a thread-local's address across a
//     park, since a task may resume on another carrier. Per-process state
//     lives in ProcessLocals, which follows the task;
//   - only idle carriers and foreign threads spin; a task never does.
#ifndef GUARDIANS_SRC_COMMON_TASK_H_
#define GUARDIANS_SRC_COMMON_TASK_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"

namespace guardians {

class CarrierPool;

namespace internal {
struct Task;
struct Carrier;
struct WaitNode;
}  // namespace internal

// State that belongs to a process rather than to the thread running it.
// A task carries its own copy across carriers; a foreign thread has one of
// its own.
struct ProcessLocals {
  // The fault scope (a NodeRuntime*) its stable-storage mutations count in.
  const void* fault_scope = nullptr;
  // The receive credit (DESIGN.md §8): its next Transmit may deliver inline.
  bool receive_credit = false;
  // The causal chain it works in, and the deadline it inherited (§16).
  uint64_t trace_id = 0;
  TimePoint deadline_at = TimePoint::max();
};

// The calling process's locals. Re-read after every call that may park;
// never keep the reference across one.
ProcessLocals& CurrentProcessLocals();

// True when the caller runs on a task.
bool OnTask();

// The park seam: a condition variable over std::mutex that parks a task
// and blocks a foreign thread. Same contract as std::condition_variable,
// including spurious wakeups; a notify with no waiter is one atomic load.
class CondVar {
 public:
  CondVar() = default;
  ~CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(std::unique_lock<std::mutex>& lock) {
    WaitUntil(lock, TimePoint::max());
  }
  template <typename Pred>
  void wait(std::unique_lock<std::mutex>& lock, Pred pred) {
    while (!pred()) {
      wait(lock);
    }
  }
  // False when `deadline` (on the steady clock) passed before a notify.
  bool wait_until(std::unique_lock<std::mutex>& lock, TimePoint deadline) {
    return WaitUntil(lock, deadline);
  }
  template <typename Pred>
  bool wait_until(std::unique_lock<std::mutex>& lock, TimePoint deadline,
                  Pred pred) {
    while (!pred()) {
      if (!WaitUntil(lock, deadline)) {
        return pred();
      }
    }
    return true;
  }

  void notify_one();
  void notify_all();
  // Whether a task or thread is parked on it now (a snapshot).
  bool HasWaiters() const {
    return head_.load(std::memory_order_acquire) != nullptr;
  }

 private:
  bool WaitUntil(std::unique_lock<std::mutex>& lock, TimePoint deadline);
  void Notify(bool all);
  static void Wake(internal::WaitNode* node);
  void Link(internal::WaitNode* node);
  // Unlinks `node` if it is still listed; false when a notify took it.
  bool Unlink(internal::WaitNode* node);

  std::atomic<bool> list_lock_{false};  // guards the list below
  std::atomic<internal::WaitNode*> head_{nullptr};
  internal::WaitNode* tail_ = nullptr;
};

// Park the calling task (block the calling thread) until `deadline` on
// the steady clock: the wall clock's SleepFor.
void SleepUntil(TimePoint deadline);

// Asserts (in debug builds) that no park happens while it is alive: around
// a delivery drain, whose thread-local scratch is per carrier.
class NoParkScope {
 public:
  NoParkScope();
  ~NoParkScope();
  NoParkScope(const NoParkScope&) = delete;
  NoParkScope& operator=(const NoParkScope&) = delete;
};

// One process running as a task on a CarrierPool. Join waits for its body
// to return, parking a task and blocking a thread.
class Process {
 public:
  Process(CarrierPool& pool, std::string name, std::function<void()> body);
  ~Process();  // joins

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  // True once the body has returned.
  bool Done() const;
  void Join();

 private:
  std::unique_ptr<internal::Task> task_;
};

// The carriers of one System: up to hardware_concurrency() threads, started
// as work first needs them, that run its processes as tasks. A task made ready by a task goes to the waker's
// carrier's run-next slot; one made ready by a foreign thread goes to a
// shared queue. An idle carrier takes its run-next slot, then the shared
// queue, then wall-clock timers that are due, then another carrier's
// run-next slot that waited a round; failing all, it spins briefly when
// its recent idle waits were short (never on a simulated clock), then
// parks.
class CarrierPool {
 public:
  // `clock` tells whether the system runs on simulated time, where idle
  // carriers never spin. Null: the wall clock.
  explicit CarrierPool(size_t carriers = DefaultCarriers(),
                       const ClockSource* clock = nullptr);
  // Every process must have been joined.
  ~CarrierPool();

  CarrierPool(const CarrierPool&) = delete;
  CarrierPool& operator=(const CarrierPool&) = delete;

  static size_t DefaultCarriers();

  size_t carriers() const { return carriers_.size(); }

  // Counters (monotonic) of how carriers found work and waited.
  struct Stats {
    uint64_t handoffs = 0;  // tasks run from the owner's run-next slot
    uint64_t queued = 0;    // tasks run from the shared queue
    uint64_t steals = 0;    // run-next slots taken by another carrier
    uint64_t timers = 0;    // timed parks resumed at their deadline
    uint64_t spun = 0;      // idle waits that ended mid-spin
    uint64_t parked = 0;    // idle waits that parked the carrier
  };
  Stats stats() const;

 private:
  friend class Process;
  friend class CondVar;
  friend void SleepUntil(TimePoint);
  friend struct internal::Task;

  struct Stack {
    void* base = nullptr;  // the mapping, guard page first
    size_t size = 0;       // mapping size
  };

  void Start(internal::Task* task);
  // Make a parked task runnable: the waker's run-next slot when the waker
  // is a task of this pool, the shared queue otherwise.
  void Ready(internal::Task* task);
  void PushShared(internal::Task* task);
  void WakeIdleCarrier();
  // Wakes `carrier` (parked; idle_mu_ held).
  void WakeLocked(internal::Carrier* carrier);
  internal::Task* PopShared();
  void CarrierLoop(internal::Carrier& self);
  internal::Task* FindWork(internal::Carrier& self, bool may_steal);
  internal::Task* IdleWait(internal::Carrier& self);
  void RunTask(internal::Carrier& self, internal::Task* task);
  void FinishTask(internal::Task* task);
  // Wall-clock timed parks.
  void AddTimer(internal::WaitNode* node);
  void RemoveTimer(internal::WaitNode* node);
  // The timer heap's moves (timer_mu_ held): restore the heap order around
  // index `i`, and take the node at `i` out of the heap.
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void RemoveAtLocked(size_t i);
  // Moves due timers' tasks to the shared queue; true when any was due.
  bool FireDueTimers();
  Stack TakeStack();
  void ReturnStack(Stack stack);

  const bool simulated_;
  std::vector<std::unique_ptr<internal::Carrier>> carriers_;
  std::atomic<bool> stopping_{false};

  // The shared queue (intrusive FIFO through Task::next).
  std::mutex queue_mu_;
  internal::Task* queue_head_ = nullptr;
  internal::Task* queue_tail_ = nullptr;
  std::atomic<size_t> queued_{0};

  // Idle carriers: at most kMaxSpinners spin; the rest park, each on its
  // own condition variable, and the last to park is the first woken (its
  // recent waits are the shortest, so it is the one that may spin next).
  // One parked carrier, the watcher, parks only until the earliest timer.
  std::atomic<int> spinners_{0};
  std::mutex idle_mu_;
  std::vector<internal::Carrier*> idle_;   // guarded by idle_mu_
  size_t started_ = 0;                     // guarded by idle_mu_
  internal::Carrier* watcher_ = nullptr;   // guarded by idle_mu_
  std::atomic<int64_t> watched_ns_{0};     // the watcher's wake instant

  // Wall-clock timers: a binary heap on deadline, indexed from the nodes.
  std::mutex timer_mu_;
  std::vector<internal::WaitNode*> timers_;
  std::atomic<int64_t> earliest_ns_;       // INT64_MAX: none

  std::mutex stacks_mu_;
  std::vector<Stack> free_stacks_;

  std::atomic<uint64_t> handoffs_{0};
  std::atomic<uint64_t> from_queue_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> timer_wakes_{0};
  std::atomic<uint64_t> spun_{0};
  std::atomic<uint64_t> parked_count_{0};
};

// The set of processes of one guardian. Fork adds a process; JoinAll joins
// every process forked so far (processes may fork further processes while
// JoinAll runs; those are joined too).
class ProcessGroup {
 public:
  explicit ProcessGroup(CarrierPool& pool) : pool_(pool) {}
  ~ProcessGroup();

  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;

  void Fork(std::string name, std::function<void()> body);
  void JoinAll();
  // Join and release processes whose bodies have returned. Guardians that
  // fork one process per request (Figure 1c) call this periodically so the
  // group doesn't grow without bound.
  void Reap();
  size_t count() const;

 private:
  CarrierPool& pool_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Process>> processes_;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_COMMON_TASK_H_
