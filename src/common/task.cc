#include "src/common/task.h"

#include <pthread.h>
#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/common/clock.h"
#include "src/common/context_switch.h"
#include "src/common/spin_park.h"

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#define GUARDIANS_TSAN 1
#endif
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#define GUARDIANS_ASAN 1
#endif

namespace guardians {

namespace {

// A task's stack: lazily committed, with a guard page below it. The
// sanitizers' instrumentation needs more room per frame.
#if defined(GUARDIANS_TSAN) || defined(GUARDIANS_ASAN)
constexpr size_t kStackSize = size_t{1} << 20;
#else
constexpr size_t kStackSize = size_t{256} << 10;
#endif
constexpr size_t kGuardSize = 4096;
// Free stacks a pool keeps for the next fork.
constexpr size_t kMaxFreeStacks = 64;
// Idle carriers that may spin at once.
constexpr int kMaxSpinners = 1;
constexpr size_t kNoIndex = std::numeric_limits<size_t>::max();
constexpr int64_t kNoTimer = std::numeric_limits<int64_t>::max();
constexpr int64_t kNoWatcher = std::numeric_limits<int64_t>::min();

int64_t ToNs(TimePoint t) {
  if (t == TimePoint::max()) {
    return kNoTimer;
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

int64_t NowNs() { return ToNs(Clock::now()); }

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// How a foreign thread blocks: its own mutex and condition variable. A
// claimer sets the node's `signalled` under `mu` and notifies before it
// unlocks, so the thread may leave (and end) as soon as it sees it.
struct ThreadParker {
  std::mutex mu;
  std::condition_variable cv;
};

thread_local ThreadParker t_parker;
thread_local internal::Carrier* t_carrier = nullptr;
thread_local ProcessLocals t_thread_locals;
thread_local int t_no_park = 0;

}  // namespace

namespace internal {

enum TaskState : int {
  kRunning,
  kParking,    // switching out to wait; a wake now is a kWokeEarly
  kParked,     // suspended; the one wake makes it runnable
  kWokeEarly,  // woken before its switch out completed
  kRunnable,   // queued or in a run-next slot
};

struct Task {
  CarrierPool* pool = nullptr;
  std::string name;
  std::function<void()> body;
  CarrierPool::Stack stack;
  TaskContext context;
  std::atomic<int> state{kRunnable};
  bool finished = false;  // set by the task as it switches out for good
  Carrier* carrier = nullptr;  // the carrier running it now
  Task* next = nullptr;        // shared-queue link
  ProcessLocals locals;
  // Join.
  std::mutex done_mu;
  CondVar done_cv;
  std::atomic<bool> done{false};
#if defined(GUARDIANS_TSAN)
  void* tsan_fiber = nullptr;
#endif
#if defined(GUARDIANS_ASAN)
  void* asan_fake_stack = nullptr;
#endif
};

struct Carrier {
  CarrierPool* pool = nullptr;
  std::thread thread;
  TaskContext context;
  Task* current = nullptr;
  std::atomic<Task*> run_next{nullptr};
  // Parking; guarded by the pool's idle_mu_.
  std::condition_variable cv;
  bool woken = false;
  // When a waker handed it work: the end of its idle wait, without the
  // kernel's wake-up latency, which would keep the moving average of a
  // carrier fed every ~10 us above the spin budget.
  TimePoint woken_at{};
  // Run-next slots of the other carriers seen on the last spin round: one
  // still there a round later is stolen.
  std::vector<Task*> seen;
#if defined(GUARDIANS_TSAN)
  void* tsan_fiber = nullptr;
#endif
#if defined(GUARDIANS_ASAN)
  void* asan_fake_stack = nullptr;
  const void* stack_bottom = nullptr;
  size_t stack_size = 0;
#endif
};

// One blocked party: a parked task or a blocked foreign thread. Lives on
// the waiter's stack; whoever claims it (a notify or a timer) wakes it,
// and nothing touches it once the waiter has unlinked it from both lists.
struct WaitNode {
  Task* task = nullptr;  // null: a foreign thread (t_parker)
  ThreadParker* parker = nullptr;
  std::atomic<bool> claimed{false};
  bool signalled = false;  // foreign thread: set under parker->mu
  bool by_timer = false;   // task: claimed at its deadline
  // CondVar list; guarded by its list lock.
  WaitNode* prev = nullptr;
  WaitNode* next = nullptr;
  bool linked = false;
  // The pool's timer heap; guarded by its timer_mu_.
  int64_t deadline_ns = kNoTimer;
  size_t heap_index = kNoIndex;
};

}  // namespace internal

using internal::Carrier;
using internal::Task;
using internal::WaitNode;

namespace {

// Re-read on every use: a task may resume on another carrier, so no
// caller may keep what these return across a park.
__attribute__((noinline)) Carrier* CurrentCarrier() { return t_carrier; }

__attribute__((noinline)) Task* CurrentTask() {
  Carrier* carrier = CurrentCarrier();
  return carrier != nullptr ? carrier->current : nullptr;
}

void AssertMayPark() {
  assert(t_no_park == 0 && "a park inside a NoParkScope");
}

// Switch from the running task back to its carrier. Returns when a carrier
// resumes the task (not for a finished one).
void SwitchOut(Task* task) {
  Carrier* carrier = task->carrier;
#if defined(GUARDIANS_TSAN)
  __tsan_switch_to_fiber(carrier->tsan_fiber, 0);
#endif
#if defined(GUARDIANS_ASAN)
  __sanitizer_start_switch_fiber(
      task->finished ? nullptr : &task->asan_fake_stack,
      carrier->stack_bottom, carrier->stack_size);
#endif
  internal::SwitchContext(task->context, carrier->context);
#if defined(GUARDIANS_ASAN)
  __sanitizer_finish_switch_fiber(task->asan_fake_stack, nullptr, nullptr);
#endif
}

// The bottom frame of every task.
void TaskMain(void* arg) {
  Task* task = static_cast<Task*>(arg);
#if defined(GUARDIANS_ASAN)
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  // An exception that escapes a process ends the program, as it would
  // escape a std::thread.
  try {
    task->body();
  } catch (...) {
    std::fputs("uncaught exception in a process\n", stderr);
    std::abort();
  }
  task->body = nullptr;  // its captures die on the task's own stack
  task->finished = true;
  SwitchOut(task);
  std::abort();  // a finished task is never resumed
}

// Park the running task: the caller has published how it will be woken.
void ParkTask(Task* task) {
  AssertMayPark();
  SwitchOut(task);
}

// The task's state is kParking before its wake becomes reachable.
void BeginPark(Task* task) {
  task->state.store(internal::kParking, std::memory_order_relaxed);
}

}  // namespace

ProcessLocals& CurrentProcessLocals() {
  Task* task = CurrentTask();
  return task != nullptr ? task->locals : t_thread_locals;
}

bool OnTask() { return CurrentTask() != nullptr; }

NoParkScope::NoParkScope() { ++t_no_park; }
NoParkScope::~NoParkScope() { --t_no_park; }

// ------------------------------------------------------------------ CondVar

namespace {
class ListGuard {
 public:
  explicit ListGuard(std::atomic<bool>& lock) : lock_(lock) {
    int spins = 0;
    while (lock_.exchange(true, std::memory_order_acquire)) {
      while (lock_.load(std::memory_order_relaxed)) {
        if (++spins < 64) {
          CpuRelax();
        } else {
          std::this_thread::yield();
        }
      }
    }
  }
  ~ListGuard() { lock_.store(false, std::memory_order_release); }
  ListGuard(const ListGuard&) = delete;
  ListGuard& operator=(const ListGuard&) = delete;

 private:
  std::atomic<bool>& lock_;
};

}  // namespace

// Wake a claimed node's waiter. A task's wake may free the node at once.
void CondVar::Wake(WaitNode* node) {
  if (node->task != nullptr) {
    node->task->pool->Ready(node->task);
    return;
  }
  ThreadParker* parker = node->parker;
  std::lock_guard<std::mutex> hold(parker->mu);
  node->signalled = true;
  parker->cv.notify_one();
}

void CondVar::Link(WaitNode* node) {
  ListGuard guard(list_lock_);
  WaitNode* head = head_.load(std::memory_order_relaxed);
  node->prev = tail_;
  node->next = nullptr;
  if (tail_ != nullptr) {
    tail_->next = node;
  } else {
    head = node;
  }
  tail_ = node;
  node->linked = true;
  head_.store(head, std::memory_order_release);
}

bool CondVar::Unlink(WaitNode* node) {
  ListGuard guard(list_lock_);
  if (!node->linked) {
    return false;
  }
  if (node->prev != nullptr) {
    node->prev->next = node->next;
  } else {
    head_.store(node->next, std::memory_order_relaxed);
  }
  if (node->next != nullptr) {
    node->next->prev = node->prev;
  } else {
    tail_ = node->prev;
  }
  node->linked = false;
  return true;
}

void CondVar::notify_one() { Notify(false); }
void CondVar::notify_all() { Notify(true); }

void CondVar::Notify(bool all) {
  if (head_.load(std::memory_order_acquire) == nullptr) {
    return;
  }
  // Claim under the list lock, wake after it: a claimed node stays alive
  // until its waiter is woken, and a foreign thread's parker is reached
  // only under the parker's own mutex.
  WaitNode* claimed = nullptr;
  WaitNode** tail = &claimed;
  {
    ListGuard guard(list_lock_);
    WaitNode* node = head_.load(std::memory_order_relaxed);
    while (node != nullptr) {
      WaitNode* next = node->next;
      node->linked = false;
      const bool mine = !node->claimed.exchange(true);
      if (mine) {
        node->next = nullptr;
        *tail = node;
        tail = &node->next;
      }
      node = next;
      if (mine && !all) {
        break;
      }
    }
    head_.store(node, std::memory_order_relaxed);
    if (node != nullptr) {
      node->prev = nullptr;
    } else {
      tail_ = nullptr;
    }
  }
  while (claimed != nullptr) {
    WaitNode* next = claimed->next;
    Wake(claimed);
    claimed = next;
  }
}

bool CondVar::WaitUntil(std::unique_lock<std::mutex>& lock,
                        TimePoint deadline) {
  AssertMayPark();
  WaitNode node;
  node.deadline_ns = ToNs(deadline);
  Task* task = CurrentTask();
  if (task != nullptr) {
    node.task = task;
    BeginPark(task);
    Link(&node);
    if (node.deadline_ns != kNoTimer) {
      task->pool->AddTimer(&node);
    }
    lock.unlock();
    ParkTask(task);
    if (node.deadline_ns != kNoTimer) {
      task->pool->RemoveTimer(&node);
      if (node.by_timer) {
        Unlink(&node);  // a notify that claimed it unlinked it already
      }
    }
    lock.lock();
    return !node.by_timer;
  }
  ThreadParker* parker = &t_parker;
  node.parker = parker;
  Link(&node);
  lock.unlock();
  bool notified = true;
  {
    std::unique_lock<std::mutex> hold(parker->mu);
    while (!node.signalled) {
      if (deadline == TimePoint::max()) {
        parker->cv.wait(hold);
      } else if (parker->cv.wait_until(hold, deadline) ==
                     std::cv_status::timeout &&
                 !node.signalled) {
        if (!node.claimed.exchange(true)) {
          notified = false;  // the deadline claimed it
          break;
        }
        // A notify claimed it first and is on its way: wait for it.
        parker->cv.wait(hold, [&node] { return node.signalled; });
      }
    }
  }
  if (!notified) {
    Unlink(&node);
  }
  lock.lock();
  return notified;
}

void SleepUntil(TimePoint deadline) {
  AssertMayPark();
  Task* task = CurrentTask();
  if (task == nullptr) {
    std::this_thread::sleep_until(deadline);
    return;
  }
  if (deadline <= Clock::now()) {
    return;
  }
  WaitNode node;
  node.task = task;
  node.deadline_ns = ToNs(deadline);
  BeginPark(task);
  task->pool->AddTimer(&node);
  ParkTask(task);
  task->pool->RemoveTimer(&node);
}

// -------------------------------------------------------------- CarrierPool

size_t CarrierPool::DefaultCarriers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

CarrierPool::CarrierPool(size_t carriers, const ClockSource* clock)
    : simulated_(clock != nullptr && clock->is_simulated()),
      earliest_ns_(kNoTimer) {
  watched_ns_.store(kNoWatcher);
  carriers = std::max<size_t>(carriers, 1);
  carriers_.reserve(carriers);
  for (size_t i = 0; i < carriers; ++i) {
    auto carrier = std::make_unique<Carrier>();
    carrier->pool = this;
    carrier->seen.assign(carriers, nullptr);
    carriers_.push_back(std::move(carrier));
  }
}

CarrierPool::~CarrierPool() {
  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    for (auto& carrier : carriers_) {
      carrier->cv.notify_all();
    }
  }
  for (auto& carrier : carriers_) {
    if (carrier->thread.joinable()) {
      carrier->thread.join();
    }
  }
  assert(queued_.load() == 0 && "a pool destroyed with runnable tasks");
  for (const Stack& stack : free_stacks_) {
    munmap(stack.base, stack.size);
  }
}

CarrierPool::Stats CarrierPool::stats() const {
  Stats s;
  s.handoffs = handoffs_.load(std::memory_order_relaxed);
  s.queued = from_queue_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.timers = timer_wakes_.load(std::memory_order_relaxed);
  s.spun = spun_.load(std::memory_order_relaxed);
  s.parked = parked_count_.load(std::memory_order_relaxed);
  return s;
}

CarrierPool::Stack CarrierPool::TakeStack() {
  {
    std::lock_guard<std::mutex> lock(stacks_mu_);
    if (!free_stacks_.empty()) {
      Stack stack = free_stacks_.back();
      free_stacks_.pop_back();
      return stack;
    }
  }
  Stack stack;
  stack.size = kStackSize + kGuardSize;
  // MAP_NORESERVE: pages are committed as the task first touches them.
  stack.base = mmap(nullptr, stack.size, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1, 0);
  if (stack.base == MAP_FAILED ||
      mprotect(stack.base, kGuardSize, PROT_NONE) != 0) {
    std::perror("CarrierPool: task stack");
    std::abort();
  }
  return stack;
}

void CarrierPool::ReturnStack(Stack stack) {
  {
    std::lock_guard<std::mutex> lock(stacks_mu_);
    if (free_stacks_.size() < kMaxFreeStacks) {
      free_stacks_.push_back(stack);
      return;
    }
  }
  munmap(stack.base, stack.size);
}

void CarrierPool::Start(Task* task) {
  task->stack = TakeStack();
  internal::InitContext(task->context,
                        static_cast<char*>(task->stack.base) + kGuardSize,
                        kStackSize, &TaskMain, task);
#if defined(GUARDIANS_TSAN)
  task->tsan_fiber = __tsan_create_fiber(0);
  __tsan_set_fiber_name(task->tsan_fiber, task->name.c_str());
#endif
  task->state.store(internal::kRunnable, std::memory_order_relaxed);
  Carrier* carrier = CurrentCarrier();
  if (carrier != nullptr && carrier->pool == this) {
    if (Task* kicked = carrier->run_next.exchange(task)) {
      PushShared(kicked);
    }
    return;
  }
  PushShared(task);
}

void CarrierPool::Ready(Task* task) {
  int state = task->state.load(std::memory_order_acquire);
  for (;;) {
    if (state == internal::kParking) {
      // Its carrier finishes the switch and runs it again.
      if (task->state.compare_exchange_weak(state, internal::kWokeEarly,
                                            std::memory_order_acq_rel)) {
        return;
      }
    } else if (state == internal::kParked) {
      if (task->state.compare_exchange_weak(state, internal::kRunnable,
                                            std::memory_order_acq_rel)) {
        break;
      }
    } else {
      assert(false && "a wake for a task that is not parked");
      return;
    }
  }
  // Made ready by a task (or a carrier's own bookkeeping) of this pool: it
  // runs next on that carrier. Otherwise it waits in the shared queue.
  Carrier* carrier = CurrentCarrier();
  if (carrier != nullptr && carrier->pool == this) {
    if (Task* kicked = carrier->run_next.exchange(task)) {
      PushShared(kicked);
    }
    return;
  }
  PushShared(task);
}

void CarrierPool::PushShared(Task* task) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    task->next = nullptr;
    if (queue_tail_ != nullptr) {
      queue_tail_->next = task;
    } else {
      queue_head_ = task;
    }
    queue_tail_ = task;
    queued_.fetch_add(1, std::memory_order_seq_cst);
  }
  // A spinning carrier will see it; it re-checks the queue once it stops
  // spinning, before it parks.
  if (spinners_.load(std::memory_order_seq_cst) == 0) {
    WakeIdleCarrier();
  }
}

void CarrierPool::WakeIdleCarrier() {
  std::lock_guard<std::mutex> lock(idle_mu_);
  if (!idle_.empty()) {
    WakeLocked(idle_.back());
  } else if (started_ < carriers_.size() && !stopping_.load()) {
    // Every started carrier is busy: start the next. Carriers start as
    // work needs them, so a small world pays for few threads.
    Carrier* carrier = carriers_[started_++].get();
    carrier->thread = std::thread([this, carrier] { CarrierLoop(*carrier); });
  }
}

void CarrierPool::WakeLocked(Carrier* carrier) {
  idle_.erase(std::find(idle_.begin(), idle_.end(), carrier));
  carrier->woken = true;
  carrier->woken_at = Clock::now();
  carrier->cv.notify_one();
}

Task* CarrierPool::PopShared() {
  Task* task = nullptr;
  bool more = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    task = queue_head_;
    if (task == nullptr) {
      return nullptr;
    }
    queue_head_ = task->next;
    if (queue_head_ == nullptr) {
      queue_tail_ = nullptr;
    }
    more = queued_.fetch_sub(1, std::memory_order_seq_cst) > 1;
  }
  task->next = nullptr;
  // Work left behind and nobody looking for it: hand it to another idle
  // carrier.
  if (more && spinners_.load(std::memory_order_seq_cst) == 0) {
    WakeIdleCarrier();
  }
  return task;
}

void CarrierPool::SiftUp(size_t i) {
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (timers_[parent]->deadline_ns <= timers_[i]->deadline_ns) {
      break;
    }
    std::swap(timers_[parent], timers_[i]);
    timers_[parent]->heap_index = parent;
    timers_[i]->heap_index = i;
    i = parent;
  }
}

void CarrierPool::SiftDown(size_t i) {
  for (;;) {
    const size_t l = 2 * i + 1;
    const size_t r = l + 1;
    size_t least = i;
    if (l < timers_.size() &&
        timers_[l]->deadline_ns < timers_[least]->deadline_ns) {
      least = l;
    }
    if (r < timers_.size() &&
        timers_[r]->deadline_ns < timers_[least]->deadline_ns) {
      least = r;
    }
    if (least == i) {
      return;
    }
    std::swap(timers_[least], timers_[i]);
    timers_[least]->heap_index = least;
    timers_[i]->heap_index = i;
    i = least;
  }
}

void CarrierPool::RemoveAtLocked(size_t i) {
  timers_[i]->heap_index = kNoIndex;
  WaitNode* last = timers_.back();
  timers_.pop_back();
  if (i < timers_.size()) {
    // The last node fills the hole and moves whichever way it must.
    timers_[i] = last;
    last->heap_index = i;
    SiftUp(i);
    SiftDown(last->heap_index);
  }
  earliest_ns_.store(timers_.empty() ? kNoTimer : timers_.front()->deadline_ns,
                     std::memory_order_seq_cst);
}

void CarrierPool::AddTimer(WaitNode* node) {
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    node->heap_index = timers_.size();
    timers_.push_back(node);
    SiftUp(node->heap_index);
    earliest_ns_.store(timers_.front()->deadline_ns,
                       std::memory_order_seq_cst);
  }
  // A watcher parked past this deadline must re-arm.
  if (node->deadline_ns < watched_ns_.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lock(idle_mu_);
    if (watcher_ != nullptr && !watcher_->woken) {
      WakeLocked(watcher_);
    }
  }
}

void CarrierPool::RemoveTimer(WaitNode* node) {
  std::lock_guard<std::mutex> lock(timer_mu_);
  if (node->heap_index != kNoIndex) {  // kNoIndex: fired
    RemoveAtLocked(node->heap_index);
  }
}

bool CarrierPool::FireDueTimers() {
  Task* due = nullptr;  // claimed, linked through Task::next
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    const int64_t now = NowNs();
    while (!timers_.empty() && timers_.front()->deadline_ns <= now) {
      WaitNode* node = timers_.front();
      RemoveAtLocked(0);
      if (!node->claimed.exchange(true)) {
        node->by_timer = true;
        node->task->next = due;
        due = node->task;
      }
    }
  }
  const bool any = due != nullptr;
  while (due != nullptr) {
    Task* next = due->next;
    due->next = nullptr;
    timer_wakes_.fetch_add(1, std::memory_order_relaxed);
    Ready(due);
    due = next;
  }
  return any;
}

Task* CarrierPool::FindWork(Carrier& self, bool may_steal) {
  if (Task* task = self.run_next.exchange(nullptr, std::memory_order_acq_rel)) {
    handoffs_.fetch_add(1, std::memory_order_relaxed);
    return task;
  }
  const int64_t earliest = earliest_ns_.load(std::memory_order_relaxed);
  if (earliest != kNoTimer && earliest <= NowNs() && FireDueTimers()) {
    if (Task* task =
            self.run_next.exchange(nullptr, std::memory_order_acq_rel)) {
      return task;
    }
  }
  if (queued_.load(std::memory_order_seq_cst) > 0) {
    if (Task* task = PopShared()) {
      from_queue_.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
  }
  if (!may_steal) {
    return nullptr;
  }
  // A hand-off slot whose carrier has not taken it for a whole spin round
  // is taken here: its carrier is busy with something longer.
  for (size_t k = 0; k < carriers_.size(); ++k) {
    Carrier& other = *carriers_[k];
    if (&other == &self) {
      continue;
    }
    Task* task = other.run_next.load(std::memory_order_acquire);
    if (task != nullptr && task == self.seen[k] &&
        other.run_next.compare_exchange_strong(task, nullptr,
                                               std::memory_order_acq_rel)) {
      self.seen[k] = nullptr;
      steals_.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
    self.seen[k] = task;
  }
  return nullptr;
}

Task* CarrierPool::IdleWait(Carrier& self) {
  using internal::NoteWaitLength;
  const TimePoint start = Clock::now();
  if (!simulated_ && internal::ShouldSpin()) {
    if (spinners_.fetch_add(1, std::memory_order_seq_cst) < kMaxSpinners) {
      const TimePoint stop = start + kSpinBudget;
      Task* found = nullptr;
      std::fill(self.seen.begin(), self.seen.end(), nullptr);
      while (!stopping_.load(std::memory_order_relaxed)) {
        found = FindWork(self, /*may_steal=*/true);
        if (found != nullptr || Clock::now() >= stop) {
          break;
        }
        std::this_thread::yield();
      }
      spinners_.fetch_sub(1, std::memory_order_seq_cst);
      if (found != nullptr) {
        // Work queued while this carrier was the spinner woke nobody.
        if (queued_.load(std::memory_order_seq_cst) > 0) {
          WakeIdleCarrier();
        }
        spun_.fetch_add(1, std::memory_order_relaxed);
        NoteWaitLength(Clock::now() - start);
        return found;
      }
    } else {
      spinners_.fetch_sub(1, std::memory_order_seq_cst);
    }
  }
  bool counted = false;
  TimePoint handed{};  // set once a waker hands this carrier work
  for (;;) {
    // Take work with idle_mu_ released: taking it may wake another carrier.
    if (Task* task = FindWork(self, /*may_steal=*/false)) {
      NoteWaitLength((handed != TimePoint{} ? handed : Clock::now()) - start);
      return task;
    }
    std::unique_lock<std::mutex> lock(idle_mu_);
    if (stopping_.load()) {
      return nullptr;
    }
    // Re-checked under idle_mu_: whoever queues work after this sees the
    // carrier parked and wakes it.
    const int64_t earliest = earliest_ns_.load(std::memory_order_seq_cst);
    if (queued_.load(std::memory_order_seq_cst) > 0 ||
        self.run_next.load(std::memory_order_acquire) != nullptr ||
        (earliest != kNoTimer && earliest <= NowNs())) {
      continue;
    }
    if (!counted) {
      parked_count_.fetch_add(1, std::memory_order_relaxed);
      counted = true;
    }
    self.woken = false;
    idle_.push_back(&self);
    auto woken = [this, &self] { return self.woken || stopping_.load(); };
    if (watcher_ == nullptr && earliest != kNoTimer) {
      // The watcher: parked until the earliest timer. Publish what it
      // waits for, then re-read the earliest (a timer added meanwhile
      // either sees the published instant and wakes it, or is seen here).
      watcher_ = &self;
      watched_ns_.store(earliest, std::memory_order_seq_cst);
      if (earliest_ns_.load(std::memory_order_seq_cst) >= earliest) {
        self.cv.wait_until(lock,
                           TimePoint(std::chrono::nanoseconds(earliest)),
                           woken);
      }
      watcher_ = nullptr;
      watched_ns_.store(kNoWatcher, std::memory_order_seq_cst);
    } else {
      self.cv.wait(lock, woken);
    }
    if (self.woken) {
      handed = self.woken_at;
    } else {
      idle_.erase(std::find(idle_.begin(), idle_.end(), &self));
    }
  }
}

void CarrierPool::CarrierLoop(Carrier& self) {
  t_carrier = &self;
#if defined(GUARDIANS_TSAN)
  self.tsan_fiber = __tsan_get_current_fiber();
#endif
#if defined(GUARDIANS_ASAN)
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* bottom = nullptr;
    size_t size = 0;
    pthread_attr_getstack(&attr, &bottom, &size);
    self.stack_bottom = bottom;
    self.stack_size = size;
    pthread_attr_destroy(&attr);
  }
#endif
  for (;;) {
    Task* task = FindWork(self, /*may_steal=*/false);
    if (task == nullptr) {
      task = IdleWait(self);
    }
    if (task == nullptr) {
      return;  // stopping
    }
    RunTask(self, task);
  }
}

void CarrierPool::RunTask(Carrier& self, Task* task) {
  for (;;) {
    task->carrier = &self;
    task->state.store(internal::kRunning, std::memory_order_relaxed);
    self.current = task;
#if defined(GUARDIANS_TSAN)
    __tsan_switch_to_fiber(task->tsan_fiber, 0);
#endif
#if defined(GUARDIANS_ASAN)
    __sanitizer_start_switch_fiber(
        &self.asan_fake_stack,
        static_cast<char*>(task->stack.base) + kGuardSize, kStackSize);
#endif
    internal::SwitchContext(self.context, task->context);
#if defined(GUARDIANS_ASAN)
    __sanitizer_finish_switch_fiber(self.asan_fake_stack, nullptr, nullptr);
#endif
    self.current = nullptr;
    if (task->finished) {
      FinishTask(task);
      return;
    }
    int expected = internal::kParking;
    if (task->state.compare_exchange_strong(expected, internal::kParked,
                                            std::memory_order_acq_rel)) {
      return;
    }
    // kWokeEarly: woken before its switch out completed; run it again.
  }
}

void CarrierPool::FinishTask(Task* task) {
#if defined(GUARDIANS_TSAN)
  __tsan_destroy_fiber(task->tsan_fiber);
#endif
  ReturnStack(task->stack);
  task->stack = Stack{};
  // The last touch of the task: a joiner may free it once the lock drops.
  std::lock_guard<std::mutex> lock(task->done_mu);
  task->done.store(true);
  task->done_cv.notify_all();
}

// ------------------------------------------------------------------ Process

Process::Process(CarrierPool& pool, std::string name,
                 std::function<void()> body)
    : task_(std::make_unique<Task>()) {
  task_->pool = &pool;
  task_->name = std::move(name);
  task_->body = std::move(body);
  pool.Start(task_.get());
}

Process::~Process() { Join(); }

bool Process::Done() const { return task_->done.load(); }

void Process::Join() {
  std::unique_lock<std::mutex> lock(task_->done_mu);
  task_->done_cv.wait(lock, [this] { return task_->done.load(); });
}

ProcessGroup::~ProcessGroup() { JoinAll(); }

void ProcessGroup::Fork(std::string name, std::function<void()> body) {
  auto process =
      std::make_unique<Process>(pool_, std::move(name), std::move(body));
  std::lock_guard<std::mutex> lock(mu_);
  processes_.push_back(std::move(process));
}

void ProcessGroup::JoinAll() {
  // Joining may race with forks from the processes being joined; keep
  // draining until no process remains.
  for (;;) {
    std::unique_ptr<Process> next;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (processes_.empty()) {
        return;
      }
      next = std::move(processes_.back());
      processes_.pop_back();
    }
    next->Join();
  }
}

void ProcessGroup::Reap() {
  std::vector<std::unique_ptr<Process>> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto keep_end = processes_.begin();
    for (auto& process : processes_) {
      if (process->Done()) {
        finished.push_back(std::move(process));
      } else {
        *keep_end++ = std::move(process);
      }
    }
    processes_.erase(keep_end, processes_.end());
  }
  // Their bodies returned: destroying them joins without waiting long.
}

size_t ProcessGroup::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return processes_.size();
}

}  // namespace guardians
