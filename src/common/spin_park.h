// Spin-then-park: how a blocked foreign thread (and an idle carrier)
// waits (DESIGN.md §8, "How a blocked receive waits").
//
// On a busy message path most waits are short: the next tick of a stream,
// the next request to an echo, the next packet for a delivery shard.
// Parking such a wait costs a wake on every hop: the waker's futex call
// and the waiter's trip back through the scheduler, several microseconds
// each. So a wait first spins, with its lock released and giving the CPU
// away each round, watching only its own signal. It parks on its
// condition variable only when the spin runs out. Like Linux's socket
// busy-polling and glibc's adaptive mutex, it spins only while the event is
// likely to be imminent:
//   - a spin lasts at most kSpinBudget, and never past the wait's deadline;
//   - a thread spins only while the moving average of its own recent waits
//     is below the budget. Threads start cold, so they park first, and a
//     thread whose waits are long (an idle server, a world being built)
//     never spins;
//   - nothing spins on a simulated clock: virtual time only moves while its
//     participants are parked in ClockSource waits;
//   - a task never spins: it parks at once, and its carrier, now idle,
//     spins for work by this same policy (CarrierPool::IdleWait).
// The policy lives here alone and has no knob.
#ifndef GUARDIANS_SRC_COMMON_SPIN_PARK_H_
#define GUARDIANS_SRC_COMMON_SPIN_PARK_H_

#include <cstdint>
#include <mutex>
#include <thread>

#include "src/common/clock.h"
#include "src/common/task.h"

namespace guardians {

// How long a wait may spin before it parks.
inline constexpr Micros kSpinBudget{30};

// How a blocked wait ended.
enum class WaitEnd : uint8_t {
  kSpun,    // no park: the signal came (or the deadline passed) mid-spin
  kParked,  // the thread parked on its condition variable
};

namespace internal {
// The calling thread's moving average of its recent wait lengths.
Clock::duration RecentWait();
// Whether the calling thread's recent waits were short enough to spin.
bool ShouldSpin();
// Folds one wait's length into the calling thread's moving average.
void NoteWaitLength(Clock::duration lasted);
}  // namespace internal

// Block until signalled() holds or `deadline` passes on `clock`, spinning
// first when the policy allows. `lock` is held on entry and on return.
// signalled() must read only atomics, since it runs with the lock both
// released (while spinning) and held (while parking). A waker makes it
// true while holding the lock's mutex and then notifies `cv`, which costs
// one atomic load when nobody is parked on it. The caller re-checks its
// own state afterwards: the return value says only how the wait went.
template <typename Signalled>
WaitEnd SpinThenPark(const ClockSource& clock, CondVar& cv,
                     std::unique_lock<std::mutex>& lock, TimePoint deadline,
                     Signalled signalled) {
  auto park = [&] {
    clock.WaitUntil(cv, lock, deadline, signalled);
    return WaitEnd::kParked;
  };
  if (clock.is_simulated() || OnTask()) {
    return park();
  }
  const TimePoint start = clock.Now();
  WaitEnd end = WaitEnd::kSpun;
  bool done = false;
  if (internal::ShouldSpin()) {
    const TimePoint stop =
        deadline - start > kSpinBudget ? start + kSpinBudget : deadline;
    lock.unlock();
    TimePoint now = start;
    while (!signalled() && now < stop) {
      std::this_thread::yield();
      now = clock.Now();
    }
    lock.lock();
    done = signalled() || now >= deadline;
  }
  if (!done) {
    end = park();
  }
  internal::NoteWaitLength(clock.Now() - start);
  return end;
}

}  // namespace guardians

#endif  // GUARDIANS_SRC_COMMON_SPIN_PARK_H_
