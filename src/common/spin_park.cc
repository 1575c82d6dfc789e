#include "src/common/spin_park.h"

#include <algorithm>

namespace guardians {

namespace {

// The ceiling of a thread's moving average of wait lengths, and where a
// new thread's average starts. Each wait moves the average an eighth of
// the way to its own length (capped here), as glibc's adaptive mutex
// moves its spin count, so a cold thread needs about a dozen short waits
// in a row before it spins, and one long wait sends it back to parking.
constexpr Clock::duration kColdAverage = 4 * kSpinBudget;

thread_local Clock::duration t_average = kColdAverage;

}  // namespace

namespace internal {

Clock::duration RecentWait() { return t_average; }

bool ShouldSpin() { return RecentWait() < kSpinBudget; }

void NoteWaitLength(Clock::duration lasted) {
  const Clock::duration sample = std::min(lasted, kColdAverage);
  t_average += (sample - t_average) / 8;
}

}  // namespace internal

}  // namespace guardians
