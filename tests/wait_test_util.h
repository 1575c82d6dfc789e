// Helpers shared by the tests of how blocked threads wait (DESIGN.md §8,
// "How a blocked receive waits").
#ifndef GUARDIANS_TESTS_WAIT_TEST_UTIL_H_
#define GUARDIANS_TESTS_WAIT_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/clock.h"

#if defined(__SANITIZE_THREAD__)
#define GUARDIANS_WAIT_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GUARDIANS_WAIT_TEST_TSAN 1
#endif
#endif
#ifndef GUARDIANS_WAIT_TEST_TSAN
#define GUARDIANS_WAIT_TEST_TSAN 0
#endif

namespace guardians::wait_test {

// Whether this host's CPUs are free right now: a yield gives the CPU to any
// runnable thread on this core, so a median yield that comes back within
// 5 us means there is none.
inline bool CpusAreFree() {
  std::vector<int64_t> took;
  for (int i = 0; i < 201; ++i) {
    const TimePoint begin = Now();
    std::this_thread::yield();
    took.push_back(ToMicros(Now() - begin));
  }
  std::nth_element(took.begin(), took.begin() + 100, took.end());
  return took[100] < 5;
}

// Why this run may see a short wait outlast the spin budget and park, or
// nullptr when such a wait must spin here. Waits stretch when their
// threads run slowly: in a thread-sanitized build, or on a busy host. A
// test that saw no spin where it expected one reports itself skipped with
// this reason, so a run that never spun is not counted as a pass.
inline const char* WhyShortWaitsMayNotSpin() {
  if (GUARDIANS_WAIT_TEST_TSAN) {
    return "thread-sanitized build: its threads run too slowly to spin";
  }
  if (!CpusAreFree()) {
    return "this host's CPUs are busy, so short waits ran long";
  }
  return nullptr;
}

}  // namespace guardians::wait_test

#endif  // GUARDIANS_TESTS_WAIT_TEST_UTIL_H_
