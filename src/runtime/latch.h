// CountdownLatch: small synchronization helper used by tests, examples and
// workload drivers to wait for N completions.
#ifndef GUARDIANS_SRC_RUNTIME_LATCH_H_
#define GUARDIANS_SRC_RUNTIME_LATCH_H_

#include <cstdint>
#include <mutex>

#include "src/common/clock.h"
#include "src/common/task.h"

namespace guardians {

class CountdownLatch {
 public:
  explicit CountdownLatch(uint64_t count) : count_(count) {}

  void CountDown(uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    count_ = count_ > n ? count_ - n : 0;
    if (count_ == 0) {
      cv_.notify_all();
    }
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return count_ == 0; });
  }

  // False on timeout. `clock` (default: wall) is the clock the timeout is
  // measured on; pass a node's clock to make the wait virtual.
  bool WaitFor(Micros timeout, const ClockSource* clock = nullptr) {
    if (clock == nullptr) {
      clock = WallClock::Get();
    }
    std::unique_lock<std::mutex> lock(mu_);
    return clock->WaitUntil(cv_, lock, clock->Now() + timeout,
                            [this] { return count_ == 0; });
  }

  uint64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  CondVar cv_;
  uint64_t count_;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_RUNTIME_LATCH_H_
