// Monitors (Section 2.3, organization 1c): "The forked processes
// synchronize with each other to ensure that only one process is
// manipulating the data for a particular date at a time. The processes
// synchronize using shared data, e.g., a monitor providing operations
// start_request(date) and end_request(date)."
//
// Monitor is a small Hoare-style monitor base (mutual exclusion plus named
// conditions); KeyedMonitor is the paper's start_request/end_request monitor
// generalized over any key type.
#ifndef GUARDIANS_SRC_RUNTIME_MONITOR_H_
#define GUARDIANS_SRC_RUNTIME_MONITOR_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "src/common/clock.h"
#include "src/common/task.h"

namespace guardians {

class Monitor {
 public:
  // Entry into the monitor: at most one process runs monitor code at once.
  class Entry {
   public:
    explicit Entry(Monitor& m) : lock_(m.mu_) {}
    std::unique_lock<std::mutex>& lock() { return lock_; }

   private:
    std::unique_lock<std::mutex> lock_;
  };

  // A condition on which processes inside the monitor may wait. Wait
  // releases the monitor; Signal admits one waiter.
  class Condition {
   public:
    void Wait(Entry& entry) { cv_.wait(entry.lock()); }

    template <typename Pred>
    void WaitUntil(Entry& entry, Pred pred) {
      cv_.wait(entry.lock(), pred);
    }

    // Returns false on timeout with the predicate still unsatisfied.
    // `clock` (default: wall) measures the timeout; a guardian passes its
    // node's clock so monitor waits run on virtual time.
    template <typename Pred>
    bool WaitFor(Entry& entry, Micros timeout, Pred pred,
                 const ClockSource* clock = nullptr) {
      if (clock == nullptr) {
        clock = WallClock::Get();
      }
      return clock->WaitUntil(cv_, entry.lock(), clock->Now() + timeout,
                              pred);
    }

    void Signal() { cv_.notify_one(); }
    void Broadcast() { cv_.notify_all(); }

   private:
    CondVar cv_;
  };

 private:
  std::mutex mu_;
};

// The monitor M of Figure 1c: StartRequest(key) blocks while another
// process is manipulating the data for `key`; EndRequest(key) releases it.
// Distinct keys proceed concurrently.
template <typename Key>
class KeyedMonitor : private Monitor {
 public:
  void StartRequest(const Key& key) {
    Entry entry(*this);
    ++contention_probes_;
    while (busy_.count(key) > 0) {
      ++blocked_waits_;
      available_.Wait(entry);
    }
    busy_.insert(key);
  }

  void EndRequest(const Key& key) {
    Entry entry(*this);
    busy_.erase(key);
    available_.Broadcast();
  }

  // RAII request bracket.
  class Request {
   public:
    Request(KeyedMonitor& m, Key key) : monitor_(m), key_(std::move(key)) {
      monitor_.StartRequest(key_);
    }
    ~Request() { monitor_.EndRequest(key_); }
    Request(const Request&) = delete;
    Request& operator=(const Request&) = delete;

   private:
    KeyedMonitor& monitor_;
    Key key_;
  };

  // How often StartRequest had to wait — the contention the paper's
  // organization comparison is about.
  uint64_t blocked_waits() const { return blocked_waits_; }
  uint64_t contention_probes() const { return contention_probes_; }

 private:
  Condition available_;
  std::unordered_set<Key> busy_;
  uint64_t blocked_waits_ = 0;
  uint64_t contention_probes_ = 0;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_RUNTIME_MONITOR_H_
