// Serializer (Section 2.3, organization 1b): "A single process synchronizes
// requests; it hands them off to other processes that perform the actual
// work when the flight data of interest are available. Such a structure is
// similar to that provided by a serializer."
//
// Requests carry a resource key. Requests for the same key execute strictly
// in arrival order, one at a time; requests for distinct keys execute
// concurrently on the worker processes q_i.
#ifndef GUARDIANS_SRC_RUNTIME_SERIALIZER_H_
#define GUARDIANS_SRC_RUNTIME_SERIALIZER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <unordered_set>

#include "src/runtime/process.h"

namespace guardians {

class Serializer {
 public:
  using Task = std::function<void()>;

  // Forks `workers` worker processes.
  explicit Serializer(size_t workers);
  // Drains the queue, then stops the workers.
  ~Serializer();

  Serializer(const Serializer&) = delete;
  Serializer& operator=(const Serializer&) = delete;

  // Enqueue a request on resource `key`. Never blocks the caller (the
  // synchronizing process p merely queues and moves on).
  void Enqueue(uint64_t key, Task task);

  // Block until every enqueued request has completed.
  void Drain();

  uint64_t executed() const;
  uint64_t max_queue_depth() const;
  // Times a worker woke and found nothing it could run.
  uint64_t idle_wakeups() const;

 private:
  struct Request {
    uint64_t key;
    Task task;
  };

  void WorkerLoop();
  // Pops the first runnable request (whose key is not busy) under mu_, and
  // sets *more_runnable when another request could run beside it.
  bool PopRunnable(Request& out, bool* more_runnable);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for runnable requests
  std::condition_variable drain_cv_;  // Drain/dtor wait for quiescence
  std::deque<Request> queue_;
  std::unordered_set<uint64_t> busy_keys_;
  size_t running_ = 0;
  bool stopping_ = false;
  uint64_t executed_ = 0;
  uint64_t max_queue_depth_ = 0;
  uint64_t idle_wakeups_ = 0;
  ProcessGroup workers_;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_RUNTIME_SERIALIZER_H_
