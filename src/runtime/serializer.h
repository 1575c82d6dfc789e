// Serializer (Section 2.3, organization 1b): "A single process synchronizes
// requests; it hands them off to other processes that perform the actual
// work when the flight data of interest are available. Such a structure is
// similar to that provided by a serializer."
//
// Requests carry a resource key. Requests for the same key execute strictly
// in arrival order, one at a time; requests for distinct keys execute
// concurrently on the worker processes q_i. A request that can run when it
// arrives is handed straight to one parked worker, by name: the worker it
// wakes always has a request in hand. The rest wait in the queue for the
// worker that frees their key.
#ifndef GUARDIANS_SRC_RUNTIME_SERIALIZER_H_
#define GUARDIANS_SRC_RUNTIME_SERIALIZER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <vector>

#include "src/common/task.h"

namespace guardians {

class Serializer {
 public:
  using Task = std::function<void()>;

  // Forks `workers` worker processes on `pool`.
  Serializer(size_t workers, CarrierPool& pool);
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
  // Times a parked worker woke with nothing handed to it.
  uint64_t idle_wakeups() const;

 private:
  struct Request {
    uint64_t key;
    Task task;
  };
  // A worker's wait record: parked, it sleeps on its own condition variable
  // until Enqueue puts a request in `handed` or the serializer stops.
  struct Worker {
    CondVar cv;
    std::optional<Request> handed;
  };

  void WorkerLoop(Worker& self);
  // Pops the first queued request whose key is not busy, under mu_.
  bool PopRunnable(Request& out);

  mutable std::mutex mu_;
  CondVar drain_cv_;  // Drain/dtor wait for quiescence
  std::deque<Request> queue_;         // requests handed to no worker
  std::unordered_set<uint64_t> busy_keys_;
  std::vector<std::unique_ptr<Worker>> records_;  // one per worker
  std::vector<Worker*> parked_;  // the last to park is handed the next
  size_t running_ = 0;
  bool stopping_ = false;
  uint64_t executed_ = 0;
  uint64_t max_queue_depth_ = 0;
  uint64_t idle_wakeups_ = 0;
  ProcessGroup workers_;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_RUNTIME_SERIALIZER_H_
