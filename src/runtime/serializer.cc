#include "src/runtime/serializer.h"

#include <algorithm>

namespace guardians {

Serializer::Serializer(size_t workers) {
  for (size_t i = 0; i < workers; ++i) {
    workers_.Fork("serializer-worker-" + std::to_string(i),
                  [this] { WorkerLoop(); });
  }
}

Serializer::~Serializer() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  workers_.JoinAll();
}

void Serializer::Enqueue(uint64_t key, Task task) {
  bool runnable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Behind a busy key or an earlier request for the same key, the request
    // cannot run yet: the worker that frees the key re-scans the queue
    // itself, so waking another one here would only find nothing to do.
    runnable = busy_keys_.count(key) == 0 &&
               std::none_of(queue_.begin(), queue_.end(),
                            [key](const Request& r) { return r.key == key; });
    queue_.push_back(Request{key, std::move(task)});
    if (queue_.size() > max_queue_depth_) {
      max_queue_depth_ = queue_.size();
    }
  }
  if (runnable) {
    work_cv_.notify_one();
  }
}

void Serializer::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

uint64_t Serializer::executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}

uint64_t Serializer::max_queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_queue_depth_;
}

uint64_t Serializer::idle_wakeups() const {
  std::lock_guard<std::mutex> lock(mu_);
  return idle_wakeups_;
}

bool Serializer::PopRunnable(Request& out, bool* more_runnable) {
  // First request in arrival order whose key is available; skipping a busy
  // key preserves per-key FIFO because the skipped request stays in place.
  // A later request is runnable if its key is neither busy nor the one
  // just taken.
  auto taken = queue_.end();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (busy_keys_.count(it->key) != 0) {
      continue;
    }
    if (taken == queue_.end()) {
      taken = it;
    } else if (it->key != taken->key) {
      *more_runnable = true;
      break;
    }
  }
  if (taken == queue_.end()) {
    return false;
  }
  out = std::move(*taken);
  queue_.erase(taken);
  busy_keys_.insert(out.key);
  ++running_;
  return true;
}

void Serializer::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  bool woken = false;
  for (;;) {
    Request request;
    bool more_runnable = false;
    if (PopRunnable(request, &more_runnable)) {
      // A second runnable request (say, the queued request of the key this
      // worker just freed, when it took an earlier one) goes to a sleeping
      // worker; the rest of the queue waits for a key to free.
      if (more_runnable) {
        work_cv_.notify_one();
      }
      lock.unlock();
      request.task();
      lock.lock();
      busy_keys_.erase(request.key);
      --running_;
      ++executed_;
      if (queue_.empty() && running_ == 0) {
        drain_cv_.notify_all();
      }
      woken = false;
      continue;  // this worker re-scans for the next request itself
    }
    if (stopping_) {
      return;
    }
    if (woken) {
      ++idle_wakeups_;
    }
    work_cv_.wait(lock);
    woken = true;
  }
}

}  // namespace guardians
