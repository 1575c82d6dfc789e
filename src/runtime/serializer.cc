#include "src/runtime/serializer.h"

#include <algorithm>

namespace guardians {

Serializer::Serializer(size_t workers) {
  for (size_t i = 0; i < workers; ++i) {
    Worker* record = records_.emplace_back(std::make_unique<Worker>()).get();
    workers_.Fork("serializer-worker-" + std::to_string(i),
                  [this, record] { WorkerLoop(*record); });
  }
}

Serializer::~Serializer() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    for (Worker* parked : parked_) {
      parked->cv.notify_one();
    }
  }
  workers_.JoinAll();
}

void Serializer::Enqueue(uint64_t key, Task task) {
  Worker* handed_to = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Behind a busy key or an earlier request for the same key, the request
    // cannot run yet: the worker that frees the key re-scans the queue.
    const bool runnable =
        busy_keys_.count(key) == 0 &&
        std::none_of(queue_.begin(), queue_.end(),
                     [key](const Request& r) { return r.key == key; });
    if (runnable && !parked_.empty()) {
      handed_to = parked_.back();
      parked_.pop_back();
      busy_keys_.insert(key);
      ++running_;
      handed_to->handed = Request{key, std::move(task)};
    } else {
      queue_.push_back(Request{key, std::move(task)});
      max_queue_depth_ = std::max<uint64_t>(max_queue_depth_, queue_.size());
    }
  }
  if (handed_to != nullptr) {
    handed_to->cv.notify_one();
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

bool Serializer::PopRunnable(Request& out) {
  // First request in arrival order whose key is available; skipping a busy
  // key preserves per-key FIFO because the skipped request stays in place.
  auto it = std::find_if(queue_.begin(), queue_.end(), [this](const Request& r) {
    return busy_keys_.count(r.key) == 0;
  });
  if (it == queue_.end()) {
    return false;
  }
  out = std::move(*it);
  queue_.erase(it);
  busy_keys_.insert(out.key);
  ++running_;
  return true;
}

void Serializer::WorkerLoop(Worker& self) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Request request;
    if (!PopRunnable(request)) {
      if (stopping_) {
        return;
      }
      parked_.push_back(&self);
      while (!self.handed.has_value() && !stopping_) {
        self.cv.wait(lock);
        if (!self.handed.has_value() && !stopping_) {
          ++idle_wakeups_;
        }
      }
      if (!self.handed.has_value()) {
        return;  // stopping; nothing hands to a stopped serializer
      }
      request = std::move(*self.handed);
      self.handed.reset();
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
    // This worker re-scans the queue for the next request itself.
  }
}

}  // namespace guardians
