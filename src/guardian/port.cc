#include "src/guardian/port.h"

#include <algorithm>

namespace guardians {

void Mailbox::AddLocked(WaitRecord* record) {
  record->prev = nullptr;
  record->next = waiters;
  if (waiters != nullptr) {
    waiters->prev = record;
  }
  waiters = record;
}

void Mailbox::RemoveLocked(WaitRecord* record) {
  if (record->prev != nullptr) {
    record->prev->next = record->next;
  } else {
    waiters = record->next;
  }
  if (record->next != nullptr) {
    record->next->prev = record->prev;
  }
  record->prev = record->next = nullptr;
}

namespace {
void Signal(WaitRecord* record) {
  record->signalled.store(true, std::memory_order_release);
  record->cv.notify_one();
}
}  // namespace

void Mailbox::SignalLocked(const Port* port) {
  for (WaitRecord* r = waiters; r != nullptr; r = r->next) {
    if (std::find(r->ports.begin(), r->ports.end(), port) != r->ports.end()) {
      Signal(r);
    }
  }
}

void Mailbox::SignalAllLocked() {
  for (WaitRecord* r = waiters; r != nullptr; r = r->next) {
    Signal(r);
  }
}

size_t Mailbox::WaitersLocked() const {
  size_t n = 0;
  for (const WaitRecord* r = waiters; r != nullptr; r = r->next) {
    ++n;
  }
  return n;
}

Port::PushOutcome Port::PushLocked(Received&& message, bool control) {
  PushOutcome out;
  if (retired_ || mailbox_->closed) {
    ++discarded_retired_;
    out.result = PushResult::kRetired;
    return out;
  }
  if (queue_.size() >= capacity_) {
    // Control traffic (acks, failure nacks, probes) is the backpressure
    // signal itself; shedding it would make overload look like more
    // overload. Admit it into the bounded headroom above capacity.
    if (!control || queue_.size() >= capacity_ + kControlHeadroom) {
      ++discarded_full_;
      out.result = PushResult::kFull;
      return out;
    }
    ++control_overflow_;
    out.via_headroom = true;
  }
  message.port = this;
  queue_.push_back(std::move(message));
  ++enqueued_;
  return out;
}

PushResult Port::Push(Received&& message, bool control) {
  PushRun run(*this);
  return run.Push(std::move(message), control).result;
}

Port::PushRun::PushRun(Port& port)
    : port_(port), lock_(port.mailbox_->mu) {}

Port::PushRun::~PushRun() {
  // Under the lock (released when lock_ is destroyed, after this body):
  // a signalled record may leave the list and its thread's stack as soon
  // as the lock is free.
  if (any_ok_) {
    port_.mailbox_->SignalLocked(&port_);
  }
}

Port::PushOutcome Port::PushRun::Push(Received&& message, bool control) {
  const PushOutcome out = port_.PushLocked(std::move(message), control);
  any_ok_ = any_ok_ || out.result == PushResult::kOk;
  return out;
}

void Port::Retire() {
  std::lock_guard<std::mutex> lock(mailbox_->mu);
  retired_ = true;
  // Messages already enqueued die here; without this line they vanished
  // from the drop ledger entirely (enqueued but neither received nor
  // counted in any discard bucket).
  discarded_retired_ += queue_.size();
  queue_.clear();
}

bool Port::retired() const {
  std::lock_guard<std::mutex> lock(mailbox_->mu);
  return retired_;
}

Received Port::PopLocked() {
  Received message = std::move(queue_.front());
  queue_.pop_front();
  return message;
}

uint64_t Port::enqueued() const {
  std::lock_guard<std::mutex> lock(mailbox_->mu);
  return enqueued_;
}

uint64_t Port::discarded_full() const {
  std::lock_guard<std::mutex> lock(mailbox_->mu);
  return discarded_full_;
}

uint64_t Port::discarded_retired() const {
  std::lock_guard<std::mutex> lock(mailbox_->mu);
  return discarded_retired_;
}

uint64_t Port::control_overflow() const {
  std::lock_guard<std::mutex> lock(mailbox_->mu);
  return control_overflow_;
}

size_t Port::depth() const {
  std::lock_guard<std::mutex> lock(mailbox_->mu);
  return queue_.size();
}

}  // namespace guardians
