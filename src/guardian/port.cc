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
  if (record->parked) {
    record->cv.notify_one();
  }
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

DedupTable::Verdict DedupTable::Classify(uint64_t session, uint64_t seq,
                                         CachedReply* replay) const {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return Verdict::kFresh;
  }
  const Session& s = it->second;
  const bool seen = seq <= s.floor || s.seen.count(seq) > 0;
  if (!seen) {
    return Verdict::kFresh;
  }
  auto reply = replies_.find(Key{session, seq});
  if (reply == replies_.end()) {
    return Verdict::kDuplicate;
  }
  if (replay != nullptr) {
    *replay = reply->second;
  }
  return Verdict::kReplay;
}

void DedupTable::MarkSeen(uint64_t session, uint64_t seq) {
  Session& s = sessions_[session];
  s.seen.insert(seq);
  if (seq > s.high_water) {
    s.high_water = seq;
  }
  // Slide the window: everything at or below the floor is implicitly seen,
  // so the set only holds the (window)-many most recent seqs.
  if (s.high_water > config_.window) {
    s.floor = std::max(s.floor, s.high_water - config_.window);
  }
  while (!s.seen.empty() && *s.seen.begin() <= s.floor) {
    s.seen.erase(s.seen.begin());
  }
  while (!s.acked.empty() && *s.acked.begin() <= s.floor) {
    s.acked.erase(s.acked.begin());
  }
}

void DedupTable::Unmark(uint64_t session, uint64_t seq) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return;
  }
  // The high-water mark stays where MarkSeen left it — at worst the floor
  // is conservatively high, which only drops (never re-executes) seqs.
  it->second.seen.erase(seq);
  it->second.acked.erase(seq);
}

void DedupTable::MarkAcked(uint64_t session, uint64_t seq) {
  auto it = sessions_.find(session);
  if (it == sessions_.end() || seq <= it->second.floor) {
    return;  // at or below the floor: Acked() already reports true
  }
  it->second.acked.insert(seq);
}

bool DedupTable::Acked(uint64_t session, uint64_t seq) const {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return false;
  }
  return seq <= it->second.floor || it->second.acked.count(seq) > 0;
}

void DedupTable::RestoreFloor(uint64_t session, uint64_t floor) {
  Session& s = sessions_[session];
  s.floor = std::max(s.floor, floor);
  s.high_water = std::max(s.high_water, floor);
  while (!s.seen.empty() && *s.seen.begin() <= s.floor) {
    s.seen.erase(s.seen.begin());
  }
  while (!s.acked.empty() && *s.acked.begin() <= s.floor) {
    s.acked.erase(s.acked.begin());
  }
}

void DedupTable::CacheReply(uint64_t session, uint64_t seq,
                            CachedReply reply) {
  MarkSeen(session, seq);
  const Key key{session, seq};
  auto [it, inserted] = replies_.emplace(key, std::move(reply));
  if (!inserted) {
    return;  // already cached (journal replay after recovery)
  }
  reply_fifo_.push_back(key);
  while (replies_.size() > config_.reply_cache_capacity) {
    replies_.erase(reply_fifo_.front());
    reply_fifo_.pop_front();
  }
}

uint64_t DedupTable::HighWater(uint64_t session) const {
  auto it = sessions_.find(session);
  return it != sessions_.end() ? it->second.high_water : 0;
}

void DedupTable::Touch(uint64_t session, TimePoint now) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return;  // only stamp sessions some Mark/Cache call created
  }
  if (now > it->second.last_touch) {
    it->second.last_touch = now;
  }
}

size_t DedupTable::ExpireIdleSessions(TimePoint now, Micros idle) {
  size_t dropped = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    const TimePoint stamp = it->second.last_touch;
    // Never-stamped sessions (journal recovery) age from epoch zero and
    // are collectable like any other; future stamps clamp to zero age.
    const Micros age = now <= stamp
                           ? Micros(0)
                           : std::chrono::duration_cast<Micros>(now - stamp);
    if (age < idle) {
      ++it;
      continue;
    }
    const uint64_t session = it->first;
    it = sessions_.erase(it);
    ++dropped;
    for (auto r = reply_fifo_.begin(); r != reply_fifo_.end();) {
      if (r->first == session) {
        replies_.erase(*r);
        r = reply_fifo_.erase(r);
      } else {
        ++r;
      }
    }
  }
  return dropped;
}

void DedupTable::Clear() {
  sessions_.clear();
  replies_.clear();
  reply_fifo_.clear();
}

}  // namespace guardians
