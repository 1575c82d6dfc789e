#include "src/obs/trace.h"

#include <sys/mman.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unordered_set>

namespace guardians {

namespace {
thread_local uint64_t t_current_trace_id = 0;
thread_local TimePoint t_current_deadline_at = TimePoint::max();
}  // namespace

uint64_t CurrentTraceId() { return t_current_trace_id; }
void SetCurrentTraceId(uint64_t id) { t_current_trace_id = id; }

TimePoint CurrentDeadlineAt() { return t_current_deadline_at; }
void SetCurrentDeadlineAt(TimePoint at) { t_current_deadline_at = at; }

TraceBuffer::TraceBuffer() {
  // Anonymous pages read as zero (every slot empty) and cost nothing until
  // the first event lands on them.
  void* pages = mmap(nullptr, kCapacity * sizeof(Slot), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) {
    std::perror("TraceBuffer: mmap");
    std::abort();
  }
  slots_ = static_cast<Slot*>(pages);
}

TraceBuffer::~TraceBuffer() { munmap(slots_, kCapacity * sizeof(Slot)); }

void TraceBuffer::Record(uint64_t trace_id, uint32_t node, const char* point,
                         std::string_view detail) {
  if (trace_id == 0) {
    return;
  }
  const int64_t at = Now().time_since_epoch().count();
  const uint64_t index = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[index % kCapacity];
  std::atomic_ref<uint64_t> seq(slot.seq);
  // Take the slot from its previous event. A writer a whole lap behind
  // (stalled between its fetch_add and here) either still holds the slot,
  // or finds a newer event in it: one of the two events is dropped, never
  // mixed. Acquire orders this write after the previous event's.
  uint64_t seen = seq.load(std::memory_order_relaxed);
  do {
    if ((seen & 1) != 0 || seen > Writing(index)) {
      return;
    }
  } while (!seq.compare_exchange_weak(seen, Writing(index),
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed));
  // Release stores (plain stores on x86): a reader that sees any of these
  // values also sees the slot marked as being written.
  std::atomic_ref<int64_t>(slot.at).store(at, std::memory_order_release);
  std::atomic_ref<uint64_t>(slot.trace_id)
      .store(trace_id, std::memory_order_release);
  std::atomic_ref<const char*>(slot.point)
      .store(point, std::memory_order_release);
  std::atomic_ref<uint32_t>(slot.node).store(node, std::memory_order_release);
  if (!detail.empty()) {
    std::lock_guard<std::mutex> lock(details_mu_);
    // Details of overwritten events go with them.
    while (!details_.empty() && details_.begin()->first + kCapacity <= index) {
      details_.erase(details_.begin());
    }
    details_.emplace(index, detail);
  }
  seq.store(Published(index), std::memory_order_release);
}

bool TraceBuffer::ReadSlot(uint64_t index, Held* out) const {
  Slot& slot = slots_[index % kCapacity];
  std::atomic_ref<uint64_t> seq(slot.seq);
  if (seq.load(std::memory_order_acquire) != Published(index)) {
    return false;  // empty, being written, or already overwritten
  }
  out->index = index;
  out->trace_id =
      std::atomic_ref<uint64_t>(slot.trace_id).load(std::memory_order_acquire);
  out->event.at = TimePoint(Clock::duration(
      std::atomic_ref<int64_t>(slot.at).load(std::memory_order_acquire)));
  out->event.node =
      std::atomic_ref<uint32_t>(slot.node).load(std::memory_order_acquire);
  out->event.point = std::atomic_ref<const char*>(slot.point)
                         .load(std::memory_order_acquire);
  // Whole only if no writer took the slot while the fields were read.
  return seq.load(std::memory_order_relaxed) == Published(index);
}

template <typename Visit>
void TraceBuffer::Scan(Visit visit) const {
  const uint64_t end = head_.load(std::memory_order_acquire);
  const uint64_t begin = end > kCapacity ? end - kCapacity : 0;
  Held held;
  for (uint64_t index = begin; index < end; ++index) {
    if (ReadSlot(index, &held) && !visit(held)) {
      return;
    }
  }
}

std::string TraceBuffer::DetailOf(uint64_t index) const {
  std::lock_guard<std::mutex> lock(details_mu_);
  auto it = details_.find(index);
  return it != details_.end() ? it->second : std::string();
}

std::vector<TraceEvent> TraceBuffer::Events(uint64_t trace_id) const {
  std::vector<TraceEvent> events;
  Scan([&](const Held& held) {
    if (held.trace_id == trace_id) {
      events.push_back(held.event);
      events.back().detail = DetailOf(held.index);
    }
    return true;
  });
  return events;
}

std::string TraceBuffer::DumpTrace(uint64_t trace_id) const {
  const std::vector<TraceEvent> events = Events(trace_id);
  std::ostringstream os;
  os << "trace " << trace_id << ":";
  if (events.empty()) {
    os << " (not recorded)\n";
    return os.str();
  }
  os << "\n";
  const TimePoint t0 = events.front().at;
  for (const TraceEvent& event : events) {
    os << "  +" << ToMicros(event.at - t0) << "us";
    if (event.node != 0) {
      os << "  n" << event.node;
    } else {
      os << "  net";
    }
    os << "  " << event.point;
    if (!event.detail.empty()) {
      os << "  " << event.detail;
    }
    os << "\n";
  }
  if (const uint64_t overwritten = overwritten_events(); overwritten > 0) {
    os << "  (the ring has overwritten its " << overwritten
       << " oldest events; earlier hops of this trace may be among them)\n";
  }
  return os.str();
}

bool TraceBuffer::HasTrace(uint64_t trace_id) const {
  bool found = false;
  Scan([&](const Held& held) {
    found = held.trace_id == trace_id;
    return !found;
  });
  return found;
}

std::optional<uint64_t> TraceBuffer::FindTraceWithPoint(
    std::string_view point_prefix) const {
  std::optional<uint64_t> newest;
  Scan([&](const Held& held) {
    if (held.event.point.starts_with(point_prefix)) {
      newest = held.trace_id;
    }
    return true;
  });
  return newest;
}

size_t TraceBuffer::trace_count() const {
  std::unordered_set<uint64_t> traces;
  Scan([&](const Held& held) {
    traces.insert(held.trace_id);
    return true;
  });
  return traces.size();
}

uint64_t TraceBuffer::overwritten_events() const {
  const uint64_t end = head_.load(std::memory_order_relaxed);
  return end > kCapacity ? end - kCapacity : 0;
}

}  // namespace guardians
