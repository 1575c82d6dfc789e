// Trace-ID propagation and the bounded in-memory trace buffer.
//
// Every message gets a 64-bit trace id, stamped into the Envelope at the
// first Send of a causal chain and carried through fragmentation,
// reassembly, reply ports, system failure(...) replies and receipt acks.
// Each layer records per-hop events (send, net delivery or drop with
// reason, port enqueue or drop with reason, receive) into the system's
// TraceBuffer, so a lost airline transaction can be followed hop-by-hop
// with DumpTrace(id) — the §3.4 "silent discard" made observable. Every
// hop records, so recording takes no lock and allocates nothing.
//
// Propagation uses a thread-local current trace id: Receive sets it from
// the dequeued message, Send inherits it (or mints a fresh one when the
// thread has no active trace). This matches the process model — a guardian
// process handles one message at a time — and costs nothing on the wire
// beyond the 8-byte envelope field.
#ifndef GUARDIANS_SRC_OBS_TRACE_H_
#define GUARDIANS_SRC_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"

namespace guardians {

// The calling thread's active trace id; 0 means "no active trace". A new
// logical operation (e.g. one clerk transaction) clears it so the next Send
// starts a fresh trace.
uint64_t CurrentTraceId();
void SetCurrentTraceId(uint64_t id);

// The calling thread's inherited deadline: the instant, on the handling
// node's own clock, at which the message currently being processed runs
// out of budget. TimePoint::max() means "no deadline". Receive sets it
// from the dequeued message (unconditionally, so a budget never leaks
// from one message into the next); nested sends (RemoteCall/FailoverCall)
// clamp their own budgets to it — deadline propagation rides the same
// thread-local channel as the trace id, at zero wire cost beyond the
// envelope's relative-budget field.
TimePoint CurrentDeadlineAt();
void SetCurrentDeadlineAt(TimePoint at);

// One hop event as the readers return it. `node` is the node that observed
// the event (0 for the network itself). `point` identifies the layer and
// outcome, e.g. "send", "net.drop.loss", "port.drop.retired", "recv"; it
// views the static string the recorder passed.
struct TraceEvent {
  TimePoint at;
  uint32_t node = 0;
  std::string_view point;
  std::string detail;
};

// A fixed ring of the last kCapacity hop events of every trace, shared by
// the whole system. Record is lock-free and allocation-free: one relaxed
// fetch_add claims the next slot, and the slot is published seqlock-style
// (a sequence word around release/acquire field accesses), so a reader
// never returns an event whose fields come from two writes.
// Once the ring wraps, each new event overwrites the oldest one. The rare
// events that carry a detail string (drops, corruption, dedup, flow defer,
// supervisor, chaos) keep it in a small mutex-guarded side table keyed by
// the event's index, pruned as the ring overwrites those events.
//
// The ring lives on anonymous pages the kernel zero-fills on first touch:
// constructing a TraceBuffer touches none of it.
class TraceBuffer {
 public:
  static constexpr size_t kCapacity = size_t{1} << 15;  // events

  TraceBuffer();
  ~TraceBuffer();

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  // No-op when trace_id is 0 (untraced message). `point` must have static
  // storage duration (a string literal): the ring keeps the pointer.
  void Record(uint64_t trace_id, uint32_t node, const char* point,
              std::string_view detail = {});

  // Human-readable hop-by-hop dump of the events the ring still holds;
  // timestamps relative to the first of them.
  std::string DumpTrace(uint64_t trace_id) const;

  bool HasTrace(uint64_t trace_id) const;
  std::vector<TraceEvent> Events(uint64_t trace_id) const;

  // The trace of the newest held event whose point starts with
  // `point_prefix` (e.g. "port.drop" to sample a lost message).
  std::optional<uint64_t> FindTraceWithPoint(
      std::string_view point_prefix) const;

  // Distinct traces among the held events (a scan of the ring).
  size_t trace_count() const;
  // Events the ring has overwritten since it was built.
  uint64_t overwritten_events() const;

 private:
  // One event. Every field is accessed through std::atomic_ref: writers and
  // readers share slots without a lock. `seq` is 0 while the slot is empty,
  // Writing(i) while event i is being written and Published(i) once it is
  // whole. One cache line per slot, so writers on different threads
  // recording consecutive events do not share a line.
  struct alignas(64) Slot {
    uint64_t seq;
    int64_t at;  // TimePoint ticks
    uint64_t trace_id;
    const char* point;
    uint32_t node;
  };
  struct Held {
    uint64_t index;
    uint64_t trace_id;
    TraceEvent event;  // detail not filled in
  };

  static constexpr uint64_t Writing(uint64_t index) { return 2 * index + 1; }
  static constexpr uint64_t Published(uint64_t index) {
    return 2 * index + 2;
  }

  // Calls `visit(const Held&)` for each whole event the ring holds, oldest
  // first; stops early when `visit` returns false.
  template <typename Visit>
  void Scan(Visit visit) const;
  bool ReadSlot(uint64_t index, Held* out) const;
  std::string DetailOf(uint64_t index) const;

  Slot* slots_;  // kCapacity slots on zero-filled pages
  alignas(64) std::atomic<uint64_t> head_{0};  // next event index

  mutable std::mutex details_mu_;
  std::map<uint64_t, std::string> details_;  // event index -> detail
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_OBS_TRACE_H_
