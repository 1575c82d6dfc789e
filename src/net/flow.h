// Credit-based flow control (DESIGN.md §11): the sender half of the
// receiver-advertised credit protocol.
//
// The paper's no-wait send (§3.1) decouples senders from receivers through
// bounded port buffers (§3.2), and §3.4 makes a full buffer a designed-in
// loss event. That is correct as a *primitive*, but a retry loop above it
// (ReliableSend) degenerates into a resend storm exactly when the receiver
// is busiest. This layer closes the loop without changing the primitive:
// receivers advertise their port state — piggybacked on receipt acks
// (credit grants) and on full-port nacks that carry the current queue
// depth — and each sending node keeps a per-(destination port) congestion
// window, AIMD style: additive increase on a credit, multiplicative
// decrease on a full nack. The higher-level send primitives *consume* the
// window (defer-before-send with deadline-aware waits) so their messages
// wait at the sender instead of dying at the port; the plain no-wait send
// is deliberately exempt — its whole point is to never block.
//
// After a full nack the destination also enters a short "congested" hold
// (doubling per consecutive nack, cleared by any credit), so a stalled
// receiver is probed on a shared per-destination timer rather than hammered
// by every caller's private backoff clock.
//
// Thread-safety: one mutex + condvar for the whole controller. Window
// updates arrive from the node's delivery worker (every node maps to one
// shard, so feedback for one sender is applied in deterministic heap
// order); Acquire/Release run on guardian threads.
#ifndef GUARDIANS_SRC_NET_FLOW_H_
#define GUARDIANS_SRC_NET_FLOW_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "src/common/clock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/value/port_name.h"

namespace guardians {

struct FlowControlConfig {
  // Master switch for the whole credit protocol: when false, senders never
  // defer, receivers neither stamp credit on acks nor emit full nacks to
  // ack ports, and the pre-flow behaviour (blind backoff on ack timeout)
  // is exactly restored. The saturation bench runs both sides of this.
  bool enabled = true;
  double initial_window = 8.0;
  double min_window = 1.0;
  double max_window = 256.0;
  // Additive increase per credit: window += additive_increase / window,
  // the classic one-window-per-round-trip slope.
  double additive_increase = 1.0;
  // Multiplicative decrease: window *= decrease_factor on a full nack.
  double decrease_factor = 0.5;
  // Congested-hold length after a full nack; doubles per consecutive nack
  // up to reopen_max and resets on any credit.
  Micros reopen_initial{500};
  Micros reopen_max{20000};
};

class FlowController;

// RAII ownership of one in-flight slot of a destination's window. Obtained
// from FlowController::Acquire; releases on destruction. `ok()` is false
// when the window stayed closed until the caller's deadline — the send was
// deferred away entirely and never reached the wire.
class FlowSlot {
 public:
  FlowSlot() = default;
  FlowSlot(FlowSlot&& other) noexcept { *this = std::move(other); }
  FlowSlot& operator=(FlowSlot&& other) noexcept;
  FlowSlot(const FlowSlot&) = delete;
  FlowSlot& operator=(const FlowSlot&) = delete;
  ~FlowSlot() { Release(); }

  // True when the caller may send (slot granted, or flow control off).
  bool ok() const { return ok_; }
  // Release now, counting the round trip as an implicit credit (used by
  // RemoteCall, whose replies come from application guardians and so never
  // carry wire credit; without this, call-style windows could only shrink).
  void Success();
  void Release();

 private:
  friend class FlowController;
  FlowController* controller_ = nullptr;  // null when nothing to release
  PortName to_;
  uint64_t epoch_ = 0;
  bool ok_ = false;
};

class FlowController {
 public:
  // `metrics`/`traces` may be null (standalone unit tests). `node` labels
  // trace events with the sending node id. `clock` drives the congested
  // holds and deferred waits (null = wall clock; a node's view of a
  // SimulatedClock makes the holds virtual and skewable).
  FlowController(FlowControlConfig config, MetricsRegistry* metrics,
                 TraceBuffer* traces, uint32_t node,
                 const ClockSource* clock = nullptr);

  FlowController(const FlowController&) = delete;
  FlowController& operator=(const FlowController&) = delete;

  // Wait until the destination's window has room (in_flight < window and
  // not in a congested hold), then claim one in-flight slot. Returns a
  // slot with ok() == false if the window stayed closed until `deadline`.
  // When flow control is disabled or the controller is shut down the slot
  // is granted immediately without accounting.
  FlowSlot Acquire(const PortName& to, const Deadline& deadline);

  // Receiver feedback, applied on the sender's delivery path.
  // A credit grant piggybacked on a receipt ack: additive increase, clamp
  // the window to the advertised capacity, clear any congested hold.
  void OnCredit(const PortName& port, uint32_t queue_depth, uint32_t capacity);
  // `credits` coalesced grants for one port applied as one window update
  // (the batched delivery path collects a drained batch's credits per port
  // and flushes them here): equivalent to `credits` sequential OnCredit
  // calls carrying the run's final depth/capacity, under one lock.
  void OnCreditBatch(const PortName& port, uint32_t queue_depth,
                     uint32_t capacity, uint32_t credits);
  // A full-port nack carrying the receiver's current queue depth:
  // multiplicative decrease plus the congested hold. `trace_id` is the
  // nack envelope's (the shed message's trace): the delivery path that
  // applies it has no current trace of its own.
  void OnFullNack(const PortName& port, uint32_t queue_depth,
                  uint32_t capacity, uint64_t trace_id);
  // A successful round trip observed locally (reply received) with no wire
  // credit attached: additive increase only.
  void OnLocalSuccess(const PortName& port);

  // Introspection for tests and reports.
  double WindowFor(const PortName& to) const;
  size_t InFlightFor(const PortName& to) const;

  // Node crash: wake every waiter; subsequent Acquires are granted without
  // accounting (the send itself will fail with kNodeDown).
  void Shutdown();
  // Node restart: drop all window state (the peer's ports are gone or
  // recreated) and resume accounting.
  void Reset();

 private:
  struct Entry {
    double window = 0;
    size_t in_flight = 0;
    uint32_t capacity_hint = 0;     // 0 = receiver capacity unknown
    TimePoint congested_until{};    // holds Acquire after a full nack
    Micros reopen{0};               // current congested-hold length
  };

  friend class FlowSlot;
  void ReleaseSlot(const PortName& to, uint64_t epoch, bool success);
  // Both require mu_ held.
  Entry& EntryFor(const PortName& to);
  void Grow(Entry& entry);

  const FlowControlConfig config_;
  TraceBuffer* traces_;
  const uint32_t node_;
  const ClockSource* clock_;

  // Requires mu_ held: tells deferred senders that something changed.
  void NotifyLocked();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;                                 // guarded by mu_
  uint64_t epoch_ = 0;                                    // guarded by mu_
  // Bumped by every NotifyLocked; a deferred sender waits for it to move.
  uint64_t feedback_seq_ = 0;                             // guarded by mu_
  std::unordered_map<PortName, Entry, PortNameHash> entries_;  // mu_

  // flow.* metrics; null when no registry was given.
  Counter* credits_granted_ = nullptr;
  Counter* implicit_credits_ = nullptr;
  Counter* full_nacks_ = nullptr;
  Counter* sends_deferred_ = nullptr;
  Counter* acquire_timeouts_ = nullptr;
  Histogram* defer_wait_us_ = nullptr;
  Histogram* window_hist_ = nullptr;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_NET_FLOW_H_
