// Ports (Section 3.2): one-directional, typed, buffered gateways into a
// guardian.
//
// "There can be many ports on a single guardian; each port belongs to a
//  guardian, and only processes within that guardian can receive messages
//  from it... We assume that ports provide some buffer space so that
//  messages may be queued if necessary."
//
// All ports of one guardian share the guardian's mailbox (one mutex), so
// `receive on <port list>` is a priority-ordered scan plus a single wait —
// no polling. Each blocked receive waits on a record of its own, which
// names its ports, and a push wakes only the records that name the port it
// filled (DESIGN.md §8). Port buffer capacity is bounded:
// when there is no room, the incoming message is thrown away and, if it
// carried a replyto port, the system sends a failure message there
// (Section 3.4).
#ifndef GUARDIANS_SRC_GUARDIAN_PORT_H_
#define GUARDIANS_SRC_GUARDIAN_PORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/task.h"
#include "src/value/port_type.h"
#include "src/value/value.h"

namespace guardians {

// A message as handed to a receiving process: the decoded arguments plus
// the singled-out extra ports.
struct Received {
  std::string command;
  ValueList args;
  PortName reply_to;  // null when the sender expects no response
  PortName ack_to;    // null unless the sender used the synchronization send
  NodeId src_node = 0;
  uint64_t msg_id = 0;
  uint64_t trace_id = 0;  // the sender's causal chain (0 = untraced)
  // At-most-once identity of a tracked request (0 = untracked); the
  // runtime uses it to mark the op acknowledged when the receipt ack goes
  // out, so a suppressed duplicate can earn a replacement ack.
  uint64_t session_id = 0;
  uint64_t dedup_seq = 0;
  // Instant (on the receiving node's clock) at which this message's
  // propagated deadline budget runs out; TimePoint::max() = no deadline.
  // Computed at dispatch from the envelope's relative budget minus network
  // age, so it is meaningful even when sender and receiver clocks disagree.
  // Receive uses it to lazily discard entries whose budget died in the
  // queue, and to seed the handling thread's inherited deadline.
  TimePoint deadline_at = TimePoint::max();
  const class Port* port = nullptr;  // which port it arrived on
};

// Why a Push failed. A full buffer and a dead port are different designed-in
// loss events (§3.4), and the system failure(...) reply names which one
// happened.
enum class PushResult {
  kOk,
  kFull,     // buffer at capacity; sender may retry later
  kRetired,  // port retired or mailbox closed; retrying the same name is
             // useless until the guardian recreates the port
};

class Port;

// One blocked receive (DESIGN.md §8): the ports it waits on and its own
// wake-up. It lives on the receiving process's stack and is on its
// mailbox's list only while the receive waits, so a waker signals it while
// holding the mailbox lock, never after.
struct WaitRecord {
  std::span<Port* const> ports;
  std::atomic<bool> signalled{false};  // set under the mailbox lock
  CondVar cv;  // the one receive parked on it (a task or a thread)
  WaitRecord* prev = nullptr;  // the mailbox's list; guarded by its lock
  WaitRecord* next = nullptr;
};

// Shared mailbox of one guardian: the lock over every port's queue, and
// the records of the receives blocked on them. Closed on crash/shutdown so
// every blocked receive returns kNodeDown. Every member is guarded by mu.
struct Mailbox {
  std::mutex mu;
  bool closed = false;
  WaitRecord* waiters = nullptr;
  // Parked receives woken with nothing for them (Guardian::idle_wakeups).
  uint64_t idle_wakeups = 0;

  void AddLocked(WaitRecord* record);
  void RemoveLocked(WaitRecord* record);
  // Wake the records that name `port`, or every record.
  void SignalLocked(const Port* port);
  void SignalAllLocked();
  size_t WaitersLocked() const;
};

class Port {
 public:
  static constexpr size_t kDefaultCapacity = 64;
  // Extra admission slots above capacity_ reserved for control traffic
  // (receipt acks, failure nacks, supervisor probes). Backpressure only
  // works if its own signals are never shed: an ack dropped at a full port
  // reads as congestion and shrinks the sender's window further, a
  // positive feedback loop. Data cannot enter the headroom, so control
  // admitted there is bounded by kControlHeadroom per port.
  static constexpr size_t kControlHeadroom = 16;

  // `type` is the port type's entry in the system's PortTypeRegistry (or
  // any PortType that outlives the port); the port refers to it.
  Port(PortName name, const PortType* type, Mailbox* mailbox,
       size_t capacity)
      : name_(name), type_(type), mailbox_(mailbox), capacity_(capacity) {}

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  const PortName& name() const { return name_; }
  const PortType& type() const { return *type_; }
  size_t capacity() const { return capacity_; }

  // --- Runtime side (delivery workers) -------------------------------------
  // Enqueue a delivered message (consumed by move on success). On
  // kFull/kRetired the caller throws the message away (and synthesizes the
  // system failure reply naming the returned reason). `control` marks
  // backpressure-critical traffic admitted into kControlHeadroom slots
  // above capacity when the data buffer is full.
  PushResult Push(Received&& message, bool control = false);

  // One push plus whether it rode the control headroom (spares the caller
  // a separate control_overflow() before/after read).
  struct PushOutcome {
    PushResult result = PushResult::kOk;
    bool via_headroom = false;  // control admitted above capacity_
  };
  // A run of pushes into one port under one mailbox lock and (at most) one
  // signal to the receives waiting on the port — the batched delivery
  // path's amortization. The lock is held from construction; the signal,
  // if any push succeeded, comes at destruction, just before the lock is
  // released. Each message is admitted by the
  // same policy as Push, in order, so the outcomes are exactly what
  // per-message pushes would have produced. Finish failed pushes only
  // after the run ends: reading the port's depth takes the mailbox lock.
  class PushRun {
   public:
    explicit PushRun(Port& port);
    ~PushRun();
    PushRun(const PushRun&) = delete;
    PushRun& operator=(const PushRun&) = delete;

    PushOutcome Push(Received&& message, bool control);

   private:
    Port& port_;
    std::unique_lock<std::mutex> lock_;
    bool any_ok_ = false;
  };

  // Mark dead: no further pushes succeed, pending messages are dropped.
  // Used when an ephemeral reply port is retired.
  void Retire();
  bool retired() const;

  // --- Receiving side (guardian processes); called with mailbox.mu held ---
  bool HasMessageLocked() const { return !queue_.empty(); }
  Received PopLocked();

  // --- Stats ----------------------------------------------------------------
  uint64_t enqueued() const;
  uint64_t discarded_full() const;
  uint64_t discarded_retired() const;
  // Control messages admitted above capacity_ (headroom in use).
  uint64_t control_overflow() const;
  size_t depth() const;

  Mailbox* mailbox() const { return mailbox_; }

 private:
  // Admission logic of every push; requires mailbox_->mu held.
  PushOutcome PushLocked(Received&& message, bool control);

  const PortName name_;
  const PortType* const type_;
  Mailbox* mailbox_;
  const size_t capacity_;
  std::deque<Received> queue_;   // guarded by mailbox_->mu
  bool retired_ = false;         // guarded by mailbox_->mu
  uint64_t enqueued_ = 0;        // guarded by mailbox_->mu
  uint64_t discarded_full_ = 0;  // guarded by mailbox_->mu
  uint64_t discarded_retired_ = 0;  // guarded by mailbox_->mu
  uint64_t control_overflow_ = 0;   // guarded by mailbox_->mu
};

// Receiver-side at-most-once state (DESIGN.md §10). One table per node
// tracks, for every sender session, which tracked sequence numbers have
// already been accepted for execution, plus a bounded FIFO cache of the
// replies those executions produced. A re-delivered request is either
// suppressed outright (still executing, reply-less, or evicted — dropping
// a duplicate is always sound) or answered from the cache without
// re-executing.
//
// Sessions use a high-water mark plus an exact-seen window: sequence
// numbers above `high_water - window` are checked exactly (reordering
// within the window never false-positives), anything at or below the
// window floor is conservatively treated as already seen. At-most-once
// permits that: losing an ancient straggler is allowed, executing it
// twice is not.
//
// Not internally synchronized — NodeRuntime guards it with its dedup lock
// (delivery workers of one node may run concurrently for different source
// shards, and guardian threads cache replies while workers classify).
class DedupTable {
 public:
  struct Config {
    size_t window = 1024;               // exact-seen seqs kept per session
    size_t reply_cache_capacity = 256;  // cached replies per node (FIFO)
  };

  // What the original execution sent back; enough to rebuild a reply
  // envelope (the runtime stamps a fresh msg_id and the duplicate's trace).
  struct CachedReply {
    std::string command;
    ValueList args;
    PortName reply_to;  // where the original reply went
  };

  enum class Verdict {
    kFresh,      // never seen: execute
    kDuplicate,  // seen, no cached reply (in progress, reply-less, evicted)
    kReplay,     // seen and the reply is cached: resend it, don't execute
  };

  DedupTable() = default;
  explicit DedupTable(Config config) : config_(config) {}

  // Classify an incoming tracked (session, seq). On kReplay, *replay (if
  // non-null) receives a copy of the cached reply.
  Verdict Classify(uint64_t session, uint64_t seq, CachedReply* replay) const;

  // Record that (session, seq) was accepted for execution. Marked *before*
  // the message becomes visible to the guardian (the guardian may reply
  // the instant it can dequeue, and the reply correlation must already be
  // in place); a failed push is rolled back with Unmark so a retry can
  // still land.
  void MarkSeen(uint64_t session, uint64_t seq);

  // Roll back a MarkSeen whose push failed. Best effort: if the floor has
  // already slid past `seq` (another in-window op raced far ahead), the
  // seq stays conservatively seen and the sender's retries are dropped —
  // a loss at-most-once permits.
  void Unmark(uint64_t session, uint64_t seq);

  // Record that the receipt acknowledgement for (session, seq) was sent —
  // i.e. the original was genuinely dequeued by the application. Only then
  // may a suppressed duplicate carrying an ack port be re-acknowledged; a
  // duplicate of a message still sitting in the buffer must stay silent so
  // the sender's timeout semantics hold.
  void MarkAcked(uint64_t session, uint64_t seq);
  bool Acked(uint64_t session, uint64_t seq) const;

  // Cache (and implicitly mark seen) the reply for (session, seq). Evicts
  // the oldest cached reply beyond capacity; an evicted duplicate is then
  // suppressed without a reply, which at-most-once allows.
  void CacheReply(uint64_t session, uint64_t seq, CachedReply reply);

  // Highest seq seen for a session (0 if unknown); journaled alongside
  // cached replies so recovery restores the window floor.
  uint64_t HighWater(uint64_t session) const;

  // Crash recovery: treat every seq of `session` at or below `floor` as
  // already seen. Conservative — a pre-crash in-flight op below the floor
  // is dropped rather than executed, which at-most-once permits (its
  // sender reports a timeout); what it buys is that nothing executed and
  // replied-to before the crash can execute again after it.
  void RestoreFloor(uint64_t session, uint64_t floor);

  // Visit every cached reply, oldest first, as fn(session, seq, reply) —
  // the compaction snapshot, read in place.
  template <typename Fn>
  void ForEachCachedReply(Fn&& fn) const {
    for (const Key& key : reply_fifo_) {
      auto it = replies_.find(key);
      if (it != replies_.end()) {
        fn(key.first, key.second, it->second);
      }
    }
  }

  // Stamp activity for `session` at `now` (the node's clock). NodeRuntime
  // calls this from the batch dedup gate for every tracked envelope, so a
  // sender that keeps talking keeps its session alive.
  void Touch(uint64_t session, TimePoint now);

  // Drop every session idle for at least `idle` (plus its cached replies)
  // and return how many were dropped. Dropping a session forgets its
  // window — a *later* duplicate from that sender would classify kFresh
  // and re-execute — so the idle horizon must exceed any retry span. A
  // stamp in the future of `now` (the sweep raced a backward clock-skew
  // step) counts as current, never as idle: elapsed time is clamped at
  // zero, so skew can only delay a GC, not misfire one.
  size_t ExpireIdleSessions(TimePoint now, Micros idle);

  void Clear();

  size_t session_count() const { return sessions_.size(); }
  size_t cached_reply_count() const { return replies_.size(); }

 private:
  struct Session {
    uint64_t high_water = 0;
    uint64_t floor = 0;        // every seq <= floor counts as seen
    std::set<uint64_t> seen;   // exact seqs in (floor, high_water]
    std::set<uint64_t> acked;  // subset of seen whose receipt ack went out
    TimePoint last_touch{};    // last Touch(); epoch-zero = never stamped
  };

  using Key = std::pair<uint64_t, uint64_t>;  // (session, seq)

  Config config_;
  std::unordered_map<uint64_t, Session> sessions_;
  std::map<Key, CachedReply> replies_;
  std::deque<Key> reply_fifo_;  // eviction order
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_GUARDIAN_PORT_H_
