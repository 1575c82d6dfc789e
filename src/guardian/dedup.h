// The receiver half of at-most-once messaging (DESIGN.md §10), as one unit:
// the per-session dedup table and its reply cache, the correlation of
// executing requests with their replies, and the durable journal that
// carries both across a node crash.
//
// The journal is two log segments that take turns. Each reply to a tracked
// request is encoded once, straight into its WAL frame, and written to the
// active segment before the reply leaves (log-then-reply); the same frame
// then becomes the reply's cache entry, so a replay reads the record it was
// journaled as. When the active segment holds one reply cache's worth of
// reply records, it gets one floor record per session that holds a cached
// reply, the other segment is truncated, and a cell names the other
// segment active. Recovery reads the older segment, then the newer one.
#ifndef GUARDIANS_SRC_GUARDIAN_DEDUP_H_
#define GUARDIANS_SRC_GUARDIAN_DEDUP_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/obs/metrics.h"
#include "src/store/stable_store.h"
#include "src/store/wal.h"
#include "src/value/port_name.h"
#include "src/value/value.h"
#include "src/wire/codec.h"
#include "src/wire/envelope.h"
#include "src/wire/value_codec.h"

namespace guardians {

// Receiver-side at-most-once state. One table per node tracks, for every
// sender session, which tracked sequence numbers have already been
// accepted for execution, plus a bounded FIFO cache of the replies those
// executions produced. A re-delivered request is either suppressed
// outright (still executing, reply-less, or evicted — dropping a duplicate
// is always sound) or answered from the cache without re-executing.
//
// Sessions use a high-water mark plus an exact-seen window: sequence
// numbers above `high_water - window` are checked exactly (reordering
// within the window never false-positives), anything at or below the
// window floor is conservatively treated as already seen. At-most-once
// permits that: losing an ancient straggler is allowed, executing it
// twice is not.
//
// Not internally synchronized — DedupLayer guards it with its lock
// (delivery workers of one node may run concurrently for different source
// shards, and guardian processes cache replies while workers classify).
class DedupTable {
 public:
  struct Config {
    size_t window = 1024;               // exact-seen seqs kept per session
    size_t reply_cache_capacity = 256;  // cached replies per node (FIFO)
  };

  // What the original execution sent back; enough to rebuild a reply
  // envelope (the runtime stamps a fresh msg_id and the duplicate's trace).
  // A journaled reply keeps its args only in `record`, the journal record
  // it was written as ({s, q, hw, to, cmd, args}); DedupLayer::ReplayArgs
  // decodes them when a duplicate is answered. Copying an entry shares the
  // record's buffer.
  struct CachedReply {
    std::string command;
    ValueList args;     // empty when `record` holds them
    PortName reply_to;  // where the original reply went
    BufferSlice record{};
  };

  enum class Verdict {
    kFresh,      // never seen: execute
    kDuplicate,  // seen, no cached reply (in progress, reply-less, evicted)
    // At or below the session's window floor with no cached reply: counted
    // as seen by the floor's conservative rule alone, so it may never have
    // run. Suppressed like kDuplicate; counted apart so the loss shows.
    kBelowWindow,
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
  // The same for a request MarkSeen admitted while forget_epoch() read
  // `epoch`. If no session has been forgotten since, the seq is still seen
  // (a window slide only moves it under the floor), so it is not looked up
  // again: the exact-seen set is a tree whose nodes are rarely in cache.
  void CacheAdmittedReply(uint64_t session, uint64_t seq, uint64_t epoch,
                          CachedReply reply);
  // Advances whenever sessions are forgotten (idle sweep, Clear).
  uint64_t forget_epoch() const { return forget_epoch_; }

  // Highest seq seen for a session (0 if unknown); journaled alongside
  // cached replies so recovery restores the window floor.
  uint64_t HighWater(uint64_t session) const;

  // Crash recovery: treat every seq of `session` at or below `floor` as
  // already seen. Conservative — a pre-crash in-flight op below the floor
  // is dropped rather than executed, which at-most-once permits (its
  // sender reports a timeout); what it buys is that nothing executed and
  // replied-to before the crash can execute again after it.
  void RestoreFloor(uint64_t session, uint64_t floor);

  // Every session that holds a cached reply, ascending, once each: the
  // sessions a journal rotation writes floor records for.
  std::vector<uint64_t> SessionsWithCachedReplies() const;

  // Stamp activity for `session` at `now` (the system's base clock). The
  // dedup gate calls this for every tracked envelope, so a sender that
  // keeps talking keeps its session alive.
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

  // Inserts into the cache and its FIFO, evicting beyond capacity.
  void InsertReply(uint64_t session, uint64_t seq, CachedReply reply);

  Config config_;
  uint64_t forget_epoch_ = 0;
  std::unordered_map<uint64_t, Session> sessions_;
  std::map<Key, CachedReply> replies_;
  std::deque<Key> reply_fifo_;  // eviction order
};

// The journal's record of one cached reply, written into `enc`:
// byte-identical to the Wal encoding of Value::Record({{"s", session},
// {"q", seq}, {"hw", high_water}, {"to", reply_to}, {"cmd", command},
// {"args", Value::Array(args)}}), with the same limits and depth bound (the
// args sit at depth 2), but without building that Value tree or copying
// the reply. Reserves room for the record in one allocation up front.
Status EncodeDedupRecord(uint64_t session, uint64_t seq, uint64_t high_water,
                         const DedupTable::CachedReply& reply,
                         WireEncoder& enc);
// A floor record: {s: session, q: 0, hw: high_water}. Recovery restores
// the floor and caches nothing for it.
Status EncodeDedupFloor(uint64_t session, uint64_t high_water,
                        WireEncoder& enc);

// What recovery reads from a record without decoding its args.
struct DedupRecordHeader {
  uint64_t session = 0;
  uint64_t seq = 0;  // 0: a floor record
  uint64_t high_water = 0;
  bool has_reply = false;  // `to`, `cmd` and `args` are all present
  PortName reply_to;
  std::string command;
  size_t args_offset = 0;  // where the args array's tag starts
};
// Reads a record's fields up to its args (EncodeDedupRecord writes the
// args last; any field after them is ignored).
Result<DedupRecordHeader> ReadDedupRecordHeader(ConstByteSpan record);

// The node's at-most-once layer: the table, the reply correlation of
// executing requests, and the two-segment journal. Thread-safe.
//
// Locks: mu_ guards the table, the correlation map and the sweep stamp;
// it is never held across a Transmit or a device write. log_mu_ serializes
// journal appends and rotations, is taken before mu_ when both are
// needed, and is never held across a park: an append's modelled write
// latency is owed under it and waited after it is released.
class DedupLayer {
 public:
  // Reply records a segment takes before the journal rotates: the reply
  // cache's capacity. Once the active segment has taken this many, the
  // FIFO has evicted every reply whose record sits in the other segment,
  // so truncating that segment drops nothing that is still live.
  static constexpr uint64_t kSegmentReplies = 256;
  static_assert(kSegmentReplies == DedupTable::Config{}.reply_cache_capacity);

  // Registry counters, resolved by the owner once.
  struct Counters {
    Counter* journaled = nullptr;         // replies that reached the journal
    Counter* sessions_expired = nullptr;  // sessions dropped by the idle GC
    Counter* rotations = nullptr;         // completed segment rotations
  };

  // `base_clock` stamps session activity: the system's monotonic clock,
  // since idleness is a TTL and a TTL on a skewable clock misfires on every
  // jump. `session_idle` is SystemConfig::dedup_session_idle (0: no sweep).
  DedupLayer(StableStore* store, const ClockSource* base_clock,
             const ClockSource* node_clock, Micros session_idle,
             Counters counters);

  DedupLayer(const DedupLayer&) = delete;
  DedupLayer& operator=(const DedupLayer&) = delete;

  // The delivery gate: one lock hold classifies and admits every tracked
  // envelope of a delivery batch, in batch order, so the second copy of a
  // message duplicated within one batch classifies against the first
  // copy's admission. Opening the gate runs the idle-session sweep, at
  // most once per idle/4.
  class Gate {
   public:
    explicit Gate(DedupLayer& layer);

    Gate(const Gate&) = delete;
    Gate& operator=(const Gate&) = delete;

    // Classify a tracked arrival. On a non-fresh verdict *acked says
    // whether the original's receipt ack went out, and on kReplay *replay
    // receives the cached reply (its record shared, not copied).
    DedupTable::Verdict Classify(const Envelope& env,
                                 DedupTable::CachedReply* replay,
                                 bool* acked);
    // Admit a fresh tracked arrival for execution: marked seen, and its
    // reply port correlated with its (session, seq), before the push makes
    // it visible — the guardian may reply the instant it can dequeue.
    void Admit(const Envelope& env);

   private:
    DedupLayer& layer_;
    std::lock_guard<std::mutex> lock_;
    TimePoint now_;
  };

  // The original of (session, seq) was dequeued and its receipt ack sent.
  void MarkAcked(uint64_t session, uint64_t seq);
  // Roll back an admission whose message never executed (its push failed,
  // or its deadline died in the queue) so a retry can land; `reply_to` is
  // the message's reply port, null if it had none.
  void RollBack(uint64_t session, uint64_t seq, const PortName& reply_to);

  // If `env` answers an executing tracked request, journal it and cache
  // it, before it reaches the network: once the sender has seen the reply,
  // the reply must survive this node's crash, or a retry would re-execute
  // the operation. Runs on the replying process after the envelope was
  // encoded for the wire; takes env's command and args.
  void JournalReply(Envelope& env);

  // The args of a cached reply: decoded from its record when it has one.
  static Result<ValueList> ReplayArgs(const DedupTable::CachedReply& reply,
                                      const AbstractDecodeFn& decode_abstract);

  // The dead incarnation's volatile state goes with a crash.
  void Clear();
  // Boot: rebuild the floors and the reply cache from the journal, before
  // any traffic can arrive.
  Status Recover();

 private:
  struct PendingReply {
    uint64_t session = 0;
    uint64_t seq = 0;
    uint64_t epoch = 0;  // the table's forget_epoch() at admission
  };

  // Appends one floor record per session holding a cached reply to the
  // full segment, truncates the other and names it active. A failed step
  // leaves the rotation for the next append. log_mu_ held.
  void RotateLocked(Micros* owed);

  StableStore* store_;
  const ClockSource* base_clock_;
  const ClockSource* node_clock_;
  const Micros session_idle_;
  const Counters counters_;

  std::mutex mu_;
  DedupTable table_;
  TimePoint last_sweep_{};  // idle-GC cadence
  // reply port of an executing tracked request -> its dedup identity;
  // filled when the request is admitted, consumed by the first send the
  // node makes to that port (the reply).
  std::unordered_map<PortName, PendingReply, PortNameHash> pending_;

  std::mutex log_mu_;
  // Both segments' logs for the node's life.
  Wal segments_[2];
  int active_ = 0;                // guarded by log_mu_
  uint64_t active_replies_ = 0;   // reply records in the active segment
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_GUARDIAN_DEDUP_H_
