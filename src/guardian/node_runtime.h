// NodeRuntime: the abstract machine of one node — the part of the paper's
// system that "bears a strong resemblance to that provided by an operating
// system kernel".
//
// It owns the node's guardians, the primordial guardian ("each node comes
// into existence with a primordial guardian, which can create guardians at
// its node in response to messages arriving from guardians at other
// nodes"), the node's stable store, its transmittable-type registry, and
// the send/deliver paths with the exact Section 3.4 semantics:
//
//  - send: type-check against the guardian-header library, encode
//    arguments (left to right; an encode failure terminates the send),
//    construct the message, fragment into packets, hand to the network;
//    the sender continues immediately.
//  - deliver: reassemble, verify error-detection bits, decode with this
//    node's representations; if the target port or guardian doesn't exist
//    or the port has no room, throw the message away and — when it carried
//    a replyto port — send the system failure(...) message there.
//
// Crash() and Restart() implement the Section 2.2 fault model.
#ifndef GUARDIANS_SRC_GUARDIAN_NODE_RUNTIME_H_
#define GUARDIANS_SRC_GUARDIAN_NODE_RUNTIME_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/spin_park.h"
#include "src/guardian/dedup.h"
#include "src/guardian/guardian.h"
#include "src/guardian/port_registry.h"
#include "src/net/flow.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/store/stable_store.h"
#include "src/transmit/registry.h"
#include "src/wire/codec.h"
#include "src/wire/envelope.h"
#include "src/wire/packet.h"

namespace guardians {

class System;

class NodeRuntime {
 public:
  // Constructed by System::AddNode.
  NodeRuntime(System* system, NodeId id, std::string name, uint64_t seed);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  // --- Identity & components -------------------------------------------------
  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  System& system() { return *system_; }
  // This node's view of time. Everything the node does with time — send
  // deadlines, retry backoffs, reassembly ages, dedup-session idleness —
  // goes through here, so a simulated clock (with per-node skew) governs
  // the whole node.
  const ClockSource& clock() const { return *clock_; }
  StableStore& stable_store() { return stable_store_; }
  TransmitRegistry& transmit_registry() { return transmit_registry_; }

  // --- Guardian types & autonomy ----------------------------------------------
  // The owner of the node declares which guardian programs may run here.
  using Factory = std::function<std::unique_ptr<Guardian>()>;
  void RegisterGuardianType(const std::string& type_name, Factory factory);
  bool KnowsGuardianType(const std::string& type_name) const;

  // Owner policy consulted by the primordial guardian for remote creation
  // requests (Section 1.1 autonomy). Default: allow all registered types.
  using AdmissionPolicy =
      std::function<bool(const std::string& type_name, NodeId requester)>;
  void SetAdmissionPolicy(AdmissionPolicy policy);

  // --- Guardian creation (local) -----------------------------------------------
  // "The node at which a guardian is created is the node where it will
  //  exist for its lifetime. It must have been created by a guardian at
  //  that node." This API is only reachable from code running at this
  //  node; remote parties go through the primordial guardian.
  // Persistent guardians are re-created (via Recover) after a crash.
  Result<Guardian*> CreateGuardian(const std::string& type_name,
                                   const std::string& guardian_name,
                                   const ValueList& args,
                                   bool persistent = false);
  template <typename T>
  Result<T*> Create(const std::string& type_name,
                    const std::string& guardian_name, const ValueList& args,
                    bool persistent = false) {
    auto g = CreateGuardian(type_name, guardian_name, args, persistent);
    if (!g.ok()) {
      return g.status();
    }
    return static_cast<T*>(*g);
  }

  // Creation on behalf of a remote requester; consults the admission
  // policy. Called by the primordial guardian.
  Result<Guardian*> CreateGuardianForRemote(const std::string& type_name,
                                            const std::string& guardian_name,
                                            const ValueList& args,
                                            bool persistent, NodeId requester);

  // A guardian may self-destruct or be destroyed by a co-located guardian.
  Status DestroyGuardian(GuardianId gid);

  Guardian* FindGuardian(GuardianId gid) const;
  // First live guardian attached with this (non-empty) name; creation
  // idempotence keys on it so a retried create_guardian converges on the
  // guardian the first execution made.
  Guardian* FindGuardianByName(const std::string& guardian_name) const;
  // The port other nodes use to reach this node's primordial guardian.
  PortName PrimordialPort() const;

  // --- Crash & recovery (Section 2.2) -------------------------------------------
  // Power-fail: volatile state of every guardian is destroyed, processes
  // stop, in-flight traffic to the node is lost. The stable store survives.
  // Equivalent to BeginCrash() + FinishCrash().
  void Crash();
  // The crash split in two, so a crash plan firing *on a guardian thread*
  // can take the node down without self-joining. BeginCrash marks the node
  // down and closes every mailbox (safe from any thread, including the
  // crashing one); FinishCrash joins the processes and retires the dead
  // incarnation's guardians, and must come from outside the node (a test,
  // the supervisor, or the next Crash()/Restart(), which both imply it).
  void BeginCrash();
  void FinishCrash();
  // Boot: recreate the primordial guardian, then every persistent guardian
  // (same ids), running their recovery processes.
  Status Restart();
  bool IsUp() const { return up_.load(); }

  // Text snapshot of this node: its up/down state plus every live
  // guardian's port depths and drop reasons. One section of
  // System::Report(); the node's message counts live in the registry.
  std::string Report() const;

  // --- Transport internals (used by Guardian and the send primitives) ----------
  Status Transmit(Envelope env);
  // The receive credit (DESIGN.md §8), kept in ProcessLocals. A Receive
  // that returns a message and leaves its ports empty grants its process
  // one inline delivery (a Receive that leaves a backlog takes it away),
  // and the process's next Transmit spends it: that message's packets are
  // delivered on the sending carrier or thread when their shard is idle,
  // instead of waking the shard worker. So request/reply threads run each hop to completion while
  // they would otherwise sit idle, while backlogged receivers and threads
  // that only send (generators, floods, the delivery workers themselves)
  // keep the pipelined worker path.
  static void SetReceiveCredit(bool credited);
  // Returns the calling process's receive credit and clears it: how a
  // process that hands a received request to another process (a
  // serializer worker, a forked request process) passes the credit on.
  static bool TakeReceiveCredit();
  uint64_t NextMsgId();
  // At-most-once sender identity. The session id names this incarnation of
  // the node (random per Restart, so pre-crash seqs can never collide with
  // post-crash ones); each tracked logical operation draws one sequence
  // number and reuses it across every retry — that is what makes the
  // retries recognisable as duplicates at the receiver.
  uint64_t SendSession() const { return send_session_.load(); }
  uint64_t NextDedupSeq() { return dedup_seq_.fetch_add(1) + 1; }
  // `trace_id` ties the synthesized failure into the lost message's trace.
  void SendSystemFailure(const PortName& to, const std::string& reason,
                         uint64_t trace_id = 0);
  void SendAck(const Received& message);
  // The remote-call primitive's counters (sendprims.call.*), resolved once
  // at construction like the delivery counters, so a call pays no by-name
  // registry lookup.
  struct CallCounters {
    Counter* calls = nullptr;
    Counter* attempts = nullptr;
    Counter* timeouts = nullptr;
    Counter* deadline_exceeded = nullptr;
  };
  const CallCounters& call_counters() const { return call_counters_; }
  // The same for the synchronization send (sendprims.sync.*) and the
  // reliable send (sendprims.reliable.*).
  struct SyncCounters {
    Counter* calls = nullptr;
    Counter* timeouts = nullptr;
    Counter* expired = nullptr;
    Counter* full_nacks = nullptr;
  };
  const SyncCounters& sync_counters() const { return sync_counters_; }
  struct ReliableCounters {
    Counter* calls = nullptr;
    Counter* attempts = nullptr;
    Counter* timeouts = nullptr;
    Counter* deadline_exceeded = nullptr;
    Counter* ok = nullptr;
    Counter* hard_fail = nullptr;
    Counter* full_nacks = nullptr;
    Counter* exhausted = nullptr;
    Histogram* backoff_us = nullptr;
  };
  const ReliableCounters& reliable_counters() const {
    return reliable_counters_;
  }
  // The sender half of credit-based flow control (DESIGN.md §11): the
  // per-(destination port) AIMD windows this node's send primitives pace
  // against. Fed by piggybacked credit on incoming acks and by full-port
  // nacks, both consumed on this node's delivery path.
  FlowController& flow() { return flow_; }
  // Called by Guardian::Receive when a message is dequeued: counts it,
  // records the trace hop, and makes the message's trace the thread's
  // current trace (so replies join the sender's causal chain) and the
  // message's deadline the thread's inherited deadline (so nested sends
  // clamp to it).
  void NoteReceived(const Received& message);
  // Called by Guardian::Receive after each blocked wait: counts it in
  // guardian.wait.spun or guardian.wait.parked.
  void NoteWait(WaitEnd end);
  // Called by Guardian::Receive (outside the mailbox lock) for a dequeued
  // entry whose deadline budget died in the queue: counts/traces the
  // discard, rolls back the dedup mark so an in-deadline retry of the same
  // (session, seq) still executes exactly once, and sends the §3.4 failure
  // reply toward ack_to/reply_to.
  void FinishExpiredAtDequeue(Received message);
  // Expire stale reassembly partials now (the in-Add amortized sweep only
  // runs when packets arrive, so a link gone idle after a lost fragment
  // would pin its partials forever). Called from System::WaitQuiescent and
  // Report; safe from any thread.
  void SweepReassembler();
  Rng ForkRng();

 private:
  friend class System;

  // Sink of the network's delivery workers: one call per (this node,
  // drained batch), packets in delivery order. Consumes the batch (payloads
  // move into the reassembler, then the decoded envelopes move into their
  // target ports) — no copy of the message bytes or argument values on the
  // delivery path. Batching (DESIGN.md §12) amortizes this node's locks:
  // one reassembler acquisition per batch, one dedup-gate acquisition per
  // batch, one mailbox acquisition + receiver wake per run of same-port
  // envelopes, and per-port flow credit coalesced into one window update.
  void DeliverBatch(std::vector<Packet>&& batch);
  // What the dispatch pass does with one decoded envelope.
  enum class Action : uint8_t { kPush, kFail, kSuppress, kExpired };
  // Why a resolution failed; names the drop bucket and failure text.
  enum class DropKind : uint8_t { kNoGuardian, kNoPort, kTypeMismatch };
  // One message of a delivery batch, carried from reassembly to dispatch:
  // the reassembled bytes, then the decoded envelope and its surviving
  // deadline budget, then the plan the dispatch pass fills in.
  struct Inbound {
    // Views of the sender's encode buffer; the completing fragment's trace
    // id and network age.
    BufferSlice bytes;
    uint64_t trace_id = 0;
    int64_t age_micros = 0;
    Envelope env;
    // Deadline budget left after the network hop (kNoDeadlineRemaining =
    // unbudgeted); stamps Received::deadline_at on push.
    int64_t remaining_micros = 0;
    Port* port = nullptr;
    bool control = false;
    Action action = Action::kPush;
    DropKind drop_kind = DropKind::kNoGuardian;  // when action == kFail
    // Dedup-gate verdict (when action == kSuppress).
    DedupTable::Verdict verdict = DedupTable::Verdict::kFresh;
    DedupTable::CachedReply replay;
    bool original_acked = false;
    Port::PushOutcome pushed;  // when action == kPush, once pushed
  };
  // Consume the batch's piggybacked flow feedback in arrival order,
  // coalescing each port's credit run into one OnCreditBatch and flushing
  // a port's run before any nack for that port (per-port order is the only
  // order a window can observe).
  void ApplyFlowFeedback(const std::vector<Inbound>& batch);
  // Route every decoded envelope of one batch: resolve targets, shed
  // already-expired envelopes (before the dedup gate — an expired arrival
  // is never marked seen), run the one-acquisition dedup gate, then
  // execute pushes / failure replies / duplicate suppressions in batch
  // order.
  void DispatchEnvelopes(std::vector<Inbound>& batch);
  Result<Guardian*> CreateGuardianImpl(const std::string& type_name,
                                       const std::string& guardian_name,
                                       const ValueList& args, bool persistent);
  Status DestroyGuardianImpl(GuardianId gid);
  Status RestartImpl();
  std::vector<Guardian*> LiveGuardians() const;
  Status StartGuardian(Guardian* guardian, const std::string& type_name,
                       const std::string& guardian_name, GuardianId gid,
                       const ValueList& args, bool recovering);
  void PersistCreation(const std::string& type_name,
                       const std::string& guardian_name, GuardianId gid,
                       const ValueList& args);
  void PersistNextId();
  // Count/trace an unroutable envelope and send its failure(...) reply.
  void FinishUnroutable(const Envelope& env, DropKind kind);
  // Count/trace a push failure, roll back the dedup mark so a retry can
  // land, and send the failure reply (or the §11 flow nack on kFull).
  void FinishPushFailed(const Envelope& env, const Port& port,
                        PushResult pushed);
  // Complete a recognised re-delivery using the dedup gate's verdict:
  // count it, send a replacement ack if the original was dequeued, and
  // answer from the reply cache on kReplay (its args decoded here, outside
  // every dedup lock).
  void FinishSuppressed(const Envelope& env, DedupTable::Verdict verdict,
                        DedupTable::CachedReply replay, bool original_acked);
  // Count/trace an envelope shed on arrival because its propagated budget
  // was already spent, and send the §3.4 failure reply (ack_to first, so a
  // waiting SyncSend learns immediately; reply_to otherwise).
  void FinishExpired(const Envelope& env);
  // The full-port loss event as a flow-control signal: a failure envelope
  // whose fc fields carry the port's queue depth and capacity, sent to the
  // sender's ack port when it has one (the send primitives wait there) or
  // its reply port otherwise. Only used when flow control is enabled.
  void SendFlowNack(const Envelope& dropped, const Port& port);
  // Best-effort receiver state for stamping credit onto a replacement ack
  // (the original Received is gone; look the port up again).
  void StampFlowCredit(Envelope& ack, const PortName& about);

  System* system_;
  const NodeId id_;
  const std::string name_;
  const ClockSource* clock_;  // borrowed from system (per-node view)

  StableStore stable_store_;
  TransmitRegistry transmit_registry_;

  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
  AdmissionPolicy admission_policy_;
  std::map<GuardianId, std::unique_ptr<Guardian>> guardians_;
  // Crashed guardians are retired here rather than destroyed: application
  // threads may still hold pointers and be blocked in Receive on them (they
  // observe kNodeDown). Volatile *state* is what a crash destroys; the
  // husk objects are reclaimed when the node itself goes away.
  std::vector<std::unique_ptr<Guardian>> graveyard_;
  GuardianId next_guardian_id_ = 2;  // 1 is the primordial guardian
  Rng rng_;

  std::mutex reassembler_mu_;
  Reassembler reassembler_;

  std::atomic<bool> up_{false};
  // Crash progress, ordered with up_: BeginCrash publishes kCrashBeginning
  // *before* clearing up_, so any observer of a down node sees a state
  // FinishCrash can wait on (no window where the node looks down but a
  // concurrent Restart could boot under a still-running BeginCrash).
  enum : int { kNoCrash = 0, kCrashBeginning = 1, kCrashBegun = 2 };
  std::atomic<int> crash_state_{kNoCrash};
  std::atomic<uint64_t> msg_counter_{0};

  // --- At-most-once receiver/sender state -----------------------------------
  // The receiver half: table, reply correlation and journal (dedup.h). It
  // is never entered across a Transmit: a cached reply is taken out, then
  // resent outside its locks, so the journal path cannot deadlock against
  // delivery.
  DedupLayer dedup_;
  std::atomic<uint64_t> send_session_{0};
  std::atomic<uint64_t> dedup_seq_{0};

  // System-wide delivery/drop counters, resolved once at construction so
  // the delivery path's updates are single relaxed atomics. The registry
  // is the only store of these counts (DESIGN.md §7).
  struct DeliveryCounters {
    Counter* sent = nullptr;
    // Executions, not packets: one per envelope pushed into a port. Under
    // dup_prob or retries it stays below the network's delivered count,
    // because the dedup gate suppresses re-deliveries of tracked messages.
    Counter* delivered = nullptr;
    Counter* receives = nullptr;
    Counter* drop_no_guardian = nullptr;
    Counter* drop_no_port = nullptr;
    // A retired (or crash-closed) port is a different loss than a full
    // one: retrying the same name cannot help until the port is recreated.
    Counter* drop_port_retired = nullptr;
    Counter* drop_port_full = nullptr;
    Counter* drop_type_mismatch = nullptr;
    Counter* drop_decode_error = nullptr;
    Counter* drop_corrupt_fragment = nullptr;
    Counter* failures_synthesized = nullptr;
    Counter* acks_sent = nullptr;
    // At-most-once layer (DESIGN.md §10): tracked re-deliveries thrown
    // away instead of executed; those of them answered from the reply
    // cache; those of them seen only because they sit at or below their
    // session's window floor with no cached reply (they may never have
    // run: the loss at-most-once allows, made visible).
    Counter* dup_suppressed = nullptr;
    Counter* dup_replayed = nullptr;
    Counter* dup_below_window = nullptr;
    // Control messages admitted into port headroom above capacity — how
    // often the control-vs-data shedding policy actually fired.
    Counter* control_overflow = nullptr;
    // fc_full nacks shed at a full-headroom ack port: the sender lost the
    // fast congestion signal and degrades to its plain ack timeout.
    Counter* nacks_shed = nullptr;
    // Reassembler hygiene: partials discarded by the age sweep and by a
    // source's incarnation change (mirrored out of the per-node
    // Reassembler's own counters after each batch).
    Counter* reassembly_expired = nullptr;
    Counter* reassembly_session_dropped = nullptr;
    // Deadline shedding (§16): arrivals whose budget was spent in the
    // network (shed before dedup/dispatch) and queued entries whose budget
    // died in a port (discarded at dequeue).
    Counter* expired_shed = nullptr;
    Counter* expired_dequeue = nullptr;
    // How blocked receives waited (DESIGN.md §8): ended mid-spin, or parked.
    Counter* wait_spun = nullptr;
    Counter* wait_parked = nullptr;
  };
  DeliveryCounters counters_;
  CallCounters call_counters_;
  SyncCounters sync_counters_;
  ReliableCounters reliable_counters_;

  // Sender-side flow control state. Shut down with the node (waiters must
  // not outlive a crash), reset on restart (the peers' ports may be gone).
  FlowController flow_;
};

// Factory helper: MakeFactory<MyGuardian>() for RegisterGuardianType.
template <typename T>
NodeRuntime::Factory MakeFactory() {
  return [] { return std::make_unique<T>(); };
}

// A guardian with no behaviour of its own; used to *drive* a node from
// application or test code (every send must come from some guardian at some
// node — there is no thin air in this system).
class ShellGuardian : public Guardian {};

// Port type of every primordial guardian.
PortType PrimordialPortType();
// Port type for replies to create_guardian / ping.
PortType CreationReplyPortType();
// Port type of the hidden acknowledgement port of the synchronization send.
PortType AckPortType();

}  // namespace guardians

#endif  // GUARDIANS_SRC_GUARDIAN_NODE_RUNTIME_H_
