#include "src/guardian/node_runtime.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <thread>
#include <utility>

#include "src/common/log.h"
#include "src/common/task.h"
#include "src/fault/fault_injector.h"
#include "src/guardian/system.h"
#include "src/obs/trace.h"
#include "src/wire/codec.h"
#include "src/wire/value_codec.h"

namespace guardians {

namespace {

constexpr GuardianId kPrimordialId = 1;
constexpr char kMetaLogName[] = "node/meta";
constexpr char kNextIdCell[] = "node/next_guardian_id";

// Every record of the meta log, which DestroyGuardian rewrites by
// checkpoint, decoded: the snapshot's, then the log's. The snapshot is the
// kept records back to back, each a length-prefixed blob, installed by one
// crash-atomic Wal::Checkpoint: recovery finds either the old log or the
// kept records, never a truncated log without them.
Result<std::vector<Value>> RecoverRecords(Wal& wal) {
  GUARDIANS_ASSIGN_OR_RETURN(WalRecovery recovery, wal.Recover());
  std::vector<Value> values;
  auto decode = [&values](ConstByteSpan record) -> Status {
    WireDecoder dec(record);
    GUARDIANS_ASSIGN_OR_RETURN(Value v,
                               DecodeValue(dec, DefaultLimits(), nullptr));
    values.push_back(std::move(v));
    return OkStatus();
  };
  if (recovery.snapshot.has_value()) {
    WireDecoder snapshot(*recovery.snapshot);
    while (!snapshot.AtEnd()) {
      GUARDIANS_ASSIGN_OR_RETURN(
          Bytes record, snapshot.GetBlob(std::numeric_limits<uint64_t>::max()));
      GUARDIANS_RETURN_IF_ERROR(decode(record));
    }
  }
  for (const Bytes& record : recovery.records) {
    GUARDIANS_RETURN_IF_ERROR(decode(record));
  }
  return values;
}

// Sentinel for "this envelope carries no deadline budget" in the
// per-batch remaining-budget vector (deadline_micros == 0 on the wire).
constexpr int64_t kNoDeadlineRemaining =
    std::numeric_limits<int64_t>::max();
// The §3.4 failure text for a message shed because its propagated budget
// was spent. SyncSend matches on the prefix to map the nack to kTimeout
// (the sender's budget is gone — a port-full-style retry would be wasted
// work, which is exactly what shedding exists to avoid).
constexpr char kExpiredReason[] = "deadline expired before delivery";
constexpr char kExpiredQueueReason[] =
    "deadline expired while queued at target port";

// The primordial guardian: created with the node, never persistent-logged
// (it is always re-created on restart). It creates guardians at its node in
// response to messages arriving from guardians at other nodes, subject to
// the owner's admission policy.
class PrimordialGuardian : public Guardian {
 public:
  Status Setup(const ValueList& args) override {
    (void)args;
    AddPort(PrimordialPortType(), Port::kDefaultCapacity, /*provided=*/true);
    return OkStatus();
  }

  void Main() override {
    Port* requests = port(0);
    for (;;) {
      auto received = Receive(requests, Micros::max());
      if (!received.ok()) {
        return;  // node down
      }
      if (received->command == "create_guardian") {
        HandleCreate(*received);
      } else if (received->command == "ping") {
        if (!received->reply_to.IsNull()) {
          Status ignored = Send(received->reply_to, "pong", {});
          (void)ignored;
        }
      }
      // failure(...) messages to the primordial port are ignored.
    }
  }

 private:
  void HandleCreate(const Received& request) {
    const std::string type_name = request.args[0].string_value();
    const std::string guardian_name = request.args[1].string_value();
    const ValueList creation_args = request.args[2].items();
    const bool persistent = request.args[3].bool_value();

    auto refuse = [&](const std::string& why) {
      if (!request.reply_to.IsNull()) {
        Status ignored =
            Send(request.reply_to, "refused", {Value::Str(why)});
        (void)ignored;
      }
    };

    auto created = runtime().CreateGuardianForRemote(
        type_name, guardian_name, creation_args, persistent,
        request.src_node);
    if (!created.ok()) {
      refuse(created.status().ToString());
      return;
    }
    std::vector<Value> port_values;
    for (const PortName& pn : (*created)->ProvidedPorts()) {
      port_values.push_back(Value::OfPort(pn));
    }
    if (!request.reply_to.IsNull()) {
      Status ignored = Send(request.reply_to, "created",
                            {Value::Array(std::move(port_values))});
      (void)ignored;
    }
  }
};

}  // namespace

PortType PrimordialPortType() {
  return PortType(
      "primordial",
      {MessageSig{"create_guardian",
                  {ArgType::Of(TypeTag::kString),  // guardian type name
                   ArgType::Of(TypeTag::kString),  // instance name
                   ArgType::Of(TypeTag::kArray),   // creation arguments
                   ArgType::Of(TypeTag::kBool)},   // persistent?
                  {"created", "refused"}},
       MessageSig{"ping", {}, {"pong"}}});
}

PortType CreationReplyPortType() {
  return PortType("creation_reply",
                  {MessageSig{"created", {ArgType::Of(TypeTag::kArray)}, {}},
                   MessageSig{"refused", {ArgType::Of(TypeTag::kString)}, {}},
                   MessageSig{"pong", {}, {}}});
}

PortType AckPortType() {
  return PortType("sys_ack",
                  {MessageSig{"ack", {ArgType::Of(TypeTag::kString)}, {}}});
}

NodeRuntime::NodeRuntime(System* system, NodeId id, std::string name,
                         uint64_t seed)
    : system_(system), id_(id), name_(std::move(name)),
      clock_(system->clock_for_node(id)), rng_(seed),
      dedup_(&stable_store_, system->clock(), clock_,
             system->config().dedup_session_idle,
             DedupLayer::Counters{
                 system->metrics().counter("node.dedup.journaled"),
                 system->metrics().counter("node.dedup.sessions_expired"),
                 system->metrics().counter("node.dedup.rotations")}),
      flow_(system->config().flow, &system->metrics(), &system->traces(),
            id, system->clock_for_node(id)) {
  stable_store_.SetClock(clock_);
  MetricsRegistry& metrics = system_->metrics();
  counters_.sent = metrics.counter("node.messages_sent");
  counters_.delivered = metrics.counter("deliver.delivered");
  counters_.receives = metrics.counter("guardian.receives");
  counters_.wait_spun = metrics.counter("guardian.wait.spun");
  counters_.wait_parked = metrics.counter("guardian.wait.parked");
  counters_.drop_no_guardian = metrics.counter("deliver.drop.no_guardian");
  counters_.drop_no_port = metrics.counter("deliver.drop.no_port");
  counters_.drop_port_retired =
      metrics.counter("deliver.drop.port_retired");
  counters_.drop_port_full = metrics.counter("deliver.drop.port_full");
  counters_.drop_type_mismatch =
      metrics.counter("deliver.drop.type_mismatch");
  counters_.drop_decode_error =
      metrics.counter("deliver.drop.decode_error");
  counters_.drop_corrupt_fragment =
      metrics.counter("deliver.drop.corrupt_fragment");
  counters_.failures_synthesized =
      metrics.counter("deliver.failures_synthesized");
  counters_.acks_sent = metrics.counter("deliver.acks_sent");
  counters_.dup_suppressed = metrics.counter("deliver.dup.suppressed");
  counters_.dup_replayed = metrics.counter("deliver.dup.replayed");
  counters_.dup_below_window = metrics.counter("deliver.dup.below_window");
  counters_.control_overflow = metrics.counter("deliver.control_overflow");
  counters_.nacks_shed = metrics.counter("flow.nacks_shed");
  counters_.reassembly_expired = metrics.counter("net.reassembly.expired");
  counters_.reassembly_session_dropped =
      metrics.counter("net.reassembly.session_dropped");
  counters_.expired_shed = metrics.counter("deliver.expired.shed");
  counters_.expired_dequeue = metrics.counter("deliver.expired.queue");
  call_counters_.calls = metrics.counter("sendprims.call.calls");
  call_counters_.attempts = metrics.counter("sendprims.call.attempts");
  call_counters_.timeouts = metrics.counter("sendprims.call.timeouts");
  call_counters_.deadline_exceeded =
      metrics.counter("sendprims.call.deadline_exceeded");
  sync_counters_.calls = metrics.counter("sendprims.sync.calls");
  sync_counters_.timeouts = metrics.counter("sendprims.sync.timeouts");
  sync_counters_.expired = metrics.counter("sendprims.sync.expired");
  sync_counters_.full_nacks = metrics.counter("sendprims.sync.full_nacks");
  reliable_counters_.calls = metrics.counter("sendprims.reliable.calls");
  reliable_counters_.attempts = metrics.counter("sendprims.reliable.attempts");
  reliable_counters_.timeouts = metrics.counter("sendprims.reliable.timeouts");
  reliable_counters_.deadline_exceeded =
      metrics.counter("sendprims.reliable.deadline_exceeded");
  reliable_counters_.ok = metrics.counter("sendprims.reliable.ok");
  reliable_counters_.hard_fail =
      metrics.counter("sendprims.reliable.hard_fail");
  reliable_counters_.full_nacks =
      metrics.counter("sendprims.reliable.full_nacks");
  reliable_counters_.exhausted =
      metrics.counter("sendprims.reliable.exhausted");
  reliable_counters_.backoff_us =
      metrics.histogram("sendprims.reliable.backoff_us");
}

NodeRuntime::~NodeRuntime() { Crash(); }

void NodeRuntime::RegisterGuardianType(const std::string& type_name,
                                       Factory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  factories_[type_name] = std::move(factory);
}

bool NodeRuntime::KnowsGuardianType(const std::string& type_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.count(type_name) > 0;
}

void NodeRuntime::SetAdmissionPolicy(AdmissionPolicy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  admission_policy_ = std::move(policy);
}

Result<Guardian*> NodeRuntime::CreateGuardian(const std::string& type_name,
                                              const std::string& guardian_name,
                                              const ValueList& args,
                                              bool persistent) {
  // Creation does stable-storage work for this node, so it runs under this
  // node's fault scope; a crash plan firing inside turns into the same
  // kNodeDown the caller would see racing a real crash.
  ScopedFaultScope scope(this);
  try {
    return CreateGuardianImpl(type_name, guardian_name, args, persistent);
  } catch (const CrashTriggered&) {
    return Status(Code::kNodeDown, "node crashed during guardian creation");
  }
}

Result<Guardian*> NodeRuntime::CreateGuardianImpl(
    const std::string& type_name, const std::string& guardian_name,
    const ValueList& args, bool persistent) {
  if (!up_.load()) {
    return Status(Code::kNodeDown, "node is down");
  }
  Factory factory;
  GuardianId gid;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = factories_.find(type_name);
    if (it == factories_.end()) {
      return Status(Code::kNotFound,
                    "guardian type '" + type_name +
                        "' is not registered at node '" + name_ + "'");
    }
    factory = it->second;
    gid = next_guardian_id_++;
  }
  PersistNextId();

  std::unique_ptr<Guardian> guardian = factory();
  Guardian* raw = guardian.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    guardians_.emplace(gid, std::move(guardian));
  }
  raw->MarkPersistent(persistent);
  Status started = StartGuardian(raw, type_name, guardian_name, gid, args,
                                 /*recovering=*/false);
  if (!started.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    guardians_.erase(gid);
    return started;
  }
  if (persistent) {
    PersistCreation(type_name, guardian_name, gid, args);
  }
  return raw;
}

Result<Guardian*> NodeRuntime::CreateGuardianForRemote(
    const std::string& type_name, const std::string& guardian_name,
    const ValueList& args, bool persistent, NodeId requester) {
  AdmissionPolicy policy;
  {
    std::lock_guard<std::mutex> lock(mu_);
    policy = admission_policy_;
  }
  if (policy && !policy(type_name, requester)) {
    return Status(Code::kPermissionDenied,
                  "node '" + name_ + "' refused creation of '" + type_name +
                      "' for node " + std::to_string(requester));
  }
  // Remote creation is idempotent by (non-empty) name: a retried
  // create_guardian — sender resend, network duplicate that slipped past
  // dedup, or a retry after a crash in the logged-but-not-acked window —
  // converges on the guardian the first execution made instead of minting
  // a phantom. The primordial guardian serves creations one at a time, so
  // the check-then-create pair cannot race itself.
  if (!guardian_name.empty()) {
    if (Guardian* existing = FindGuardianByName(guardian_name)) {
      return existing;
    }
  }
  return CreateGuardian(type_name, guardian_name, args, persistent);
}

Guardian* NodeRuntime::FindGuardianByName(
    const std::string& guardian_name) const {
  if (guardian_name.empty()) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [gid, guardian] : guardians_) {
    if (guardian->name() == guardian_name) {
      return guardian.get();
    }
  }
  return nullptr;
}

Status NodeRuntime::DestroyGuardian(GuardianId gid) {
  ScopedFaultScope scope(this);
  try {
    return DestroyGuardianImpl(gid);
  } catch (const CrashTriggered&) {
    return Status(Code::kNodeDown, "node crashed during guardian destruction");
  }
}

Status NodeRuntime::DestroyGuardianImpl(GuardianId gid) {
  if (FindGuardian(gid) == nullptr) {
    return Status(Code::kNotFound, "no such guardian");
  }
  // Drop any persistent-creation record first, so the guardian is not
  // recovered: the meta log is rewritten as a snapshot of the records it
  // keeps (a scan and one crash-atomic checkpoint; a rare operation). A
  // store error leaves the log as it was, and the guardian running.
  Wal meta(&stable_store_, kMetaLogName);
  GUARDIANS_ASSIGN_OR_RETURN(std::vector<Value> records,
                             RecoverRecords(meta));
  WireEncoder snapshot;
  snapshot.PutU64(0);  // Checkpoint's epoch prefix
  bool dropped = false;
  for (const Value& record : records) {
    auto id_field = record.field("id");
    if (id_field.ok() && id_field->is(TypeTag::kInt) &&
        static_cast<GuardianId>(id_field->int_value()) == gid) {
      dropped = true;
      continue;
    }
    GUARDIANS_ASSIGN_OR_RETURN(Bytes kept, EncodeValueToBytes(record));
    snapshot.PutBlob(kept);
  }
  if (dropped) {
    GUARDIANS_RETURN_IF_ERROR(meta.Checkpoint(snapshot.Take()));
  }
  std::unique_ptr<Guardian> victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = guardians_.find(gid);
    if (it == guardians_.end()) {
      return Status(Code::kNotFound, "no such guardian");
    }
    victim = std::move(it->second);
    guardians_.erase(it);
  }
  victim->CloseMailbox();
  victim->JoinProcesses();
  return OkStatus();
}

Guardian* NodeRuntime::FindGuardian(GuardianId gid) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = guardians_.find(gid);
  return it != guardians_.end() ? it->second.get() : nullptr;
}

PortName NodeRuntime::PrimordialPort() const {
  PortName pn;
  pn.node = id_;
  pn.guardian = kPrimordialId;
  pn.port_index = 0;
  pn.type_hash = PrimordialPortType().hash();
  return pn;
}

Status NodeRuntime::StartGuardian(Guardian* guardian,
                                  const std::string& type_name,
                                  const std::string& guardian_name,
                                  GuardianId gid, const ValueList& args,
                                  bool recovering) {
  (void)type_name;
  uint64_t seal;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seal = rng_.NextU64() | 1;  // nonzero
  }
  guardian->Attach(this, gid, guardian_name, seal);
  Status init = recovering ? guardian->Recover(args) : guardian->Setup(args);
  if (!init.ok()) {
    return init;
  }
  guardian->Fork("main", [guardian] { guardian->Main(); });
  return OkStatus();
}

void NodeRuntime::PersistCreation(const std::string& type_name,
                                  const std::string& guardian_name,
                                  GuardianId gid, const ValueList& args) {
  Wal meta(&stable_store_, kMetaLogName);
  Value record = Value::Record({{"type", Value::Str(type_name)},
                                {"name", Value::Str(guardian_name)},
                                {"id", Value::Int(static_cast<int64_t>(gid))},
                                {"args", Value::Array(args)}});
  Status st = meta.AppendValue(record);
  if (!st.ok()) {
    GLOG_ERROR << "failed to persist creation of '" << guardian_name
               << "': " << st;
  }
}

void NodeRuntime::PersistNextId() {
  GuardianId next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    next = next_guardian_id_;
  }
  WireEncoder enc;
  enc.PutU64(next);
  Status st = stable_store_.PutCell(kNextIdCell, enc.bytes());
  if (!st.ok()) {
    GLOG_ERROR << "failed to persist next guardian id: " << st;
  }
}

std::vector<Guardian*> NodeRuntime::LiveGuardians() const {
  std::vector<Guardian*> gs;
  std::lock_guard<std::mutex> lock(mu_);
  gs.reserve(guardians_.size());
  for (const auto& [gid, guardian] : guardians_) {
    gs.push_back(guardian.get());
  }
  return gs;
}

void NodeRuntime::Crash() {
  BeginCrash();
  FinishCrash();
}

void NodeRuntime::BeginCrash() {
  int expected = kNoCrash;
  if (!crash_state_.compare_exchange_strong(expected, kCrashBeginning)) {
    return;  // another thread is already crashing the node
  }
  if (!up_.exchange(false)) {
    // The node was already down and fully retired (e.g. double Crash()).
    crash_state_.store(kNoCrash);
    return;
  }
  system_->network().SetNodeUp(id_, false);
  // Wake senders deferred on closed flow windows: their sends will fail
  // with kNodeDown instead of waiting out a window that can never reopen.
  flow_.Shutdown();
  // Close every mailbox so blocked receives return kNodeDown and every
  // guardian process starts winding down.
  for (Guardian* g : LiveGuardians()) {
    g->CloseMailbox();
  }
  crash_state_.store(kCrashBegun);
}

void NodeRuntime::FinishCrash() {
  // A BeginCrash may still be running on another thread (a crash plan
  // fires on a guardian thread; Crash()/Restart() come from outside): wait
  // for it to publish kCrashBegun before claiming the cleanup.
  int state = crash_state_.load();
  while (state == kCrashBeginning) {
    std::this_thread::yield();
    state = crash_state_.load();
  }
  if (state != kCrashBegun ||
      !crash_state_.compare_exchange_strong(state, kNoCrash)) {
    return;  // nothing pending, or another FinishCrash claimed it
  }
  std::vector<Guardian*> gs = LiveGuardians();
  // Wait for every process to observe the crash and exit...
  for (Guardian* g : gs) {
    g->JoinProcesses();
  }
  // ...then retire them. Their volatile state is unreachable from the new
  // incarnation (the map is emptied), but the objects stay alive so
  // application threads blocked on them fail cleanly with kNodeDown.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [gid, guardian] : guardians_) {
      graveyard_.push_back(std::move(guardian));
    }
    guardians_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(reassembler_mu_);
    reassembler_ = Reassembler();
  }
  {
    // The dedup table is volatile state of the dead incarnation; the next
    // Restart rebuilds what matters (seen floors, cached replies) from the
    // dedup journal.
    dedup_.Clear();
  }
}

Status NodeRuntime::Restart() {
  // Complete any crash-plan-initiated crash first, then boot under this
  // node's fault scope (recovery replay is stable-storage work too).
  FinishCrash();
  ScopedFaultScope scope(this);
  try {
    return RestartImpl();
  } catch (const CrashTriggered&) {
    return Status(Code::kNodeDown, "node crashed during recovery");
  }
}

Status NodeRuntime::RestartImpl() {
  if (up_.load()) {
    return Status(Code::kInvalidArgument, "node is already up");
  }
  // Recover the creation counter first so recreated and new guardians get
  // non-colliding ids.
  {
    auto cell = stable_store_.GetCell(kNextIdCell);
    std::lock_guard<std::mutex> lock(mu_);
    next_guardian_id_ = 2;
    if (cell.ok()) {
      WireDecoder dec(*cell);
      auto next = dec.GetU64();
      if (next.ok()) {
        next_guardian_id_ = *next;
      }
    }
  }
  // A fresh at-most-once session: nonzero and random, so sequence numbers
  // issued before the crash can never be mistaken for this incarnation's.
  {
    std::lock_guard<std::mutex> lock(mu_);
    send_session_.store(rng_.NextU64() | 1);
  }
  dedup_seq_.store(0);
  // Rebuild the receiver-side dedup state from the journal before any
  // traffic can arrive, so retries of pre-crash operations are recognised.
  GUARDIANS_RETURN_IF_ERROR(dedup_.Recover());

  // Window state learned against the dead incarnation's ports is stale;
  // start the new incarnation's windows from initial_window.
  flow_.Reset();

  up_.store(true);
  system_->network().SetNodeUp(id_, true);

  // The primordial guardian comes into existence with the node.
  {
    auto primordial = std::make_unique<PrimordialGuardian>();
    Guardian* raw = primordial.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      guardians_.emplace(kPrimordialId, std::move(primordial));
    }
    Status started = StartGuardian(raw, "primordial", "primordial",
                                   kPrimordialId, {}, /*recovering=*/false);
    if (!started.ok()) {
      return started;
    }
  }

  // Re-create persistent guardians and run their recovery processes.
  Wal meta(&stable_store_, kMetaLogName);
  GUARDIANS_ASSIGN_OR_RETURN(std::vector<Value> records,
                             RecoverRecords(meta));
  for (const auto& record : records) {
    GUARDIANS_ASSIGN_OR_RETURN(Value type_field, record.field("type"));
    GUARDIANS_ASSIGN_OR_RETURN(Value name_field, record.field("name"));
    GUARDIANS_ASSIGN_OR_RETURN(Value id_field, record.field("id"));
    GUARDIANS_ASSIGN_OR_RETURN(Value args_field, record.field("args"));
    const std::string type_name = type_field.string_value();
    const std::string guardian_name = name_field.string_value();
    const GuardianId gid = static_cast<GuardianId>(id_field.int_value());
    const ValueList creation_args = args_field.items();

    Factory factory;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = factories_.find(type_name);
      if (it == factories_.end()) {
        GLOG_ERROR << "cannot recover guardian '" << guardian_name
                   << "': type '" << type_name << "' not registered";
        continue;
      }
      factory = it->second;
    }
    std::unique_ptr<Guardian> guardian = factory();
    Guardian* raw = guardian.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      guardians_.emplace(gid, std::move(guardian));
    }
    raw->MarkPersistent(true);
    Status started = StartGuardian(raw, type_name, guardian_name, gid,
                                   creation_args, /*recovering=*/true);
    if (!started.ok()) {
      GLOG_ERROR << "recovery of guardian '" << guardian_name
                 << "' failed: " << started;
      std::lock_guard<std::mutex> lock(mu_);
      guardians_.erase(gid);
    }
  }
  return OkStatus();
}

uint64_t NodeRuntime::NextMsgId() {
  // Node id in the high bits keeps ids globally unique.
  return (static_cast<uint64_t>(id_) << 40) | (msg_counter_.fetch_add(1) + 1);
}

Rng NodeRuntime::ForkRng() {
  std::lock_guard<std::mutex> lock(mu_);
  return rng_.Fork();
}

Status NodeRuntime::Transmit(Envelope env) {
  if (!up_.load()) {
    return Status(Code::kNodeDown, "node is down");
  }
  if (env.target.IsNull()) {
    return Status(Code::kInvalidArgument, "send to null port");
  }
  // Type check against the guardian-header library — the moved-to-send-time
  // analog of the paper's compile-time checking. The implicit failure
  // message is always legal.
  if (env.command != kFailureCommand) {
    const PortType* port_type =
        system_->port_types().Lookup(env.target.type_hash);
    if (port_type == nullptr) {
      return Status(Code::kTypeError,
                    "port type not in the guardian-header library");
    }
    GUARDIANS_RETURN_IF_ERROR(
        port_type->Check(env.command, env.args, env.HasReply()));
  }
  // Steps 1+2 of the send semantics: encode arguments left to right, then
  // construct the message. An encode failure terminates the send here.
  auto bytes = EncodeEnvelope(env, system_->limits());
  if (!bytes.ok()) {
    return bytes.status();
  }
  // If this send answers a tracked request, journal and cache it *before*
  // it can reach the wire: once the sender has seen the reply, the reply
  // must survive our crash, or a retry would re-execute the operation.
  dedup_.JournalReply(env);
  // Step 3: fragment and hand to the network. The sender continues as soon
  // as this returns; delivery is not guaranteed. The hop's trace event
  // carries no detail: trace id, node and point already identify it.
  system_->traces().Record(env.trace_id, id_, "send");
  // Every fragment carries this incarnation's session id: the receiver's
  // reassembler keys partials on it, so a post-restart reuse of a msg_id
  // can never complete a message begun by the previous incarnation.
  auto packets = Fragment(std::move(*bytes), env.msg_id, id_, env.target.node,
                          system_->limits().max_packet_payload, env.trace_id,
                          SendSession());
  {
    // The whole message in one Send, spending this thread's receive credit
    // if it has one. An inline drain is the network's work, not this
    // node's, so it runs under no fault scope, as a worker's drain does.
    ScopedFaultScope network_scope(nullptr);
    system_->network().Send(
        packets, std::exchange(CurrentProcessLocals().receive_credit, false));
  }
  counters_.sent->Inc();
  return OkStatus();
}

void NodeRuntime::SetReceiveCredit(bool credited) {
  CurrentProcessLocals().receive_credit = credited;
}

bool NodeRuntime::TakeReceiveCredit() {
  return std::exchange(CurrentProcessLocals().receive_credit, false);
}

void NodeRuntime::SendSystemFailure(const PortName& to,
                                    const std::string& reason,
                                    uint64_t trace_id) {
  if (to.IsNull()) {
    return;
  }
  Envelope env;
  env.msg_id = NextMsgId();
  env.trace_id = trace_id;  // the failure reply joins the lost message's trace
  env.src_node = id_;
  env.target = to;
  env.command = kFailureCommand;
  env.args = {Value::Str(reason)};
  // Failure envelopes carry no reply port, so they can never loop.
  Status st = Transmit(std::move(env));
  (void)st;
  counters_.failures_synthesized->Inc();
}

void NodeRuntime::SendAck(const Received& message) {
  if (message.dedup_seq != 0) {
    // The application has genuinely dequeued this tracked message; from
    // now on a suppressed duplicate may be answered with a replacement
    // ack (the original ack might be the very packet that was lost).
    dedup_.MarkAcked(message.session_id, message.dedup_seq);
  }
  Envelope env;
  env.msg_id = NextMsgId();
  env.trace_id = message.trace_id;
  env.src_node = id_;
  env.target = message.ack_to;
  env.command = "ack";
  env.args = {Value::Str(std::to_string(message.msg_id))};
  if (system_->config().flow.enabled && message.port != nullptr) {
    // Piggyback a credit grant: the ack is sent at dequeue, so the depth
    // here is the post-consumption queue — exactly the receiver state the
    // sender's window should track.
    env.fc_port = message.port->name();
    env.fc_depth = static_cast<uint32_t>(message.port->depth());
    env.fc_capacity = static_cast<uint32_t>(message.port->capacity());
  }
  Status st = Transmit(std::move(env));
  (void)st;
  counters_.acks_sent->Inc();
}

void NodeRuntime::NoteWait(WaitEnd end) {
  (end == WaitEnd::kSpun ? counters_.wait_spun : counters_.wait_parked)
      ->Inc();
}

void NodeRuntime::NoteReceived(const Received& message) {
  counters_.receives->Inc();
  SetCurrentTraceId(message.trace_id);
  // Unconditional: an unbudgeted message must clear any deadline a prior
  // message left on this thread, or its budget would leak into unrelated
  // nested sends.
  SetCurrentDeadlineAt(message.deadline_at);
  system_->traces().Record(message.trace_id, id_, "recv");
}

void NodeRuntime::DeliverBatch(std::vector<Packet>&& batch) {
  if (!up_.load() || batch.empty()) {
    return;
  }
  // --- Reassembly: one reassembler-lock round-trip for the whole batch.
  // Only payloads move in; each packet's trace id stays readable for drop
  // attribution. Completed messages come out in packet order, one Inbound
  // record each, and that record carries the message through decode and
  // dispatch. The age and incarnation sweeps run inside Add; their
  // counters are mirrored into the metrics registry by delta while the
  // lock is still held. Completed messages are slices sharing their
  // sender's encode buffer — reassembly completion was at most one gather,
  // usually none.
  std::vector<Inbound> inbound;
  const TimePoint node_now = clock_->Now();
  {
    std::lock_guard<std::mutex> lock(reassembler_mu_);
    const uint64_t expired_before = reassembler_.expired();
    const uint64_t sessions_before = reassembler_.session_dropped();
    for (Packet& packet : batch) {
      const uint64_t trace_id = packet.trace_id;
      int64_t age_micros = 0;
      auto added = reassembler_.Add(std::move(packet), node_now, &age_micros);
      if (!added.ok()) {
        counters_.drop_corrupt_fragment->Inc();
        system_->traces().Record(trace_id, id_,
                                 "port.drop.corrupt_fragment",
                                 added.status().message());
        continue;
      }
      std::optional<BufferSlice> message = added.take();
      if (message.has_value()) {
        Inbound& in = inbound.emplace_back();
        in.bytes = std::move(*message);
        in.trace_id = trace_id;
        in.age_micros = age_micros;
      }
    }
    const uint64_t expired = reassembler_.expired() - expired_before;
    if (expired > 0) {
      counters_.reassembly_expired->Inc(expired);
    }
    const uint64_t dropped = reassembler_.session_dropped() - sessions_before;
    if (dropped > 0) {
      counters_.reassembly_session_dropped->Inc(dropped);
    }
  }

  // --- Decode with this node's representations (no locks held). Each
  // budgeted envelope's remaining deadline is its wire budget minus the
  // network age the hop observed — the §16 per-hop decrement, computed
  // entirely from relative quantities so clock skew cannot inflate or
  // deflate it. A message that fails to decode is finished here and
  // leaves the batch.
  size_t decoded = 0;
  for (size_t i = 0; i < inbound.size(); ++i) {
    Inbound& in = inbound[i];
    auto env = DecodeEnvelope(in.bytes, system_->limits(),
                              transmit_registry_.AsDecodeFn());
    if (!env.ok()) {
      counters_.drop_decode_error->Inc();
      system_->traces().Record(in.trace_id, id_, "port.drop.decode_error",
                               env.status().message());
      // The header may still be readable; if the sender asked for replies,
      // tell it the message was thrown away.
      auto header = DecodeEnvelopeHeader(in.bytes, system_->limits());
      if (header.ok() && header->HasReply()) {
        SendSystemFailure(header->reply_to,
                          "message could not be decoded at target node: " +
                              env.status().message(),
                          header->trace_id);
      }
      continue;
    }
    in.env = env.take();
    // Every hop charges at least 1us: a zero observed age is possible (a
    // negative jitter draw clamps the delivery delay to zero, and under
    // virtual time no residual wall microseconds leak in), and a budget
    // that "survives" such a hop unspent would execute at the same
    // virtual instant it expired. The floor makes "a 1us budget cannot
    // survive any hop" hold on every clock.
    in.remaining_micros =
        in.env.deadline_micros == 0
            ? kNoDeadlineRemaining
            : static_cast<int64_t>(in.env.deadline_micros) -
                  std::max<int64_t>(in.age_micros, 1);
    if (decoded != i) {
      inbound[decoded] = std::move(in);
    }
    ++decoded;
  }
  inbound.resize(decoded);
  if (inbound.empty()) {
    return;
  }

  // Piggybacked flow feedback first: it describes ports at *peers* and
  // updates this node's sender-side windows, independent of whatever
  // happens to each carrying envelope below (even a message bound for a
  // dead port still delivers its credit). All packets for this node go
  // through one shard, so feedback is applied in deterministic order.
  ApplyFlowFeedback(inbound);
  DispatchEnvelopes(inbound);
}

void NodeRuntime::ApplyFlowFeedback(const std::vector<Inbound>& batch) {
  // A batch's credit grants for one port collapse into one coalesced
  // window update (DESIGN.md §12). Per-port order is all a window can
  // observe, so the only constraint is that a port's pending credit run
  // flushes before a nack for that same port. Runs are few (one per
  // distinct fed-back port), so a linear scan beats a map.
  struct CreditRun {
    PortName port;
    uint32_t depth = 0;     // latest advertised values win, as they would
    uint32_t capacity = 0;  // applying the credits one at a time
    uint32_t credits = 0;
  };
  std::vector<CreditRun> runs;
  for (const Inbound& in : batch) {
    const Envelope& env = in.env;
    if (!env.HasFlowFeedback()) {
      continue;
    }
    CreditRun* run = nullptr;
    for (CreditRun& candidate : runs) {
      if (candidate.port == env.fc_port) {
        run = &candidate;
        break;
      }
    }
    if (env.fc_full) {
      if (run != nullptr && run->credits > 0) {
        flow_.OnCreditBatch(run->port, run->depth, run->capacity,
                            run->credits);
        run->credits = 0;
      }
      flow_.OnFullNack(env.fc_port, env.fc_depth, env.fc_capacity,
                       env.trace_id);
      continue;
    }
    if (run == nullptr) {
      runs.push_back(CreditRun{env.fc_port, 0, 0, 0});
      run = &runs.back();
    }
    run->depth = env.fc_depth;
    run->capacity = env.fc_capacity;
    ++run->credits;
  }
  for (const CreditRun& run : runs) {
    if (run.credits > 0) {
      flow_.OnCreditBatch(run.port, run.depth, run.capacity, run.credits);
    }
  }
}

void NodeRuntime::DispatchEnvelopes(std::vector<Inbound>& batch) {
  // Resolution pass: look each target up, no side effects yet — failure
  // replies wait for the dedup gate, because a duplicate whose target has
  // since retired or been destroyed must be answered (or silently
  // absorbed) as a duplicate, not failure-messaged, exactly as the
  // per-packet path ordered its checks.
  for (Inbound& in : batch) {
    const Envelope& e = in.env;
    Guardian* guardian = FindGuardian(e.target.guardian);
    Port* port =
        guardian != nullptr ? guardian->FindPort(e.target.port_index) : nullptr;
    if (guardian == nullptr) {
      in.action = Action::kFail;
      in.drop_kind = DropKind::kNoGuardian;
    } else if (port == nullptr) {
      in.action = Action::kFail;
      in.drop_kind = DropKind::kNoPort;
    } else if (port->type().hash() != e.target.type_hash) {
      // A stale name: the guardian was re-created with different ports.
      in.action = Action::kFail;
      in.drop_kind = DropKind::kTypeMismatch;
    } else {
      in.port = port;
      // Control traffic — acks, failure nacks, creation/probe replies —
      // is the backpressure signal itself; it may use the port's headroom
      // when the data buffer is full (DESIGN.md §11 shedding policy).
      in.control = e.command == kFailureCommand || e.command == "ack" ||
                   e.command == "ping" || e.command == "pong";
    }
    if (in.remaining_micros != kNoDeadlineRemaining &&
        in.remaining_micros <= 0 && !in.control) {
      // The budget was spent in the network: shed before the dedup gate
      // (the arrival is never marked seen, so an in-deadline retry of the
      // same (session, seq) classifies fresh) and before any dispatch
      // work. Shedding wins over the resolution outcome — the sender's
      // budget is gone either way, and the expired nack says so directly.
      // Control traffic is exempt: acks and nacks are the backpressure
      // signal itself and carry no work worth shedding.
      in.action = Action::kExpired;
    }
  }

  // At-most-once gate: ONE dedup-lock round-trip classifies and marks
  // every tracked envelope of the batch, in batch order — so the second
  // copy of a message duplicated within one batch classifies against the
  // first copy's MarkSeen and is suppressed. Marking happens BEFORE the
  // push makes a message visible: the guardian may dequeue and reply the
  // instant the mailbox signals, and by then the pending-reply entry must
  // already exist or the reply escapes unjournaled and uncached. A failed
  // push rolls back in FinishPushFailed so a retry can still land. An
  // unroutable fresh envelope is deliberately NOT marked: its retry must
  // execute once the target exists.
  {
    DedupLayer::Gate gate(dedup_);
    for (Inbound& in : batch) {
      const Envelope& e = in.env;
      if (in.action == Action::kExpired) {
        // Shed before the gate: an expired arrival is never classified,
        // marked, or touched, so a later in-deadline retry of the same
        // (session, seq) is kFresh and executes exactly once.
        continue;
      }
      if (!e.Tracked()) {
        continue;
      }
      in.verdict = gate.Classify(e, &in.replay, &in.original_acked);
      if (in.verdict != DedupTable::Verdict::kFresh) {
        in.action = Action::kSuppress;
        continue;
      }
      if (in.action == Action::kPush) {
        gate.Admit(e);
      }
    }
  }

  // Execution pass, in batch order. Runs of consecutive pushes into one
  // (port, control-class) pair share one PushRun — one mailbox lock and at
  // most one receiver wake per run. Failed pushes are finished after the
  // run has released the mailbox.
  const TimePoint dispatch_now = clock_->Now();
  size_t i = 0;
  while (i < batch.size()) {
    Inbound& first = batch[i];
    if (first.action == Action::kExpired) {
      FinishExpired(first.env);
      ++i;
      continue;
    }
    if (first.action == Action::kSuppress) {
      FinishSuppressed(first.env, first.verdict, std::move(first.replay),
                       first.original_acked);
      ++i;
      continue;
    }
    if (first.action == Action::kFail) {
      FinishUnroutable(first.env, first.drop_kind);
      ++i;
      continue;
    }
    size_t end = i + 1;
    while (end < batch.size() && batch[end].action == Action::kPush &&
           batch[end].port == first.port &&
           batch[end].control == first.control) {
      ++end;
    }
    {
      Port::PushRun run(*first.port);
      for (size_t k = i; k < end; ++k) {
        Inbound& in = batch[k];
        Envelope& e = in.env;
        Received message;
        message.command = std::move(e.command);
        message.args = std::move(e.args);
        message.reply_to = e.reply_to;
        message.ack_to = e.ack_to;
        message.src_node = e.src_node;
        message.msg_id = e.msg_id;
        message.trace_id = e.trace_id;
        message.session_id = e.session_id;
        message.dedup_seq = e.dedup_seq;
        if (in.remaining_micros != kNoDeadlineRemaining) {
          // Project the surviving budget onto this node's clock so dequeue
          // can lazily discard entries whose budget dies in the queue.
          message.deadline_at = dispatch_now + Micros(in.remaining_micros);
        }
        in.pushed = run.Push(std::move(message), in.control);
      }
    }
    for (size_t k = i; k < end; ++k) {
      const Inbound& in = batch[k];
      if (in.pushed.result != PushResult::kOk) {
        FinishPushFailed(in.env, *in.port, in.pushed.result);
        continue;
      }
      if (in.pushed.via_headroom) {
        counters_.control_overflow->Inc();
      }
      counters_.delivered->Inc();
      system_->traces().Record(in.env.trace_id, id_, "port.enqueued");
    }
    i = end;
  }
}

void NodeRuntime::FinishUnroutable(const Envelope& env, DropKind kind) {
  const char* trace_event = nullptr;
  const char* reason = nullptr;
  switch (kind) {
    case DropKind::kNoGuardian:
      counters_.drop_no_guardian->Inc();
      trace_event = "port.drop.no_guardian";
      reason = "target guardian doesn't exist";
      break;
    case DropKind::kNoPort:
      counters_.drop_no_port->Inc();
      trace_event = "port.drop.no_port";
      reason = "target port doesn't exist";
      break;
    case DropKind::kTypeMismatch:
      counters_.drop_type_mismatch->Inc();
      trace_event = "port.drop.type_mismatch";
      reason = "target port type mismatch";
      break;
  }
  system_->traces().Record(env.trace_id, id_, trace_event,
                           env.target.ToString());
  SendSystemFailure(env.reply_to, reason, env.trace_id);
}

void NodeRuntime::FinishExpired(const Envelope& env) {
  counters_.expired_shed->Inc();
  system_->traces().Record(env.trace_id, id_, "deliver.expired.shed",
                           env.command + " -> " + env.target.ToString());
  // Ack port first: the send primitives wait there, so a SyncSend learns
  // immediately that its budget died in flight instead of burning the
  // rest of the attempt on an ack that can never come.
  const PortName to = env.HasAck() ? env.ack_to : env.reply_to;
  SendSystemFailure(to, kExpiredReason, env.trace_id);
}

void NodeRuntime::FinishExpiredAtDequeue(Received message) {
  if (message.dedup_seq != 0) {
    // Mirror FinishPushFailed's rollback: the dedup gate marked this
    // message seen when it was enqueued, but it never executed — an
    // in-deadline retry of the same (session, seq) must classify fresh
    // and execute exactly once.
    dedup_.RollBack(message.session_id, message.dedup_seq, message.reply_to);
  }
  counters_.expired_dequeue->Inc();
  system_->traces().Record(message.trace_id, id_, "deliver.expired.queue",
                           message.command);
  const PortName to =
      !message.ack_to.IsNull() ? message.ack_to : message.reply_to;
  SendSystemFailure(to, kExpiredQueueReason, message.trace_id);
}

void NodeRuntime::SweepReassembler() {
  if (!up_.load()) {
    return;
  }
  std::lock_guard<std::mutex> lock(reassembler_mu_);
  const uint64_t expired_before = reassembler_.expired();
  reassembler_.SweepExpired(clock_->Now());
  const uint64_t expired = reassembler_.expired() - expired_before;
  if (expired > 0) {
    counters_.reassembly_expired->Inc(expired);
  }
}

void NodeRuntime::FinishPushFailed(const Envelope& env, const Port& port,
                                   PushResult pushed) {
  if (env.Tracked()) {
    // Roll back the dedup gate's mark so a retry can still land.
    dedup_.RollBack(env.session_id, env.dedup_seq, env.reply_to);
  }
  if (pushed == PushResult::kRetired) {
    // A retired port is not a full one: the sender learns that retrying
    // the same name is useless until the port is recreated.
    counters_.drop_port_retired->Inc();
    system_->traces().Record(env.trace_id, id_, "port.drop.retired",
                             env.target.ToString());
    SendSystemFailure(env.reply_to, "target port retired", env.trace_id);
    return;
  }
  counters_.drop_port_full->Inc();
  system_->traces().Record(env.trace_id, id_, "port.drop.full",
                           env.target.ToString());
  if (env.fc_full) {
    // The discarded envelope was itself a §11 fc_full nack and even the
    // control headroom could not admit it: the congestion signal is lost
    // and the sender degrades to its plain ack-timeout path. Made loud so
    // the degradation is observable (it used to vanish into the generic
    // full-port counters).
    counters_.nacks_shed->Inc();
    system_->traces().Record(env.trace_id, id_, "flow.nack_shed",
                             env.target.ToString() + " fc_port " +
                                 env.fc_port.ToString());
  }
  if (system_->config().flow.enabled) {
    // The failure doubles as a flow nack: it carries the port's depth
    // and capacity and goes to the ack port when the sender has one, so
    // the sending primitive both learns of the loss fast (no ack
    // timeout) and halves its window.
    SendFlowNack(env, port);
  } else {
    SendSystemFailure(env.reply_to, "no room at target port", env.trace_id);
  }
}

void NodeRuntime::FinishSuppressed(const Envelope& env,
                                   DedupTable::Verdict verdict,
                                   DedupTable::CachedReply replay,
                                   bool original_acked) {
  counters_.dup_suppressed->Inc();
  if (verdict == DedupTable::Verdict::kBelowWindow) {
    counters_.dup_below_window->Inc();
  }
  system_->traces().Record(env.trace_id, id_, "dedup.suppressed",
                           env.command + " seq " +
                               std::to_string(env.dedup_seq));
  // A suppressed duplicate earns a replacement receipt acknowledgement —
  // but only if the original was genuinely dequeued (its ack went out and
  // may have been lost). Without the replacement, a ReliableSend whose
  // first ack was lost would retry forever against a receiver that drops
  // every retry; without the dequeue condition, a duplicate of a message
  // still sitting in the buffer would fake a receipt the application never
  // gave.
  if (env.HasAck() && original_acked) {
    Envelope ack;
    ack.msg_id = NextMsgId();
    ack.trace_id = env.trace_id;
    ack.src_node = id_;
    ack.target = env.ack_to;
    ack.command = "ack";
    ack.args = {Value::Str(std::to_string(env.msg_id))};
    StampFlowCredit(ack, env.target);
    Status st = Transmit(std::move(ack));
    (void)st;
    counters_.acks_sent->Inc();
  }
  if (verdict == DedupTable::Verdict::kReplay) {
    // Answer from the cache: a fresh msg_id, the duplicate's trace id so
    // the resend joins the retry's causal chain, and the duplicate's reply
    // port (retries reuse one reply port; fall back on the cached one for
    // a blind network duplicate).
    auto args =
        DedupLayer::ReplayArgs(replay, transmit_registry_.AsDecodeFn());
    if (!args.ok()) {
      GLOG_ERROR << "cannot replay the cached reply for dedup seq "
                 << env.dedup_seq << ": " << args.status();
      return;
    }
    Envelope reply;
    reply.msg_id = NextMsgId();
    reply.trace_id = env.trace_id;
    reply.src_node = id_;
    reply.target = env.HasReply() ? env.reply_to : replay.reply_to;
    reply.command = std::move(replay.command);
    reply.args = std::move(*args);
    system_->traces().Record(env.trace_id, id_, "dedup.replayed",
                             reply.command + " -> " +
                                 reply.target.ToString());
    Status st = Transmit(std::move(reply));
    (void)st;
    counters_.dup_replayed->Inc();
  }
}

void NodeRuntime::StampFlowCredit(Envelope& ack, const PortName& about) {
  if (!system_->config().flow.enabled) {
    return;
  }
  Guardian* guardian = FindGuardian(about.guardian);
  Port* port = guardian != nullptr ? guardian->FindPort(about.port_index)
                                   : nullptr;
  if (port == nullptr) {
    return;  // the port is gone; the ack still counts, just creditless
  }
  ack.fc_port = port->name();
  ack.fc_depth = static_cast<uint32_t>(port->depth());
  ack.fc_capacity = static_cast<uint32_t>(port->capacity());
}

void NodeRuntime::SendFlowNack(const Envelope& dropped, const Port& port) {
  // The send primitives wait on the ack port, so the nack goes there when
  // one exists; a bare reply_to sender still gets the failure message the
  // §3.4 semantics promised, now with the fc fields attached.
  const PortName to = dropped.HasAck() ? dropped.ack_to : dropped.reply_to;
  if (to.IsNull()) {
    return;
  }
  Envelope env;
  env.msg_id = NextMsgId();
  env.trace_id = dropped.trace_id;
  env.src_node = id_;
  env.target = to;
  env.command = kFailureCommand;
  env.args = {Value::Str("no room at target port")};
  env.fc_port = port.name();
  env.fc_depth = static_cast<uint32_t>(port.depth());
  env.fc_capacity = static_cast<uint32_t>(port.capacity());
  env.fc_full = true;
  Status st = Transmit(std::move(env));
  (void)st;
  counters_.failures_synthesized->Inc();
}

std::string NodeRuntime::Report() const {
  std::string out = "node '" + name_ + "' (id " + std::to_string(id_) + ") " +
                    (up_.load() ? "up" : "down") + "\n";
  std::vector<Guardian*> gs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    gs.reserve(guardians_.size());
    for (const auto& [gid, guardian] : guardians_) {
      gs.push_back(guardian.get());
    }
  }
  for (Guardian* g : gs) {
    for (const Guardian::PortStat& ps : g->PortStats()) {
      out += "  port " + ps.name + " [" + ps.type_name + "] depth " +
             std::to_string(ps.depth) + "/" + std::to_string(ps.capacity) +
             " enqueued " + std::to_string(ps.enqueued);
      if (ps.discarded_full != 0) {
        out += " dropped_full " + std::to_string(ps.discarded_full);
      }
      if (ps.discarded_retired != 0) {
        out += " dropped_retired " + std::to_string(ps.discarded_retired);
      }
      if (ps.retired) {
        out += " (retired)";
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace guardians
