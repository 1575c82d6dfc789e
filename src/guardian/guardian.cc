#include "src/guardian/guardian.h"

#include <cassert>
#include <optional>

#include "src/common/bytes.h"
#include "src/common/log.h"
#include "src/common/spin_park.h"
#include "src/fault/fault_injector.h"
#include "src/guardian/node_runtime.h"
#include "src/guardian/system.h"
#include "src/obs/trace.h"

namespace guardians {

void Guardian::Attach(NodeRuntime* rt, GuardianId gid, std::string gname,
                      uint64_t seal) {
  runtime_ = rt;
  processes_.emplace(rt->system().carriers());
  id_ = gid;
  name_ = std::move(gname);
  seal_ = seal;
}

NodeId Guardian::node() const { return runtime_->id(); }

Port* Guardian::AddPort(const PortType& type, size_t capacity,
                        bool provided) {
  // "Compile" the header into the system-wide library so any sender can
  // check against it; the port refers to the library's entry. After a
  // (corrupt) hash collision that entry is the first registrant, which is
  // what every sender to this hash is checked against anyway.
  PortTypeRegistry& library = runtime_->system().port_types();
  auto registered = library.Register(type);
  if (!registered.ok()) {
    GLOG_ERROR << "port type registration failed: " << registered.status();
  }
  const PortType* entry =
      registered.ok() ? *registered : library.Lookup(type.hash());
  std::lock_guard<std::mutex> lock(ports_mu_);
  PortName pn;
  pn.node = runtime_->id();
  pn.guardian = id_;
  pn.port_index = static_cast<uint32_t>(ports_.size());
  pn.type_hash = type.hash();
  ports_.push_back(std::make_unique<Port>(pn, entry, &mailbox_, capacity));
  if (provided) {
    provided_.push_back(pn.port_index);
  }
  return ports_.back().get();
}

void Guardian::RetirePort(Port* p) { p->Retire(); }

std::vector<PortName> Guardian::ProvidedPorts() const {
  std::lock_guard<std::mutex> lock(ports_mu_);
  std::vector<PortName> names;
  names.reserve(provided_.size());
  for (uint32_t index : provided_) {
    names.push_back(ports_[index]->name());
  }
  return names;
}

Port* Guardian::port(size_t i) const {
  std::lock_guard<std::mutex> lock(ports_mu_);
  assert(i < ports_.size());
  return ports_[i].get();
}

size_t Guardian::port_count() const {
  std::lock_guard<std::mutex> lock(ports_mu_);
  return ports_.size();
}

Port* Guardian::FindPort(uint32_t index) const {
  std::lock_guard<std::mutex> lock(ports_mu_);
  if (index >= ports_.size()) {
    return nullptr;
  }
  return ports_[index].get();
}

Status Guardian::Send(const PortName& to, const std::string& command,
                      ValueList args) {
  return SendFull(to, command, std::move(args), PortName{}, PortName{})
      .status();
}

Status Guardian::Send(const PortName& to, const std::string& command,
                      ValueList args, const PortName& reply_to) {
  return SendFull(to, command, std::move(args), reply_to, PortName{})
      .status();
}

Result<uint64_t> Guardian::SendFull(const PortName& to,
                                    const std::string& command,
                                    ValueList args, const PortName& reply_to,
                                    const PortName& ack_to,
                                    uint64_t dedup_seq,
                                    uint64_t deadline_micros) {
  Envelope env;
  env.msg_id = runtime_->NextMsgId();
  if (dedup_seq != 0) {
    // Tracked send: the receiver deduplicates on (session, seq), so every
    // retry of one logical operation must pass the same seq back in.
    env.session_id = runtime_->SendSession();
    env.dedup_seq = dedup_seq;
  }
  // Join the causal chain this process is working in, or start a new trace
  // (identified by this message's globally unique id) at an origin send.
  uint64_t trace_id = CurrentTraceId();
  if (trace_id == 0) {
    trace_id = env.msg_id;
    SetCurrentTraceId(trace_id);
  }
  env.trace_id = trace_id;
  env.src_node = runtime_->id();
  env.target = to;
  env.reply_to = reply_to;
  env.ack_to = ack_to;
  env.deadline_micros = deadline_micros;
  env.command = command;
  env.args = std::move(args);
  const uint64_t msg_id = env.msg_id;
  GUARDIANS_RETURN_IF_ERROR(runtime_->Transmit(std::move(env)));
  return msg_id;
}

Result<Received> Guardian::ReceiveAny(std::span<Port* const> ports,
                                      Micros timeout) {
  assert(!ports.empty());
  for (Port* p : ports) {
    assert(p->mailbox() == &mailbox_ &&
           "only processes within a guardian can receive from its ports");
    (void)p;
  }
  const bool infinite = timeout == Micros::max();
  const ClockSource& clock = runtime_->clock();
  const Deadline deadline = infinite ? Deadline::Infinite(&clock)
                                     : Deadline(timeout, &clock);
  std::unique_lock<std::mutex> lock(mailbox_.mu);
  // Whether any of the ports still holds a message, under the mailbox lock.
  auto backlogged = [&] {
    for (Port* p : ports) {
      if (p->HasMessageLocked()) {
        return true;
      }
    }
    return false;
  };
  // A live message leaves the mailbox: note it, send the synchronization
  // send's receipt notification when the sender asked for one (the message
  // has now been received by the target process), and set the receive
  // credit its next send spends. Only a receiver with nothing else waiting
  // is credited: a backlogged one leaves its sends' delivery to the shard
  // worker and goes on to the next message (DESIGN.md §8).
  auto hand_over = [&](Received& message) -> Received {
    const bool credited = !backlogged();
    lock.unlock();
    runtime_->NoteReceived(message);
    if (!message.ack_to.IsNull()) {
      runtime_->SendAck(message);
    }
    NodeRuntime::SetReceiveCredit(credited);
    return std::move(message);
  };
  // Priority scan of the port list, lazily discarding entries whose
  // propagated deadline budget died while they sat in the queue (§16): a
  // backed-up port drains dead work at dequeue speed instead of executing
  // it. Finishing a dead entry (failure nack, dedup rollback, metrics)
  // takes node locks, so it happens outside the mailbox lock; the caller
  // re-scans afterwards because the mailbox may have changed meanwhile.
  auto pop_live = [&](bool* discarded) -> std::optional<Received> {
    for (Port* p : ports) {
      while (p->HasMessageLocked()) {
        Received message = p->PopLocked();
        if (message.deadline_at != TimePoint::max() &&
            clock.Now() >= message.deadline_at) {
          lock.unlock();
          runtime_->FinishExpiredAtDequeue(std::move(message));
          lock.lock();
          *discarded = true;
          continue;
        }
        return message;
      }
    }
    return std::nullopt;
  };
  // The receive's wait record (DESIGN.md §8): one for the whole port list,
  // on the mailbox's list only while the receive waits. A push to one of
  // its ports, or the mailbox's close, signals it under the mailbox lock;
  // nothing else wakes this thread. It is reset and registered in the same
  // lock hold that found the ports empty, so no push can slip between.
  WaitRecord record;
  record.ports = ports;
  for (;;) {
    if (mailbox_.closed) {
      return Status(Code::kNodeDown, "guardian's node is down");
    }
    bool discarded = false;
    if (std::optional<Received> message = pop_live(&discarded)) {
      return hand_over(*message);
    }
    if (discarded) {
      // The mailbox lock was dropped while finishing dead entries; rescan
      // (and recheck closed) before deciding to wait.
      continue;
    }
    if (deadline.Expired()) {
      return Status(Code::kTimeout,
                    "receive timed out; nothing is known about the true "
                    "state of affairs");
    }
    record.signalled.store(false, std::memory_order_relaxed);
    mailbox_.AddLocked(&record);
    const WaitEnd end = SpinThenPark(
        clock, record.cv, lock, deadline.at(), [&record] {
          return record.signalled.load(std::memory_order_acquire);
        });
    mailbox_.RemoveLocked(&record);
    runtime_->NoteWait(end);
    if (end == WaitEnd::kParked && !mailbox_.closed && !backlogged() &&
        !deadline.Expired()) {
      ++mailbox_.idle_wakeups;  // woken, and another process took it
    }
    // Loop: take what arrived, or report the close or the timeout; a
    // message that arrives with the timeout is still taken.
  }
}

namespace {
// Authenticator over a sealed handle: without the guardian-private seal,
// neither the handle nor the check field can be forged consistently.
uint64_t TokenMac(GuardianId owner, uint64_t seal, uint64_t sealed_handle) {
  uint64_t material[3] = {owner, seal, sealed_handle};
  return Fnv1a64(material, sizeof(material));
}
}  // namespace

Token Guardian::Seal(uint64_t handle) {
  Token t;
  t.owner = id_;
  t.handle = handle ^ seal_;  // hidden from everyone without the seal
  t.seal = TokenMac(id_, seal_, t.handle);
  return t;
}

Result<uint64_t> Guardian::Unseal(const Token& token) const {
  if (token.owner != id_ || token.seal != TokenMac(id_, seal_, token.handle)) {
    return Status(Code::kBadToken,
                  "token was not sealed by this guardian (or was sealed by a "
                  "previous incarnation)");
  }
  return token.handle ^ seal_;
}

void Guardian::Fork(std::string process_name, std::function<void()> body) {
  // Guardian processes run under the owning node's fault scope, so an armed
  // crash plan attributes their stable-storage work to the right node; a
  // triggered crash throws to abandon the doomed operation and must end the
  // process here rather than escape the task.
  NodeRuntime* node = runtime_;
  processes_->Fork(name_ + "/" + process_name,
                  [node, body = std::move(body)] {
                    ScopedFaultScope scope(node);
                    try {
                      body();
                    } catch (const CrashTriggered&) {
                      // The node is crashing; this process dies with it.
                    }
                  });
}

void Guardian::ReapProcesses() { processes_->Reap(); }

bool Guardian::Closed() const {
  std::lock_guard<std::mutex> lock(mailbox_.mu);
  return mailbox_.closed;
}

std::vector<Guardian::PortStat> Guardian::PortStats() const {
  std::lock_guard<std::mutex> lock(ports_mu_);
  std::vector<PortStat> stats;
  stats.reserve(ports_.size());
  for (const auto& p : ports_) {
    PortStat ps;
    ps.name = p->name().ToString();
    ps.type_name = p->type().name();
    ps.depth = p->depth();
    ps.capacity = p->capacity();
    ps.enqueued = p->enqueued();
    ps.discarded_full = p->discarded_full();
    ps.discarded_retired = p->discarded_retired();
    ps.control_overflow = p->control_overflow();
    ps.retired = p->retired();
    stats.push_back(std::move(ps));
  }
  return stats;
}

Wal* Guardian::OpenLog(const std::string& resource) {
  std::lock_guard<std::mutex> lock(wals_mu_);
  auto it = wals_.find(resource);
  if (it != wals_.end()) {
    return it->second.get();
  }
  auto wal = std::make_unique<Wal>(&runtime_->stable_store(),
                                   "g/" + name_ + "/" + resource);
  Wal* raw = wal.get();
  wals_.emplace(resource, std::move(wal));
  return raw;
}

void Guardian::CloseMailbox() {
  std::lock_guard<std::mutex> lock(mailbox_.mu);
  mailbox_.closed = true;
  mailbox_.SignalAllLocked();
}

uint64_t Guardian::idle_wakeups() const {
  std::lock_guard<std::mutex> lock(mailbox_.mu);
  return mailbox_.idle_wakeups;
}

void Guardian::JoinProcesses() { processes_->JoinAll(); }

}  // namespace guardians
