// Guardian (Section 2.1): the modular unit of a distributed program.
//
// "A guardian consists of objects and processes... A guardian exists
//  entirely at a single node of the underlying distributed system...
//  Processes in different guardians can communicate only by sending
//  messages... a guardian is an abstraction of a physical node."
//
// Library users subclass Guardian:
//   - Setup(args) runs at creation: add ports, initialize objects, fork
//     processes.
//   - Recover() runs instead of Setup after a node crash, for guardians
//     created persistent: replay logs (Section 2.2), recreate the same
//     ports (port names are deterministic so pre-crash names stay valid).
//   - Main() is forked as the guardian's initial process after Setup or
//     Recover succeeds.
//
// Guardians are created only through NodeRuntime (locally) or through the
// target node's primordial guardian (remotely) — never directly — which is
// how the system preserves node autonomy.
#ifndef GUARDIANS_SRC_GUARDIAN_GUARDIAN_H_
#define GUARDIANS_SRC_GUARDIAN_GUARDIAN_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/guardian/port.h"
#include "src/common/task.h"
#include "src/store/wal.h"
#include "src/value/port_type.h"
#include "src/value/token.h"

namespace guardians {

class NodeRuntime;

class Guardian {
 public:
  virtual ~Guardian() = default;

  Guardian(const Guardian&) = delete;
  Guardian& operator=(const Guardian&) = delete;

  // --- Identity -------------------------------------------------------------
  GuardianId id() const { return id_; }
  NodeId node() const;
  const std::string& name() const { return name_; }
  NodeRuntime& runtime() { return *runtime_; }
  // True when this guardian was created persistent (it will be re-created
  // and recovered after a node crash).
  bool IsPersistent() const { return persistent_; }
  void MarkPersistent(bool persistent) { persistent_ = persistent; }

  // --- Lifecycle (overridden by subclasses) ---------------------------------
  // Fresh creation. Add ports and initialize the guarded resource here.
  virtual Status Setup(const ValueList& args) {
    (void)args;
    return OkStatus();
  }
  // Crash recovery (persistent guardians only): rebuild volatile state from
  // the guardian's logs. `args` are the original creation arguments (the
  // system persists them with the creation record). Must recreate the same
  // ports in the same order as Setup so that pre-crash port names remain
  // valid.
  virtual Status Recover(const ValueList& args) { return Setup(args); }
  // The guardian's initial process; forked after Setup/Recover succeeds.
  virtual void Main() {}

  // --- Ports ----------------------------------------------------------------
  // Adds a port of the given type. `provided` ports are the ones whose
  // names are handed back from guardian creation (the `provides` clause of
  // a guardian definition header). The port's type is registered in the
  // system's guardian-header library automatically.
  Port* AddPort(const PortType& type,
                size_t capacity = Port::kDefaultCapacity,
                bool provided = false);
  // Retire an ephemeral port (e.g. a per-request reply port).
  void RetirePort(Port* port);
  std::vector<PortName> ProvidedPorts() const;
  Port* port(size_t i) const;
  size_t port_count() const;

  // --- Communication (Section 3.4) ------------------------------------------
  // The no-wait send: returns as soon as the message is composed and handed
  // to the system. Errors are local ones only (type error, encode failure,
  // node down) — delivery is never guaranteed.
  Status Send(const PortName& to, const std::string& command, ValueList args);
  Status Send(const PortName& to, const std::string& command, ValueList args,
              const PortName& reply_to);
  // Full form used by the higher-level send primitives; returns the message
  // id so a receipt acknowledgement can be matched to the send. A nonzero
  // `dedup_seq` (from NodeRuntime::NextDedupSeq) makes the send *tracked*:
  // the envelope carries this node's at-most-once session and the given
  // sequence number, and the receiving node suppresses re-deliveries —
  // retries of one logical operation must reuse one seq. A nonzero
  // `deadline_micros` stamps the remaining deadline budget (§16) onto the
  // envelope: the receiver decrements it by observed network age and sheds
  // the message instead of executing it once the budget is gone.
  Result<uint64_t> SendFull(const PortName& to, const std::string& command,
                            ValueList args, const PortName& reply_to,
                            const PortName& ack_to, uint64_t dedup_seq = 0,
                            uint64_t deadline_micros = 0);

  // receive on <port list> ... with timeout. Ports are scanned in list
  // order — that is the priority rule. All ports must belong to this
  // guardian. Micros::max() waits forever (until node shutdown).
  Result<Received> Receive(const std::vector<Port*>& ports, Micros timeout) {
    return ReceiveAny(ports, timeout);
  }
  Result<Received> Receive(Port* port, Micros timeout) {
    return ReceiveAny(std::span<Port* const>(&port, 1), timeout);
  }

  // --- Tokens (Section 2.1) ---------------------------------------------------
  // Seal an object handle into a token others can hold but not open.
  Token Seal(uint64_t handle);
  // kBadToken unless this guardian's current incarnation sealed it. (A
  // crash re-seals: the system makes no guarantee that the object named by
  // a token continues to exist; only the guardian can.)
  Result<uint64_t> Unseal(const Token& token) const;

  // --- Processes --------------------------------------------------------------
  void Fork(std::string process_name, std::function<void()> body);
  // Join and release finished processes; guardians that fork one process
  // per request (Figure 1c) call this periodically.
  void ReapProcesses();
  // True once the node has crashed or is shutting down; long-running
  // processes use receives (which fail fast) or poll this.
  bool Closed() const;

  // --- Observability -----------------------------------------------------------
  // Snapshot of every port's queue depth and drop reasons, for
  // NodeRuntime::Report() / System::Report().
  struct PortStat {
    std::string name;
    std::string type_name;
    size_t depth = 0;
    size_t capacity = 0;
    uint64_t enqueued = 0;
    uint64_t discarded_full = 0;
    uint64_t discarded_retired = 0;
    uint64_t control_overflow = 0;
    bool retired = false;
  };
  std::vector<PortStat> PortStats() const;
  // Times a parked receive was woken and found nothing for it: another
  // process took the message first, or the wake was spurious. A push wakes
  // only the receives waiting on its port, so pushes to one port never
  // count here for a process waiting on another.
  uint64_t idle_wakeups() const;

  // --- Permanence (Section 2.2) -----------------------------------------------
  // A write-ahead log in the node's stable store, named by guardian name +
  // resource so it survives crashes and is found again by Recover().
  Wal* OpenLog(const std::string& resource);

  // --- Runtime internals (called by NodeRuntime) --------------------------------
  void Attach(NodeRuntime* rt, GuardianId gid, std::string gname,
              uint64_t seal);
  Mailbox& mailbox() { return mailbox_; }
  Port* FindPort(uint32_t index) const;
  void CloseMailbox();
  void JoinProcesses();

 protected:
  Guardian() = default;

 private:
  // Both Receive forms. Private so a braced port list `Receive({a, b}, t)`
  // can only mean the vector overload, never span's (first, last) pair.
  Result<Received> ReceiveAny(std::span<Port* const> ports, Micros timeout);

  NodeRuntime* runtime_ = nullptr;
  GuardianId id_ = 0;
  std::string name_;
  uint64_t seal_ = 0;
  bool persistent_ = false;

  mutable Mailbox mailbox_;
  mutable std::mutex ports_mu_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<uint32_t> provided_;
  // On the system's carriers; made by Attach.
  std::optional<ProcessGroup> processes_;
  std::mutex wals_mu_;
  std::map<std::string, std::unique_ptr<Wal>> wals_;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_GUARDIAN_GUARDIAN_H_
