#include "src/fault/chaos.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/airline/flight_guardian.h"
#include "src/airline/types.h"
#include "src/bank/branch_guardian.h"
#include "src/fault/fault_injector.h"
#include "src/fault/supervisor.h"
#include "src/guardian/system.h"
#include "src/net/topology.h"
#include "src/sendprims/reliable_send.h"
#include "src/sendprims/remote_call.h"

// TSAN slows compute 10-20x, so the auto-stepper's real-time quiet
// heuristic needs a matching stretch: 200us of registry quiet on a plain
// build means "everyone is blocked on virtual time", but under TSAN a
// thread can be mid-computation (or starved by the scheduler) that long,
// and stepping past its deadline turns host slowness into spurious
// virtual timeouts.
#if defined(__SANITIZE_THREAD__)
#define GUARDIANS_CHAOS_CC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GUARDIANS_CHAOS_CC_TSAN 1
#endif
#endif
#ifndef GUARDIANS_CHAOS_CC_TSAN
#define GUARDIANS_CHAOS_CC_TSAN 0
#endif

namespace guardians {
namespace {

constexpr Micros kAutoStepQuiet =
    GUARDIANS_CHAOS_CC_TSAN ? Micros(2000) : Micros(200);

// Node ids are fixed by construction order in BuildWorld.
constexpr NodeId kRegionNode = 1;
constexpr NodeId kAnnexNode = 2;
constexpr NodeId kClientNode = 3;

const char* const kDates[] = {"d0", "d1", "d2"};
constexpr int kNumDates = 3;
constexpr int kNumAccounts = 3;
constexpr int64_t kInitialBalance = 1000;
constexpr int64_t kTotalMoney = kNumAccounts * kInitialBalance;
constexpr int kFlightCapacity = 64;
constexpr int64_t kFlight1 = 1;
constexpr int64_t kFlight2 = 2;

LinkParams LanParams() {
  LinkParams p;
  p.latency = Micros(60);
  return p;
}

LinkParams WanParams() {
  LinkParams p;
  p.latency = Micros(250);
  return p;
}

PortType TallyPortType() {
  const ArgType kInt = ArgType::Of(TypeTag::kInt);
  const ArgType kStr = ArgType::Of(TypeTag::kString);
  return PortType("tally_port",
                  {MessageSig{"add", {kStr, kInt}, {"tally_ok", "tally_fail"}},
                   MessageSig{"read", {}, {"tally_ok"}}});
}

PortType TallyReplyType() {
  return PortType("tally_reply",
                  {MessageSig{"tally_ok", {ArgType::Of(TypeTag::kInt)}, {}},
                   MessageSig{"tally_fail", {}, {}}});
}

// A deliberately non-idempotent accumulator that *witnesses* at-most-once
// violations instead of suffering them: every add carries an op id, and a
// duplicate id reaching the guardian means the system's dedup layer failed
// (re-deliveries are supposed to be suppressed below the application). The
// duplicate is counted, not re-applied, so the run's other invariants stay
// interpretable while chaos.double_applies pinpoints the broken law.
class TallyGuardian : public Guardian {
 public:
  static constexpr char kTypeName[] = "tally";

  Status Setup(const ValueList& args) override {
    (void)args;
    return Init(false);
  }
  Status Recover(const ValueList& args) override {
    (void)args;
    return Init(true);
  }

  void Main() override {
    Port* requests = port(0);
    while (!Closed()) {
      auto got = Receive(requests, Micros::max());
      if (!got.ok()) {
        return;
      }
      Handle(*got);
    }
  }

  int64_t sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
  }
  uint64_t double_applies() const {
    std::lock_guard<std::mutex> lock(mu_);
    return double_applies_;
  }
  // Whether an add with this op id ever executed (applied or witnessed as
  // a duplicate) — how the overload-storm invariant proves a doomed op
  // never produced an effect.
  bool Saw(const std::string& id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_.count(id) > 0;
  }

 private:
  Status Init(bool recovering) {
    AddPort(TallyPortType(), 1024, /*provided=*/true);
    log_ = OpenLog("tally");
    if (recovering) {
      auto records = log_->RecoverValues();
      if (!records.ok()) {
        return records.status();
      }
      std::lock_guard<std::mutex> lock(mu_);
      for (const Value& record : *records) {
        auto id = record.field("id");
        auto amount = record.field("amount");
        if (!id.ok() || !amount.ok()) {
          return Status(Code::kInternal, "bad tally log record");
        }
        auto id_str = id->AsString();
        auto amt = amount->AsInt();
        if (!id_str.ok() || !amt.ok()) {
          return Status(Code::kInternal, "bad tally log field");
        }
        if (seen_.insert(*id_str).second) {
          sum_ += *amt;
        }
      }
    }
    return OkStatus();
  }

  void Handle(const Received& request) {
    auto reply = [&](const char* command, ValueList args) {
      if (!request.reply_to.IsNull()) {
        (void)Send(request.reply_to, command, std::move(args));
      }
    };
    if (request.command == "read") {
      reply("tally_ok", {Value::Int(sum())});
      return;
    }
    if (request.command != "add" || request.args.size() != 2) {
      return;
    }
    auto id = request.args[0].AsString();
    auto amount = request.args[1].AsInt();
    if (!id.ok() || !amount.ok()) {
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (seen_.count(*id) > 0) {
      // The at-most-once layer let a duplicate through. Witness it.
      ++double_applies_;
      const int64_t current = sum_;
      lock.unlock();
      reply("tally_ok", {Value::Int(current)});
      return;
    }
    // Permanence first: log, then apply, then ack.
    Status logged = log_->AppendValue(
        Value::Record({{"id", Value::Str(*id)},
                       {"amount", Value::Int(*amount)}}));
    if (!logged.ok()) {
      lock.unlock();
      reply("tally_fail", {});
      return;
    }
    seen_.insert(*id);
    sum_ += *amount;
    const int64_t current = sum_;
    lock.unlock();
    reply("tally_ok", {Value::Int(current)});
  }

  mutable std::mutex mu_;
  std::set<std::string> seen_;
  int64_t sum_ = 0;
  uint64_t double_applies_ = 0;
  Wal* log_ = nullptr;
};

constexpr char TallyGuardian::kTypeName[];

// One disposable universe per schedule. Member order matters: the
// supervisor is declared last so it stops (and uninstalls its health
// oracle) before the System it watches dies.
struct ChaosWorld {
  explicit ChaosWorld(const SystemConfig& config) : system(config) {}

  System system;
  NodeRuntime* region = nullptr;
  NodeRuntime* annex = nullptr;
  NodeRuntime* client = nullptr;
  CampusTopology topology;
  Guardian* clerk = nullptr;
  Port* tally_reply = nullptr;  // persistent: dup replays reuse it
  std::vector<PortName> accounts;
  PortName branch_port;
  PortName f1_port;
  PortName f2_port;
  PortName tally_port;
  PortName noise_port;
  std::unique_ptr<Supervisor> supervisor;
};

FlightConfig MakeFlightConfig(int64_t flight_no) {
  FlightConfig fc;
  fc.flight_no = flight_no;
  fc.capacity = kFlightCapacity;
  fc.organization = FlightOrganization::kOneAtATime;
  fc.logging = true;
  fc.checkpoint_every = 8;  // small, so crash plans can land in checkpoints
  return fc;
}

Result<std::unique_ptr<ChaosWorld>> BuildWorld(const ChaosConfig& config,
                                               SimulatedClock* sim) {
  SystemConfig sc;
  sc.seed = config.seed;
  sc.delivery_shards = config.delivery_shards;
  sc.delivery_batch_max = config.delivery_batch_max;
  sc.default_link.latency = Micros(100);
  sc.sim_clock = sim;  // null: wall clock, the default world
  sc.dedup_session_idle = config.dedup_session_idle;
  auto world = std::make_unique<ChaosWorld>(sc);
  world->region = &world->system.AddNode("region");
  world->annex = &world->system.AddNode("annex");
  world->client = &world->system.AddNode("client");
  if (world->region->id() != kRegionNode || world->annex->id() != kAnnexNode ||
      world->client->id() != kClientNode) {
    return Status(Code::kInternal, "unexpected node id assignment");
  }
  // Campuses: {region, annex} on campus 0, {client} on campus 1 — campus
  // cuts sever the driver from both application nodes at once.
  world->topology =
      BuildCampuses(world->system.network(), {0, 0, 1}, LanParams(),
                    WanParams());

  world->region->RegisterGuardianType(AccountGuardian::kTypeName,
                                      MakeFactory<AccountGuardian>());
  world->region->RegisterGuardianType(BranchGuardian::kTypeName,
                                      MakeFactory<BranchGuardian>());
  world->region->RegisterGuardianType("flight", MakeFactory<FlightGuardian>());
  world->region->RegisterGuardianType(TallyGuardian::kTypeName,
                                      MakeFactory<TallyGuardian>());
  world->annex->RegisterGuardianType("flight", MakeFactory<FlightGuardian>());
  world->annex->RegisterGuardianType(TallyGuardian::kTypeName,
                                     MakeFactory<TallyGuardian>());
  world->client->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());

  auto clerk = world->client->Create<ShellGuardian>("shell", "clerk", {});
  GUARDIANS_RETURN_IF_ERROR(clerk.status());
  world->clerk = *clerk;

  for (int k = 0; k < kNumAccounts; ++k) {
    auto account = world->region->Create<AccountGuardian>(
        AccountGuardian::kTypeName, "a" + std::to_string(k),
        {Value::Str("owner" + std::to_string(k)), Value::Int(kInitialBalance)},
        /*persistent=*/true);
    GUARDIANS_RETURN_IF_ERROR(account.status());
    world->accounts.push_back((*account)->ProvidedPorts()[0]);
  }
  // Wide leg budget on purpose: both legs are region-local (no schedule
  // event ever cuts them), so a leg can only time out when the host stalls
  // the account guardian's thread (tsan, throttled CI boxes). A timed-out
  // deposit leaves the transfer in-doubt until branch *recovery* runs —
  // and a schedule with no region crash never runs it, which would read
  // as a (false) conservation shortfall for the rest of the run.
  auto branch = world->region->Create<BranchGuardian>(
      BranchGuardian::kTypeName, "branch",
      {Value::Int(Micros(Millis(500)).count()), Value::Int(4)},
      /*persistent=*/true);
  GUARDIANS_RETURN_IF_ERROR(branch.status());
  world->branch_port = (*branch)->ProvidedPorts()[0];

  auto f1 = world->region->Create<FlightGuardian>(
      "flight", "f1", MakeFlightConfig(kFlight1).ToArgs(), /*persistent=*/true);
  GUARDIANS_RETURN_IF_ERROR(f1.status());
  world->f1_port = (*f1)->ProvidedPorts()[0];
  auto f2 = world->annex->Create<FlightGuardian>(
      "flight", "f2", MakeFlightConfig(kFlight2).ToArgs(), /*persistent=*/true);
  GUARDIANS_RETURN_IF_ERROR(f2.status());
  world->f2_port = (*f2)->ProvidedPorts()[0];

  auto tally = world->region->Create<TallyGuardian>(
      TallyGuardian::kTypeName, "tally", {}, /*persistent=*/true);
  GUARDIANS_RETURN_IF_ERROR(tally.status());
  world->tally_port = (*tally)->ProvidedPorts()[0];
  auto noise = world->annex->Create<TallyGuardian>(
      TallyGuardian::kTypeName, "noise", {}, /*persistent=*/true);
  GUARDIANS_RETURN_IF_ERROR(noise.status());
  world->noise_port = (*noise)->ProvidedPorts()[0];

  world->tally_reply = world->clerk->AddPort(TallyReplyType(), 64);

  if (config.supervised) {
    SupervisorConfig scfg;
    scfg.poll_interval = Millis(2);
    scfg.initial_backoff = Millis(2);
    scfg.max_backoff = Millis(50);
    scfg.rapid_window = Millis(300);
    scfg.quarantine_strikes = 8;
    world->supervisor =
        std::make_unique<Supervisor>(&world->system, scfg);
    world->supervisor->Ignore(world->client->id());
    world->supervisor->Start();
  }
  return world;
}

// Drives one schedule through a ChaosWorld: applies the epoch's events,
// runs the lockstep op mix, waits for quiescence, and checks the global
// invariants. All bookkeeping (what was acked, what is cut) is a pure
// function of the schedule and the reply stream, never of wall time, which
// is what keeps deterministic-mode counts grid-identical.
class ChaosRun {
 public:
  ChaosRun(const ChaosConfig& config, ChaosWorld* world, ChaosReport* report,
           SimulatedClock* sim)
      : config_(config),
        world_(world),
        report_(report),
        sim_(sim),
        chaos_trace_(0xC0A05EEDull ^ config.seed) {}

  void Execute(const std::vector<ChaosEvent>& schedule) {
    int epochs_total = config_.epochs;
    for (const ChaosEvent& ev : schedule) {
      epochs_total = std::max(epochs_total, ev.epoch + 1);
    }
    for (int epoch = 0; epoch < epochs_total; ++epoch) {
      for (const ChaosEvent& ev : schedule) {
        if (ev.epoch == epoch) {
          Apply(ev);
        }
      }
      for (int k = 0; k < config_.ops_per_epoch; ++k) {
        DriveOp(op_index_++);
      }
      EndEpoch(epoch);
    }
    Epilogue();
    CheckFinal();
    FillCounts();
    if (!report_->violations.empty()) {
      BuildFailureDump();
    }
  }

 private:
  using Key = std::tuple<int64_t, std::string, std::string>;

  System& system() { return world_->system; }
  Network& network() { return world_->system.network(); }
  MetricsRegistry& metrics() { return world_->system.metrics(); }
  Guardian* clerk() { return world_->clerk; }

  NodeRuntime* NodeById(NodeId id) {
    if (id == kRegionNode) return world_->region;
    if (id == kAnnexNode) return world_->annex;
    return world_->client;
  }
  TallyGuardian* Tally() {
    return dynamic_cast<TallyGuardian*>(
        world_->region->FindGuardian(world_->tally_port.guardian));
  }
  TallyGuardian* Noise() {
    return dynamic_cast<TallyGuardian*>(
        world_->annex->FindGuardian(world_->noise_port.guardian));
  }
  FlightGuardian* Flight(NodeId home, const PortName& port) {
    return dynamic_cast<FlightGuardian*>(
        NodeById(home)->FindGuardian(port.guardian));
  }

  static std::pair<NodeId, NodeId> SymKey(NodeId a, NodeId b) {
    return {std::min(a, b), std::max(a, b)};
  }

  // Mirror of the schedule-declared link state, used only to pick attempt
  // budgets for ops that cannot possibly succeed (so a cut epoch burns
  // milliseconds, not attempts x timeout each). Pure schedule state — the
  // decisions cannot drift with timing.
  bool Reachable(NodeId target) const {
    if (campus_cut_) return false;
    if (sym_cuts_.count(SymKey(kClientNode, target)) > 0) return false;
    if (oneway_cuts_.count({kClientNode, target}) > 0) return false;
    return true;
  }
  bool Ackable(NodeId target) const {
    return Reachable(target) && oneway_cuts_.count({target, kClientNode}) == 0;
  }
  RemoteCallOptions OptionsFor(NodeId target) const {
    RemoteCallOptions o;
    o.timeout = config_.op_timeout;
    o.max_attempts = config_.op_attempts;
    if (!Reachable(target)) {
      o.timeout = Millis(20);
      o.max_attempts = 1;
    } else if (!Ackable(target)) {
      o.timeout = Millis(30);
      o.max_attempts = 2;
    }
    return o;
  }

  void AddViolation(int epoch, const std::string& invariant,
                    const std::string& detail) {
    report_->violations.push_back({epoch, invariant, detail});
    metrics().counter("chaos.violations")->Inc();
    system().traces().Record(chaos_trace_, 0, "chaos.violation",
                             invariant + ": " + detail);
  }

  // --- Events ---------------------------------------------------------------

  void Apply(const ChaosEvent& ev) {
    ++report_->events_applied;
    metrics().counter("chaos.events")->Inc();
    system().traces().Record(chaos_trace_, 0, "chaos.event", ev.Describe());
    Network& net = network();
    switch (ev.kind) {
      case ChaosEventKind::kPartition:
        net.SetPartitioned(ev.a, ev.b, true);
        sym_cuts_.insert(SymKey(ev.a, ev.b));
        break;
      case ChaosEventKind::kHeal:
        net.SetPartitioned(ev.a, ev.b, false);
        sym_cuts_.erase(SymKey(ev.a, ev.b));
        break;
      case ChaosEventKind::kPartitionOneWay:
        net.SetPartitionedOneWay(ev.a, ev.b, true);
        oneway_cuts_.insert({ev.a, ev.b});
        break;
      case ChaosEventKind::kHealOneWay:
        net.SetPartitionedOneWay(ev.a, ev.b, false);
        oneway_cuts_.erase({ev.a, ev.b});
        break;
      case ChaosEventKind::kCampusCut:
        PartitionCampuses(net, world_->topology, 0, 1, true);
        campus_cut_ = true;
        break;
      case ChaosEventKind::kCampusHeal:
        PartitionCampuses(net, world_->topology, 0, 1, false);
        campus_cut_ = false;
        break;
      case ChaosEventKind::kLinkStorm:
        net.SetLink(ev.a, ev.b, ev.storm);
        break;
      case ChaosEventKind::kLinkCalm:
        net.SetLink(ev.a, ev.b, WanParams());
        break;
      case ChaosEventKind::kCrash:
        DoCrash(ev);
        break;
      case ChaosEventKind::kStoreFail:
        NodeById(ev.a)->stable_store().SetFailed(true);
        if (ev.a == kAnnexNode) annex_store_failed_ = true;
        break;
      case ChaosEventKind::kStoreHeal:
        NodeById(ev.a)->stable_store().SetFailed(false);
        if (ev.a == kAnnexNode) annex_store_failed_ = false;
        break;
      case ChaosEventKind::kDupReplay:
        DoDupReplay(ev.epoch);
        break;
      // The simulated-time events. Without a simulated clock they are
      // no-ops (traced above), so a sim-authored schedule can replay in a
      // wall world without faulting — it just cannot reproduce the bug.
      case ChaosEventKind::kClockSkew:
        if (sim_ != nullptr) {
          sim_->StepNode(ev.a, Micros(ev.skew_us));
        }
        break;
      case ChaosEventKind::kClockDrift:
        if (sim_ != nullptr) {
          sim_->SetNodeDrift(ev.a, ev.drift);
        }
        break;
      case ChaosEventKind::kReorderStorm:
        if (sim_ != nullptr) {
          net.HoldLink(ev.a, ev.b, ev.reorder_k);
          reorder_active_ = true;
        }
        break;
      case ChaosEventKind::kOverloadStorm:
        DoOverloadStorm(ev);
        break;
    }
  }

  void DoCrash(const ChaosEvent& ev) {
    NodeRuntime* target = NodeById(ev.a);
    metrics().counter("chaos.crashes")->Inc();
    if (!config_.supervised) {
      // Deterministic power failure: quiesce first so zero in-flight
      // packets are lost to timing, then crash + restart synchronously.
      system().WaitQuiescent(config_.settle_deadline);
      target->Crash();
      Status up = target->Restart();
      if (!up.ok()) {
        AddViolation(ev.epoch, "crash.restart", up.ToString());
      }
      ++report_->crashes;
      ++report_->recoveries;
      return;
    }
    if (!ev.crash_plan.has_value()) {
      target->BeginCrash();  // the supervisor finishes and restarts it
      ++report_->crashes;
      return;
    }
    Status armed = FaultInjector::Instance().Arm(
        *ev.crash_plan, target, [target] { target->BeginCrash(); });
    if (armed.ok()) {
      armed_ = true;
    } else {
      AddViolation(ev.epoch, "crash.arm", armed.ToString());
    }
  }

  void DoDupReplay(int epoch) {
    (void)epoch;
    ++report_->dup_replays;
    metrics().counter("chaos.dup_replays")->Inc();
    if (acked_tally_.empty()) {
      return;
    }
    // Re-send a byte-faithful duplicate of the most recent *acked* tally
    // op: same dedup seq, same args, same reply port. The ack proves the
    // reply was journaled, so a correct system must suppress this and
    // answer from the reply cache — even across a crash.
    const TallyOp& op = acked_tally_.back();
    (void)clerk()->SendFull(world_->tally_port, "add",
                            {Value::Str(op.id), Value::Int(op.amount)},
                            world_->tally_reply->name(), PortName{}, op.seq);
    system().WaitQuiescent(config_.settle_deadline);
    FlushTallyReplies();
  }

  void DoOverloadStorm(const ChaosEvent& ev) {
    // A burst of deadline-doomed tracked adds: each carries a 1us wire
    // budget, which the receiver's >=1us-per-hop charge (§16) spends by
    // construction — even when a negative jitter draw clamps the link
    // delay to zero virtual time — so every one that reaches the region
    // node must be shed before the dedup gate and before dispatch. The
    // shed decision is thus clock- and schedule-independent, so the
    // counts stay grid-deterministic. The
    // amounts are huge on purpose: a single doomed op leaking through
    // would blow tally.bounds as well as the expired-effect witness.
    for (uint64_t k = 0; k < ev.overload_n; ++k) {
      const std::string id = std::string("x")
                                 .append(std::to_string(ev.epoch))
                                 .append("-")
                                 .append(std::to_string(k));
      doomed_ids_.push_back(id);
      (void)clerk()->SendFull(world_->tally_port, "add",
                              {Value::Str(id), Value::Int(1'000'000)},
                              world_->tally_reply->name(), PortName{},
                              world_->client->NextDedupSeq(),
                              /*deadline_micros=*/1);
    }
    system().WaitQuiescent(config_.settle_deadline);
    FlushTallyReplies();  // the expired-shed failure nacks land here
  }

  void FlushTallyReplies() {
    while (clerk()->Receive(world_->tally_reply, Millis(2)).ok()) {
    }
  }

  // --- Workload -------------------------------------------------------------

  void DriveOp(int i) {
    ++report_->ops_attempted;
    switch (i % 6) {
      case 0:
        BankTransfer(i);
        break;
      case 1:
        AirlineOp(world_->f1_port, kFlight1, "reserve",
                  "p" + std::to_string(i), kDates[i % kNumDates], kRegionNode);
        break;
      case 2:
        TallyAdd(i);
        break;
      case 3:
        AirlineOp(world_->f2_port, kFlight2, "reserve",
                  "q" + std::to_string(i), kDates[i % kNumDates], kAnnexNode);
        break;
      case 4:
        NoiseBurst(i);
        break;
      case 5:
        CancelAndReliable(i);
        break;
    }
  }

  void BankTransfer(int i) {
    const int from = i % kNumAccounts;
    const int to = (i + 1) % kNumAccounts;
    const int64_t amount = 1 + (i % 17);
    auto reply = RemoteCall(
        *clerk(), world_->branch_port, "transfer",
        {Value::OfPort(world_->accounts[from]),
         Value::OfPort(world_->accounts[to]), Value::Int(amount),
         Value::Str("tx-" + std::to_string(i))},
        BankReplyType(), OptionsFor(kRegionNode));
    if (reply.ok() && (reply->command == "transfer_done" ||
                       reply->command == "transfer_failed")) {
      ++report_->ops_acked;
    }
  }

  void AirlineOp(const PortName& port, int64_t flight_no,
                 const std::string& command, const std::string& passenger,
                 const std::string& date, NodeId home) {
    auto reply = RemoteCall(*clerk(), port, command,
                            {Value::Str(passenger), Value::Str(date)},
                            ReservationReplyType(), OptionsFor(home));
    const std::string got = reply.ok() ? reply->command : std::string();
    const Key key{flight_no, passenger, date};
    attempted_.insert(key);
    // Permanence trap (§2.2): the flight guardians ack even when their WAL
    // append failed, so any ack earned while the node's store is failing
    // is downgraded to "unknown" — asserted neither way after recovery.
    const bool durable = !(home == kAnnexNode && annex_store_failed_);
    if (got == "ok" || got == "pre_reserved") {
      ++report_->ops_acked;
      if (durable) {
        expected_[key] = true;
      } else {
        expected_.erase(key);
      }
    } else if (got == "canceled" || got == "not_reserved") {
      ++report_->ops_acked;
      if (durable) {
        expected_[key] = false;
      } else {
        expected_.erase(key);
      }
    } else if (got == "full" || got == "wait_list") {
      ++report_->ops_acked;
      expected_.erase(key);
    } else {
      expected_.erase(key);  // unknown — assert neither way
    }
  }

  void TallyAdd(int i) {
    const std::string id = "t" + std::to_string(i);
    const int64_t amount = 1 + (i % 9);
    // Hand-rolled tracked call: one dedup seq for every attempt, replies on
    // the persistent reply port — the ops DoDupReplay can later duplicate.
    const uint64_t seq = world_->client->NextDedupSeq();
    const RemoteCallOptions o = OptionsFor(kRegionNode);
    bool acked = false;
    bool failed = false;
    for (int attempt = 0; attempt < o.max_attempts && !acked && !failed;
         ++attempt) {
      auto sent = clerk()->SendFull(world_->tally_port, "add",
                                    {Value::Str(id), Value::Int(amount)},
                                    world_->tally_reply->name(), PortName{},
                                    seq);
      if (!sent.ok()) {
        break;
      }
      auto got = clerk()->Receive(world_->tally_reply, o.timeout);
      if (!got.ok()) {
        continue;  // timeout: retry with the same seq
      }
      if (got->command == "tally_ok") {
        acked = true;
      } else if (got->command == "tally_fail") {
        failed = true;  // log append failed before apply: definitely not in
      } else {
        break;  // synthesized failure(...): outcome unknown
      }
    }
    if (acked) {
      tally_acked_ += amount;
      acked_tally_.push_back({id, amount, seq});
      ++report_->ops_acked;
    } else if (!failed) {
      tally_unknown_ += amount;
    }
  }

  void NoiseBurst(int i) {
    // Fire-and-forget tracked sends into the annex sink; the only link the
    // generator storms with dup_prob in deterministic mode, so duplicate
    // suppression is exercised without replies racing the verdict.
    for (int k = 0; k < 4; ++k) {
      (void)clerk()->SendFull(
          world_->noise_port, "add",
          {Value::Str("n" + std::to_string(i) + "-" + std::to_string(k)),
           Value::Int(1)},
          PortName{}, PortName{}, world_->client->NextDedupSeq());
    }
  }

  void CancelAndReliable(int i) {
    const int j = i - 4;  // the f1 reserve four ops earlier (j % 6 == 1)
    AirlineOp(world_->f1_port, kFlight1, "cancel", "p" + std::to_string(j),
              kDates[j % kNumDates], kRegionNode);
    ReliableSendOptions ro;
    ro.jitter = 0.0;
    if (Ackable(kRegionNode)) {
      ro.max_attempts = 3;
      // Wide for the same reason as ChaosConfig::op_timeout: a healthy
      // dequeue-ack must never lose to scheduler jitter, or the spurious
      // retransmission skews the grid-compared counts.
      ro.ack_timeout = Millis(200);
    } else {
      ro.max_attempts = 1;
      ro.ack_timeout = Millis(15);
    }
    const int64_t amount = 1 + (i % 9);
    auto res = ReliableSend(*clerk(), world_->tally_port, "add",
                            {Value::Str("r" + std::to_string(i)),
                             Value::Int(amount)},
                            ro);
    // The receipt ack fires on dequeue, before the apply: in deterministic
    // mode (no mid-epoch crashes) dequeue implies the apply completes, so
    // the ack is a lower bound; under supervised crashes it is not.
    if (res.ok() && !config_.supervised) {
      tally_acked_ += amount;
      ++report_->ops_acked;
    } else {
      tally_unknown_ += amount;
    }
  }

  struct TallyOp {
    std::string id;
    int64_t amount = 0;
    uint64_t seq = 0;
  };

  const ChaosConfig& config_;
  ChaosWorld* world_;
  ChaosReport* report_;
  SimulatedClock* sim_ = nullptr;  // null in wall-clock runs
  const uint64_t chaos_trace_;

  int op_index_ = 0;
  bool armed_ = false;
  bool reorder_active_ = false;  // a HoldLink is capturing packets

  // Schedule-mirrored link state.
  bool campus_cut_ = false;
  bool annex_store_failed_ = false;
  std::set<std::pair<NodeId, NodeId>> sym_cuts_;
  std::set<std::pair<NodeId, NodeId>> oneway_cuts_;

  // Workload truth tracking.
  std::map<Key, bool> expected_;
  std::set<Key> attempted_;
  std::vector<std::string> doomed_ids_;  // overload-storm ops; must never run
  std::vector<TallyOp> acked_tally_;
  int64_t tally_acked_ = 0;
  int64_t tally_unknown_ = 0;

 public:
  void EndEpoch(int epoch);
  void Epilogue();
  void CheckEpoch(int epoch);
  void CheckFinal();
  void FillCounts();
  void BuildFailureDump();
  int64_t BankSum(bool* ok);
  void CheckPacketConservation(int epoch);
  void CheckFlightInvariants(int epoch, NodeId home, const PortName& port,
                             int64_t flight_no, bool check_permanence);
  void CheckWitnesses(int epoch);
};

void ChaosRun::EndEpoch(int epoch) {
  FaultInjector& injector = FaultInjector::Instance();
  if (armed_) {
    if (injector.triggered()) {
      ++report_->crashes;
    }
    injector.Disarm();
    armed_ = false;
  }
  if (reorder_active_) {
    // Flush the reordering storm before the quiescence barrier: the held
    // packets re-enter the heaps in a seed-shuffled order (so the shuffle
    // is schedule-deterministic, keyed off the epoch) and deliver
    // back-to-back. Conservation and at-most-once must absorb the storm.
    network().ReleaseHeld(config_.seed ^ (0x0DDC0DEull * (epoch + 1)));
    reorder_active_ = false;
  }
  if (config_.supervised) {
    // Let the supervisor finish any in-progress restart before checking.
    Deadline deadline(config_.settle_deadline);
    while (!deadline.Expired() &&
           !(world_->region->IsUp() && world_->annex->IsUp())) {
      for (NodeId id : {kRegionNode, kAnnexNode}) {
        if (world_->supervisor->IsQuarantined(id)) {
          world_->supervisor->Unquarantine(id);
        }
      }
      std::this_thread::sleep_for(Millis(2));
    }
  }
  if (!system().WaitQuiescent(config_.settle_deadline, Millis(2), 3)) {
    AddViolation(epoch, "quiescence", "network would not settle");
    return;
  }
  CheckEpoch(epoch);
}

void ChaosRun::CheckEpoch(int epoch) {
  CheckPacketConservation(epoch);
  if (world_->region->IsUp()) {
    bool ok = false;
    int64_t sum = BankSum(&ok);
    // Mid-run law: money is never created. (In deterministic mode every
    // transfer completes both local legs before the next op, so the sum is
    // exact; under supervised crashes a transfer may be in doubt until the
    // branch's recovery completes it, so only the upper bound holds here.)
    // One timing hole: a client-side RemoteCall timeout can leave the
    // branch mid-transfer *past* the quiescence settle window when the
    // machine is slow enough (tsan runs), so poll briefly to convergence
    // before convicting — a genuine conservation bug never converges.
    Deadline converge(Millis(2000));
    while (ok &&
           (sum > kTotalMoney ||
            (!config_.supervised && sum != kTotalMoney)) &&
           !converge.Expired()) {
      std::this_thread::sleep_for(Millis(2));
      system().WaitQuiescent(Millis(200));
      sum = BankSum(&ok);
    }
    if (ok && sum > kTotalMoney) {
      AddViolation(epoch, "bank.conservation",
                   "balances sum to " + std::to_string(sum) + " > " +
                       std::to_string(kTotalMoney));
    }
    if (ok && !config_.supervised && sum != kTotalMoney) {
      AddViolation(epoch, "bank.conservation",
                   "balances sum to " + std::to_string(sum) + " != " +
                       std::to_string(kTotalMoney));
    }
    CheckFlightInvariants(epoch, kRegionNode, world_->f1_port, kFlight1,
                          /*check_permanence=*/true);
  }
  if (world_->annex->IsUp()) {
    CheckFlightInvariants(epoch, kAnnexNode, world_->f2_port, kFlight2,
                          /*check_permanence=*/true);
  }
  CheckWitnesses(epoch);
}

void ChaosRun::CheckPacketConservation(int epoch) {
  const NetworkStats s = network().stats();
  if (s.packets_delivered + s.packets_dropped !=
      s.packets_sent + s.packets_duplicated) {
    AddViolation(epoch, "net.conservation",
                 "delivered " + std::to_string(s.packets_delivered) +
                     " + dropped " + std::to_string(s.packets_dropped) +
                     " != sent " + std::to_string(s.packets_sent) +
                     " + duplicated " + std::to_string(s.packets_duplicated));
  }
}

int64_t ChaosRun::BankSum(bool* ok) {
  int64_t sum = 0;
  for (const PortName& port : world_->accounts) {
    auto* account = dynamic_cast<AccountGuardian*>(
        world_->region->FindGuardian(port.guardian));
    if (account == nullptr) {
      *ok = false;
      return 0;
    }
    sum += account->BalanceForTesting();
  }
  *ok = true;
  return sum;
}

void ChaosRun::CheckFlightInvariants(int epoch, NodeId home,
                                     const PortName& port, int64_t flight_no,
                                     bool check_permanence) {
  FlightGuardian* flight = Flight(home, port);
  if (flight == nullptr) {
    // Mid-run a supervised node can be between FinishCrash and recovery;
    // only the final pass treats a missing guardian as a violation.
    if (epoch < 0) {
      AddViolation(epoch, "airline.recovery",
                   "flight " + std::to_string(flight_no) +
                       " missing after settle");
    }
    return;
  }
  const FlightDb db = flight->SnapshotDb();
  if (!db.CheckInvariants()) {
    AddViolation(epoch, "airline.db",
                 "flight " + std::to_string(flight_no) +
                     ": FlightDb invariants violated");
  }
  for (const char* date : kDates) {
    const auto passengers = db.Passengers(date);
    if (passengers.size() > static_cast<size_t>(kFlightCapacity)) {
      AddViolation(epoch, "airline.oversell",
                   "flight " + std::to_string(flight_no) + " date " + date +
                       ": " + std::to_string(passengers.size()) + " seats of " +
                       std::to_string(kFlightCapacity));
    }
    for (const std::string& passenger : passengers) {
      if (attempted_.count({flight_no, passenger, date}) == 0) {
        AddViolation(epoch, "airline.phantom",
                     "flight " + std::to_string(flight_no) + ": " + passenger +
                         "/" + date + " was never requested");
      }
    }
  }
  if (!check_permanence) {
    return;
  }
  for (const auto& [key, present] : expected_) {
    const auto& [kf, passenger, date] = key;
    if (kf != flight_no) {
      continue;
    }
    if (db.IsReserved(passenger, date) != present) {
      AddViolation(epoch, "airline.permanence",
                   "flight " + std::to_string(flight_no) + ": acked " +
                       (present ? "reserve" : "cancel") + " of " + passenger +
                       "/" + date + " not honored");
    }
  }
}

void ChaosRun::CheckWitnesses(int epoch) {
  if (world_->region->IsUp()) {
    TallyGuardian* tally = Tally();
    if (tally != nullptr) {
      const uint64_t doubles = tally->double_applies();
      // A crash between a guardian's own log append and the dedup-journal
      // append legitimately lets one client retry re-execute, so the
      // supervised bound is `crashes`; deterministic crashes are quiescent
      // and must never leak a duplicate.
      const uint64_t bound = config_.supervised ? report_->crashes : 0;
      if (doubles > bound) {
        AddViolation(epoch, "tally.double_apply",
                     std::to_string(doubles) +
                         " duplicate non-idempotent effects (bound " +
                         std::to_string(bound) + ")");
      }
      // §16 invariant: no expired op produces an effect. Every overload-
      // storm add was doomed by construction (a 1us budget against a
      // >=60us link), so its id must never enter the witness's seen set.
      for (const std::string& id : doomed_ids_) {
        if (tally->Saw(id)) {
          AddViolation(epoch, "deadline.expired_effect",
                       "doomed op " + id +
                           " executed despite an expired budget");
        }
      }
    }
  }
  if (!config_.supervised && world_->annex->IsUp()) {
    TallyGuardian* noise = Noise();
    if (noise != nullptr && noise->double_applies() != 0) {
      AddViolation(epoch, "noise.double_apply",
                   std::to_string(noise->double_applies()) +
                       " duplicate fire-and-forget effects");
    }
  }
}

void ChaosRun::Epilogue() {
  FaultInjector::Instance().Disarm();
  armed_ = false;
  if (reorder_active_) {
    network().ReleaseHeld(config_.seed ^ 0x0DDC0DEull);
    reorder_active_ = false;
  }
  // Unconditionally heal *everything*, whether or not the schedule cut it:
  // this is what makes any subset of a sane schedule sane, which the
  // shrinker depends on. The call count is fixed, so link_epoch stays
  // grid-comparable.
  Network& net = network();
  const NodeId pairs[3][2] = {{kRegionNode, kAnnexNode},
                              {kRegionNode, kClientNode},
                              {kAnnexNode, kClientNode}};
  for (const auto& p : pairs) {
    net.SetPartitioned(p[0], p[1], false);
    net.SetPartitionedOneWay(p[0], p[1], false);
    net.SetPartitionedOneWay(p[1], p[0], false);
  }
  PartitionCampuses(net, world_->topology, 0, 1, false);
  net.SetLink(kClientNode, kRegionNode, WanParams());
  net.SetLink(kClientNode, kAnnexNode, WanParams());
  world_->annex->stable_store().SetFailed(false);
  world_->region->stable_store().SetFailed(false);
  campus_cut_ = false;
  annex_store_failed_ = false;
  sym_cuts_.clear();
  oneway_cuts_.clear();

  if (!config_.supervised) {
    for (NodeRuntime* node : {world_->region, world_->annex}) {
      if (!node->IsUp()) {
        Status up = node->Restart();
        if (!up.ok()) {
          AddViolation(-1, "settle.restart", up.ToString());
        }
      }
    }
    if (config_.sim_time) {
      // The reliable-send receipt ack fires on dequeue, before the apply.
      // On the wall clock the apply always wins the race to CheckFinal,
      // but on simulated time the tally guardian can still be inside a
      // virtual store-latency sleep while the harness runs ahead in real
      // time. A read probe is FIFO-ordered behind every pending add on
      // the port, so its reply means sum() is final.
      Deadline deadline(config_.settle_deadline);
      RemoteCallOptions probe;
      probe.timeout = config_.op_timeout;
      bool tally_ok = false;
      while (!deadline.Expired() && !tally_ok) {
        auto r = RemoteCall(*clerk(), world_->tally_port, "read", {},
                            TallyReplyType(), probe);
        tally_ok = r.ok() && r->command == "tally_ok";
      }
      if (!tally_ok) {
        AddViolation(-1, "settle.probe", "tally never answered the probe");
      }
    }
  } else {
    Deadline deadline(config_.settle_deadline);
    while (!deadline.Expired() &&
           !(world_->region->IsUp() && world_->annex->IsUp())) {
      for (NodeId id : {kRegionNode, kAnnexNode}) {
        if (world_->supervisor->IsQuarantined(id)) {
          world_->supervisor->Unquarantine(id);
        }
      }
      std::this_thread::sleep_for(Millis(2));
    }
    if (!world_->region->IsUp() || !world_->annex->IsUp()) {
      AddViolation(-1, "settle.nodes", "a node never came back up");
      return;
    }
    // Probe both applications end to end before judging permanence.
    RemoteCallOptions probe;
    probe.timeout = config_.op_timeout;
    bool region_ok = false;
    bool annex_ok = false;
    while (!deadline.Expired() && !(region_ok && annex_ok)) {
      if (!region_ok) {
        auto r = RemoteCall(*clerk(), world_->tally_port, "read", {},
                            TallyReplyType(), probe);
        region_ok = r.ok() && r->command == "tally_ok";
      }
      if (!annex_ok) {
        auto r = RemoteCall(*clerk(), world_->f2_port, "flight_stats",
                            {Value::Str("manager")}, ReservationReplyType(),
                            probe);
        annex_ok = r.ok() && r->command == "stats_info";
      }
    }
    if (!region_ok || !annex_ok) {
      AddViolation(-1, "settle.probe", "applications never answered probes");
    }
  }
  system().WaitQuiescent(config_.settle_deadline, Millis(2), 3);
}

void ChaosRun::CheckFinal() {
  CheckPacketConservation(-1);
  // Exact conservation: recovery completes every in-doubt transfer, so the
  // sum must converge to the initial total within the settle budget.
  Deadline deadline(config_.settle_deadline);
  bool ok = false;
  int64_t sum = BankSum(&ok);
  while ((!ok || sum != kTotalMoney) && !deadline.Expired()) {
    std::this_thread::sleep_for(Millis(2));
    system().WaitQuiescent(Millis(500));
    sum = BankSum(&ok);
  }
  if (!ok) {
    AddViolation(-1, "bank.conservation", "account guardians missing");
  } else if (sum != kTotalMoney) {
    AddViolation(-1, "bank.conservation",
                 "final balances sum to " + std::to_string(sum) + " != " +
                     std::to_string(kTotalMoney));
  }
  CheckFlightInvariants(-1, kRegionNode, world_->f1_port, kFlight1, true);
  CheckFlightInvariants(-1, kAnnexNode, world_->f2_port, kFlight2, true);
  CheckWitnesses(-1);

  TallyGuardian* tally = Tally();
  if (tally == nullptr) {
    AddViolation(-1, "tally.recovery", "tally guardian missing after settle");
  } else {
    const int64_t tally_sum = tally->sum();
    if (tally_sum < tally_acked_ ||
        tally_sum > tally_acked_ + tally_unknown_) {
      AddViolation(-1, "tally.bounds",
                   "sum " + std::to_string(tally_sum) + " outside [" +
                       std::to_string(tally_acked_) + ", " +
                       std::to_string(tally_acked_ + tally_unknown_) + "]");
    }
  }

  // Metric ledger identities.
  MetricsRegistry& m = metrics();
  const uint64_t calls = m.CounterValue("sendprims.reliable.calls");
  const uint64_t outcomes = m.CounterValue("sendprims.reliable.ok") +
                            m.CounterValue("sendprims.reliable.exhausted") +
                            m.CounterValue("sendprims.reliable.deadline_exceeded") +
                            m.CounterValue("sendprims.reliable.hard_fail");
  if (calls != outcomes) {
    AddViolation(-1, "ledger.reliable",
                 "calls " + std::to_string(calls) + " != outcome sum " +
                     std::to_string(outcomes));
  }
  uint64_t enq = 0;
  uint64_t done = 0;
  for (int k = 0; k < 64; ++k) {
    const std::string prefix = "net.shard." + std::to_string(k) + ".";
    enq += m.CounterValue(prefix + "enqueued");
    done += m.CounterValue(prefix + "delivered") +
            m.CounterValue(prefix + "dropped");
  }
  if (enq != done) {
    AddViolation(-1, "ledger.shards",
                 "enqueued " + std::to_string(enq) +
                     " != delivered+dropped " + std::to_string(done));
  }
}

void ChaosRun::FillCounts() {
  ChaosCounts& c = report_->counts;
  c.net = network().stats();
  MetricsRegistry& m = metrics();
  c.executions = m.CounterValue("deliver.delivered");
  c.suppressed = m.CounterValue("deliver.dup.suppressed");
  c.replayed = m.CounterValue("deliver.dup.replayed");
  c.partition_drops = m.CounterValue("net.drop.partition");
  c.oneway_partition_drops = m.CounterValue("net.drop.partition_oneway");
  c.link_epochs = network().link_epoch();
  if (config_.supervised) {
    report_->recoveries = m.CounterValue("supervisor.restarts");
  }
}

void ChaosRun::BuildFailureDump() {
  std::string d = "chaos seed " + std::to_string(config_.seed) +
                  (config_.supervised ? " (supervised)" : " (deterministic)") +
                  "\nschedule (" + std::to_string(report_->schedule.size()) +
                  " events):\n";
  for (const ChaosEvent& ev : report_->schedule) {
    d += "  " + ev.Describe() + "\n";
  }
  d += "violations:\n";
  for (const ChaosViolation& v : report_->violations) {
    d += "  [epoch " + std::to_string(v.epoch) + "] " + v.invariant + ": " +
         v.detail + "\n";
  }
  d += system().traces().DumpTrace(chaos_trace_);
  report_->failure_dump = d;
}

}  // namespace

// --- Public types -----------------------------------------------------------

std::string ChaosEvent::Describe() const {
  const std::string na = "n" + std::to_string(a);
  const std::string pair = na + "<->n" + std::to_string(b);
  const std::string arrow = na + "->n" + std::to_string(b);
  std::string what;
  switch (kind) {
    case ChaosEventKind::kPartition:
      what = "partition " + pair;
      break;
    case ChaosEventKind::kHeal:
      what = "heal " + pair;
      break;
    case ChaosEventKind::kPartitionOneWay:
      what = "cut-oneway " + arrow;
      break;
    case ChaosEventKind::kHealOneWay:
      what = "heal-oneway " + arrow;
      break;
    case ChaosEventKind::kCampusCut:
      what = "campus-cut";
      break;
    case ChaosEventKind::kCampusHeal:
      what = "campus-heal";
      break;
    case ChaosEventKind::kLinkStorm: {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    " loss=%.2f dup=%.2f corrupt=%.2f jitter=%lldus",
                    storm.drop_prob, storm.dup_prob, storm.corrupt_prob,
                    static_cast<long long>(storm.jitter.count()));
      what = "storm " + pair + buf;
      break;
    }
    case ChaosEventKind::kLinkCalm:
      what = "calm " + pair;
      break;
    case ChaosEventKind::kCrash:
      what = "crash " + na;
      if (crash_plan.has_value()) {
        what += " @" + crash_plan->ToString();
      } else {
        what += " (power)";
      }
      break;
    case ChaosEventKind::kStoreFail:
      what = "store-fail " + na;
      break;
    case ChaosEventKind::kStoreHeal:
      what = "store-heal " + na;
      break;
    case ChaosEventKind::kDupReplay:
      what = "dup-replay";
      break;
    case ChaosEventKind::kClockSkew:
      what = "clock-skew " + na + " " +
             (skew_us >= 0 ? "+" : "") + std::to_string(skew_us) + "us";
      break;
    case ChaosEventKind::kClockDrift: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3fx", drift);
      what = "clock-drift " + na + " " + buf;
      break;
    }
    case ChaosEventKind::kReorderStorm:
      what = "reorder-storm " + pair + " k=" + std::to_string(reorder_k);
      break;
    case ChaosEventKind::kOverloadStorm:
      what = "overload-storm n=" + std::to_string(overload_n);
      break;
  }
  return "e" + std::to_string(epoch) + " " + what;
}

std::string ChaosCounts::Diff(const ChaosCounts& other) const {
  std::string out;
  auto cmp = [&out](const char* name, uint64_t x, uint64_t y) {
    if (x != y) {
      out += std::string(name) + ": " + std::to_string(x) + " vs " +
             std::to_string(y) + "\n";
    }
  };
  cmp("packets_sent", net.packets_sent, other.net.packets_sent);
  cmp("packets_delivered", net.packets_delivered, other.net.packets_delivered);
  cmp("packets_dropped", net.packets_dropped, other.net.packets_dropped);
  cmp("packets_corrupted", net.packets_corrupted, other.net.packets_corrupted);
  cmp("packets_duplicated", net.packets_duplicated,
      other.net.packets_duplicated);
  cmp("bytes_sent", net.bytes_sent, other.net.bytes_sent);
  cmp("executions", executions, other.executions);
  cmp("suppressed", suppressed, other.suppressed);
  cmp("replayed", replayed, other.replayed);
  cmp("partition_drops", partition_drops, other.partition_drops);
  cmp("oneway_partition_drops", oneway_partition_drops,
      other.oneway_partition_drops);
  cmp("link_epochs", link_epochs, other.link_epochs);
  return out;
}

bool ChaosCounts::Equal(const ChaosCounts& other) const {
  return Diff(other).empty();
}

std::string ChaosReport::Summary() const {
  std::string out = "seed " + std::to_string(seed) + ": " +
                    std::to_string(events_applied) + " events, " +
                    std::to_string(crashes) + " crashes, " +
                    std::to_string(recoveries) + " recoveries, " +
                    std::to_string(dup_replays) + " dup-replays, " +
                    std::to_string(ops_acked) + "/" +
                    std::to_string(ops_attempted) + " ops acked, " +
                    std::to_string(violations.size()) + " violations";
  for (const ChaosViolation& v : violations) {
    out += "\n  [epoch " + std::to_string(v.epoch) + "] " + v.invariant +
           ": " + v.detail;
  }
  return out;
}

// --- Engine -----------------------------------------------------------------

ChaosEngine::ChaosEngine(ChaosConfig config) : config_(config) {}

namespace {

LinkParams StormParams(Rng& g, bool allow_dup) {
  LinkParams p;
  p.latency = Micros(static_cast<int64_t>(150 + g.NextBelow(300)));
  p.jitter = Micros(static_cast<int64_t>(100 + g.NextBelow(400)));
  p.drop_prob = 0.05 + 0.15 * g.NextDouble();
  p.corrupt_prob = 0.01 + 0.05 * g.NextDouble();
  p.dup_prob = allow_dup ? 0.05 + 0.15 * g.NextDouble() : 0.0;
  return p;
}

}  // namespace

std::vector<ChaosEvent> ChaosEngine::GenerateSchedule() const {
  Rng g(config_.seed ^ 0xC0A05EEDull);
  // The sim-time chapter draws from its own stream so the wall-mode menu
  // sees the exact same draws whether or not sim_time is set: the wall
  // events of a sim schedule equal the wall schedule for the same seed.
  Rng sim_g(config_.seed ^ 0x51D0C10Cull);
  // Overload storms draw from a third independent stream for the same
  // reason: adding them must leave every pre-existing wall and sim draw
  // for a seed untouched (the new events only append to the schedule).
  Rng ov_g(config_.seed ^ 0x0BADD11Eull);
  std::vector<ChaosEvent> out;
  // Heals scheduled against faults already emitted, keyed by target epoch.
  std::multimap<int, ChaosEvent> pending;
  const int last = config_.epochs - 1;
  // Generator-side mirror, to keep every emitted schedule well-formed
  // (no double cut of one pair, no crash of a store-failed node, ...).
  bool campus_cut = false;
  bool store_failed = false;
  std::set<std::pair<NodeId, NodeId>> sym;
  std::set<std::pair<NodeId, NodeId>> oneway;
  std::set<std::pair<NodeId, NodeId>> stormed;
  auto sym_key = [](NodeId a, NodeId b) {
    return std::make_pair(std::min(a, b), std::max(a, b));
  };
  // Supervised crash menu, one draw: a plain power failure, or a plan at
  // the target's nth stable-store mutation after arming (the next or the
  // one after), landing after, before or inside it.
  const std::optional<CrashWhen> kCrashMenu[] = {
      std::nullopt, CrashWhen::kAfter, CrashWhen::kBefore, CrashWhen::kTorn,
      CrashWhen::kAfter};

  // Epoch 0 is a clean warm-up (the dup-replay pool needs an acked op);
  // the last epoch is heal-only cool-down.
  for (int e = 1; e <= last; ++e) {
    for (auto it = pending.begin();
         it != pending.end() && it->first <= e;) {
      ChaosEvent heal = it->second;
      heal.epoch = e;
      switch (heal.kind) {
        case ChaosEventKind::kHeal:
          sym.erase(sym_key(heal.a, heal.b));
          break;
        case ChaosEventKind::kHealOneWay:
          oneway.erase({heal.a, heal.b});
          break;
        case ChaosEventKind::kCampusHeal:
          campus_cut = false;
          break;
        case ChaosEventKind::kLinkCalm:
          stormed.erase(sym_key(heal.a, heal.b));
          break;
        case ChaosEventKind::kStoreHeal:
          store_failed = false;
          break;
        default:
          break;
      }
      out.push_back(heal);
      it = pending.erase(it);
    }
    if (e == last) {
      continue;  // cool-down: heals only
    }
    bool crashed_this_epoch = false;
    const int faults = static_cast<int>(g.NextBelow(3));  // 0..2 new faults
    for (int k = 0; k < faults; ++k) {
      const int heal_after = 1 + static_cast<int>(g.NextBelow(2));
      const int heal_epoch = std::min(last, e + heal_after);
      switch (g.NextBelow(8)) {
        case 0:
        case 1: {
          const NodeId x = g.NextBool(0.5) ? kRegionNode : kAnnexNode;
          if (campus_cut || sym.count(sym_key(kClientNode, x)) > 0 ||
              oneway.count({kClientNode, x}) > 0 ||
              oneway.count({x, kClientNode}) > 0) {
            break;
          }
          sym.insert(sym_key(kClientNode, x));
          out.push_back({ChaosEventKind::kPartition, e, kClientNode, x});
          pending.emplace(heal_epoch, ChaosEvent{ChaosEventKind::kHeal,
                                                 heal_epoch, kClientNode, x});
          break;
        }
        case 2: {
          const NodeId x = g.NextBool(0.5) ? kRegionNode : kAnnexNode;
          const bool cut_requests = g.NextBool(0.5);
          const NodeId from = cut_requests ? kClientNode : x;
          const NodeId to = cut_requests ? x : kClientNode;
          if (campus_cut || sym.count(sym_key(kClientNode, x)) > 0 ||
              oneway.count({from, to}) > 0) {
            break;
          }
          oneway.insert({from, to});
          out.push_back({ChaosEventKind::kPartitionOneWay, e, from, to});
          pending.emplace(heal_epoch,
                          ChaosEvent{ChaosEventKind::kHealOneWay, heal_epoch,
                                     from, to});
          break;
        }
        case 3: {
          if (campus_cut || !sym.empty() || !oneway.empty()) {
            break;
          }
          campus_cut = true;
          // Campus cuts heal after exactly one epoch: they silence the
          // whole workload, so longer would just burn wall time.
          const int ch = std::min(last, e + 1);
          out.push_back({ChaosEventKind::kCampusCut, e});
          pending.emplace(ch, ChaosEvent{ChaosEventKind::kCampusHeal, ch});
          break;
        }
        case 4: {
          // Storm the fire-and-forget noise link; dup is always safe there.
          const LinkParams storm = StormParams(g, /*allow_dup=*/true);
          if (stormed.count(sym_key(kClientNode, kAnnexNode)) > 0) {
            break;
          }
          stormed.insert(sym_key(kClientNode, kAnnexNode));
          ChaosEvent ev{ChaosEventKind::kLinkStorm, e, kClientNode,
                        kAnnexNode};
          ev.storm = storm;
          out.push_back(ev);
          pending.emplace(heal_epoch,
                          ChaosEvent{ChaosEventKind::kLinkCalm, heal_epoch,
                                     kClientNode, kAnnexNode});
          break;
        }
        case 5: {
          // Storm the RPC link. Duplicated tracked requests race the
          // suppress-vs-replay verdict (a replay resends the cached
          // reply), so dup here is only allowed when counts are not being
          // compared across the grid.
          const LinkParams storm = StormParams(g, config_.supervised);
          if (stormed.count(sym_key(kClientNode, kRegionNode)) > 0) {
            break;
          }
          stormed.insert(sym_key(kClientNode, kRegionNode));
          ChaosEvent ev{ChaosEventKind::kLinkStorm, e, kClientNode,
                        kRegionNode};
          ev.storm = storm;
          out.push_back(ev);
          pending.emplace(heal_epoch,
                          ChaosEvent{ChaosEventKind::kLinkCalm, heal_epoch,
                                     kClientNode, kRegionNode});
          break;
        }
        case 6: {
          const NodeId target = g.NextBool(0.5) ? kRegionNode : kAnnexNode;
          const std::optional<CrashWhen> when = kCrashMenu[g.NextBelow(5)];
          const uint64_t nth = 1 + g.NextBelow(2);
          // A restart against a failing store would fail (recovery writes);
          // that is a harness artifact, not a system bug, so avoid it.
          if (crashed_this_epoch ||
              (target == kAnnexNode && store_failed)) {
            break;
          }
          crashed_this_epoch = true;
          ChaosEvent ev{ChaosEventKind::kCrash, e, target};
          if (config_.supervised && when.has_value()) {
            ev.crash_plan = CrashPlan{nth, *when};
          }
          out.push_back(ev);
          break;
        }
        case 7: {
          if (store_failed) {
            break;
          }
          store_failed = true;
          out.push_back({ChaosEventKind::kStoreFail, e, kAnnexNode});
          pending.emplace(heal_epoch,
                          ChaosEvent{ChaosEventKind::kStoreHeal, heal_epoch,
                                     kAnnexNode});
          break;
        }
        default:
          break;
      }
    }
    if (e >= 2 && g.NextBool(0.35)) {
      out.push_back({ChaosEventKind::kDupReplay, e});
    }
    if (ov_g.NextBool(0.35)) {
      // Doomed-by-construction overload bursts (clock-agnostic, so part
      // of the wall menu): see ChaosRun::DoOverloadStorm.
      ChaosEvent ev{ChaosEventKind::kOverloadStorm, e};
      ev.overload_n = 4 + ov_g.NextBelow(5);
      out.push_back(ev);
    }
    // Simulated-time chapter: appended after the wall-mode menu for the
    // epoch and drawn from the independent sim_g stream, so a seed's wall
    // schedule is byte-identical with sim_time on or off (the pinned-seed
    // counts in ci.sh depend on the wall half never moving).
    if (config_.sim_time) {
      if (sim_g.NextBool(0.45)) {
        ChaosEvent ev{ChaosEventKind::kClockSkew, e};
        ev.a = static_cast<NodeId>(1 + sim_g.NextBelow(3));
        const bool forward = sim_g.NextBool(0.5);
        const int64_t mag =
            static_cast<int64_t>(1000 + sim_g.NextBelow(2'000'000));
        ev.skew_us = forward ? mag : -mag;
        out.push_back(ev);
      }
      if (sim_g.NextBool(0.3)) {
        ChaosEvent ev{ChaosEventKind::kClockDrift, e};
        ev.a = static_cast<NodeId>(1 + sim_g.NextBelow(3));
        // 0.5x .. 2.0x in deterministic 1/16 steps; never exactly the
        // degenerate near-zero rates the clock clamps anyway.
        ev.drift = 0.5 + 0.0625 * static_cast<double>(sim_g.NextBelow(25));
        out.push_back(ev);
      }
      if (sim_g.NextBool(0.3)) {
        // Reordering storms ride the fire-and-forget noise link: held
        // packets deliver late (after the epoch's ops), so a link whose
        // senders wait for replies would read every hold as a timeout.
        ChaosEvent ev{ChaosEventKind::kReorderStorm, e, kClientNode,
                      kAnnexNode};
        ev.reorder_k = 2 + sim_g.NextBelow(7);
        out.push_back(ev);
      }
    }
  }
  return out;
}

ChaosReport ChaosEngine::Run() { return RunSchedule(GenerateSchedule()); }

ChaosReport ChaosEngine::RunSchedule(const std::vector<ChaosEvent>& schedule) {
  ChaosReport report;
  report.seed = config_.seed;
  report.schedule = schedule;
  NodeRuntime::SetSkipDedupJournalForTesting(config_.plant_dedup_bug);
  NodeRuntime::SetDedupSweepOnLocalClockForTesting(config_.plant_clock_bug);
  // The virtual clock must outlive the world (every wait in it is
  // registered here) and its auto-stepper runs for the whole lifetime:
  // any phase of the run — construction, workload, teardown — may block
  // on a virtual deadline only a step can cross.
  std::unique_ptr<SimulatedClock> sim;
  if (config_.sim_time) {
    sim = std::make_unique<SimulatedClock>();
    sim->StartAutoStep(kAutoStepQuiet);
  }
  {
    auto world = BuildWorld(config_, sim.get());
    if (!world.ok()) {
      NodeRuntime::SetSkipDedupJournalForTesting(false);
      NodeRuntime::SetDedupSweepOnLocalClockForTesting(false);
      report.violations.push_back(
          {-1, "harness.build", world.status().ToString()});
      return report;
    }
    ChaosRun run(config_, world->get(), &report, sim.get());
    run.Execute(schedule);
    if ((*world)->supervisor) {
      (*world)->supervisor->Stop();
    }
    System& system = (*world)->system;
    report.waits_spun = system.metrics().CounterValue("guardian.wait.spun");
    for (size_t k = 0; k < system.network().shard_count(); ++k) {
      report.waits_spun += system.metrics().CounterValue(
          "net.shard." + std::to_string(k) + ".wait.spun");
    }
  }
  if (sim) {
    sim->StopAutoStep();
  }
  NodeRuntime::SetSkipDedupJournalForTesting(false);
  NodeRuntime::SetDedupSweepOnLocalClockForTesting(false);
  return report;
}

// --- Shrinker ---------------------------------------------------------------

ShrinkResult ShrinkSchedule(const ChaosConfig& config,
                            const std::vector<ChaosEvent>& failing) {
  ShrinkResult result;
  result.minimal = failing;
  ChaosEngine engine(config);
  // ddmin chunk removal (Zeller & Hildebrandt): split the schedule into n
  // chunks and try dropping whole chunks, doubling n only when no chunk is
  // removable. A 12-event schedule whose failure needs two events sheds
  // its decoys a half/quarter at a time instead of one event per O(n)
  // scan; at n == size the granularity is single events, so the loop
  // can only exit 1-minimal (every remaining event was proven necessary).
  // The engine's always-heal epilogue makes every subset a sane schedule.
  auto fails = [&](const std::vector<ChaosEvent>& candidate) {
    ++result.runs;
    ChaosReport attempt = engine.RunSchedule(candidate);
    if (!attempt.ok()) {
      result.final_report = std::move(attempt);
      return true;
    }
    return false;
  };
  size_t n = 2;
  while (result.minimal.size() >= 2) {
    const size_t len = result.minimal.size();
    n = std::min(n, len);
    bool reduced = false;
    for (size_t chunk = 0; chunk < n; ++chunk) {
      const size_t begin = chunk * len / n;
      const size_t end = (chunk + 1) * len / n;
      std::vector<ChaosEvent> candidate;
      candidate.reserve(len - (end - begin));
      candidate.insert(candidate.end(), result.minimal.begin(),
                       result.minimal.begin() + static_cast<long>(begin));
      candidate.insert(candidate.end(),
                       result.minimal.begin() + static_cast<long>(end),
                       result.minimal.end());
      if (fails(candidate)) {
        result.minimal = std::move(candidate);
        // Complement of chunk i under granularity n has n-1 natural
        // chunks; restarting there re-tests every surviving chunk.
        n = n > 2 ? n - 1 : 2;
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= len) {
        break;  // single-event granularity, nothing removable: 1-minimal
      }
      n = std::min(2 * n, len);
    }
  }
  if (result.final_report.violations.empty()) {
    // Nothing was removable (or the schedule was already minimal): the
    // final report must still describe the minimal schedule's failure.
    result.final_report = engine.RunSchedule(result.minimal);
    ++result.runs;
  }
  return result;
}

}  // namespace guardians
