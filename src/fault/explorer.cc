#include "src/fault/explorer.h"

#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>

#include "src/airline/flight_guardian.h"
#include "src/airline/types.h"
#include "src/fault/supervisor.h"
#include "src/guardian/system.h"
#include "src/sendprims/remote_call.h"

namespace guardians {
namespace {

// The explored world. It is seed-deterministic, so every schedule replays
// the baseline's mutations in the baseline's order up to its crash.
constexpr uint64_t kSeed = 1979;
// Clerk operations against flight f1 (reserves with periodic cancels);
// halfway through, a second persistent flight is created remotely.
constexpr int kOps = 8;
// Small so checkpoints happen *inside* the workload window and their
// mutations are crash boundaries too.
constexpr int kCheckpointEvery = 3;
constexpr Micros kOpTimeout = Millis(250);
constexpr int kOpAttempts = 8;  // retries ride out the supervised restart
// Every link duplicates this fraction of packets (seed-deterministic), so
// each schedule also proves the at-most-once layer: duplicates and retries
// of non-idempotent ops — reserves, cancels, remote creation — must leave
// no double effects. The mutation order stays deterministic because
// exactly one copy of a tracked request executes; the rest are suppressed
// before they reach the store.
constexpr double kDupProb = 0.05;
constexpr Micros kVerifyDeadline = Millis(10000);

// Supervisor tuned for explorer turnaround: tight poll, short backoff, and
// a strike budget one-shot crashes can never exhaust.
SupervisorConfig FastSupervisor() {
  SupervisorConfig sc;
  sc.poll_interval = Millis(2);
  sc.initial_backoff = Millis(2);
  sc.max_backoff = Millis(50);
  sc.rapid_window = Millis(300);
  // Each schedule crashes once (the trigger latches), so quarantine should
  // stay out of the way.
  sc.quarantine_strikes = 8;
  return sc;
}

const char* const kDates[] = {"d0", "d1", "d2"};
constexpr int kNumDates = 3;
constexpr int64_t kFlight1 = 1;
constexpr int64_t kFlight2 = 2;

// One disposable universe per schedule: a region node running the flight
// guardians under supervision, and a client node driving them. Member
// order matters — the supervisor is declared last so it stops (and
// uninstalls its health oracle) before the System it watches dies.
struct CrashWorld {
  explicit CrashWorld(const SystemConfig& config) : system(config) {}

  System system;
  NodeRuntime* region = nullptr;
  NodeRuntime* client = nullptr;
  Guardian* clerk = nullptr;
  PortName f1_port;
  std::unique_ptr<Supervisor> supervisor;
};

FlightConfig MakeFlightConfig(int64_t flight_no) {
  FlightConfig fc;
  fc.flight_no = flight_no;
  // Huge so "full"/"wait_list" never muddy the expected-state bookkeeping.
  fc.capacity = 1 << 20;
  fc.organization = FlightOrganization::kOneAtATime;
  fc.logging = true;
  fc.checkpoint_every = kCheckpointEvery;
  return fc;
}

Result<std::unique_ptr<CrashWorld>> BuildWorld() {
  SystemConfig sc;
  sc.seed = kSeed;
  sc.default_link.latency = Micros(100);
  sc.default_link.dup_prob = kDupProb;
  auto world = std::make_unique<CrashWorld>(sc);
  world->region = &world->system.AddNode("region");
  world->client = &world->system.AddNode("client");
  world->region->RegisterGuardianType("flight", MakeFactory<FlightGuardian>());
  world->region->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  world->client->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());

  auto clerk = world->client->Create<ShellGuardian>("shell", "clerk", {});
  GUARDIANS_RETURN_IF_ERROR(clerk.status());
  world->clerk = *clerk;

  auto f1 = world->region->Create<FlightGuardian>(
      "flight", "f1", MakeFlightConfig(kFlight1).ToArgs(),
      /*persistent=*/true);
  GUARDIANS_RETURN_IF_ERROR(f1.status());
  world->f1_port = (*f1)->ProvidedPorts()[0];

  world->supervisor =
      std::make_unique<Supervisor>(&world->system, FastSupervisor());
  // The client node is the test driver; if it ever went down that would be
  // the harness's bug, not a fault to heal.
  world->supervisor->Ignore(world->client->id());
  world->supervisor->Start();
  return world;
}

// What the workload learned from its acks. Keys are (flight, passenger,
// date). An op whose reply was lost is *unknown* — §3.5: "nothing is known
// about the true state of affairs" — so it is asserted neither way, but it
// stays in `attempted` so its effects don't count as phantoms.
struct WorkloadTrace {
  using Key = std::tuple<int64_t, std::string, std::string>;
  std::map<Key, bool> expected;  // true = must be reserved after recovery
  std::set<Key> attempted;
  int acked = 0;
  bool f2_acked = false;
  PortName f2_port;
};

// The airline workload every schedule replays: reserves with periodic
// cancels against f1, a remote persistent creation of f2 halfway through,
// and a final reserve on f2. Deterministic, so the armed run makes every
// mutation in the same order as the baseline right up to the crash.
void DriveWorkload(CrashWorld& world, WorkloadTrace& trace) {
  RemoteCallOptions options;
  options.timeout = kOpTimeout;
  options.max_attempts = kOpAttempts;  // rides out the restart

  auto call = [&](const PortName& port, const std::string& command,
                  const std::string& passenger,
                  const std::string& date) -> std::string {
    auto reply = RemoteCall(*world.clerk, port, command,
                            {Value::Str(passenger), Value::Str(date)},
                            ReservationReplyType(), options);
    return reply.ok() ? reply->command : std::string();
  };
  auto track = [&](int64_t flight, const std::string& passenger,
                   const std::string& date, const std::string& got) {
    const WorkloadTrace::Key key{flight, passenger, date};
    trace.attempted.insert(key);
    if (got == "ok" || got == "pre_reserved") {
      trace.expected[key] = true;
      ++trace.acked;
    } else if (got == "canceled" || got == "not_reserved") {
      trace.expected[key] = false;
      ++trace.acked;
    } else {
      trace.expected.erase(key);  // unknown — assert neither way
    }
  };

  for (int i = 0; i < kOps; ++i) {
    if (i == kOps / 2) {
      // Remote persistent creation mid-workload: puts the next-id cell
      // write and the meta-log append on the message path. Creation is not
      // idempotent, but retrying it is: duplicates are suppressed at the
      // region and creation is keyed by guardian name there, so the retries
      // converge on one f2.
      auto ports = CreateGuardianAt(
          *world.clerk, world.region->PrimordialPort(), "flight", "f2",
          MakeFlightConfig(kFlight2).ToArgs(),
          /*persistent=*/true, kOpTimeout, kOpAttempts);
      if (ports.ok() && !ports->empty()) {
        trace.f2_acked = true;
        trace.f2_port = (*ports)[0];
        ++trace.acked;
      }
    }
    if (i % 4 == 3) {
      const std::string passenger =
          std::string("p").append(std::to_string(i - 1));
      const std::string date = kDates[(i - 1) % kNumDates];
      track(kFlight1, passenger, date,
            call(world.f1_port, "cancel", passenger, date));
    } else {
      const std::string passenger =
          std::string("p").append(std::to_string(i));
      const std::string date = kDates[i % kNumDates];
      track(kFlight1, passenger, date,
            call(world.f1_port, "reserve", passenger, date));
    }
  }
  if (trace.f2_acked) {
    track(kFlight2, "q0", kDates[0],
          call(trace.f2_port, "reserve", "q0", kDates[0]));
  }
}

Status Fail(const std::string& why) { return Status(Code::kInternal, why); }

// One flight's post-recovery obligations: id and port stability, db
// invariants, acked-op permanence, no phantoms.
Status VerifyFlight(CrashWorld& world, const WorkloadTrace& trace,
                    int64_t flight_no, const PortName& port) {
  auto* recovered = dynamic_cast<FlightGuardian*>(
      world.region->FindGuardian(port.guardian));
  if (recovered == nullptr) {
    return Fail("flight " + std::to_string(flight_no) +
                ": guardian id not stable across crash");
  }
  if (recovered->ProvidedPorts().empty() ||
      !(recovered->ProvidedPorts()[0] == port)) {
    return Fail("flight " + std::to_string(flight_no) +
                ": port name changed across crash");
  }
  const FlightDb db = recovered->SnapshotDb();
  if (!db.CheckInvariants()) {
    return Fail("flight " + std::to_string(flight_no) +
                ": FlightDb invariants violated after recovery");
  }
  for (const auto& [key, present] : trace.expected) {
    const auto& [flight, passenger, date] = key;
    if (flight != flight_no) {
      continue;
    }
    if (db.IsReserved(passenger, date) != present) {
      return Fail("flight " + std::to_string(flight_no) + ": acked " +
                  (present ? "reserve" : "cancel") + " of " + passenger +
                  "/" + date + " did not survive recovery");
    }
  }
  for (const char* date : kDates) {
    for (const std::string& passenger : db.Passengers(date)) {
      if (trace.attempted.count({flight_no, passenger, date}) == 0) {
        return Fail("flight " + std::to_string(flight_no) + ": phantom " +
                    passenger + "/" + date + " after recovery");
      }
    }
  }
  return OkStatus();
}

Status VerifySchedule(CrashWorld& world, const WorkloadTrace& trace) {
  // Wait for the supervisor to bring the region back: the node must be up
  // AND f1 answering (an authorized flight_stats probe round-trips the
  // whole recovered message path).
  Deadline deadline(kVerifyDeadline);
  RemoteCallOptions probe;
  probe.timeout = kOpTimeout;
  bool alive = false;
  while (!deadline.Expired()) {
    if (world.region->IsUp()) {
      auto reply =
          RemoteCall(*world.clerk, world.f1_port, "flight_stats",
                     {Value::Str("manager")}, ReservationReplyType(), probe);
      if (reply.ok() && reply->command == "stats_info") {
        alive = true;
        break;
      }
    }
  }
  if (!alive) {
    return Fail("region did not recover within the verify deadline");
  }
  GUARDIANS_RETURN_IF_ERROR(
      VerifyFlight(world, trace, kFlight1, world.f1_port));
  if (trace.f2_acked) {
    // The creation was acked, so the guardian is permanent state too.
    GUARDIANS_RETURN_IF_ERROR(
        VerifyFlight(world, trace, kFlight2, trace.f2_port));
  }
  // Creation-retry convergence: re-issuing the (non-idempotent) remote
  // creation of f2 after recovery must land on ONE guardian, whatever the
  // crash did to the original request — never executed, executed but the
  // ack lost, or logged-but-not-acked. Two back-to-back creations must
  // agree with each other, and with the workload's ack when there was one.
  auto first = CreateGuardianAt(
      *world.clerk, world.region->PrimordialPort(), "flight", "f2",
      MakeFlightConfig(kFlight2).ToArgs(),
      /*persistent=*/true, kOpTimeout, kOpAttempts);
  if (!first.ok() || first->empty()) {
    return Fail("post-recovery creation of f2 failed: " +
                first.status().ToString());
  }
  auto second = CreateGuardianAt(
      *world.clerk, world.region->PrimordialPort(), "flight", "f2",
      MakeFlightConfig(kFlight2).ToArgs(),
      /*persistent=*/true, kOpTimeout, kOpAttempts);
  if (!second.ok() || second->empty()) {
    return Fail("repeated creation of f2 failed: " +
                second.status().ToString());
  }
  if (!((*first)[0] == (*second)[0])) {
    return Fail("creation retries diverged: two guardians answer to f2");
  }
  if (trace.f2_acked && !((*first)[0] == trace.f2_port)) {
    return Fail("phantom guardian: post-recovery creation of f2 did not "
                "converge on the acked one");
  }
  return OkStatus();
}

ScheduleOutcome RunSchedule(const CrashPlan& plan, const DeviceOp& expected) {
  ScheduleOutcome out;
  out.plan = plan;
  auto world = BuildWorld();
  if (!world.ok()) {
    out.verdict = world.status();
    return out;
  }
  FaultInjector& injector = FaultInjector::Instance();
  NodeRuntime* region = (*world)->region;
  // Arm after the world is built so mutation ordinals line up with the
  // baseline's counting window. The crash action is BeginCrash only: the
  // faulting thread takes the node down and unwinds; the supervisor (not
  // the harness) finishes the crash and restarts the node.
  Status armed =
      injector.Arm(plan, region, [region] { region->BeginCrash(); });
  if (!armed.ok()) {
    out.verdict = armed;
    return out;
  }
  WorkloadTrace trace;
  DriveWorkload(**world, trace);
  out.triggered = injector.triggered();
  out.fired_on = injector.fired_on();
  injector.Disarm();
  out.acked = trace.acked;
  out.verdict = VerifySchedule(**world, trace);
  if (out.verdict.ok() && !out.triggered) {
    out.verdict = Fail("the plan's mutation was never reached (" +
                       plan.ToString() + ")");
  }
  if (out.verdict.ok() && !(out.fired_on == expected)) {
    out.verdict = Fail(plan.ToString() + " fired on " +
                       out.fired_on.ToString() + ", the baseline's was " +
                       expected.ToString());
  }
  Histogram* recovery =
      (*world)->system.metrics().histogram("supervisor.recovery_us");
  if (recovery->count() > 0) {
    out.recovery = Micros(static_cast<int64_t>(
        recovery->sum() / recovery->count()));
  }
  return out;
}

}  // namespace

std::string ExplorerReport::Summary() const {
  std::string out = std::to_string(schedules.size()) + " schedules over " +
                    std::to_string(baseline.size()) + " mutations (" +
                    std::to_string(appends) + " appends), " +
                    std::to_string(triggered) + " triggered, " +
                    std::to_string(failures) + " failures";
  if (mean_recovery_us > 0) {
    out += ", mean recovery " +
           std::to_string(static_cast<int64_t>(mean_recovery_us)) + "us";
  }
  for (const ScheduleOutcome& s : schedules) {
    if (!s.verdict.ok()) {
      out += "\n  FAIL " + s.plan.ToString() + ": " + s.verdict.ToString();
    }
  }
  return out;
}

Result<ExplorerReport> ExploreCrashSchedules() {
  ExplorerReport report;

  // Baseline: run the workload uninjected, recording every mutation the
  // region node makes. They define the schedule space.
  {
    auto world = BuildWorld();
    GUARDIANS_RETURN_IF_ERROR(world.status());
    FaultInjector::Instance().StartCounting((*world)->region);
    WorkloadTrace trace;
    DriveWorkload(**world, trace);
    report.baseline = FaultInjector::Instance().StopCounting();
    // The baseline must itself satisfy the invariants, or every schedule's
    // verdict would be noise.
    auto* f1 = dynamic_cast<FlightGuardian*>(
        (*world)->region->FindGuardian((*world)->f1_port.guardian));
    if (f1 == nullptr || !f1->SnapshotDb().CheckInvariants()) {
      return Status(Code::kInternal, "baseline workload failed");
    }
  }

  double recovery_sum = 0;
  size_t recovery_n = 0;
  for (size_t i = 0; i < report.baseline.size(); ++i) {
    const DeviceOp& op = report.baseline[i];
    std::vector<CrashWhen> instants = {CrashWhen::kBefore, CrashWhen::kAfter};
    if (op.kind == Mutation::kAppend) {
      ++report.appends;
      instants.push_back(CrashWhen::kTorn);
    }
    for (const CrashWhen when : instants) {
      ScheduleOutcome out = RunSchedule(CrashPlan{i + 1, when}, op);
      if (out.triggered) {
        ++report.triggered;
      }
      if (!out.verdict.ok()) {
        ++report.failures;
      }
      if (out.recovery.count() > 0) {
        recovery_sum += static_cast<double>(out.recovery.count());
        ++recovery_n;
      }
      report.schedules.push_back(std::move(out));
    }
  }
  if (recovery_n > 0) {
    report.mean_recovery_us = recovery_sum / static_cast<double>(recovery_n);
  }
  return report;
}

}  // namespace guardians
