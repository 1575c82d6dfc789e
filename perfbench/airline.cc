// airline_txn: the paper's airline (Figs. 2-5) under a closed loop of
// clerks.
//
// The world is BuildAirline's Fig. 2 topology: 2 regions x 4 flights, the
// serializer organization with 4 workers, logging on, and a capacity no
// run can reach. Four clerk threads, two per region node, each on its own
// shell guardian, run seeded GenerateTransactions scripts against their
// region's user guardian. The benchmark drives the clerk protocol itself
// (start_transaction, then reserve/cancel/undo_last/done on the
// transaction port, answers on the clerk's terminal port) so it can time
// each step. One op = one completed transaction.
//
// Each answer is checked against a shadow of the transaction history, and
// after the run every flight's seat counts must equal what the completed
// transactions leave standing.
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

#include "perfbench/bench.h"
#include "src/airline/airline_system.h"
#include "src/airline/trans_history.h"
#include "src/airline/workload.h"
#include "src/obs/trace.h"
#include "src/sendprims/remote_call.h"

namespace perfbench {
namespace {

using namespace guardians;

constexpr int kRegions = 2;
constexpr int kFlightsPerRegion = 4;
constexpr int kDates = 8;
constexpr int kClerksPerRegion = 2;
constexpr int kScripts = 2048;
constexpr Micros kStepTimeout = Millis(5000);

enum Step { kStart, kReserve, kCancel, kUndo, kDone, kSteps };
const char* const kStepNames[kSteps] = {"start", "reserve", "cancel", "undo",
                                        "done"};

struct TxnRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;
  double step_us[kSteps] = {0, 0, 0, 0, 0};  // summed per kind
  std::vector<std::pair<Step, double>> steps;  // traced only
  std::vector<double> send_us;  // traced: each Guardian::Send of the clerk
};

using SeatKey = std::pair<int64_t, std::string>;  // (flight, date)

class AirlineWorkload : public Workload {
 public:
  explicit AirlineWorkload(const Options& options)
      : Workload(400), options_(options) {
    WorkloadParams params;
    params.regions = kRegions;
    params.flights_per_region = kFlightsPerRegion;
    params.dates = kDates;
    params.transactions = kScripts;
    params.ops_per_transaction = 6;
    params.cancel_fraction = 0.2;
    params.undo_fraction = 0.05;
    params.local_fraction = 0.5;
    params.seed = Derive(options.seed, 2);
    scripts_ = GenerateTransactions(params);
  }

  ~AirlineWorkload() override {
    Stop();
    Teardown();
  }

  Status Build() override {
    system_ = std::make_unique<System>(BenchConfig(options_.seed));
    AirlineParams params;
    params.regions = kRegions;
    params.flights_per_region = kFlightsPerRegion;
    params.capacity = 1 << 30;
    params.organization = FlightOrganization::kSerializer;
    params.flight_workers = 4;
    params.logging = true;
    GUARDIANS_ASSIGN_OR_RETURN(topology_, BuildAirline(*system_, params));
    clerks_.clear();
    for (int r = 0; r < kRegions; ++r) {
      NodeRuntime& node = system_->node(topology_.region_nodes[r]);
      for (int j = 0; j < kClerksPerRegion; ++j) {
        GUARDIANS_ASSIGN_OR_RETURN(
            ShellGuardian * shell,
            node.Create<ShellGuardian>(
                "shell", "clerk-" + std::to_string(r) + "-" +
                             std::to_string(j),
                {}));
        clerks_.push_back(shell);
      }
    }
    return OkStatus();
  }

  void Teardown() override { system_.reset(); }

  System& system() override { return *system_; }

  void Start() override {
    stop_.store(false);
    completed_.store(0);
    logs_.assign(clerks_.size(), {});
    expected_.assign(clerks_.size(), {});
    for (size_t c = 0; c < clerks_.size(); ++c) {
      logs_[c].reserve(
          static_cast<size_t>((options_.seconds + 2) * 2000));
      threads_.emplace_back([this, c] { ClerkLoop(c); });
    }
  }

  void Stop() override {
    stop_.store(true);
    for (auto& t : threads_) {
      t.join();
    }
    threads_.clear();
  }

  uint64_t Check(uint64_t* attempted) override {
    uint64_t failed = 0;
    uint64_t completed = 0;
    *attempted = 0;
    for (const auto& log : logs_) {
      *attempted += log.size();
      for (const auto& t : log) {
        failed += t.ok ? 0 : 1;
        completed += t.ok ? 1 : 0;
      }
    }
    if (failed > 0) {
      std::fprintf(stderr,
                   "check: %llu transactions failed or got a wrong answer\n",
                   static_cast<unsigned long long>(failed));
    }
    if (!system_->WaitQuiescent()) {
      std::fprintf(stderr, "check: system did not quiesce\n");
      ++failed;
    }
    const NetworkStats net = system_->network().stats();
    if (net.packets_delivered + net.packets_dropped !=
        net.packets_sent + net.packets_duplicated) {
      std::fprintf(stderr, "check: network conservation violated\n");
      ++failed;
    }
    uint64_t started = 0;
    uint64_t finished = 0;
    for (UserGuardian* user : topology_.users) {
      started += user->transactions_started();
      finished += user->transactions_completed();
    }
    if (started != *attempted || finished != completed) {
      std::fprintf(stderr,
                   "check: user guardians started %llu / completed %llu "
                   "transactions, clerks ran %llu / completed %llu\n",
                   static_cast<unsigned long long>(started),
                   static_cast<unsigned long long>(finished),
                   static_cast<unsigned long long>(*attempted),
                   static_cast<unsigned long long>(completed));
      ++failed;
    }
    std::map<SeatKey, int64_t> expected;
    for (const auto& per_clerk : expected_) {
      for (const auto& [key, seats] : per_clerk) {
        expected[key] += seats;
      }
    }
    for (int r = 0; r < kRegions; ++r) {
      for (int f = 0; f < kFlightsPerRegion; ++f) {
        FlightGuardian* flight = Flight(r, f);
        if (flight == nullptr) {
          std::fprintf(stderr, "check: flight %d/%d not found\n", r, f);
          ++failed;
          continue;
        }
        const FlightDb db = flight->SnapshotDb();
        if (!db.CheckInvariants()) {
          std::fprintf(stderr, "check: flight %lld invariants violated\n",
                       static_cast<long long>(FlightNo(r, f)));
          ++failed;
        }
        for (int d = 0; d < kDates; ++d) {
          const std::string date = DateString(d);
          const int64_t want = expected[{FlightNo(r, f), date}];
          if (db.SeatsTaken(date) != want ||
              db.SeatsTaken(date) > db.capacity()) {
            std::fprintf(stderr,
                         "check: flight %lld on %s holds %d seats, the "
                         "completed transactions leave %lld\n",
                         static_cast<long long>(FlightNo(r, f)), date.c_str(),
                         db.SeatsTaken(date), static_cast<long long>(want));
            ++failed;
          }
        }
      }
    }
    return failed;
  }

  std::vector<double> LatenciesUs(int64_t begin, int64_t end) override {
    std::vector<double> latencies;
    for (const auto& log : logs_) {
      for (const auto& t : log) {
        if (t.ok && t.end_ns >= begin && t.end_ns < end) {
          latencies.push_back((t.end_ns - t.start_ns) / 1e3);
        }
      }
    }
    return latencies;
  }

  double OpsIn(int64_t begin, int64_t end) override {
    return static_cast<double>(Traced(begin, end).size());
  }

  void PerLayer(int64_t begin, int64_t end, Report* report) override {
    std::vector<double> per_step[kSteps];
    std::vector<double> send;
    for (const TxnRecord* t : Traced(begin, end)) {
      for (const auto& [step, us] : t->steps) {
        per_step[step].push_back(us);
      }
      send.insert(send.end(), t->send_us.begin(), t->send_us.end());
    }
    report->Add("guardian.send_us.p50", Quantile(send, 0.5), "us");
    report->Add("guardian.send_us.p99", Quantile(send, 0.99), "us");
    for (int s = 0; s < kSteps; ++s) {
      report->Add(std::string("airline.step_us.") + kStepNames[s],
                  Quantile(per_step[s], 0.5), "us");
    }
    // Whole-run ratios (the flight databases are read once, at the end).
    double txns = 0;
    for (const auto& log : logs_) {
      txns += static_cast<double>(log.size());
    }
    double appends = 0;
    double noops = 0;
    for (int r = 0; r < kRegions; ++r) {
      for (int f = 0; f < kFlightsPerRegion; ++f) {
        FlightGuardian* flight = Flight(r, f);
        if (flight != nullptr) {
          appends += static_cast<double>(flight->OpenLog("flight")->appended());
          noops += static_cast<double>(
              flight->SnapshotDb().GetStats().idempotent_noops);
        }
      }
    }
    double forks = 0;
    for (UserGuardian* user : topology_.users) {
      forks += static_cast<double>(user->transactions_started());
    }
    report->Add("store.wal_appends_per_txn", appends / txns, "count");
    report->Add("airline.noops_per_txn", noops / txns, "count");
    report->Add("runtime.forks_per_txn", forks / txns, "count");
  }

  void PrintTail(int64_t begin, int64_t end) override {
    auto traced = Traced(begin, end);
    std::sort(traced.begin(), traced.end(),
              [](const TxnRecord* a, const TxnRecord* b) {
                return a->end_ns - a->start_ns > b->end_ns - b->start_ns;
              });
    std::printf("# tail: 10 slowest transactions (us), time per clerk step "
                "kind\n");
    for (size_t i = 0; i < traced.size() && i < 10; ++i) {
      const TxnRecord& t = *traced[i];
      std::printf("#   total %9.1f  start %8.1f  reserve %8.1f  cancel "
                  "%8.1f  undo %8.1f  done %8.1f\n",
                  (t.end_ns - t.start_ns) / 1e3, t.step_us[kStart],
                  t.step_us[kReserve], t.step_us[kCancel], t.step_us[kUndo],
                  t.step_us[kDone]);
    }
  }

  void WriteSpans(int64_t begin, int64_t end,
                  const std::string& path) override {
    std::ofstream out(path);
    out << "txn_start_ns,txn_end_ns,start_us,reserve_us,cancel_us,undo_us,"
           "done_us\n";
    for (const TxnRecord* t : Traced(begin, end)) {
      out << t->start_ns << ',' << t->end_ns;
      for (double us : t->step_us) {
        out << ',' << us;
      }
      out << '\n';
    }
  }

  Envelope SampleEnvelope() override {
    // The request every reserve sends through the regional manager.
    Envelope env;
    env.msg_id = 1;
    env.trace_id = 1;
    env.src_node = 1;
    env.session_id = 7;
    env.dedup_seq = 1;
    env.target = topology_.regional_ports[0];
    env.reply_to = PortName{1, 2, 3, ReservationReplyType().hash()};
    env.deadline_micros = 500'000;
    env.command = "reserve";
    env.args = {Value::Int(FlightNo(1, 3)), Value::Str("c0-123456"),
                Value::Str(DateString(5))};
    return env;
  }

 private:
  FlightGuardian* Flight(int r, int f) {
    NodeRuntime& node = system_->node(topology_.region_nodes[r]);
    return dynamic_cast<FlightGuardian*>(node.FindGuardianByName(
        "P" + std::to_string(r) + "/flight-" +
        std::to_string(FlightNo(r, f))));
  }

  // Transactions that started while tracing and ended in [begin, end).
  std::vector<const TxnRecord*> Traced(int64_t begin, int64_t end) const {
    std::vector<const TxnRecord*> out;
    for (const auto& log : logs_) {
      for (const auto& t : log) {
        if (t.ok && !t.steps.empty() && t.start_ns >= begin &&
            t.end_ns < end) {
          out.push_back(&t);
        }
      }
    }
    return out;
  }

  void ClerkLoop(size_t c) {
    Guardian& shell = *clerks_[c];
    const int region = static_cast<int>(c) / kClerksPerRegion;
    const int slot = static_cast<int>(c) % kClerksPerRegion;
    Port* term = shell.AddPort(TermPortType(), /*capacity=*/128);
    for (int64_t n = 0; !stop_.load(std::memory_order_relaxed); ++n) {
      // Scripts whose home region is this clerk's, shared round-robin by
      // the region's clerks.
      const size_t script = static_cast<size_t>(
          (region + kRegions * (slot + kClerksPerRegion * n)) % kScripts);
      logs_[c].push_back(RunTransaction(
          shell, term, topology_.user_ports[region], scripts_[script],
          "c" + std::to_string(c) + "-" + std::to_string(n),
          &expected_[c]));
      completed_.fetch_add(1, std::memory_order_relaxed);
    }
    shell.RetirePort(term);
  }

  // One scripted transaction through the clerk protocol, every answer
  // checked against a shadow TransHistory.
  TxnRecord RunTransaction(Guardian& shell, Port* term,
                           const PortName& user_port,
                           const std::vector<ClerkOp>& ops,
                           const std::string& passenger,
                           std::map<SeatKey, int64_t>* expected) {
    TxnRecord t;
    const bool traced = tracing();
    auto step_done = [&](Step step, int64_t begin_ns) {
      const double us = (NowNs() - begin_ns) / 1e3;
      t.step_us[step] += us;
      if (traced) {
        t.steps.push_back({step, us});
      }
    };
    SetCurrentTraceId(0);  // one causal chain per transaction
    t.start_ns = NowNs();
    RemoteCallOptions options;
    options.timeout = kStepTimeout;
    options.max_attempts = 1;
    auto started = RemoteCall(
        shell, user_port, "start_transaction",
        {Value::Str(passenger), Value::OfPort(term->name())},
        TransStartedReplyType(), options);
    step_done(kStart, t.start_ns);
    if (!started.ok() || started->command != "trans_started" ||
        started->args.size() != 1 || !started->args[0].is(TypeTag::kPortName)) {
      t.end_ns = NowNs();
      return t;
    }
    const PortName trans = started->args[0].port_value();

    TransHistory history;
    std::set<SeatKey> held;
    for (const ClerkOp& op : ops) {
      Step step = kDone;
      const char* command = "done";
      ValueList args;
      std::string want = "trans_done";
      switch (op.kind) {
        case ClerkOp::Kind::kReserve:
          step = kReserve;
          command = "reserve";
          args = {Value::Int(op.flight), Value::Str(op.date)};
          want = held.count({op.flight, op.date}) > 0 ? "pre_reserved" : "ok";
          break;
        case ClerkOp::Kind::kCancel:
          step = kCancel;
          command = "cancel";
          args = {Value::Int(op.flight), Value::Str(op.date)};
          want = "deferred";
          break;
        case ClerkOp::Kind::kUndoLast:
          step = kUndo;
          command = "undo_last";
          want = history.UndoLast().has_value() ? "undone" : "illegal";
          break;
        case ClerkOp::Kind::kDone:
          break;
      }
      const int64_t begin_ns = NowNs();
      Status sent = shell.Send(trans, command, std::move(args));
      if (traced) {
        t.send_us.push_back((NowNs() - begin_ns) / 1e3);
      }
      auto answer = sent.ok() ? shell.Receive(term, kStepTimeout)
                              : Result<Received>(sent);
      step_done(step, begin_ns);
      if (!answer.ok() || answer->command != want) {
        t.end_ns = NowNs();
        return t;
      }
      if (op.kind == ClerkOp::Kind::kReserve && want == "ok") {
        held.insert({op.flight, op.date});
        history.AddReserve(op.flight, op.date);
      } else if (op.kind == ClerkOp::Kind::kCancel) {
        history.AddCancel(op.flight, op.date);
      } else if (op.kind == ClerkOp::Kind::kDone) {
        const auto cancels = history.CancelsToPerform();
        if (!Summary(*answer, "reserves", history.ActiveReserves()) ||
            !Summary(*answer, "cancels",
                     static_cast<int64_t>(cancels.size())) ||
            !Summary(*answer, "cancel_failures", 0)) {
          t.end_ns = NowNs();
          return t;
        }
        for (const auto& cancel : cancels) {
          held.erase({cancel.flight, cancel.date});
        }
        for (const auto& key : held) {
          ++(*expected)[key];
        }
        t.ok = true;
        break;
      }
    }
    t.end_ns = NowNs();
    return t;
  }

  static bool Summary(const Received& done, const std::string& field,
                      int64_t want) {
    if (done.args.size() != 1) {
      return false;
    }
    auto value = done.args[0].field(field);
    return value.ok() && value->is(TypeTag::kInt) &&
           value->int_value() == want;
  }

  const Options options_;
  std::vector<std::vector<ClerkOp>> scripts_;
  std::unique_ptr<System> system_;
  AirlineTopology topology_;
  std::vector<Guardian*> clerks_;
  std::atomic<bool> stop_{false};
  std::vector<std::vector<TxnRecord>> logs_;
  // Seats each clerk's completed transactions leave standing.
  std::vector<std::map<SeatKey, int64_t>> expected_;
  std::vector<std::thread> threads_;
};

}  // namespace

std::unique_ptr<Workload> MakeAirline(const Options& options) {
  return std::make_unique<AirlineWorkload>(options);
}

}  // namespace perfbench
