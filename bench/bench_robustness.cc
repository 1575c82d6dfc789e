// Experiment ROBUST — Section 2.2: permanence of effect.
//
// (a) Logging overhead: reserve throughput with per-guardian logging off /
//     on, across stable-storage write latencies. Permanence is paid for in
//     synchronous log writes; the experiment puts a number on the paper's
//     design decision to do backup "on a per-guardian basis" only for the
//     resources that need it.
// (b) Recovery time: crash a flight guardian's node after K logged
//     operations and measure Restart() (which replays the log). Expected:
//     linear in K.
// (c) Checkpointing ablation: with periodic checkpoints the replayed
//     suffix — and therefore recovery time — stays bounded.
// (d) Crash-schedule exploration: src/fault/explorer.h's enumeration of
//     every device crash state of the airline workload (before and after
//     each stable-store mutation of the region node, and torn inside each
//     append) runs after the benchmarks; its coverage and mean
//     supervised-recovery time land in BENCH_robustness.json, and any
//     permanence violation fails the binary (exit 1) — the bench doubles
//     as a robustness gate.
#include "bench/bench_util.h"
#include "src/fault/explorer.h"

namespace guardians {
namespace {

struct ReplayOutcome {
  int ops = 0;
  int checkpoint_every = 0;
  double restart_ms = 0;
};

std::vector<ReplayOutcome>& ReplayOutcomes() {
  static std::vector<ReplayOutcome> outcomes;
  return outcomes;
}

struct RobustWorld {
  RobustWorld(bool logging, Micros write_latency, int checkpoint_every)
      : world(MakeConfig()) {
    node = &world.system.AddNode("airline");
    node->stable_store().SetWriteLatency(write_latency);
    node->RegisterGuardianType("flight", MakeFactory<FlightGuardian>());
    FlightConfig flight_config;
    flight_config.flight_no = 1;
    flight_config.capacity = 1 << 20;
    flight_config.organization = FlightOrganization::kOneAtATime;
    flight_config.logging = logging;
    flight_config.checkpoint_every = checkpoint_every;
    auto created = node->Create<FlightGuardian>("flight", "f1",
                                                flight_config.ToArgs(),
                                                /*persistent=*/true);
    flight_port = (*created)->ProvidedPorts()[0];
    driver = world.Shell(*node, "driver");
  }

  static SystemConfig MakeConfig() {
    SystemConfig config;
    config.seed = 21;
    config.default_link.latency = Micros(20);
    return config;
  }

  BenchWorld world;
  NodeRuntime* node = nullptr;
  Guardian* driver = nullptr;
  PortName flight_port;
};

void BM_LoggingOverhead(benchmark::State& state) {
  const bool logging = state.range(0) != 0;
  const auto write_latency = Micros(state.range(1));
  RobustWorld world(logging, write_latency, /*checkpoint_every=*/0);
  RemoteCallOptions options;
  options.timeout = Millis(30000);
  int64_t i = 0;
  for (auto _ : state) {
    auto reply = RemoteCall(
        *world.driver, world.flight_port, "reserve",
        {Value::Str("p" + std::to_string(i)), Value::Str(DateString(0))},
        ReservationReplyType(), options);
    ++i;
    if (!reply.ok()) {
      state.SkipWithError(reply.status().ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["logging"] = logging ? 1 : 0;
  state.counters["write_us"] = static_cast<double>(write_latency.count());
}

void BM_RecoveryReplay(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  const int checkpoint_every = static_cast<int>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    auto world = std::make_unique<RobustWorld>(true, Micros(0),
                                               checkpoint_every);
    RemoteCallOptions options;
    options.timeout = Millis(30000);
    for (int i = 0; i < ops; ++i) {
      auto reply = RemoteCall(
          *world->driver, world->flight_port, "reserve",
          {Value::Str("p" + std::to_string(i)),
           Value::Str(DateString(i % 16))},
          ReservationReplyType(), options);
      if (!reply.ok()) {
        state.SkipWithError(reply.status().ToString().c_str());
        return;
      }
    }
    world->node->Crash();
    state.ResumeTiming();

    // Timed region: boot + recovery replay of the log.
    const TimePoint t0 = Now();
    Status restarted = world->node->Restart();
    ReplayOutcomes().push_back(
        {ops, checkpoint_every,
         static_cast<double>(ToMicros(Now() - t0)) / 1000.0});

    state.PauseTiming();
    if (!restarted.ok()) {
      state.SkipWithError(restarted.ToString().c_str());
      return;
    }
    // Verify permanence: the recovered DB holds every reservation.
    auto* flight = dynamic_cast<FlightGuardian*>(
        world->node->FindGuardian(world->flight_port.guardian));
    if (flight == nullptr ||
        flight->SnapshotDb().GetStats().reservations != ops) {
      state.SkipWithError("recovery lost reservations");
      return;
    }
    world.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * ops);
  state.counters["logged_ops"] = ops;
  state.counters["checkpoint_every"] = checkpoint_every;
}

}  // namespace

// After the benchmarks: run the exhaustive crash-schedule exploration and
// write everything to BENCH_robustness.json. Returns the process exit
// code — a schedule that violates permanence fails the bench.
int ExploreAndRecord() {
  BenchJson json("BENCH_robustness.json");
  for (const ReplayOutcome& r : ReplayOutcomes()) {
    json.Record("recovery_replay/ops:" + std::to_string(r.ops) +
                    "/checkpoint_every:" + std::to_string(r.checkpoint_every),
                {{"ops", static_cast<double>(r.ops)},
                 {"checkpoint_every", static_cast<double>(r.checkpoint_every)},
                 {"restart_ms", r.restart_ms}});
  }

  auto report = ExploreCrashSchedules();
  if (!report.ok()) {
    std::fprintf(stderr, "crash explorer failed to run: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("crash explorer: %s\n", report->Summary().c_str());
  json.Record("crash_explorer",
              {{"mutations", static_cast<double>(report->baseline.size())},
               {"appends", static_cast<double>(report->appends)},
               {"schedules", static_cast<double>(report->schedules.size())},
               {"triggered", static_cast<double>(report->triggered)},
               {"failures", static_cast<double>(report->failures)},
               {"mean_recovery_ms", report->mean_recovery_us / 1000.0}});
  return report->failures == 0 &&
                 report->triggered == report->schedules.size()
             ? 0
             : 1;
}

}  // namespace guardians

BENCHMARK(guardians::BM_LoggingOverhead)
    ->ArgNames({"logging", "write_us"})
    ->Args({0, 0})      // no permanence: the baseline
    ->Args({1, 0})      // logging to instantaneous storage
    ->Args({1, 100})    // realistic fast stable storage
    ->Args({1, 1000})   // slow stable storage
    ->Iterations(100)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

BENCHMARK(guardians::BM_RecoveryReplay)
    ->ArgNames({"ops", "checkpoint_every"})
    ->Args({64, 0})
    ->Args({256, 0})
    ->Args({1024, 0})
    ->Args({1024, 128})  // checkpointing bounds the replayed suffix
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return guardians::ExploreAndRecord();
}
