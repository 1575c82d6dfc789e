// Experiment SEND — Section 3's comparative analysis of the three
// communication primitives:
//
//   1. no-wait send          — sender waits only until the message is
//                              composed; 1 wire message per exchange.
//   2. synchronization send  — sender waits until the target process has
//                              received the message (Hoare); built on the
//                              no-wait send + a receipt ack: 2 wire
//                              messages, sender blocked ≈ 2 × latency.
//   3. remote transaction    — sender waits for the result (Brinch
//                              Hansen); request + response: 2 wire
//                              messages, sender blocked ≈ 2 × latency +
//                              service.
//
// Paper claims measured here:
//  - the no-wait send "can be used to implement the others, but not vice
//    versa (if extra message passing is to be avoided)" — counters report
//    wire messages per logical exchange;
//  - the request-pattern asymmetry: for the "several messages, one
//    response" pattern, k no-wait sends + 1 response costs k+1 messages
//    where k remote invocations would cost 2k.
#include <atomic>
#include <set>
#include <thread>

#include "bench/bench_util.h"
#include "src/sendprims/reliable_send.h"
#include "src/sendprims/sync_send.h"

namespace guardians {
namespace {

PortType SinkPortType() {
  return PortType("sink",
                  {MessageSig{"put", {ArgType::Of(TypeTag::kInt)}, {}},
                   MessageSig{"put_many",
                              {ArgType::Of(TypeTag::kInt),
                               ArgType::Of(TypeTag::kBool)},
                              {"got_all"}},
                   MessageSig{"ask", {ArgType::Of(TypeTag::kInt)},
                              {"answer"}}});
}

PortType SinkReplyType() {
  return PortType("sink_reply",
                  {MessageSig{"answer", {ArgType::Of(TypeTag::kInt)}, {}},
                   MessageSig{"got_all", {ArgType::Of(TypeTag::kInt)}, {}}});
}

// Consumes puts, answers asks, and acknowledges a batch when the final
// put_many of a batch arrives — the "several messages, one response"
// pattern of Section 3.
class SinkGuardian : public Guardian {
 public:
  Status Setup(const ValueList& args) override {
    (void)args;
    AddPort(SinkPortType(), 4096, /*provided=*/true);
    return OkStatus();
  }

  void Main() override {
    int64_t batch_received = 0;
    for (;;) {
      auto received = Receive(port(0), Micros::max());
      if (!received.ok()) {
        return;
      }
      if (received->command == "put") {
        consumed_.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu_);
        distinct_.insert(received->args[0].int_value());
      } else if (received->command == "put_many") {
        ++batch_received;
        consumed_.fetch_add(1);
        if (received->args[1].bool_value() &&
            !received->reply_to.IsNull()) {
          Status st = Send(received->reply_to, "got_all",
                           {Value::Int(batch_received)});
          (void)st;
          batch_received = 0;
        }
      } else if (received->command == "ask") {
        asks_total_.fetch_add(1);
        {
          std::lock_guard<std::mutex> lock(mu_);
          asks_distinct_.insert(received->args[0].int_value());
        }
        if (!received->reply_to.IsNull()) {
          Status st = Send(received->reply_to, "answer",
                           {Value::Int(received->args[0].int_value() + 1)});
          (void)st;
        }
      }
    }
  }

  std::atomic<int64_t> consumed_{0};
  // Executions of "ask": total vs distinct arguments. Their difference is
  // the re-execution count — the number the at-most-once layer must hold
  // at zero however many duplicates and retries hit the port.
  std::atomic<int64_t> asks_total_{0};

  size_t Distinct() const {
    std::lock_guard<std::mutex> lock(mu_);
    return distinct_.size();
  }

  size_t AsksDistinct() const {
    std::lock_guard<std::mutex> lock(mu_);
    return asks_distinct_.size();
  }

 private:
  mutable std::mutex mu_;
  std::set<int64_t> distinct_;
  std::set<int64_t> asks_distinct_;
};

struct SendWorld {
  explicit SendWorld(Micros latency) : world(MakeConfig(latency)) {
    NodeRuntime& a = world.system.AddNode("a");
    NodeRuntime& b = world.system.AddNode("b");
    b.RegisterGuardianType("sink", MakeFactory<SinkGuardian>());
    driver = world.Shell(a, "driver");
    auto created = b.Create<SinkGuardian>("sink", "sink", {}, false);
    sink = *created;
    sink_port = sink->ProvidedPorts()[0];
  }

  static SystemConfig MakeConfig(Micros latency) {
    SystemConfig config;
    config.seed = 9;
    config.default_link.latency = latency;
    return config;
  }

  uint64_t WireMessages() {
    // Count at the network layer: every fragment of every message.
    return world.system.network().stats().packets_sent;
  }

  BenchWorld world;
  Guardian* driver = nullptr;
  SinkGuardian* sink = nullptr;
  PortName sink_port;
};

void ReportPerExchange(benchmark::State& state, uint64_t wire_messages,
                       int64_t exchanges) {
  state.counters["wire_msgs_per_exchange"] = benchmark::Counter(
      static_cast<double>(wire_messages) / static_cast<double>(exchanges));
}

void BM_NoWaitSend(benchmark::State& state) {
  SendWorld world(Micros(state.range(0)));
  int64_t i = 0;
  for (auto _ : state) {
    Status st = world.driver->Send(world.sink_port, "put", {Value::Int(i++)});
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  const uint64_t wire = world.WireMessages();
  // Wait for the sink to drain so the port buffer never overflows between
  // benchmark repetitions.
  world.world.system.network().DrainForTesting();
  state.SetItemsProcessed(state.iterations());
  ReportPerExchange(state, wire, i);
}

void BM_SynchronizationSend(benchmark::State& state) {
  SendWorld world(Micros(state.range(0)));
  int64_t i = 0;
  for (auto _ : state) {
    Status st = SyncSend(*world.driver, world.sink_port, "put",
                         {Value::Int(i++)}, Millis(30000));
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  ReportPerExchange(state, world.WireMessages(), i);
}

void BM_RemoteTransactionSend(benchmark::State& state) {
  SendWorld world(Micros(state.range(0)));
  int64_t i = 0;
  RemoteCallOptions options;
  options.timeout = Millis(30000);
  for (auto _ : state) {
    auto reply = RemoteCall(*world.driver, world.sink_port, "ask",
                            {Value::Int(i++)}, SinkReplyType(), options);
    if (!reply.ok()) {
      state.SkipWithError(reply.status().ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  ReportPerExchange(state, world.WireMessages(), i);
}

// The "several messages, one response" pattern, k=8: with the no-wait send
// this is k requests + 1 response = k+1 messages; a primitive that forces a
// response per message would use 2k.
void BM_BatchPattern(benchmark::State& state) {
  constexpr int kBatch = 8;
  SendWorld world(Micros(state.range(0)));
  Port* reply_port = world.driver->AddPort(SinkReplyType(), 16);
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      const bool last = i == kBatch - 1;
      Status st =
          last ? world.driver->Send(world.sink_port, "put_many",
                                    {Value::Int(i), Value::Bool(true)},
                                    reply_port->name())
               : world.driver->Send(world.sink_port, "put_many",
                                    {Value::Int(i), Value::Bool(false)});
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
    }
    auto reply = world.driver->Receive(reply_port, Millis(30000));
    if (!reply.ok() || reply->command != "got_all") {
      state.SkipWithError("batch ack lost");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  ReportPerExchange(state, world.WireMessages(), state.iterations());
  state.counters["batch"] = kBatch;
}

// Section 3's delivery ladder under loss: "The no-wait send can usually
// ensure message delivery. The synchronization send can guarantee delivery
// (if it terminates)." Measures the delivered fraction and the wire cost of
// climbing from usually to always (ReliableSend = sync send + retry).
void BM_DeliveryGuarantee(benchmark::State& state) {
  const bool reliable = state.range(0) != 0;
  const double loss = static_cast<double>(state.range(1)) / 100.0;
  constexpr int kMessages = 60;

  double delivered_frac = 0;
  double wire_per_message = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SendWorld world(Micros(200));
    world.world.system.network().SetLink(
        1, 2, LinkParams{Micros(200), Micros(0), loss, 0, 0});
    state.ResumeTiming();

    for (int i = 0; i < kMessages; ++i) {
      if (reliable) {
        ReliableSendOptions options;
        options.ack_timeout = Millis(20);
        options.max_attempts = 50;
        auto result = ReliableSend(*world.driver, world.sink_port, "put",
                                   {Value::Int(i)}, options);
        benchmark::DoNotOptimize(result);
      } else {
        Status st = world.driver->Send(world.sink_port, "put",
                                       {Value::Int(i)});
        benchmark::DoNotOptimize(st);
      }
    }
    state.PauseTiming();
    world.world.system.network().DrainForTesting();
    // Give the sink process a moment to drain its port.
    const Deadline settle(Millis(500));
    while (world.sink->consumed_.load() < kMessages && !settle.Expired()) {
      std::this_thread::sleep_for(Millis(2));
    }
    // Distinct messages: at-least-once delivery may duplicate, which must
    // not be mistaken for deliveries of lost messages.
    delivered_frac +=
        static_cast<double>(world.sink->Distinct()) / kMessages;
    wire_per_message +=
        static_cast<double>(world.WireMessages()) / kMessages;
    state.ResumeTiming();
  }
  state.counters["reliable"] = reliable ? 1 : 0;
  state.counters["loss_pct"] = static_cast<double>(state.range(1));
  state.counters["delivered_frac"] =
      benchmark::Counter(delivered_frac / state.iterations());
  state.counters["wire_msgs_per_logical"] =
      benchmark::Counter(wire_per_message / state.iterations());
  state.SetItemsProcessed(state.iterations() * kMessages);
}

// Experiment DEDUP — the at-most-once layer under a duplicate storm. A
// sweep over dup_prob (with loss on the heaviest point so retries and
// cached-reply replays really happen) drives tracked remote transactions
// and measures re-executions — total "ask" executions minus distinct ones —
// which the dedup layer must hold at exactly zero.
struct DedupOutcome {
  int64_t logical = 0;     // remote calls issued
  int64_t succeeded = 0;   // calls that got a reply
  int64_t executed = 0;    // "ask" bodies actually run at the sink
  int64_t distinct = 0;    // distinct ask arguments seen
  uint64_t duplicated = 0;  // packets the network duplicated
  uint64_t suppressed = 0;  // duplicates the receiver suppressed
  uint64_t replayed = 0;    // retries answered from the reply cache
};

std::map<int, DedupOutcome>& DedupOutcomes() {
  static auto* outcomes = new std::map<int, DedupOutcome>();
  return *outcomes;
}

void BM_DuplicateStorm(benchmark::State& state) {
  const int dup_pct = static_cast<int>(state.range(0));
  const int loss_pct = static_cast<int>(state.range(1));
  constexpr int kCalls = 120;
  DedupOutcome outcome;
  for (auto _ : state) {
    state.PauseTiming();
    SendWorld world(Micros(200));
    LinkParams link;
    link.latency = Micros(200);
    link.drop_prob = static_cast<double>(loss_pct) / 100.0;
    link.dup_prob = static_cast<double>(dup_pct) / 100.0;
    world.world.system.network().SetLink(1, 2, link);
    RemoteCallOptions options;
    options.timeout = Millis(30);
    options.max_attempts = 50;
    state.ResumeTiming();

    for (int i = 0; i < kCalls; ++i) {
      auto reply = RemoteCall(*world.driver, world.sink_port, "ask",
                              {Value::Int(i)}, SinkReplyType(), options);
      ++outcome.logical;
      if (reply.ok()) {
        ++outcome.succeeded;
      }
    }

    state.PauseTiming();
    world.world.system.network().DrainForTesting();
    outcome.executed += world.sink->asks_total_.load();
    outcome.distinct += static_cast<int64_t>(world.sink->AsksDistinct());
    const MetricsRegistry& metrics = world.world.system.metrics();
    outcome.duplicated += metrics.CounterValue("net.dup.injected");
    outcome.suppressed += metrics.CounterValue("deliver.dup.suppressed");
    outcome.replayed += metrics.CounterValue("deliver.dup.replayed");
    state.ResumeTiming();
  }
  state.counters["dup_pct"] = dup_pct;
  state.counters["loss_pct"] = loss_pct;
  state.counters["re_executions"] =
      static_cast<double>(outcome.executed - outcome.distinct);
  state.counters["suppressed"] = static_cast<double>(outcome.suppressed);
  state.counters["replayed"] = static_cast<double>(outcome.replayed);
  state.SetItemsProcessed(state.iterations() * kCalls);
  DedupOutcomes()[dup_pct * 1000 + loss_pct] = outcome;
}

// Verifies the DEDUP property over the collected outcomes and writes
// BENCH_sendprims.json. Returns 0 on success.
int CheckAndRecord() {
  auto& outcomes = DedupOutcomes();
  if (outcomes.empty()) {
    return 0;  // filtered run (--benchmark_filter): nothing to check
  }
  BenchJson json("BENCH_sendprims.json");
  int failures = 0;
  for (const auto& [key, outcome] : outcomes) {
    const int dup_pct = key / 1000;
    const int loss_pct = key % 1000;
    const int64_t re_executions = outcome.executed - outcome.distinct;
    json.Record("sendprims_dedup/dup:" + std::to_string(dup_pct) +
                    "/loss:" + std::to_string(loss_pct),
                {{"dup_pct", static_cast<double>(dup_pct)},
                 {"loss_pct", static_cast<double>(loss_pct)},
                 {"logical", static_cast<double>(outcome.logical)},
                 {"succeeded", static_cast<double>(outcome.succeeded)},
                 {"executed", static_cast<double>(outcome.executed)},
                 {"re_executions", static_cast<double>(re_executions)},
                 {"duplicated", static_cast<double>(outcome.duplicated)},
                 {"suppressed", static_cast<double>(outcome.suppressed)},
                 {"replayed", static_cast<double>(outcome.replayed)}});
    std::printf("DEDUP dup=%d%% loss=%d%%: %lld calls, %lld executed, "
                "%lld re-executions, %llu suppressed, %llu replayed\n",
                dup_pct, loss_pct,
                static_cast<long long>(outcome.logical),
                static_cast<long long>(outcome.executed),
                static_cast<long long>(re_executions),
                static_cast<unsigned long long>(outcome.suppressed),
                static_cast<unsigned long long>(outcome.replayed));
    if (re_executions != 0) {
      std::fprintf(stderr,
                   "DEDUP FAIL: %lld re-executions at dup=%d%% loss=%d%% "
                   "(at-most-once violated)\n",
                   static_cast<long long>(re_executions), dup_pct, loss_pct);
      ++failures;
    }
    if (dup_pct > 0 && outcome.suppressed == 0) {
      std::fprintf(stderr,
                   "DEDUP FAIL: dup=%d%% injected no suppression — the "
                   "sweep did not exercise the dedup layer\n",
                   dup_pct);
      ++failures;
    }
    // An executed op may outnumber the acks (a reply can be lost for good
    // once attempts exhaust) but never the other way around.
    if (outcome.distinct < outcome.succeeded) {
      std::fprintf(stderr,
                   "DEDUP FAIL: %lld acked calls but only %lld distinct "
                   "executions at dup=%d%% loss=%d%%\n",
                   static_cast<long long>(outcome.succeeded),
                   static_cast<long long>(outcome.distinct), dup_pct,
                   loss_pct);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace guardians

BENCHMARK(guardians::BM_NoWaitSend)
    ->ArgNames({"link_us"})
    ->Arg(200)
    ->Arg(2000)
    ->Iterations(300)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(guardians::BM_SynchronizationSend)
    ->ArgNames({"link_us"})
    ->Arg(200)
    ->Arg(2000)
    ->Iterations(100)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(guardians::BM_RemoteTransactionSend)
    ->ArgNames({"link_us"})
    ->Arg(200)
    ->Arg(2000)
    ->Iterations(100)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(guardians::BM_BatchPattern)
    ->ArgNames({"link_us"})
    ->Arg(200)
    ->Arg(2000)
    ->Iterations(50)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(guardians::BM_DeliveryGuarantee)
    ->ArgNames({"reliable", "loss_pct"})
    ->Args({0, 10})
    ->Args({1, 10})
    ->Args({0, 30})
    ->Args({1, 30})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(guardians::BM_DuplicateStorm)
    ->ArgNames({"dup_pct", "loss_pct"})
    ->Args({0, 0})
    ->Args({25, 0})
    ->Args({100, 0})
    ->Args({100, 10})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return guardians::CheckAndRecord();
}
