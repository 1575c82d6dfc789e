// stream_nowait: an open loop of no-wait sends into one sink.
//
// One generator thread on a shell guardian on node "client" sends
// tick(seq, due_ns, 16-byte blob) with the plain no-wait Guardian::Send at a
// fixed 100k messages/s to a sink guardian on node "server" draining one
// 65536-slot port. Message seq is due at start + seq * 10 us; latency runs
// from that due time to the sink's Receive return, so a generator stall
// counts against every message it delays. The sink checks that every seq
// arrives exactly once with its seeded blob.
#include <cstdio>
#include <fstream>
#include <thread>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

using namespace guardians;

constexpr double kRatePerSecond = 100'000;
constexpr int64_t kPeriodNs = static_cast<int64_t>(1e9 / kRatePerSecond);
// 655 ms of ticks: a stall of the shared machine that holds the sink back
// must not overflow the port, or the stream would lose ticks by design
// (§3.4) and the run would fail for the machine's sake.
constexpr size_t kSinkCapacity = 65536;
constexpr size_t kBlobBytes = 16;
constexpr uint64_t kPlantSeq = 5000;  // the seq the drop_seq plant ignores

PortType TickPortType() {
  return PortType("perfbench_tick",
                  {MessageSig{"tick",
                              {ArgType::Of(TypeTag::kInt),
                               ArgType::Of(TypeTag::kInt),
                               ArgType::Of(TypeTag::kBytes)},
                              {}}});
}

// Filled by the sink, indexed by seq. Written only by the sink thread; read
// by the workload after `received` shows the stream is complete.
struct SinkState {
  uint64_t blob_seed = 0;
  bool plant_drop = false;
  const std::atomic<bool>* tracing = nullptr;
  ZeroedArray recv_ns;     // 0 = not received
  ZeroedArray handler_ns;  // traced binary only: Receive return -> next wait
  std::atomic<uint64_t> received{0};
  std::atomic<uint64_t> bad{0};      // duplicate, out of range, wrong bytes
  std::atomic<int64_t> blocked_ns{0};
};

SinkState* g_next_sink_state = nullptr;

class SinkGuardian : public Guardian {
 public:
  Status Setup(const ValueList& args) override {
    (void)args;
    state_ = g_next_sink_state;
    AddPort(TickPortType(), kSinkCapacity, /*provided=*/true);
    return OkStatus();
  }

  void Main() override {
    Port* ticks = port(0);
    for (;;) {
      const bool traced = state_->tracing->load(std::memory_order_relaxed);
      const int64_t wait_begin = traced ? NowNs() : 0;
      auto received = Receive(ticks, Micros::max());
      const int64_t now = NowNs();
      if (!received.ok()) {
        return;
      }
      if (traced) {
        state_->blocked_ns.fetch_add(now - wait_begin,
                                     std::memory_order_relaxed);
      }
      const ValueList& args = received->args;
      const bool shaped = args.size() == 3 && args[0].is(TypeTag::kInt) &&
                          args[2].is(TypeTag::kBytes);
      const int64_t seq = shaped ? args[0].int_value() : -1;
      if (seq < 0 || static_cast<size_t>(seq) >= state_->recv_ns.size() ||
          state_->recv_ns[seq] != 0 ||
          args[2].bytes_value() !=
              SeededBlob(state_->blob_seed, static_cast<uint64_t>(seq),
                         kBlobBytes)) {
        state_->bad.fetch_add(1);
      } else if (!(state_->plant_drop &&
                   static_cast<uint64_t>(seq) == kPlantSeq)) {
        state_->recv_ns[seq] = now;
        if (traced) {
          state_->handler_ns[seq] = NowNs() - now;
        }
      }
      state_->received.fetch_add(1, std::memory_order_release);
    }
  }

 private:
  SinkState* state_ = nullptr;
};

class StreamWorkload : public Workload {
 public:
  explicit StreamWorkload(const Options& options)
      : Workload(25000),
        options_(options),
        capacity_(static_cast<size_t>((options.seconds + 3) *
                                      kRatePerSecond)) {}

  ~StreamWorkload() override {
    Stop();
    Teardown();
  }

  Status Build() override {
    sink_ = std::make_unique<SinkState>();
    sink_->blob_seed = Derive(options_.seed, 3);
    sink_->plant_drop = options_.plant == "drop_seq";
    sink_->tracing = &tracing_;
    system_ = std::make_unique<System>(BenchConfig(options_.seed));
    NodeRuntime& client = system_->AddNode("client");
    NodeRuntime& server = system_->AddNode("server");
    client.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    server.RegisterGuardianType("perfbench_sink", MakeFactory<SinkGuardian>());
    g_next_sink_state = sink_.get();
    auto sink = server.Create<SinkGuardian>("perfbench_sink", "sink", {});
    g_next_sink_state = nullptr;
    if (!sink.ok()) {
      return sink.status();
    }
    sink_port_ = (*sink)->ProvidedPorts()[0];
    auto shell = client.Create<ShellGuardian>("shell", "generator", {});
    if (!shell.ok()) {
      return shell.status();
    }
    generator_ = *shell;
    return OkStatus();
  }

  void Teardown() override {
    system_.reset();
    sink_.reset();
  }

  System& system() override { return *system_; }

  void Start() override {
    stop_.store(false);
    completed_.store(0);
    sent_ = 0;
    send_failures_ = 0;
    // Mapped here, not in Build, so set-up time excludes the benchmark's
    // own bookkeeping; their pages become resident only as ticks fill them.
    const size_t traced = options_.trace ? capacity_ : 0;
    sink_->recv_ns = ZeroedArray(capacity_);
    sink_->handler_ns = ZeroedArray(traced);
    send_begin_ns_ = ZeroedArray(traced);
    send_end_ns_ = ZeroedArray(traced);
    thread_ = std::thread([this] { GeneratorLoop(); });
  }

  void Stop() override {
    if (!thread_.joinable()) {
      return;
    }
    stop_.store(true);
    thread_.join();
    // Let the sink drain what is still in flight.
    const int64_t give_up = NowNs() + 5'000'000'000;
    while (sink_->received.load(std::memory_order_acquire) < sent_ &&
           NowNs() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  uint64_t Check(uint64_t* attempted) override {
    *attempted = sent_;
    uint64_t failed = send_failures_;
    const uint64_t bad = sink_->bad.load();
    if (bad > 0) {
      std::fprintf(stderr,
                   "check: %llu ticks duplicated, out of range or with "
                   "wrong bytes\n",
                   static_cast<unsigned long long>(bad));
    }
    failed += bad;
    uint64_t missing = 0;
    for (uint64_t seq = 0; seq < sent_; ++seq) {
      missing += sink_->recv_ns[seq] == 0 ? 1 : 0;
    }
    if (missing > 0) {
      std::fprintf(stderr, "check: %llu of %llu ticks never arrived\n",
                   static_cast<unsigned long long>(missing),
                   static_cast<unsigned long long>(sent_));
      for (const auto& [name, count] :
           system_->metrics().CountersWithPrefix("deliver.drop.")) {
        std::fprintf(stderr, "check:   %s = %llu\n", name.c_str(),
                     static_cast<unsigned long long>(count));
      }
    }
    failed += missing;
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
    return failed;
  }

  // Ticks received in [begin, end), latency from each tick's due time.
  std::vector<double> LatenciesUs(int64_t begin, int64_t end) override {
    std::vector<double> latencies;
    for (uint64_t seq = 0; seq < sent_; ++seq) {
      const int64_t recv = sink_->recv_ns[seq];
      if (recv >= begin && recv < end) {
        latencies.push_back((recv - Due(seq)) / 1e3);
      }
    }
    return latencies;
  }

  double OpsIn(int64_t begin, int64_t end) override {
    return static_cast<double>(LatenciesUs(begin, end).size());
  }

  void PerLayer(int64_t begin, int64_t end, Report* report) override {
    std::vector<double> latency, late, send, oneway, handler;
    for (uint64_t seq = 0; seq < sent_; ++seq) {
      const int64_t recv = sink_->recv_ns[seq];
      if (recv < begin || recv >= end || send_end_ns_[seq] == 0) {
        continue;
      }
      const int64_t due = Due(seq);
      latency.push_back((recv - due) / 1e3);
      late.push_back((send_begin_ns_[seq] - due) / 1e3);
      send.push_back((send_end_ns_[seq] - send_begin_ns_[seq]) / 1e3);
      oneway.push_back((recv - send_end_ns_[seq]) / 1e3);
      handler.push_back(sink_->handler_ns[seq] / 1e3);
    }
    report->Add("guardian.send_us.p50", Quantile(send, 0.5), "us");
    report->Add("guardian.send_us.p99", Quantile(send, 0.99), "us");
    report->Add("guardian.handler_us", Quantile(handler, 0.5), "us");
    report->Add("guardian.server_busy_frac",
                1.0 - static_cast<double>(sink_->blocked_ns.load()) /
                          static_cast<double>(end - begin),
                "frac");
    report->Add("net.oneway_us", Quantile(oneway, 0.5), "us");
    report->Add("stream.latency_p99_us", Quantile(latency, 0.99), "us");
    report->Add("stream.gen_late_us", Quantile(late, 0.99), "us");
  }

  void PrintTail(int64_t begin, int64_t end) override {
    std::vector<uint64_t> seqs;
    for (uint64_t seq = 0; seq < sent_; ++seq) {
      const int64_t recv = sink_->recv_ns[seq];
      if (recv >= begin && recv < end && send_end_ns_[seq] != 0) {
        seqs.push_back(seq);
      }
    }
    std::sort(seqs.begin(), seqs.end(), [this](uint64_t a, uint64_t b) {
      return sink_->recv_ns[a] - Due(a) > sink_->recv_ns[b] - Due(b);
    });
    std::printf("# tail: 10 slowest ticks (us): total = generator late + "
                "send + delivery\n");
    for (size_t i = 0; i < seqs.size() && i < 10; ++i) {
      const uint64_t s = seqs[i];
      std::printf("#   seq %-10llu total %9.1f  late %9.1f  send %8.1f  "
                  "delivery %9.1f\n",
                  static_cast<unsigned long long>(s),
                  (sink_->recv_ns[s] - Due(s)) / 1e3,
                  (send_begin_ns_[s] - Due(s)) / 1e3,
                  (send_end_ns_[s] - send_begin_ns_[s]) / 1e3,
                  (sink_->recv_ns[s] - send_end_ns_[s]) / 1e3);
    }
  }

  void WriteSpans(int64_t begin, int64_t end,
                  const std::string& path) override {
    std::ofstream out(path);
    out << "seq,due_ns,send_begin_ns,send_end_ns,sink_recv_ns\n";
    for (uint64_t seq = 0; seq < sent_; ++seq) {
      const int64_t recv = sink_->recv_ns[seq];
      if (recv >= begin && recv < end && send_end_ns_[seq] != 0) {
        out << seq << ',' << Due(seq) << ',' << send_begin_ns_[seq] << ','
            << send_end_ns_[seq] << ',' << recv << '\n';
      }
    }
  }

  Envelope SampleEnvelope() override {
    Envelope env;
    env.msg_id = 1;
    env.trace_id = 1;
    env.src_node = 1;
    env.target = sink_port_;
    env.command = "tick";
    env.args = {Value::Int(123456), Value::Int(NowNs()),
                Value::Blob(SeededBlob(sink_->blob_seed, 0, kBlobBytes))};
    return env;
  }

 private:
  int64_t Due(uint64_t seq) const {
    return base_ns_ + static_cast<int64_t>(seq) * kPeriodNs;
  }

  void GeneratorLoop() {
    base_ns_ = NowNs() + 1'000'000;
    uint64_t seq = 0;
    for (; seq < capacity_ && !stop_.load(std::memory_order_relaxed);
         ++seq) {
      const int64_t due = Due(seq);
      int64_t now = NowNs();
      // Sleep through long gaps; spin through the last 100 us so the
      // send leaves on time.
      while (now < due) {
        if (due - now > 200'000) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - 100'000));
        }
        now = NowNs();
      }
      const bool traced = tracing();
      const int64_t send_begin = NowNs();
      Status st = generator_->Send(
          sink_port_, "tick",
          {Value::Int(static_cast<int64_t>(seq)), Value::Int(due),
           Value::Blob(SeededBlob(sink_->blob_seed, seq, kBlobBytes))});
      if (traced) {
        send_begin_ns_[seq] = send_begin;
        send_end_ns_[seq] = NowNs();
      }
      if (!st.ok()) {
        ++send_failures_;
      }
      completed_.fetch_add(1, std::memory_order_relaxed);
    }
    sent_ = seq;
  }

  const Options options_;
  const size_t capacity_;
  std::unique_ptr<System> system_;
  std::unique_ptr<SinkState> sink_;
  PortName sink_port_;
  Guardian* generator_ = nullptr;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  // Written by the generator thread, read after it is joined.
  int64_t base_ns_ = 0;
  uint64_t sent_ = 0;
  uint64_t send_failures_ = 0;
  // Traced binary only.
  ZeroedArray send_begin_ns_;
  ZeroedArray send_end_ns_;
};

}  // namespace

std::unique_ptr<Workload> MakeStream(const Options& options) {
  return std::make_unique<StreamWorkload>(options);
}

}  // namespace perfbench
