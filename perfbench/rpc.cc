// rpc_small / rpc_frag: a closed loop of RemoteCall to an echo guardian.
//
// Two caller threads, each on its own shell guardian on node "client",
// issue back-to-back RemoteCall("echo", op, blob) to one echo guardian on
// node "server"; the echo sends the arguments back. One op = one call. The
// blob is 16 bytes (one packet each way) or 8 KiB (nine fragments each way
// at the default 1024-byte packet payload). Every reply is checked byte for
// byte against the blob sent.
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "perfbench/bench.h"
#include "src/obs/trace.h"
#include "src/sendprims/remote_call.h"

namespace perfbench {
namespace {

using namespace guardians;

constexpr int kCallers = 2;
constexpr int kBlobsPerCaller = 64;
constexpr uint64_t kPlantAt = 1000;  // echo that the flip_byte plant corrupts

PortType EchoPortType() {
  return PortType("perfbench_echo",
                  {MessageSig{"echo",
                              {ArgType::Of(TypeTag::kInt),
                               ArgType::Of(TypeTag::kBytes)},
                              {"echoed"}}});
}

PortType EchoReplyType() {
  return PortType("perfbench_echo_reply",
                  {MessageSig{"echoed",
                              {ArgType::Of(TypeTag::kInt),
                               ArgType::Of(TypeTag::kBytes)},
                              {}}});
}

// What the echo guardian stamps while tracing: when its Receive returned,
// and the span of its reply Send.
struct EchoSpan {
  int64_t recv_ns = 0;
  int64_t send_begin_ns = 0;
  int64_t send_end_ns = 0;
};

// State shared between the workload and its echo guardian.
struct EchoState {
  const std::atomic<bool>* tracing = nullptr;
  bool plant_flip = false;
  std::mutex mu;
  std::unordered_map<int64_t, EchoSpan> spans;  // guarded by mu
  std::atomic<int64_t> blocked_ns{0};  // time blocked in Receive, traced
};

// Handed from Build to EchoGuardian::Setup, which runs on the same thread
// inside CreateGuardian.
EchoState* g_next_echo_state = nullptr;

class EchoGuardian : public Guardian {
 public:
  Status Setup(const ValueList& args) override {
    (void)args;
    state_ = g_next_echo_state;
    AddPort(EchoPortType(), Port::kDefaultCapacity, /*provided=*/true);
    return OkStatus();
  }

  void Main() override {
    Port* requests = port(0);
    uint64_t echoed = 0;
    for (;;) {
      const bool traced = state_->tracing->load(std::memory_order_relaxed);
      const int64_t wait_begin = traced ? NowNs() : 0;
      auto received = Receive(requests, Micros::max());
      if (!received.ok()) {
        return;
      }
      EchoSpan span;
      if (traced) {
        span.recv_ns = NowNs();
        state_->blocked_ns.fetch_add(span.recv_ns - wait_begin,
                                     std::memory_order_relaxed);
      }
      ValueList args = std::move(received->args);
      const int64_t op = args.size() == 2 && args[0].is(TypeTag::kInt)
                             ? args[0].int_value()
                             : -1;
      if (state_->plant_flip && ++echoed == kPlantAt && op >= 0 &&
          args[1].is(TypeTag::kBytes)) {
        Bytes flipped = args[1].bytes_value();
        flipped[flipped.size() / 2] ^= 0x01;
        args[1] = Value::Blob(std::move(flipped));
      }
      if (traced) {
        span.send_begin_ns = NowNs();
      }
      Status sent = Send(received->reply_to, "echoed", std::move(args));
      (void)sent;  // a lost reply shows up as the caller's failed op
      if (traced) {
        span.send_end_ns = NowNs();
        std::lock_guard<std::mutex> lock(state_->mu);
        state_->spans[op] = span;
      }
    }
  }

 private:
  EchoState* state_ = nullptr;
};

struct CallRecord {
  int64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;
};

class RpcWorkload : public Workload {
 public:
  RpcWorkload(const Options& options, size_t blob_bytes)
      : Workload(blob_bytes > 1024 ? 2000 : 5000),
        options_(options),
        blob_bytes_(blob_bytes) {
    for (int c = 0; c < kCallers; ++c) {
      pools_.emplace_back();
      for (int i = 0; i < kBlobsPerCaller; ++i) {
        pools_.back().push_back(SeededBlob(Derive(options.seed, 100 + c),
                                           static_cast<uint64_t>(i),
                                           blob_bytes));
      }
    }
  }

  ~RpcWorkload() override {
    Stop();
    Teardown();
  }

  Status Build() override {
    echo_ = std::make_unique<EchoState>();
    echo_->tracing = &tracing_;
    echo_->plant_flip = options_.plant == "flip_byte";
    system_ = std::make_unique<System>(BenchConfig(options_.seed));
    NodeRuntime& client = system_->AddNode("client");
    NodeRuntime& server = system_->AddNode("server");
    client.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    server.RegisterGuardianType("perfbench_echo", MakeFactory<EchoGuardian>());
    g_next_echo_state = echo_.get();
    auto echo = server.Create<EchoGuardian>("perfbench_echo", "echo", {});
    g_next_echo_state = nullptr;
    if (!echo.ok()) {
      return echo.status();
    }
    echo_port_ = (*echo)->ProvidedPorts()[0];
    callers_.clear();
    for (int c = 0; c < kCallers; ++c) {
      auto shell = client.Create<ShellGuardian>(
          "shell", "caller-" + std::to_string(c), {});
      if (!shell.ok()) {
        return shell.status();
      }
      callers_.push_back(*shell);
    }
    return OkStatus();
  }

  void Teardown() override {
    system_.reset();
    echo_.reset();
  }

  System& system() override { return *system_; }

  void Start() override {
    stop_.store(false);
    completed_.store(0);
    logs_.assign(kCallers, {});
    for (int c = 0; c < kCallers; ++c) {
      logs_[c].reserve(static_cast<size_t>(
          (options_.seconds + 2) *
          (blob_bytes_ > 1024 ? 20000 : 60000)));
      threads_.emplace_back([this, c] { CallerLoop(c); });
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
    *attempted = 0;
    for (const auto& log : logs_) {
      *attempted += log.size();
      for (const auto& record : log) {
        failed += record.ok ? 0 : 1;
      }
    }
    if (failed > 0) {
      std::fprintf(stderr, "check: %llu calls failed or echoed wrong bytes\n",
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
    return failed;
  }

  std::vector<double> LatenciesUs(int64_t begin, int64_t end) override {
    std::vector<double> latencies;
    for (const auto& log : logs_) {
      for (const auto& r : log) {
        if (r.ok && r.end_ns >= begin && r.end_ns < end) {
          latencies.push_back((r.end_ns - r.start_ns) / 1e3);
        }
      }
    }
    return latencies;
  }

  double OpsIn(int64_t begin, int64_t end) override {
    return static_cast<double>(Traced(begin, end).size());
  }

  void PerLayer(int64_t begin, int64_t end, Report* report) override {
    std::vector<double> request, reply, handler, send;
    for (const auto& [record, span] : Traced(begin, end)) {
      request.push_back((span.recv_ns - record.start_ns) / 1e3);
      reply.push_back((record.end_ns - span.send_end_ns) / 1e3);
      handler.push_back((span.send_end_ns - span.recv_ns) / 1e3);
      send.push_back((span.send_end_ns - span.send_begin_ns) / 1e3);
    }
    report->Add("sendprims.request_leg_us.p50", Quantile(request, 0.5), "us");
    report->Add("sendprims.request_leg_us.p99", Quantile(request, 0.99),
                "us");
    report->Add("sendprims.reply_leg_us.p50", Quantile(reply, 0.5), "us");
    report->Add("sendprims.reply_leg_us.p99", Quantile(reply, 0.99), "us");
    report->Add("guardian.send_us.p50", Quantile(send, 0.5), "us");
    report->Add("guardian.send_us.p99", Quantile(send, 0.99), "us");
    report->Add("guardian.handler_us", Quantile(handler, 0.5), "us");
    report->Add("guardian.server_busy_frac",
                1.0 - static_cast<double>(echo_->blocked_ns.load()) /
                          static_cast<double>(end - begin),
                "frac");
  }

  void PrintTail(int64_t begin, int64_t end) override {
    auto traced = Traced(begin, end);
    std::sort(traced.begin(), traced.end(), [](const auto& a, const auto& b) {
      return a.first.end_ns - a.first.start_ns >
             b.first.end_ns - b.first.start_ns;
    });
    std::printf("# tail: 10 slowest calls (us): total = request + handler "
                "+ reply\n");
    for (size_t i = 0; i < traced.size() && i < 10; ++i) {
      const auto& [r, s] = traced[i];
      std::printf("#   op %-14lld total %9.1f  request %9.1f  handler %8.1f "
                  " reply %9.1f\n",
                  static_cast<long long>(r.op),
                  (r.end_ns - r.start_ns) / 1e3,
                  (s.recv_ns - r.start_ns) / 1e3,
                  (s.send_end_ns - s.recv_ns) / 1e3,
                  (r.end_ns - s.send_end_ns) / 1e3);
    }
  }

  void WriteSpans(int64_t begin, int64_t end,
                  const std::string& path) override {
    std::ofstream out(path);
    out << "op,call_start_ns,echo_recv_ns,reply_send_begin_ns,"
           "reply_send_end_ns,call_end_ns\n";
    for (const auto& [r, s] : Traced(begin, end)) {
      out << r.op << ',' << r.start_ns << ',' << s.recv_ns << ','
          << s.send_begin_ns << ',' << s.send_end_ns << ',' << r.end_ns
          << '\n';
    }
  }

  Envelope SampleEnvelope() override {
    Envelope env;
    env.msg_id = 1;
    env.trace_id = 1;
    env.src_node = 1;
    env.session_id = 7;
    env.dedup_seq = 1;
    env.target = echo_port_;
    env.reply_to = PortName{1, 2, 3, EchoReplyType().hash()};
    env.deadline_micros = 5'000'000;
    env.command = "echo";
    env.args = {Value::Int(1), Value::Blob(pools_[0][0])};
    return env;
  }

 private:
  void CallerLoop(int c) {
    Guardian& shell = *callers_[c];
    const std::vector<Bytes>& pool = pools_[c];
    std::vector<CallRecord>& log = logs_[c];
    RemoteCallOptions options;
    options.timeout = Millis(5000);
    options.max_attempts = 1;
    const int64_t base = static_cast<int64_t>(c) << 40;
    for (int64_t n = 0; !stop_.load(std::memory_order_relaxed); ++n) {
      const int64_t op = base + n;
      const Bytes& blob = pool[static_cast<size_t>(n) % pool.size()];
      SetCurrentTraceId(0);  // each call is its own causal chain
      CallRecord record;
      record.op = op;
      record.start_ns = NowNs();
      auto reply = RemoteCall(shell, echo_port_, "echo",
                              {Value::Int(op), Value::Blob(blob)},
                              EchoReplyType(), options);
      record.end_ns = NowNs();
      record.ok = reply.ok() && reply->command == "echoed" &&
                  reply->args.size() == 2 &&
                  reply->args[0].is(TypeTag::kInt) &&
                  reply->args[0].int_value() == op &&
                  reply->args[1].is(TypeTag::kBytes) &&
                  reply->args[1].bytes_value() == blob;
      log.push_back(record);
      completed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Calls that started while tracing and ended in [begin, end), joined with
  // the echo's span of the same op id.
  std::vector<std::pair<CallRecord, EchoSpan>> Traced(int64_t begin,
                                                      int64_t end) {
    std::vector<std::pair<CallRecord, EchoSpan>> out;
    std::lock_guard<std::mutex> lock(echo_->mu);
    for (const auto& log : logs_) {
      for (const auto& r : log) {
        if (!r.ok || r.start_ns < begin || r.end_ns >= end) {
          continue;
        }
        auto it = echo_->spans.find(r.op);
        if (it != echo_->spans.end()) {
          out.push_back({r, it->second});
        }
      }
    }
    return out;
  }

  const Options options_;
  const size_t blob_bytes_;
  std::vector<std::vector<Bytes>> pools_;
  std::unique_ptr<System> system_;
  std::unique_ptr<EchoState> echo_;
  PortName echo_port_;
  std::vector<Guardian*> callers_;
  std::atomic<bool> stop_{false};
  std::vector<std::vector<CallRecord>> logs_;
  std::vector<std::thread> threads_;
};

}  // namespace

std::unique_ptr<Workload> MakeRpc(const Options& options, size_t blob_bytes) {
  return std::make_unique<RpcWorkload>(options, blob_bytes);
}

}  // namespace perfbench
