// perfbench: one sub-run of one workload, in a process of its own.
//
//   perfbench_e2e    --workload <name> --seed <n> --seconds <s>
//   perfbench_traced --workload <name> --seed <n> --seconds <s>
//                    [--out-dir d] [--details 1]
//
// Phases: build the world kSetupBuilds times (setup_s is the median build)
// and keep the last; warm up, measure --seconds, stop, check every output.
// run.py starts one process per sub-run, so every world starts from a fresh
// heap, and takes the median over them. The untraced binary reports the
// end-to-end metrics. The traced binary splits the window into an untraced
// half and a traced half: spans, registry counters, getrusage and the
// allocation interposer cover only the traced half, the latency tails come
// from the untraced half, and the throughput of the two halves gives
// trace.overhead_frac. With --details 1 it also prints the ten slowest ops
// and writes the spans. The last line of stdout is the JSON result; every
// check that fails makes the exit code non-zero.
#include <malloc.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/bench.h"

namespace perfbench {

namespace {

// World builds timed for setup_s; the last one is the world measured.
constexpr int kSetupBuilds = 25;
// Warm-up: at least this long, and until the workload's warmup_ops().
constexpr double kWarmupSeconds = 0.25;
constexpr int64_t kMaxWarmupNs = 2'000'000'000;

void SleepUntilNs(int64_t at_ns) {
  for (;;) {
    const int64_t left = at_ns - NowNs();
    if (left <= 0) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(left));
  }
}

// The end-to-end metrics, with units: what the untraced binary emits.
// latency_p99_us is not among them: on a shared machine it does not repeat
// within the bound from run to run, so it is reported per-layer.
const std::vector<std::pair<std::string, std::string>>& EndToEndNames() {
  static const auto* names =
      new std::vector<std::pair<std::string, std::string>>{
          {"throughput_ops_s", "ops/s"},
          {"latency_p50_us", "us"},
          {"setup_s", "s"},
          {"peak_rss_mb", "MB"},
      };
  return *names;
}

// Every per-layer metric, with its unit. A traced run emits all of them;
// one whose layer is not on the workload's path reads 0 (see README.md).
const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const auto* names =
      new std::vector<std::pair<std::string, std::string>>{
          {"sendprims.request_leg_us.p50", "us"},
          {"sendprims.request_leg_us.p99", "us"},
          {"sendprims.reply_leg_us.p50", "us"},
          {"sendprims.reply_leg_us.p99", "us"},
          {"sendprims.attempts_per_call", "count"},
          {"flow.sends_deferred_per_op", "count"},
          {"flow.defer_wait_us", "us"},
          {"guardian.send_us.p50", "us"},
          {"guardian.send_us.p99", "us"},
          {"guardian.handler_us", "us"},
          {"guardian.server_busy_frac", "frac"},
          {"deliver.drops", "count"},
          {"deliver.acks_per_op", "count"},
          {"net.packets_per_op", "count"},
          {"net.delivery_latency_us.p50", "us"},
          {"net.batch_size_mean", "count"},
          {"net.oneway_us", "us"},
          {"wire.encode_us", "us"},
          {"wire.fragment_us", "us"},
          {"wire.reassemble_us", "us"},
          {"wire.decode_us", "us"},
          {"wire.crc_us", "us"},
          {"buffer.bytes_copied_per_op", "bytes"},
          {"buffer.allocs_per_op", "count"},
          {"store.wal_appends_per_txn", "count"},
          {"store.wal_append_us", "us"},
          {"runtime.fork_us", "us"},
          {"runtime.forks_per_txn", "count"},
          {"airline.step_us.start", "us"},
          {"airline.step_us.reserve", "us"},
          {"airline.step_us.cancel", "us"},
          {"airline.step_us.undo", "us"},
          {"airline.step_us.done", "us"},
          {"airline.noops_per_txn", "count"},
          {"proc.cpu_us_per_op", "us"},
          {"proc.ctx_switches_per_op", "count"},
          {"proc.allocs_per_op", "count"},
          {"latency_p99_us", "us"},
          {"latency_p999_us", "us"},
          {"latency.samples", "count"},
          {"stream.latency_p99_us", "us"},
          {"stream.gen_late_us", "us"},
          {"trace.overhead_frac", "frac"},
      };
  return *names;
}

uint64_t Delta(const Snapshot& a, const Snapshot& b, const std::string& name) {
  auto before = a.counters.find(name);
  auto after = b.counters.find(name);
  const uint64_t x = before == a.counters.end() ? 0 : before->second;
  const uint64_t y = after == b.counters.end() ? 0 : after->second;
  return y >= x ? y - x : 0;
}

uint64_t DeltaMatching(const Snapshot& a, const Snapshot& b,
                       const std::string& prefix, const std::string& suffix) {
  uint64_t total = 0;
  for (const auto& [name, value] : b.counters) {
    (void)value;
    if (name.rfind(prefix, 0) == 0 && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += Delta(a, b, name);
    }
  }
  return total;
}

// Median of the delivery-latency histogram's growth between two snapshots,
// interpolated inside its bucket.
double HistogramMedianUs(const Snapshot& a, const Snapshot& b,
                         const std::vector<uint64_t>& bounds) {
  std::vector<double> counts(b.delivery_buckets.size(), 0);
  double total = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t before = i < a.delivery_buckets.size()
                                ? a.delivery_buckets[i]
                                : 0;
    counts[i] = static_cast<double>(b.delivery_buckets[i] - before);
    total += counts[i];
  }
  if (total == 0) {
    return 0;
  }
  double seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (seen + counts[i] >= total / 2 && counts[i] > 0) {
      const double lo = i == 0 ? 0 : static_cast<double>(bounds[i - 1]);
      const double hi = i < bounds.size() ? static_cast<double>(bounds[i])
                                          : lo;
      return lo + (hi - lo) * ((total / 2 - seen) / counts[i]);
    }
    seen += counts[i];
  }
  return 0;
}

// Per-layer metrics that come from the registry, the network and the
// process counters rather than from spans.
void CounterLayers(guardians::System& system, const Snapshot& a,
                   const Snapshot& b, double ops, Report* report) {
  const double per = ops > 0 ? 1.0 / ops : 0;
  const double calls =
      static_cast<double>(Delta(a, b, "sendprims.call.calls"));
  const double attempts =
      static_cast<double>(Delta(a, b, "sendprims.call.attempts"));
  report->Add("sendprims.attempts_per_call", calls > 0 ? attempts / calls : 0,
              "count");
  report->Add("flow.sends_deferred_per_op",
              static_cast<double>(Delta(a, b, "flow.sends_deferred")) * per,
              "count");
  const uint64_t defers = b.defer_wait_count - a.defer_wait_count;
  report->Add("flow.defer_wait_us",
              defers > 0 ? static_cast<double>(b.defer_wait_sum -
                                               a.defer_wait_sum) /
                               static_cast<double>(defers)
                         : 0,
              "us");
  report->Add("deliver.drops",
              static_cast<double>(DeltaMatching(a, b, "deliver.drop.", "")),
              "count");
  report->Add("deliver.acks_per_op",
              static_cast<double>(Delta(a, b, "deliver.acks_sent")) * per,
              "count");
  report->Add("net.packets_per_op",
              static_cast<double>(b.net.packets_sent - a.net.packets_sent) *
                  per,
              "count");
  report->Add("net.delivery_latency_us.p50",
              HistogramMedianUs(
                  a, b,
                  system.metrics().histogram("net.delivery_latency_us")
                      ->bounds()),
              "us");
  const double drains =
      static_cast<double>(DeltaMatching(a, b, "net.shard.", ".batch.drains"));
  const double packets = static_cast<double>(
      DeltaMatching(a, b, "net.shard.", ".batch.packets"));
  report->Add("net.batch_size_mean", drains > 0 ? packets / drains : 0,
              "count");
  report->Add("buffer.bytes_copied_per_op",
              static_cast<double>(Delta(a, b, "buffer.bytes_copied")) * per,
              "bytes");
  report->Add("buffer.allocs_per_op",
              static_cast<double>(Delta(a, b, "buffer.allocs")) * per,
              "count");
  report->Add("proc.cpu_us_per_op", (b.proc.cpu_us - a.proc.cpu_us) * per,
              "us");
  report->Add("proc.ctx_switches_per_op",
              (b.proc.ctx_switches - a.proc.ctx_switches) * per, "count");
  report->Add("proc.allocs_per_op",
              (b.proc.allocations - a.proc.allocations) * per, "count");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    char* parsed_end = nullptr;
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), &parsed_end, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &parsed_end);
    } else if (arg == "--plant") {
      options->plant = value;
    } else if (arg == "--out-dir") {
      options->out_dir = value;
    } else if (arg == "--details") {
      options->details = value == "1";
    } else {
      return false;
    }
    if (parsed_end != nullptr && (*parsed_end != '\0' || value.empty())) {
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "rpc_small") {
    return MakeRpc(options, 16);
  }
  if (options.workload == "rpc_frag") {
    return MakeRpc(options, 8192);
  }
  if (options.workload == "stream_nowait") {
    return MakeStream(options);
  }
  if (options.workload == "airline_txn") {
    return MakeAirline(options);
  }
  return nullptr;
}

// Builds a world `builds` times and returns each build's time in seconds;
// the world of the last build is kept. False when a build fails.
bool TimedBuilds(Workload& workload, int builds, std::vector<double>* setup_s) {
  for (int i = 0; i < builds; ++i) {
    workload.Teardown();
    // Hand the torn-down world's memory back to the OS, so the kept world
    // starts from the footprint of one build.
    malloc_trim(0);
    const int64_t t0 = NowNs();
    guardians::Status built = workload.Build();
    setup_s->push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!built.ok()) {
      std::fprintf(stderr, "world build failed: %s\n",
                   built.ToString().c_str());
      return false;
    }
  }
  return true;
}

// The process's getrusage high-water mark so far, in MiB.
double PeakResidentMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// throughput_ops_s and latency_p50_us of the ops completed in [begin, end).
void EndToEnd(Workload& workload, int64_t begin, int64_t end,
              Report* report) {
  std::vector<double> latencies = workload.LatenciesUs(begin, end);
  report->Add("throughput_ops_s",
              static_cast<double>(latencies.size()) * 1e9 /
                  static_cast<double>(end - begin),
              "ops/s");
  report->Add("latency_p50_us", Quantile(std::move(latencies), 0.5), "us");
}

// The latency tail of the same ops, with its sample count.
void Tails(Workload& workload, int64_t begin, int64_t end, Report* report) {
  std::vector<double> latencies = workload.LatenciesUs(begin, end);
  report->Add("latency.samples", static_cast<double>(latencies.size()),
              "count");
  report->Add("latency_p99_us", Quantile(latencies, 0.99), "us");
  report->Add("latency_p999_us", Quantile(std::move(latencies), 0.999), "us");
}

// Runs the load on the built world: warm up, measure `window_ns`, stop,
// check. Untraced, `report` gets the end-to-end metrics of the window.
// Traced, the window is split into an untraced and a traced half and
// `report` gets the per-layer metrics of the traced half.
void Measure(Workload& workload, const Options& options, int64_t window_ns,
             Report* report, uint64_t* attempted, uint64_t* failed) {
  workload.Start();
  const int64_t started = NowNs();
  while (workload.completed() < workload.warmup_ops() &&
         NowNs() - started < kMaxWarmupNs) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double peak_mb = PeakResidentMb();
  SleepUntilNs(started + static_cast<int64_t>(kWarmupSeconds * 1e9));
  const int64_t begin = NowNs();
  int64_t end = 0;
  int64_t traced_begin = 0;
  Snapshot before;
  Snapshot after;
  if (!options.trace) {
    SleepUntilNs(begin + window_ns);
    end = NowNs();
  } else {
    SleepUntilNs(begin + window_ns / 2);
    end = NowNs();
    before = TakeSnapshot(workload.system());
    SetAllocCounting(true);
    workload.SetTracing(true);
    traced_begin = NowNs();
    SleepUntilNs(traced_begin + window_ns / 2);
    workload.SetTracing(false);
    SetAllocCounting(false);
    after = TakeSnapshot(workload.system());
  }
  workload.Stop();
  *failed += workload.Check(attempted);

  if (!options.trace) {
    EndToEnd(workload, begin, end, report);
    report->Add("peak_rss_mb", peak_mb, "MB");
    return;
  }
  const int64_t traced_end = after.at_ns;
  Report untraced;
  Report traced;
  EndToEnd(workload, begin, end, &untraced);
  EndToEnd(workload, traced_begin, traced_end, &traced);
  CounterLayers(workload.system(), before, after,
                workload.OpsIn(traced_begin, traced_end), report);
  workload.PerLayer(traced_begin, traced_end, report);
  report->Add("trace.overhead_frac",
              1.0 - traced.Get("throughput_ops_s") /
                        untraced.Get("throughput_ops_s"),
              "frac");
  Tails(workload, begin, end, report);
  StandaloneLayers(workload, report);
  if (options.details) {
    workload.PrintTail(traced_begin, traced_end);
    workload.WriteSpans(traced_begin, traced_end,
                        options.out_dir + "/spans_" + options.workload +
                            ".csv");
  }
}

}  // namespace

int Main(int argc, char** argv) {
  Options options;
  options.trace = IsTracedBinary();
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload rpc_small|rpc_frag|stream_nowait|"
                 "airline_txn --seed N --seconds S [--plant flip_byte|"
                 "drop_seq] [--out-dir DIR] [--details 0|1]\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  std::vector<double> setup_s;
  if (!TimedBuilds(*workload, kSetupBuilds, &setup_s)) {
    return 1;
  }
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Measure(*workload, options,
          static_cast<int64_t>(options.seconds * 1e9), &report, &attempted,
          &failed);
  workload->Teardown();

  report.Add("setup_s", Quantile(setup_s, 0.5), "s");
  report.Select(options.trace ? PerLayerNames() : EndToEndNames());
  report.PrintTable(options.trace ? "per-layer (traced half)" : "end-to-end");
  std::printf("%s\n",
              report.ToJson(failed == 0, attempted, failed).c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

// --- Shared helpers ---------------------------------------------------------

guardians::SystemConfig BenchConfig(uint64_t seed) {
  guardians::SystemConfig config;
  config.seed = Derive(seed, 1);
  config.default_link.latency = guardians::Micros(0);
  return config;
}

Bytes SeededBlob(uint64_t seed, uint64_t id, size_t size) {
  Bytes blob(size);
  uint64_t state = Derive(seed, id);
  for (size_t i = 0; i < size; i += 8) {
    state = Mix(state);
    for (size_t j = 0; j < 8 && i + j < size; ++j) {
      blob[i + j] = static_cast<uint8_t>(state >> (8 * j));
    }
  }
  return blob;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

ZeroedArray::ZeroedArray(size_t size) : size_(size) {
  if (size == 0) {
    return;
  }
  void* pages = mmap(nullptr, size * sizeof(int64_t), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) {
    std::perror("mmap");
    std::abort();
  }
  data_ = static_cast<int64_t*>(pages);
}

ZeroedArray::~ZeroedArray() {
  if (data_ != nullptr) {
    munmap(data_, size_ * sizeof(int64_t));
  }
}

ZeroedArray::ZeroedArray(ZeroedArray&& other) noexcept {
  std::swap(data_, other.data_);
  std::swap(size_, other.size_);
}

ZeroedArray& ZeroedArray::operator=(ZeroedArray&& other) noexcept {
  std::swap(data_, other.data_);
  std::swap(size_, other.size_);
  return *this;
}

ProcCounters ReadProcCounters() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  ProcCounters c;
  c.cpu_us = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
                 1e6 +
             static_cast<double>(usage.ru_utime.tv_usec +
                                 usage.ru_stime.tv_usec);
  c.ctx_switches = static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw);
  c.allocations = static_cast<double>(AllocCount());
  return c;
}

Snapshot TakeSnapshot(guardians::System& system) {
  Snapshot s;
  system.SyncBufferStats();
  s.counters = system.metrics().CounterSnapshot();
  s.net = system.network().stats();
  s.delivery_buckets =
      system.metrics().histogram("net.delivery_latency_us")->BucketCounts();
  const guardians::Histogram* defer =
      system.metrics().histogram("flow.defer_wait_us");
  s.defer_wait_sum = defer->sum();
  s.defer_wait_count = defer->count();
  s.proc = ReadProcCounters();
  s.at_ns = NowNs();
  return s;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  for (auto& row : rows_) {
    if (row.first == name) {
      row.second = {value, unit};
      return;
    }
  }
  rows_.push_back({name, {value, unit}});
}

double Report::Get(const std::string& name) const {
  for (const auto& row : rows_) {
    if (row.first == name) {
      return row.second.first;
    }
  }
  return 0;
}

void Report::Select(
    const std::vector<std::pair<std::string, std::string>>& names) {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> ordered;
  for (const auto& [name, unit] : names) {
    double value = 0;
    for (const auto& row : rows_) {
      if (row.first == name) {
        value = row.second.first;
      }
    }
    ordered.push_back({name, {value, unit}});
  }
  rows_ = std::move(ordered);
}

std::string Report::ToJson(bool correct, uint64_t attempted,
                           uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < rows_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", rows_[i].second.first);
    out += (i == 0 ? "\"" : ", \"") + rows_[i].first + "\": {\"value\": " +
           buf + ", \"unit\": \"" + rows_[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

void Report::PrintTable(const char* title) const {
  std::printf("# %s\n", title);
  for (const auto& row : rows_) {
    std::printf("#   %-32s %14.6g %s\n", row.first.c_str(), row.second.first,
                row.second.second.c_str());
  }
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
