// Shared pieces of the end-to-end benchmark: options, timing helpers, the
// per-run measurement context and the metric report.
//
// The benchmark drives the real message path (Guardian::Send ->
// NodeRuntime::Transmit -> wire -> Network -> DeliverBatch -> Port ->
// Receive -> handler -> reply) from its own guardians and threads. Spans
// and per-layer counters are recorded only from this directory's code,
// around calls into the system's public API; nothing inside src/ is
// instrumented for the benchmark.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/guardian/system.h"

namespace perfbench {

using guardians::Bytes;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  // Measured time of the run.
  double seconds = 2;
  bool trace = false;
  // A fault planted in benchmark code for the self-test: "flip_byte" makes
  // the echo guardian corrupt one reply, "drop_seq" makes the stream sink
  // ignore one message. Empty in every measured run.
  std::string plant;
  // Traced: print the ten slowest ops and write the spans into out_dir.
  bool details = false;
  std::string out_dir = ".";
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64: the seed expander behind every generated input.
inline uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
inline uint64_t Derive(uint64_t seed, uint64_t stream) {
  return Mix(seed ^ Mix(stream));
}

// `size` seeded bytes; the same (seed, id) always gives the same blob.
Bytes SeededBlob(uint64_t seed, uint64_t id, size_t size);

// Quantile of an unsorted sample (nearest-rank on a sorted copy); 0 when
// empty.
double Quantile(std::vector<double> values, double q);

// A fixed-length array of int64, all zero, on fresh anonymous pages. A page
// becomes resident only when first written, so the benchmark's own
// per-op bookkeeping adds to peak_rss_mb only the entries a run has filled.
class ZeroedArray {
 public:
  ZeroedArray() = default;
  explicit ZeroedArray(size_t size);
  ~ZeroedArray();
  ZeroedArray(ZeroedArray&& other) noexcept;
  ZeroedArray& operator=(ZeroedArray&& other) noexcept;
  ZeroedArray(const ZeroedArray&) = delete;
  ZeroedArray& operator=(const ZeroedArray&) = delete;

  size_t size() const { return size_; }
  int64_t& operator[](size_t i) { return data_[i]; }
  int64_t operator[](size_t i) const { return data_[i]; }

 private:
  int64_t* data_ = nullptr;
  size_t size_ = 0;
};

// Process resource counters (getrusage) and the allocation interposer.
struct ProcCounters {
  double cpu_us = 0;
  double ctx_switches = 0;
  double allocations = 0;
};
ProcCounters ReadProcCounters();
// Allocation counting; only the traced binary links a real interposer, the
// untraced one links stubs (so the end-to-end run pays nothing for it).
void SetAllocCounting(bool on);
uint64_t AllocCount();
bool IsTracedBinary();

// Registry counters, network stats and process counters at one instant;
// per-layer ratios are differences of two of these.
struct Snapshot {
  int64_t at_ns = 0;
  std::map<std::string, uint64_t> counters;
  guardians::NetworkStats net;
  ProcCounters proc;
  // Bucket counts of the delivery-latency histogram; sum and count of the
  // flow-defer histogram.
  std::vector<uint64_t> delivery_buckets;
  uint64_t defer_wait_sum = 0;
  uint64_t defer_wait_count = 0;
};
Snapshot TakeSnapshot(guardians::System& system);

// Metrics by name, with unit, printed as the result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  // Keep exactly `names`, in that order, with 0 for any not reported.
  void Select(
      const std::vector<std::pair<std::string, std::string>>& names);
  std::string ToJson(bool correct, uint64_t attempted, uint64_t failed) const;
  void PrintTable(const char* title) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> rows_;
};

// One measured run of a workload. The harness (main.cc) builds the world,
// lets the load run through warm-up and measurement windows, then asks the
// workload for its checks and numbers.
class Workload {
 public:
  virtual ~Workload() = default;

  // Build the world (nodes, guardians, airline) — timed as setup_s.
  virtual guardians::Status Build() = 0;
  // Tear down the world built last (not timed).
  virtual void Teardown() = 0;
  virtual guardians::System& system() = 0;
  // Start the load threads; they run until Stop().
  virtual void Start() = 0;
  virtual void Stop() = 0;
  // Tracing switch: spans are recorded for ops that start while it is on.
  void SetTracing(bool on) { tracing_.store(on, std::memory_order_release); }
  bool tracing() const { return tracing_.load(std::memory_order_acquire); }
  // Ops finished since Start(). The warm-up lasts until warmup_ops() of
  // them, and the world's memory is read there: after a fixed amount of
  // work, so a faster program is not charged for the ports it has leaked
  // in more calls (see README.md).
  uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  uint64_t warmup_ops() const { return warmup_ops_; }

  // After Stop(): correctness checks. Returns failed ops (0 when every
  // output was right) and sets attempted; prints each violation to stderr.
  virtual uint64_t Check(uint64_t* attempted) = 0;

  // Latency in us of each op that completed correctly in [begin, end): the
  // source of throughput_ops_s, latency_p50_us and the latency tails.
  virtual std::vector<double> LatenciesUs(int64_t begin, int64_t end) = 0;
  // Completed ops in [begin, end) (the divisor of per-op ratios).
  virtual double OpsIn(int64_t begin, int64_t end) = 0;
  // Per-layer metrics of the traced window [begin, end), from spans.
  virtual void PerLayer(int64_t begin, int64_t end, Report* report) = 0;
  // The ten slowest ops of the traced window, with their leg split.
  virtual void PrintTail(int64_t begin, int64_t end) = 0;
  // Write the traced window's spans as CSV.
  virtual void WriteSpans(int64_t begin, int64_t end,
                          const std::string& path) = 0;
  // Standalone timings of wire/store/runtime public functions on this
  // workload's own message shape.
  virtual guardians::Envelope SampleEnvelope() = 0;

 protected:
  explicit Workload(uint64_t warmup_ops) : warmup_ops_(warmup_ops) {}

  std::atomic<bool> tracing_{false};
  std::atomic<uint64_t> completed_{0};

 private:
  const uint64_t warmup_ops_;
};

std::unique_ptr<Workload> MakeRpc(const Options& options, size_t blob_bytes);
std::unique_ptr<Workload> MakeStream(const Options& options);
std::unique_ptr<Workload> MakeAirline(const Options& options);

// wire.*, store.wal_append_us, runtime.fork_us: public functions timed
// single-threaded, outside the load.
void StandaloneLayers(Workload& workload, Report* report);

// Shared config of every workload: zero-latency lossless links, default
// shards/batching/flow, seeded from the workload seed.
guardians::SystemConfig BenchConfig(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
