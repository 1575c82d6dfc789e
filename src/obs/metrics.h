// Metrics (observability layer): named monotonic counters and fixed-bucket
// histograms behind a single registry.
//
// The paper's §3.4 delivery semantics make message loss a designed-in
// behaviour ("if there is no room for the message, the message is thrown
// away"), so the only way to debug or tune a guardian system is to count
// exactly where and why messages die. The registry is lock-cheap: name
// resolution takes a mutex once, after which callers hold a raw `Counter*`
// / `Histogram*` whose updates are single relaxed atomic operations — safe
// to call from the network delivery thread and every guardian process.
//
// The registry is the only store of message-path counts: nodes and the
// network keep no private copies (Network::stats() reads its totals here).
//
// Naming convention (dots separate subsystems, see DESIGN.md §7):
//   net.<total>                     sent / delivered / dropped / corrupted /
//                                   bytes_sent / dup.injected: the network's
//                                   totals behind Network::stats()
//   net.link.<a>-><b>.sent          per-link packet counters
//   net.shard.<k>.<event>           enqueued / delivered / dropped per
//                                   delivery worker (shard) of the network
//   net.drop.<reason>               loss / partition / src_down / dst_down
//   deliver.drop.<reason>           no_guardian / no_port / port_retired /
//                                   port_full / type_mismatch / decode_error
//   sendprims.<prim>.<event>        the §3 send-primitive ladder
//   flow.<event>                    credit-based flow control (§11):
//                                   credits_granted / full_nacks /
//                                   sends_deferred / window histogram
#ifndef GUARDIANS_SRC_OBS_METRICS_H_
#define GUARDIANS_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace guardians {

// A monotonically increasing counter. All operations are relaxed atomics:
// counters order nothing, they only count.
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// A histogram over fixed upper-bound buckets (ascending), with an implicit
// final +inf bucket. Observations are two relaxed atomic adds plus a binary
// search over a handful of bounds.
class Histogram {
 public:
  // `upper_bounds` must be strictly ascending; a value v lands in the first
  // bucket with v <= bound, or the overflow bucket.
  explicit Histogram(std::vector<uint64_t> upper_bounds);

  void Observe(uint64_t v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<uint64_t>& bounds() const { return bounds_; }
  // bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<uint64_t> BucketCounts() const;

  // "le=100: 17  le=1000: 3  inf: 1  (count=21 sum=1234)"
  std::string ToString() const;

  // Exponential bounds suited to microsecond latencies (1us .. ~16s).
  static std::vector<uint64_t> DefaultLatencyBoundsUs();

 private:
  std::vector<uint64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// Owner of all counters and histograms of one System. Get-or-create by
// name; returned pointers stay valid for the registry's lifetime, so hot
// paths resolve once and then update lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name);
  // `bounds` is only consulted on first creation; empty means the default
  // latency bounds.
  Histogram* histogram(const std::string& name,
                       std::vector<uint64_t> bounds = {});

  // 0 when the counter was never touched (absent == never incremented).
  uint64_t CounterValue(const std::string& name) const;
  std::map<std::string, uint64_t> CounterSnapshot() const;
  // Counters whose name starts with `prefix`, e.g. "deliver.drop.".
  std::map<std::string, uint64_t> CountersWithPrefix(
      const std::string& prefix) const;

  // Text dump of every nonzero counter and every histogram.
  std::string Report() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_OBS_METRICS_H_
