// Simulated communications network (Section 1.1 assumptions).
//
// "The nodes may communicate only via the network; there is no (other)
//  shared memory. We make no assumptions about the network itself other
//  than that it supports communication between any pair of nodes."
//
// The simulator delivers packets point-to-point with per-link latency,
// jitter (which reorders packets, as Section 3.4 permits), loss, corruption
// (caught later by the error-detection bits) and optional bandwidth-based
// serialization delay. Links may be partitioned, and nodes marked down lose
// all packets addressed to them — exactly what a peer observes of a crash.
//
// Delivery engine: packets are sharded by destination node across N worker
// threads, each owning its own timing heap and condition variable. §3.4
// promises *unordered* best-effort delivery across destinations, so the
// only order that matters — packets to one node — is preserved (one node
// always maps to one shard). Loss, corruption, duplication, and latency
// are decided seed-deterministically at Send() time under one lock, so
// drop, corruption, and duplicate counts are bit-identical for a given
// seed at every worker count; only wall-clock parallelism changes.
//
// Batched drains (DESIGN.md §12): on each wake a shard worker moves every
// due heap entry — up to `batch_max` — into a local batch under one lock
// acquisition, groups the batch by destination node, and hands each group
// to the destination's sink in one call. At saturation this amortizes the
// shard lock, the global stats lock, and the condvar wake over the whole
// batch instead of paying them per packet. Per-destination delivery order
// is unchanged (the drain pops in heap order), so a batch_max of 1
// reproduces the unbatched engine exactly, and outcome counts stay
// bit-identical at every batch size.
//
// The substitution for the paper's physical network is documented in
// DESIGN.md: every failure mode the paper reasons about (loss, reordering,
// corruption, unreachable nodes) is reproduced with controllable,
// seed-deterministic parameters.
#ifndef GUARDIANS_SRC_NET_NETWORK_H_
#define GUARDIANS_SRC_NET_NETWORK_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/wire/packet.h"

namespace guardians {

// Transmission characteristics of one directed link. Defaults model a
// quiet short-haul network; experiments override them.
struct LinkParams {
  Micros latency{100};        // propagation delay
  Micros jitter{0};           // stddev of normal jitter (reorders packets)
  double drop_prob = 0.0;     // silent loss probability per packet
  double corrupt_prob = 0.0;  // bit-error probability per packet
  double bytes_per_micro = 0.0;  // bandwidth; 0 means unlimited
  // Duplicate-delivery probability per packet (§1.1: the network "may
  // lose, duplicate, and reorder messages"). The extra copy gets its own
  // latency/jitter roll, so the two copies reorder freely. Decided at
  // Send() under the global lock, like loss and corruption, so duplicate
  // counts are bit-identical for a given seed at every shard count.
  double dup_prob = 0.0;
};

// A snapshot of the network's registry totals, taken by Network::stats();
// all monotonically increasing. Conservation law once the network is
// drained:
//   packets_delivered + packets_dropped == packets_sent + packets_duplicated
// Send-time drops (loss, partition, src down) count one per *send*; a
// duplicated packet adds one extra in-flight copy, and each copy resolves
// independently as delivered or dropped (dst down) at delivery time.
struct NetworkStats {
  uint64_t packets_sent = 0;        // net.sent: Send() calls (no copies)
  uint64_t packets_delivered = 0;   // net.delivered: copies handed to a sink
  uint64_t packets_dropped = 0;     // net.dropped: every net.drop.* reason
  uint64_t packets_corrupted = 0;   // net.corrupted: sends with bits flipped
  uint64_t packets_duplicated = 0;  // net.dup.injected: extra dup_prob copies
  uint64_t bytes_sent = 0;          // net.bytes_sent
};

// Receives reassembly-ready packets at a node. Called on a delivery worker
// thread; the packet is handed over by move (the network keeps nothing).
// Implementations must be quick and must not block. Sinks for different
// nodes may run concurrently; the sink of one node never runs reentrantly.
using PacketSink = std::function<void(Packet&&)>;
// The batch entry point: every packet in one call shares the destination
// node and arrives in delivery order. Same threading contract as
// PacketSink — one call per (destination, drained batch).
using PacketBatchSink = std::function<void(std::vector<Packet>&&)>;

class Network {
 public:
  static constexpr size_t kDefaultShards = 4;
  // Due heap entries a shard worker may drain per wake. 1 = deliver one
  // packet per lock round-trip (the pre-batching engine, bit for bit).
  static constexpr size_t kDefaultBatchMax = 64;

  // `metrics` is where the network keeps every count (owned by the caller,
  // usually the System): the net.* totals behind stats(), per-link packet
  // counters, drop-reason counters, per-shard delivery counters and a
  // delivery-latency histogram. Null means the network owns a private
  // registry. `traces` is an optional sink for per-hop trace events (null
  // records nothing). `shards` is the number of delivery worker threads
  // (clamped to >= 1); destination nodes are statically assigned to
  // shards round-robin. `batch_max` bounds one drain (clamped to >= 1).
  // `clock` is the time source for delivery scheduling (sent_at /
  // deliver_at, the shard workers' timed waits). Null means the wall
  // clock; a SimulatedClock runs the whole delivery engine on virtual
  // time. Borrowed; must outlive the network.
  explicit Network(uint64_t seed = 1, MetricsRegistry* metrics = nullptr,
                   TraceBuffer* traces = nullptr,
                   size_t shards = kDefaultShards,
                   size_t batch_max = kDefaultBatchMax,
                   const ClockSource* clock = nullptr);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Registers a node; ids start at 1 (0 is "no node").
  NodeId AddNode(const std::string& name);
  // By value: a reference into node_names_ would dangle if a concurrent
  // AddNode reallocated the vector after the lock is released.
  std::string NodeName(NodeId id) const;
  size_t node_count() const;
  size_t shard_count() const { return shards_.size(); }

  // Delivery callback for a node. Replaces any previous sink (either
  // form). The per-packet form is wrapped into a batch sink internally, so
  // there is exactly one delivery code path.
  void SetSink(NodeId node, PacketSink sink);
  void SetBatchSink(NodeId node, PacketBatchSink sink);

  // A down node neither sends nor receives; packets in flight to it are
  // lost at delivery time.
  void SetNodeUp(NodeId node, bool up);
  bool IsNodeUp(NodeId node) const;

  // Link characteristics. SetLink applies to both directions. All link
  // mutators (SetLink, SetDefaultLink, the partition calls) take the same
  // global lock Send() rolls its dice under, so a mid-run storm applies on
  // a packet boundary: every packet is sent entirely under the old params
  // or entirely under the new ones, never a mixture — which keeps chaos
  // runs deterministic at any shard/batch configuration.
  void SetDefaultLink(const LinkParams& params);
  void SetLink(NodeId a, NodeId b, const LinkParams& params);
  LinkParams GetLink(NodeId from, NodeId to) const;

  // Cut or restore connectivity between two nodes (both directions).
  void SetPartitioned(NodeId a, NodeId b, bool cut);
  // Cut or restore one direction only: packets from -> to are dropped
  // (counted as net.drop.partition_oneway), while to -> from still flows.
  // Independent of the symmetric cut: healing one never heals the other.
  void SetPartitionedOneWay(NodeId from, NodeId to, bool cut);
  // True when from -> to is currently cut (by either kind of partition).
  bool IsPartitioned(NodeId from, NodeId to) const;

  // Reordering storm (§1.1: the network may reorder messages, and a
  // misbehaving switch may do so pathologically). After HoldLink, up to
  // `max_held` packets sent on the a<->b link (either direction) are
  // captured instead of scheduled; ReleaseHeld re-schedules every held
  // packet in a seed-deterministic shuffled order (back-to-back
  // deliver_at offsets force that order within each destination).
  // Packets beyond `max_held` flow normally. Held packets stay in the
  // in-flight count, so DrainForTesting waits for the release; Shutdown
  // drops any still-held packets (counted, so conservation holds).
  void HoldLink(NodeId a, NodeId b, size_t max_held);
  void ReleaseHeld(uint64_t shuffle_seed);
  size_t held_count() const;

  // Monotone counter bumped by every link mutation (SetLink,
  // SetDefaultLink, SetPartitioned, SetPartitionedOneWay, HoldLink,
  // ReleaseHeld), under the same
  // lock. Lets a harness assert that a scheduled storm or cut really was
  // applied, and marks epochs in traces.
  uint64_t link_epoch() const;

  // Inject one packet. Loss/corruption/latency are decided here, under one
  // lock and one rng, so outcomes depend only on the seed and the Send
  // order — never on worker count. Delivery happens later on the
  // destination's shard worker. Local (src == dst) delivery still goes
  // through the shard queue but with zero link cost.
  void Send(Packet packet);

  // Block until no packets remain in flight on any shard and no sink is
  // mid-call (useful in tests). Packets a sink re-sends while draining are
  // waited for too. Returns immediately after Shutdown().
  void DrainForTesting();
  // Same, but give up after `wall_timeout` of *real* time. Returns true
  // iff the network drained (or stopped). Lets a simulated-time caller
  // interleave drain attempts with virtual clock steps so packets heaped
  // at future virtual deliver_at instants can become due.
  bool DrainForTesting(Micros wall_timeout);

  // Stop every delivery worker and join them; no sink runs after this
  // returns. Idempotent. System teardown calls it before destroying the
  // node runtimes the sinks point into (they would otherwise race a
  // delivery already in flight); ~Network calls it too.
  void Shutdown();

  // Reads the net.* totals under the lock that guards every increment of
  // them, so the snapshot satisfies the conservation law once drained.
  NetworkStats stats() const;

 private:
  struct InFlight {
    TimePoint deliver_at;
    TimePoint sent_at;  // for the delivery-latency histogram
    uint64_t seq;  // assigned at Send under the global lock; tie-break so
                   // each shard's heap pops in a deterministic order
    Packet packet;
  };

  // Min-heap order on (deliver_at, seq).
  struct DueLater {
    bool operator()(const InFlight& a, const InFlight& b) const {
      if (a.deliver_at != b.deliver_at) {
        return a.deliver_at > b.deliver_at;
      }
      return a.seq > b.seq;
    }
  };

  // One delivery worker: a timing heap of packets addressed to the nodes
  // this shard owns, its own lock/condvar, and per-shard counters
  // (net.shard.<k>.{enqueued,delivered,dropped} plus the batching
  // telemetry net.shard.<k>.batch.{drains,packets} and the batch.size
  // histogram).
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<InFlight> heap;  // guarded by mu; DueLater min-heap
    std::thread worker;
    Counter* enqueued = nullptr;
    Counter* delivered = nullptr;
    Counter* dropped = nullptr;
    Counter* batch_drains = nullptr;
    Counter* batch_packets = nullptr;
    Histogram* batch_size = nullptr;
  };

  static uint64_t LinkKey(NodeId a, NodeId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  // The totals behind stats(), resolved once at construction. Each is
  // incremented only under mu_.
  struct TotalCounters {
    Counter* sent = nullptr;
    Counter* delivered = nullptr;
    Counter* dropped = nullptr;
    Counter* corrupted = nullptr;
    Counter* duplicated = nullptr;
    Counter* bytes_sent = nullptr;
  };

  // Per-link counters resolved once per link; further updates lock-free.
  struct LinkCounters {
    Counter* sent = nullptr;
    Counter* delivered = nullptr;
    Counter* dropped = nullptr;
    Counter* corrupted = nullptr;
    Counter* duplicated = nullptr;
  };

  Shard& ShardFor(NodeId dst) {
    return *shards_[dst == 0 ? 0 : (dst - 1) % shards_.size()];
  }
  void ShardLoop(Shard& shard);
  // Deliver one drained batch: group by destination (first-appearance
  // order; the batch itself is in (deliver_at, seq) order, so each group's
  // subsequence is too), then one stats pass + one sink call per group.
  void DeliverBatch(Shard& shard, std::vector<InFlight>& batch);
  void DeliverGroup(Shard& shard, NodeId dst, std::vector<InFlight>& group);
  // `n` packets left the system (delivered or dropped at delivery time);
  // wakes DrainForTesting when the last one resolves.
  void FinishMany(uint64_t n);
  // Requires mu_ held (names the link by node names).
  LinkCounters& CountersForLink(NodeId src, NodeId dst);
  // Requires mu_ held: counts one dropped copy in net.dropped, its reason
  // and its link.
  void CountDrop(const Packet& packet, const char* reason);

  // Enqueue one decided entry onto its destination shard (wake-coalesced);
  // the in-flight count must already cover it.
  void EnqueueToShard(InFlight&& entry);

  mutable std::mutex mu_;
  const ClockSource* clock_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  // guarded by mu_; makes Shutdown idempotent
  uint64_t seq_ = 0;
  Rng rng_;
  LinkParams default_link_;
  std::vector<std::string> node_names_;     // index = id - 1
  std::vector<bool> node_up_;               // index = id - 1
  std::vector<PacketBatchSink> sinks_;      // index = id - 1
  std::unordered_map<uint64_t, LinkParams> links_;
  std::unordered_set<uint64_t> partitions_;
  std::unordered_set<uint64_t> oneway_partitions_;  // directed src->dst cuts
  std::unordered_set<uint64_t> held_pairs_;  // links under a reorder hold
  std::vector<InFlight> held_;               // captured, unscheduled packets
  size_t held_max_ = 0;
  uint64_t link_epoch_ = 0;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // set iff none was given
  MetricsRegistry* metrics_;  // the caller's registry, or owned_metrics_
  TraceBuffer* traces_;       // may be null
  TotalCounters totals_;
  Histogram* delivery_latency_ = nullptr;
  std::unordered_map<uint64_t, LinkCounters> link_counters_;

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t batch_max_ = kDefaultBatchMax;

  // Packets accepted at Send but not yet resolved by a worker. The drain
  // barrier is shard-aware through this single count: it covers every
  // shard's heap plus any sink call still running.
  std::atomic<uint64_t> in_flight_{0};
  std::mutex drain_mu_;
  std::condition_variable drained_cv_;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_NET_NETWORK_H_
