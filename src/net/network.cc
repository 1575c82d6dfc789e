#include "src/net/network.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <iterator>
#include <string_view>

#include "src/common/log.h"
#include "src/common/spin_park.h"

namespace guardians {

namespace {

// net.drop.<reason>, indexed by Network::DropReason: the counter names and
// the drop trace points.
constexpr const char* kDropPoints[] = {
    "net.drop.src_down", "net.drop.partition", "net.drop.partition_oneway",
    "net.drop.loss",     "net.drop.dst_down",  "net.drop.holdback_shutdown",
};

// "n<src>->n<dst> frag <i>/<n>", the detail of a network trace event,
// formatted on the stack: the trace ring copies it only when it records.
class HopDetail {
 public:
  explicit HopDetail(const Packet& packet) {
    Put("n");
    Put(packet.src);
    Put("->n");
    Put(packet.dst);
    Put(" frag ");
    Put(packet.frag_index + 1);
    Put("/");
    Put(packet.frag_count);
  }
  std::string_view view() const { return {buf_, size_}; }

 private:
  void Put(std::string_view text) {
    size_ += text.copy(buf_ + size_, sizeof(buf_) - size_);
  }
  void Put(uint32_t value) {
    size_ = static_cast<size_t>(
        std::to_chars(buf_ + size_, buf_ + sizeof(buf_), value).ptr - buf_);
  }

  char buf_[64];  // four uint32s (10 digits each) and 11 bytes of text
  size_t size_ = 0;
};

// Set while this thread runs a drain (a worker's or its own inline one):
// sends its sinks make then go to the heap, never into a nested drain.
// Per thread, not per process: a drain never parks (NoParkScope), so a
// task that drains does so on one carrier from start to end.
thread_local bool t_in_drain = false;

}  // namespace

Network::Network(uint64_t seed, MetricsRegistry* metrics, TraceBuffer* traces,
                 size_t shards, size_t batch_max, const ClockSource* clock)
    : clock_(clock != nullptr ? clock : WallClock::Get()), rng_(seed),
      owned_metrics_(metrics == nullptr ? std::make_unique<MetricsRegistry>()
                                        : nullptr),
      metrics_(metrics != nullptr ? metrics : owned_metrics_.get()),
      traces_(traces), batch_max_(std::max<size_t>(batch_max, 1)) {
  totals_.sent = metrics_->counter("net.sent");
  totals_.delivered = metrics_->counter("net.delivered");
  totals_.dropped = metrics_->counter("net.dropped");
  totals_.corrupted = metrics_->counter("net.corrupted");
  totals_.duplicated = metrics_->counter("net.dup.injected");
  totals_.bytes_sent = metrics_->counter("net.bytes_sent");
  static_assert(std::size(kDropPoints) == kDropReasons);
  for (size_t r = 0; r < kDropReasons; ++r) {
    drop_counters_[r] = metrics_->counter(kDropPoints[r]);
  }
  delivery_latency_ = metrics_->histogram("net.delivery_latency_us");
  reorder_released_ = metrics_->counter("net.reorder.released");
  shards_.reserve(std::max<size_t>(shards, 1));
  for (size_t k = 0; k < std::max<size_t>(shards, 1); ++k) {
    auto shard = std::make_unique<Shard>();
    const std::string prefix = "net.shard." + std::to_string(k) + ".";
    shard->enqueued = metrics_->counter(prefix + "enqueued");
    shard->delivered = metrics_->counter(prefix + "delivered");
    shard->dropped = metrics_->counter(prefix + "dropped");
    shard->batch_drains = metrics_->counter(prefix + "batch.drains");
    shard->batch_packets = metrics_->counter(prefix + "batch.packets");
    shard->batch_inline = metrics_->counter(prefix + "batch.inline");
    shard->batch_size = metrics_->histogram(
        prefix + "batch.size", {1, 2, 4, 8, 16, 32, 64, 128, 256});
    shard->wait_spun = metrics_->counter(prefix + "wait.spun");
    shard->wait_parked = metrics_->counter(prefix + "wait.parked");
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->worker = std::thread([this, raw] { ShardLoop(*raw); });
  }
}

Network::~Network() { Shutdown(); }

void Network::Shutdown() {
  uint64_t abandoned_holds = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      return;  // already shut down
    }
    stopped_ = true;
    // Packets still captured by a reorder hold will never be released;
    // count them dropped so conservation holds, and free the drain
    // barrier from waiting on them.
    abandoned_holds = held_.size();
    for (const InFlight& entry : held_) {
      CountDrop(entry.packet, DropReason::kHoldbackShutdown);
    }
    held_.clear();
    held_pairs_.clear();
    held_max_ = 0;
  }
  if (abandoned_holds > 0) {
    FinishMany(abandoned_holds);
  }
  stopping_.store(true);
  for (auto& shard : shards_) {
    // Under the lock, so a worker between its check and its wait cannot
    // miss the stop signal.
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->wake_seq.fetch_add(1, std::memory_order_release);
    }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    shard->worker.join();
  }
  // A sending thread may still be running a drain it took the token for
  // before stopping_ was set (no later sender can take one); wait it out,
  // so no sink runs once this returns.
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    shard->cv.wait(lock, [&shard] { return !shard->draining; });
  }
  // Unblock any drainer waiting on packets the stopped workers abandoned.
  { std::lock_guard<std::mutex> lock(drain_mu_); }
  drained_cv_.notify_all();
}

NodeId Network::AddNode(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  node_names_.push_back(name);
  node_up_.push_back(true);
  sinks_.emplace_back();
  return static_cast<NodeId>(node_names_.size());
}

std::string Network::NodeName(NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > node_names_.size()) {
    return "?";
  }
  return node_names_[id - 1];
}

size_t Network::node_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return node_names_.size();
}

void Network::SetSink(NodeId node, PacketSink sink) {
  // Wrapped so the engine has exactly one (batched) delivery path; a
  // per-packet sink just sees the batch unrolled in order.
  SetBatchSink(node, [sink = std::move(sink)](std::vector<Packet>&& batch) {
    for (Packet& packet : batch) {
      sink(std::move(packet));
    }
  });
}

void Network::SetBatchSink(NodeId node, PacketBatchSink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(node >= 1 && node <= sinks_.size());
  sinks_[node - 1] = std::move(sink);
}

void Network::SetNodeUp(NodeId node, bool up) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(node >= 1 && node <= node_up_.size());
  node_up_[node - 1] = up;
}

bool Network::IsNodeUp(NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return node >= 1 && node <= node_up_.size() && node_up_[node - 1];
}

void Network::SetDefaultLink(const LinkParams& params) {
  std::lock_guard<std::mutex> lock(mu_);
  default_link_ = params;
  ++link_epoch_;
}

void Network::SetLink(NodeId a, NodeId b, const LinkParams& params) {
  std::lock_guard<std::mutex> lock(mu_);
  links_[LinkKey(a, b)] = params;
  links_[LinkKey(b, a)] = params;
  ++link_epoch_;
}

LinkParams Network::GetLink(NodeId from, NodeId to) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = links_.find(LinkKey(from, to));
  return it != links_.end() ? it->second : default_link_;
}

void Network::SetPartitioned(NodeId a, NodeId b, bool cut) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cut) {
    partitions_.insert(LinkKey(a, b));
    partitions_.insert(LinkKey(b, a));
  } else {
    partitions_.erase(LinkKey(a, b));
    partitions_.erase(LinkKey(b, a));
  }
  ++link_epoch_;
}

void Network::SetPartitionedOneWay(NodeId from, NodeId to, bool cut) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cut) {
    oneway_partitions_.insert(LinkKey(from, to));
  } else {
    oneway_partitions_.erase(LinkKey(from, to));
  }
  ++link_epoch_;
}

bool Network::IsPartitioned(NodeId from, NodeId to) const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t key = LinkKey(from, to);
  return partitions_.count(key) > 0 || oneway_partitions_.count(key) > 0;
}

uint64_t Network::link_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return link_epoch_;
}

void Network::Send(std::span<Packet> packets, bool deliver_inline) {
  // The message's surviving copies. Thread-local scratch, so a warm Send
  // allocates nothing; a sink that sends from inside this thread's drain
  // reuses it only after TryDrainInline has moved the entries out. A Send
  // never parks, so a task's Send keeps one carrier's scratch throughout.
  const NoParkScope no_park;
  thread_local std::vector<InFlight> decided;
  decided.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const TimePoint now = clock_->Now();
    for (Packet& packet : packets) {
      DecideLocked(std::move(packet), now, decided);
    }
  }
  if (decided.empty()) {
    return;  // every copy was dropped or captured by a reorder hold
  }
  // in_flight_ rises before anyone can resolve the copies, so
  // DrainForTesting never observes a false zero.
  in_flight_.fetch_add(decided.size(), std::memory_order_acq_rel);
  if (deliver_inline && !t_in_drain && TryDrainInline(decided)) {
    return;
  }
  // A message's copies share the destination, hence the shard.
  EnqueueToShard(decided);
}

void Network::DecideLocked(Packet&& packet, TimePoint now,
                           std::vector<InFlight>& out) {
  totals_.sent->Inc();
  totals_.bytes_sent->Inc(packet.WireSize());
  LinkCounters& link_counters = CountersForLink(packet.src, packet.dst);
  link_counters.sent->Inc();

  const bool src_ok = packet.src >= 1 && packet.src <= node_up_.size() &&
                      node_up_[packet.src - 1];
  const bool partitioned =
      packet.src != packet.dst &&
      partitions_.count(LinkKey(packet.src, packet.dst)) > 0;
  const bool cut_oneway =
      packet.src != packet.dst &&
      oneway_partitions_.count(LinkKey(packet.src, packet.dst)) > 0;
  if (!src_ok || partitioned || cut_oneway) {
    CountDrop(packet, !src_ok        ? DropReason::kSrcDown
                      : partitioned ? DropReason::kPartition
                                    : DropReason::kPartitionOneway);
    return;
  }

  LinkParams link = default_link_;
  if (packet.src != packet.dst) {
    auto it = links_.find(LinkKey(packet.src, packet.dst));
    if (it != links_.end()) {
      link = it->second;
    }
  } else {
    link = LinkParams{Micros(0), Micros(0), 0.0, 0.0, 0.0};
  }

  if (rng_.NextBool(link.drop_prob)) {
    CountDrop(packet, DropReason::kLoss);
    return;
  }
  if (!packet.payload.empty() && rng_.NextBool(link.corrupt_prob)) {
    // Flip one byte; the error-detection bits will reject the packet at
    // the receiving node (it keeps its stale CRC on purpose).
    // MutableData copy-on-writes this one fragment's view, so sibling
    // fragments and any duplicate injected below share storage with each
    // other but never see the flipped byte... unless the duplicate is
    // cloned *from* the corrupted packet, which is exactly the old
    // deep-copy behavior: corruption-then-dup yields two bad twins.
    const size_t at = rng_.NextBelow(packet.payload.size());
    packet.payload.MutableData()[at] ^=
        static_cast<uint8_t>(1 + rng_.NextBelow(255));
    totals_.corrupted->Inc();
    link_counters.corrupted->Inc();
    if (traces_ != nullptr) {
      traces_->Record(packet.trace_id, 0, "net.corrupted",
                      HopDetail(packet).view());
    }
  }

  // Each copy rolls its own latency/jitter, so a duplicate reorders
  // freely against the original (it may even arrive first).
  auto roll_delay = [&]() {
    int64_t delay_us = ToMicros(link.latency);
    if (link.jitter.count() > 0) {
      delay_us += static_cast<int64_t>(
          rng_.NextNormal(0.0, static_cast<double>(link.jitter.count())));
    }
    if (link.bytes_per_micro > 0.0) {
      delay_us += static_cast<int64_t>(
          static_cast<double>(packet.WireSize()) / link.bytes_per_micro);
    }
    return std::max<int64_t>(delay_us, 0);
  };

  const size_t first = out.size();
  out.emplace_back();
  out[first].sent_at = now;
  out[first].deliver_at = now + Micros(roll_delay());
  out[first].seq = seq_++;

  if (rng_.NextBool(link.dup_prob)) {
    // The network invents a second in-flight copy of the same packet
    // (§1.1: the network may duplicate messages). Both copies resolve
    // independently downstream, so packets_delivered + packets_dropped
    // balances against packets_sent + packets_duplicated.
    totals_.duplicated->Inc();
    link_counters.duplicated->Inc();
    if (traces_ != nullptr) {
      traces_->Record(packet.trace_id, 0, "net.duplicated",
                      HopDetail(packet).view());
    }
    InFlight& copy = out.emplace_back();
    copy.sent_at = now;
    copy.deliver_at = now + Micros(roll_delay());
    copy.seq = seq_++;
    copy.packet = packet;  // payload is a shared view: the twin costs a
                           // refcount bump, not a byte clone
  }
  out[first].packet = std::move(packet);

  // Reordering storm: a held link captures decided packets instead of
  // scheduling them (the dice above rolled exactly as usual, so counts
  // and the rng stream are unchanged); ReleaseHeld re-schedules them
  // shuffled. Held copies are in flight — drains wait for the release.
  if (!held_pairs_.empty() &&
      held_pairs_.count(LinkKey(out[first].packet.src,
                                out[first].packet.dst)) > 0) {
    const size_t copies = out.size() - first;
    if (held_.size() + copies <= held_max_) {
      in_flight_.fetch_add(copies, std::memory_order_acq_rel);
      for (size_t i = first; i < out.size(); ++i) {
        held_.push_back(std::move(out[i]));
      }
      out.resize(first);
    }
  }
}

bool Network::TryDrainInline(std::vector<InFlight>& decided) {
  if (decided.size() > batch_max_) {
    return false;
  }
  const TimePoint now = clock_->Now();
  for (const InFlight& entry : decided) {
    if (entry.deliver_at > now) {
      return false;
    }
  }
  Shard& shard = ShardFor(decided.front().packet.dst);
  {
    // An empty heap with a free token means every earlier packet for this
    // shard has left its sink, so delivering now keeps per-destination
    // order.
    std::lock_guard<std::mutex> lock(shard.mu);
    if (stopping_.load() || shard.draining || !shard.heap.empty()) {
      return false;
    }
    shard.draining = true;
  }
  // The token's scratch takes the copies in the order the heap would pop
  // them. They count as enqueued, like heaped ones: the shard's ledger is
  // enqueued == delivered + dropped either way.
  std::sort(decided.begin(), decided.end(),
            [](const InFlight& a, const InFlight& b) {
              return DueLater{}(b, a);
            });
  shard.batch.clear();
  std::move(decided.begin(), decided.end(), std::back_inserter(shard.batch));
  decided.clear();
  shard.enqueued->Inc(shard.batch.size());
  bool wake_worker = false;
  size_t delivered = 0;
  for (int round = 0;; ++round) {
    RunDrain(shard, /*by_sender=*/true);
    delivered += shard.batch.size();
    std::lock_guard<std::mutex> lock(shard.mu);
    // Senders that found the token taken heaped their packets. The holder
    // delivers those already due itself, a few batches at most, so a
    // sender that lost the race for the token costs no worker wake; the
    // rest waits for the worker (and Shutdown for the drain).
    const TimePoint due_by = clock_->Now();
    if (round < kInlineRounds && !stopping_.load() && !shard.heap.empty() &&
        shard.heap.front().deliver_at <= due_by) {
      TakeDueLocked(shard, due_by);
      continue;
    }
    shard.draining = false;
    // Only a release that leaves work (or a stop) concerns the worker: a
    // bump on every inline drain kept a spinning worker spinning on a shard
    // that saw nothing but inline drains.
    wake_worker = !shard.heap.empty() || stopping_.load();
    if (wake_worker) {
      shard.wake_seq.fetch_add(1, std::memory_order_release);
    }
    break;
  }
  if (wake_worker) {
    shard.cv.notify_all();
  }
  // Resolved once the token is free again, as the worker does.
  FinishMany(delivered);
  return true;
}

void Network::TakeDueLocked(Shard& shard, TimePoint now) {
  shard.batch.clear();
  while (!shard.heap.empty() && shard.batch.size() < batch_max_ &&
         shard.heap.front().deliver_at <= now) {
    std::pop_heap(shard.heap.begin(), shard.heap.end(), DueLater{});
    shard.batch.push_back(std::move(shard.heap.back()));
    shard.heap.pop_back();
  }
}

void Network::EnqueueToShard(std::span<InFlight> entries) {
  const NodeId dst = entries.front().packet.dst;
  Shard& shard = ShardFor(dst);
  bool wake_worker = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (stopping_.load()) {
      // Workers are gone; the packets silently vanish (they were "in
      // flight" when the world stopped), and the drain barrier must not
      // wait on them.
      in_flight_.fetch_sub(entries.size(), std::memory_order_acq_rel);
      return;
    }
    const bool was_empty = shard.heap.empty();
    const TimePoint old_front_due =
        was_empty ? TimePoint{} : shard.heap.front().deliver_at;
    for (InFlight& entry : entries) {
      assert(entry.packet.dst == dst);
      shard.heap.push_back(std::move(entry));
      std::push_heap(shard.heap.begin(), shard.heap.end(), DueLater{});
    }
    shard.enqueued->Inc(entries.size());
    // A spinning worker sees this without any wake.
    shard.wake_seq.fetch_add(1, std::memory_order_release);
    // Wake coalescing: a parked worker only needs a wake when the heap went
    // empty -> non-empty (it may be in its indefinite wait) or when a new
    // entry preempts the front (its timed wait's deadline is now too late).
    // A backlogged shard — front already due — never needs one: the worker
    // is either draining or about to re-check the heap, so the common
    // saturated Send pays no futex wake at all. Nor does a shard whose
    // token is taken: its holder re-checks the heap when it lets go.
    wake_worker = !shard.draining &&
                  (was_empty || shard.heap.front().deliver_at < old_front_due);
  }
  if (wake_worker) {
    shard.cv.notify_all();
  }
}

void Network::HoldLink(NodeId a, NodeId b, size_t max_held) {
  std::lock_guard<std::mutex> lock(mu_);
  held_pairs_.insert(LinkKey(a, b));
  held_pairs_.insert(LinkKey(b, a));
  held_max_ = std::max(held_max_, max_held);
  ++link_epoch_;
}

void Network::ReleaseHeld(uint64_t shuffle_seed) {
  std::vector<InFlight> held;
  {
    std::lock_guard<std::mutex> lock(mu_);
    held = std::move(held_);
    held_.clear();
    held_pairs_.clear();
    held_max_ = 0;
    ++link_epoch_;
    if (!held.empty()) {
      // Fisher–Yates on a dedicated rng (the send-path dice stream must
      // not depend on how many packets a hold captured), then deliver_at
      // offsets one microsecond apart so each destination's heap pops
      // the shuffled order verbatim, at any shard/batch configuration.
      Rng shuffle(shuffle_seed ^ 0x5EED0DE2ull);
      for (size_t i = held.size(); i > 1; --i) {
        std::swap(held[i - 1], held[shuffle.NextBelow(i)]);
      }
      const TimePoint now = clock_->Now();
      for (size_t i = 0; i < held.size(); ++i) {
        held[i].deliver_at = now + Micros(static_cast<int64_t>(i));
      }
      reorder_released_->Inc(held.size());
    }
  }
  for (InFlight& entry : held) {
    EnqueueToShard(std::span<InFlight>(&entry, 1));
  }
}

size_t Network::held_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return held_.size();
}

void Network::DrainForTesting() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drained_cv_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0 ||
           stopping_.load();
  });
}

bool Network::DrainForTesting(Micros wall_timeout) {
  std::unique_lock<std::mutex> lock(drain_mu_);
  return drained_cv_.wait_for(lock, wall_timeout, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0 ||
           stopping_.load();
  });
}

NetworkStats Network::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  NetworkStats s;
  s.packets_sent = totals_.sent->value();
  s.packets_delivered = totals_.delivered->value();
  s.packets_dropped = totals_.dropped->value();
  s.packets_corrupted = totals_.corrupted->value();
  s.packets_duplicated = totals_.duplicated->value();
  s.bytes_sent = totals_.bytes_sent->value();
  return s;
}

Network::LinkCounters& Network::CountersForLink(NodeId src, NodeId dst) {
  const uint64_t key = LinkKey(src, dst);
  auto it = link_counters_.find(key);
  if (it == link_counters_.end()) {
    auto name_of = [this](NodeId id) {
      return (id >= 1 && id <= node_names_.size()) ? node_names_[id - 1]
                                                   : "?";
    };
    const std::string prefix =
        "net.link." + name_of(src) + "->" + name_of(dst) + ".";
    LinkCounters counters;
    counters.sent = metrics_->counter(prefix + "sent");
    counters.delivered = metrics_->counter(prefix + "delivered");
    counters.dropped = metrics_->counter(prefix + "dropped");
    counters.corrupted = metrics_->counter(prefix + "corrupted");
    counters.duplicated = metrics_->counter(prefix + "duplicated");
    it = link_counters_.emplace(key, counters).first;
  }
  return it->second;
}

void Network::CountDrop(const Packet& packet, DropReason reason) {
  totals_.dropped->Inc();
  drop_counters_[static_cast<size_t>(reason)]->Inc();
  CountersForLink(packet.src, packet.dst).dropped->Inc();
  if (traces_ != nullptr) {
    traces_->Record(packet.trace_id, 0,
                    kDropPoints[static_cast<size_t>(reason)],
                    HopDetail(packet).view());
  }
}

void Network::ShardLoop(Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mu);
  for (;;) {
    if (stopping_.load()) {
      return;
    }
    if (shard.heap.empty() || shard.draining) {
      // Idle, or a sending thread holds the token: wait for the next
      // enqueue, token release or stop, spinning first when waits are
      // short (DESIGN.md §8).
      const uint64_t seen = shard.wake_seq.load(std::memory_order_relaxed);
      const WaitEnd end = SpinThenPark(
          *clock_, shard.cv, lock, TimePoint::max(), [&shard, seen] {
            return shard.wake_seq.load(std::memory_order_acquire) != seen;
          });
      (end == WaitEnd::kSpun ? shard.wait_spun : shard.wait_parked)->Inc();
      continue;
    }
    const TimePoint now = clock_->Now();
    const TimePoint due = shard.heap.front().deliver_at;
    if (now < due) {
      // Until the front is due, or something changes what to wait for: an
      // earlier packet preempts the front, a sending thread takes the
      // token, or Shutdown. The predicate form matters on a simulated
      // clock, which drops the lock while it registers the wait: a
      // preempting enqueue in that window is seen by re-checking the heap,
      // where its notify would be lost.
      clock_->WaitUntil(shard.cv, lock, due, [this, &shard, due] {
        return stopping_.load() || shard.draining || shard.heap.empty() ||
               shard.heap.front().deliver_at < due;
      });
      continue;
    }

    // One lock acquisition takes the token and drains every due entry
    // (bounded by batch_max_), in heap order — so per-destination delivery
    // order is exactly what the one-packet-per-wake engine produced.
    shard.draining = true;
    TakeDueLocked(shard, now);

    // Deliver outside the shard lock: a sink may immediately Send (e.g. a
    // system failure reply) or hand off to guardian processes, and other
    // shards' sinks run concurrently with this one.
    lock.unlock();
    RunDrain(shard, /*by_sender=*/false);
    lock.lock();
    shard.draining = false;
    // Resolved only once the token is free again, so a drain barrier
    // that returns leaves every token free.
    FinishMany(shard.batch.size());
  }
}

void Network::RunDrain(Shard& shard, bool by_sender) {
  const size_t packets = shard.batch.size();
  shard.batch_drains->Inc();
  if (by_sender) {
    shard.batch_inline->Inc();
  }
  shard.batch_packets->Inc(packets);
  shard.batch_size->Observe(packets);
  const NoParkScope no_park;
  t_in_drain = true;
  DeliverBatch(shard);
  t_in_drain = false;
}

void Network::DeliverBatch(Shard& shard) {
  // Group by destination, visiting destinations in first-appearance order
  // so a given seed produces the same sink-call sequence at every batch
  // size. The scan is linear in (destinations × batch): a shard owns few
  // destinations and batches are small, and the destination list is the
  // shard's reused scratch, so a warm drain allocates nothing.
  std::vector<NodeId>& destinations = shard.destinations;
  destinations.clear();
  for (const InFlight& entry : shard.batch) {
    if (std::find(destinations.begin(), destinations.end(),
                  entry.packet.dst) == destinations.end()) {
      destinations.push_back(entry.packet.dst);
    }
  }
  for (const NodeId dst : destinations) {
    DeliverGroup(shard, dst);
  }
}

void Network::DeliverGroup(Shard& shard, NodeId dst) {
  std::vector<InFlight>& batch = shard.batch;
  PacketBatchSink sink;
  std::vector<Packet>& deliverable = shard.deliverable;
  uint64_t dropped = 0;
  {
    // One stats-lock round-trip covers the whole group — at batch_max 1
    // this is the old per-packet acquisition, bit for bit.
    std::lock_guard<std::mutex> lock(mu_);
    const bool ok = dst >= 1 && dst <= node_up_.size() &&
                    node_up_[dst - 1] && sinks_[dst - 1];
    if (ok) {
      sink = sinks_[dst - 1];
      const TimePoint handoff_now = clock_->Now();
      for (InFlight& entry : batch) {
        if (entry.packet.dst != dst) {
          continue;
        }
        // Stamp the time this packet spent inside the network, measured
        // entirely on the network's own clock — the receiver decrements
        // any relative deadline budget by this, never by comparing
        // timestamps across (possibly skewed) node clocks.
        entry.packet.age_micros =
            std::max<int64_t>(ToMicros(handoff_now - entry.sent_at), 0);
        delivery_latency_->Observe(
            static_cast<uint64_t>(entry.packet.age_micros));
        CountersForLink(entry.packet.src, dst).delivered->Inc();
        deliverable.push_back(std::move(entry.packet));
      }
      totals_.delivered->Inc(deliverable.size());
    } else {
      for (const InFlight& entry : batch) {
        if (entry.packet.dst == dst) {
          CountDrop(entry.packet, DropReason::kDstDown);
          ++dropped;
        }
      }
    }
  }
  if (sink) {
    shard.delivered->Inc(deliverable.size());
    // Outside mu_, and with no detail: trace id and point identify the hop.
    if (traces_ != nullptr) {
      for (const Packet& packet : deliverable) {
        traces_->Record(packet.trace_id, 0, "net.delivered");
      }
    }
    sink(std::move(deliverable));
    deliverable.clear();  // the sink consumed the packets, not the vector
  } else {
    shard.dropped->Inc(dropped);
  }
}

void Network::FinishMany(uint64_t n) {
  if (in_flight_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    // Synchronize with a drainer between its predicate check and its wait.
    { std::lock_guard<std::mutex> lock(drain_mu_); }
    drained_cv_.notify_all();
  }
}

}  // namespace guardians
