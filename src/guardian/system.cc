#include "src/guardian/system.h"

#include <cassert>
#include <thread>

#include "src/common/buffer.h"

namespace guardians {

System::System(SystemConfig config)
    : config_(config),
      clock_(config.sim_clock != nullptr
                 ? static_cast<const ClockSource*>(config.sim_clock)
                 : WallClock::Get()),
      rng_(config.seed),
      network_(config.seed ^ 0xA5A5A5A5ull, &metrics_, &traces_,
               config.delivery_shards, config.delivery_batch_max, clock_) {
  network_.SetDefaultLink(config_.default_link);
  // System-defined port types every node may rely on.
  for (const PortType& type :
       {PrimordialPortType(), CreationReplyPortType(), AckPortType()}) {
    const bool registered = port_types_.Register(type).ok();
    assert(registered);
    (void)registered;
  }
}

System::~System() {
  // Stop nodes (joins all guardian processes) before the network dies.
  // (No nodes_mu_: a supervisor must be stopped before its System dies.)
  for (auto& node : nodes_) {
    node->Crash();
  }
  // Then stop the delivery workers before the member destructors free the
  // node runtimes: a sink call already in flight runs DeliverBatch on a
  // raw NodeRuntime*, and nodes_ (declared after network_) is destroyed
  // first.
  network_.Shutdown();
}

NodeRuntime& System::AddNode(const std::string& name) {
  const NodeId id = network_.AddNode(name);
  auto runtime = std::make_unique<NodeRuntime>(this, id, name, rng_.NextU64());
  NodeRuntime* raw = runtime.get();
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    nodes_.push_back(std::move(runtime));
  }
  network_.SetBatchSink(id, [raw](std::vector<Packet>&& batch) {
    raw->DeliverBatch(std::move(batch));
  });
  Status booted = raw->Restart();
  assert(booted.ok());
  (void)booted;
  return *raw;
}

const ClockSource* System::clock_for_node(NodeId id) const {
  if (config_.sim_clock != nullptr) {
    return config_.sim_clock->NodeView(id);
  }
  return clock_;
}

NodeRuntime& System::node(NodeId id) {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  assert(id >= 1 && id <= nodes_.size());
  return *nodes_[id - 1];
}

size_t System::node_count() const {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  return nodes_.size();
}

void System::SetHealthOracle(HealthOracle quarantined) {
  std::lock_guard<std::mutex> lock(oracle_mu_);
  quarantined_ = std::move(quarantined);
}

bool System::NodeQuarantined(NodeId id) {
  HealthOracle oracle;
  {
    std::lock_guard<std::mutex> lock(oracle_mu_);
    oracle = quarantined_;
  }
  // Invoked outside the lock: the oracle takes the supervisor's own mutex.
  return oracle && oracle(id);
}

// The quiescence barrier is harness machinery, so its own budget and
// settle windows are *wall* time even on a simulated clock — but then the
// in-flight packets it waits for are scheduled at virtual deliver_at
// instants, so the barrier advances virtual time to the next pending
// deadline whenever the drain stalls (redundant, and harmless, when an
// auto-stepper is already driving the clock).
bool System::WaitQuiescent(Micros deadline, Micros settle,
                           int stable_rounds) {
  const TimePoint give_up = Now() + deadline;
  int rounds = 0;
  uint64_t last_sent = network_.stats().packets_sent;
  while (rounds < stable_rounds) {
    if (Now() > give_up) {
      return false;
    }
    DrainNetwork(give_up);
    std::this_thread::sleep_for(settle);
    if (config_.sim_clock != nullptr) {
      config_.sim_clock->AdvanceToNextDeadline();
    }
    const uint64_t sent = network_.stats().packets_sent;
    if (sent == last_sent) {
      ++rounds;
    } else {
      rounds = 0;
      last_sent = sent;
    }
  }
  DrainNetwork(give_up);
  SweepReassemblers();
  return true;
}

void System::SweepReassemblers() {
  // The in-Add reassembly sweep only runs when packets arrive, so a link
  // that goes idle after a lost fragment would pin its partials forever;
  // quiescence and reports are the natural moments to reclaim them.
  std::vector<NodeRuntime*> nodes;
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    nodes.reserve(nodes_.size());
    for (auto& node : nodes_) {
      nodes.push_back(node.get());
    }
  }
  for (NodeRuntime* node : nodes) {
    node->SweepReassembler();
  }
}

void System::DrainNetwork(TimePoint wall_give_up) {
  if (config_.sim_clock == nullptr) {
    network_.DrainForTesting();
    return;
  }
  while (!network_.DrainForTesting(Millis(1))) {
    if (Now() > wall_give_up) {
      return;
    }
    config_.sim_clock->AdvanceToNextDeadline();
  }
}

void System::SyncBufferStats() {
  std::lock_guard<std::mutex> lock(buffer_sync_mu_);
  const uint64_t copied = BufferStats::BytesCopied();
  const uint64_t allocs = BufferStats::Allocs();
  if (copied > buffer_copied_synced_) {
    metrics_.counter("buffer.bytes_copied")->Inc(copied -
                                                 buffer_copied_synced_);
    buffer_copied_synced_ = copied;
  }
  if (allocs > buffer_allocs_synced_) {
    metrics_.counter("buffer.allocs")->Inc(allocs - buffer_allocs_synced_);
    buffer_allocs_synced_ = allocs;
  }
}

std::string System::Report() {
  SyncBufferStats();
  SweepReassemblers();
  std::string out = "=== system report ===\n";
  std::vector<NodeRuntime*> nodes;
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    nodes.reserve(nodes_.size());
    for (auto& node : nodes_) {
      nodes.push_back(node.get());
    }
  }
  for (NodeRuntime* node : nodes) {
    out += node->Report();
  }
  out += metrics_.Report();
  out += "traces: " + std::to_string(traces_.trace_count()) +
         " held in a ring of " + std::to_string(TraceBuffer::kCapacity) +
         " events, " + std::to_string(traces_.overwritten_events()) +
         " events overwritten\n";
  return out;
}

}  // namespace guardians
