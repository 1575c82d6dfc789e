#include "src/fault/supervisor.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/obs/trace.h"

namespace guardians {

Supervisor::Supervisor(System* system, SupervisorConfig config)
    : system_(system),
      config_(config),
      clock_(system->clock()),
      crashes_detected_(system->metrics().counter(
          "supervisor.crashes_detected")),
      restarts_(system->metrics().counter("supervisor.restarts")),
      restart_failures_(system->metrics().counter(
          "supervisor.restart_failures")),
      quarantined_count_(system->metrics().counter("supervisor.quarantined")),
      unquarantined_count_(
          system->metrics().counter("supervisor.unquarantines")),
      backoff_us_(system->metrics().histogram("supervisor.backoff_us")),
      recovery_us_(system->metrics().histogram("supervisor.recovery_us")),
      rng_(config.seed) {
  trace_id_ = rng_.NextU64() | 1;  // nonzero: 0 means "untraced"
  system_->SetHealthOracle(
      [this](NodeId id) { return IsQuarantined(id); });
}

Supervisor::~Supervisor() {
  Stop();
  system_->SetHealthOracle(nullptr);
}

void Supervisor::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) {
      return;
    }
    running_ = true;
  }
  thread_ = std::thread([this] { RunLoop(); });
}

void Supervisor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      return;
    }
    running_ = false;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void Supervisor::Ignore(NodeId id) {
  std::lock_guard<std::mutex> lock(mu_);
  state_[id].ignored = true;
}

bool Supervisor::IsQuarantined(NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = state_.find(id);
  return it != state_.end() && it->second.quarantined;
}

void Supervisor::ForceQuarantine(NodeId id) {
  std::lock_guard<std::mutex> lock(mu_);
  NodeState& st = state_[id];
  if (!st.quarantined) {
    QuarantineLocked(st, id, "forced");
  }
}

void Supervisor::ClearQuarantine(NodeId id) {
  std::lock_guard<std::mutex> lock(mu_);
  NodeState& st = state_[id];
  st.quarantined = false;
  st.strikes = 0;
  st.down_seen = false;
}

void Supervisor::Unquarantine(NodeId id) {
  std::lock_guard<std::mutex> lock(mu_);
  NodeState& st = state_[id];
  if (!st.quarantined) {
    return;  // nothing to reverse; don't inflate the counter
  }
  st.quarantined = false;
  st.strikes = 0;
  st.down_seen = false;
  unquarantined_count_->Inc();
  system_->traces().Record(trace_id_, static_cast<uint32_t>(id),
                           "supervisor.unquarantine",
                           "rejoining rotation");
}

Supervisor::NodeHealth Supervisor::Health(NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  NodeHealth out;
  auto it = state_.find(id);
  if (it != state_.end()) {
    out.strikes = it->second.strikes;
    out.restarts = it->second.restarts;
    out.quarantined = it->second.quarantined;
  }
  return out;
}

void Supervisor::RunLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (running_) {
    lk.unlock();
    Scan();
    lk.lock();
    clock_->WaitUntil(cv_, lk, clock_->Now() + config_.poll_interval,
                      [this] { return !running_; });
  }
}

void Supervisor::Scan() {
  const size_t n = system_->node_count();
  for (NodeId id = 1; id <= n; ++id) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const NodeState& st = state_[id];
      if (st.ignored || st.quarantined) {
        continue;
      }
    }
    NodeRuntime& node = system_->node(id);
    if (node.IsUp()) {
      std::lock_guard<std::mutex> lock(mu_);
      state_[id].down_seen = false;
      continue;
    }
    HandleDown(id, node);
  }
}

void Supervisor::HandleDown(NodeId id, NodeRuntime& node) {
  {
    const TimePoint now = clock_->Now();
    std::lock_guard<std::mutex> lock(mu_);
    NodeState& st = state_[id];
    if (!st.down_seen) {
      st.down_seen = true;
      crashes_detected_->Inc();
      system_->traces().Record(trace_id_, static_cast<uint32_t>(id),
                               "supervisor.crash_detected", node.name());
      // Strike accounting: crashing again shortly after the last recovery
      // means restarting isn't helping.
      if (st.restarts > 0 && now - st.last_recovery < config_.rapid_window) {
        ++st.strikes;
      } else {
        st.strikes = 1;
      }
      if (st.strikes >= config_.quarantine_strikes) {
        QuarantineLocked(st, id, "crash-looping");
        return;
      }
      const Micros wait = NextBackoffLocked(st.strikes);
      st.restart_at = now + wait;
      system_->traces().Record(trace_id_, static_cast<uint32_t>(id),
                               "supervisor.backoff",
                               std::to_string(wait.count()) + "us, strike " +
                                   std::to_string(st.strikes));
      return;
    }
    if (now < st.restart_at) {
      return;  // still backing off
    }
  }

  // The restart attempt runs outside mu_: it joins guardian threads and
  // replays logs. Crash() first completes a crash-plan-initiated crash
  // whose FinishCrash nobody ran yet.
  node.Crash();
  const TimePoint t0 = Now();
  Status restarted = node.Restart();
  const uint64_t recovery_us = static_cast<uint64_t>(ToMicros(Now() - t0));
  if (!restarted.ok()) {
    // Tear the half-booted node back down before the next attempt.
    node.Crash();
  }

  std::lock_guard<std::mutex> lock(mu_);
  NodeState& st = state_[id];
  if (restarted.ok()) {
    ++st.restarts;
    st.down_seen = false;
    st.last_recovery = clock_->Now();
    restarts_->Inc();
    recovery_us_->Observe(recovery_us);
    system_->traces().Record(trace_id_, static_cast<uint32_t>(id),
                             "supervisor.restart",
                             node.name() + " recovered in " +
                                 std::to_string(recovery_us) + "us");
  } else {
    restart_failures_->Inc();
    ++st.strikes;
    system_->traces().Record(trace_id_, static_cast<uint32_t>(id),
                             "supervisor.restart_failed",
                             restarted.ToString());
    if (st.strikes >= config_.quarantine_strikes) {
      QuarantineLocked(st, id, restarted.ToString());
    } else {
      st.restart_at = clock_->Now() + NextBackoffLocked(st.strikes);
    }
  }
}

Micros Supervisor::NextBackoffLocked(int strikes) {
  double base = static_cast<double>(config_.initial_backoff.count()) *
                std::pow(config_.backoff_multiplier,
                         std::max(0, strikes - 1));
  base = std::min(base, static_cast<double>(config_.max_backoff.count()));
  // Jitter desynchronizes restart herds; seeded, so runs are reproducible.
  const double factor = 1.0 + config_.jitter * (2.0 * rng_.NextDouble() - 1.0);
  const uint64_t us =
      static_cast<uint64_t>(std::max(1.0, base * factor));
  backoff_us_->Observe(us);
  return Micros(static_cast<int64_t>(us));
}

void Supervisor::QuarantineLocked(NodeState& st, NodeId id,
                                  const std::string& why) {
  st.quarantined = true;
  quarantined_count_->Inc();
  system_->traces().Record(trace_id_, static_cast<uint32_t>(id),
                           "supervisor.quarantine",
                           why + " after " + std::to_string(st.strikes) +
                               " strikes");
}

}  // namespace guardians
