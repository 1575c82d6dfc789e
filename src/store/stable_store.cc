#include "src/store/stable_store.h"

#include <optional>

#include "src/fault/fault_injector.h"

namespace guardians {

template <typename Apply>
Status StableStore::Mutate(Mutation kind, const std::string& name,
                           Apply apply) {
  // The device's fault hook: one relaxed load unless a plan is armed or a
  // window is counting.
  std::optional<ScheduledCrash> crash;
  if (FaultInjectionActive()) {
    crash = FaultInjector::Instance().OnMutation(kind, name);
  }
  // Only an append can tear; every other mutation is atomic, so a crash
  // inside it is a crash before it.
  const CrashWhen when =
      crash.has_value() ? crash->what.plan.when : CrashWhen::kAfter;
  const bool torn = when == CrashWhen::kTorn && kind == Mutation::kAppend;
  if (crash.has_value() && when != CrashWhen::kAfter && !torn) {
    crash->Fire();
  }
  Status status;
  {
    std::lock_guard<std::mutex> lock(mu_);
    status = failed_ ? Status(Code::kStorageError,
                              "stable storage device failed")
                     : apply(torn);
  }
  if (crash.has_value()) {
    crash->Fire();
  }
  return status;
}

Status StableStore::Append(const std::string& name, const Bytes& data) {
  Micros latency{0};
  const ClockSource* clock = nullptr;
  GUARDIANS_RETURN_IF_ERROR(
      Mutate(Mutation::kAppend, name, [&](bool torn) {
        // A torn append lands its first half only: the tail a power
        // failure mid-write leaves, which the WAL's framing must tolerate.
        const size_t lands = torn ? data.size() / 2 : data.size();
        Bytes& stream = streams_[name];
        stream.insert(stream.end(), data.begin(), data.begin() + lands);
        ++append_count_;
        latency = write_latency_;
        clock = clock_;
        return OkStatus();
      }));
  if (latency.count() > 0) {
    // Model the synchronous wait for the write to reach stable media.
    (clock != nullptr ? clock : WallClock::Get())->SleepFor(latency);
  }
  return OkStatus();
}

Bytes StableStore::Read(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(name);
  return it != streams_.end() ? it->second : Bytes{};
}

size_t StableStore::StreamSize(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(name);
  return it != streams_.end() ? it->second.size() : 0;
}

Status StableStore::Truncate(const std::string& name, size_t new_size) {
  return Mutate(Mutation::kTruncate, name, [&](bool) {
    auto it = streams_.find(name);
    if (it == streams_.end()) {
      return Status(Code::kNotFound, "no stream '" + name + "'");
    }
    if (new_size < it->second.size()) {
      it->second.resize(new_size);
    }
    return OkStatus();
  });
}

Status StableStore::Delete(const std::string& name) {
  return Mutate(Mutation::kDelete, name, [&](bool) {
    streams_.erase(name);
    return OkStatus();
  });
}

Status StableStore::PutCell(const std::string& name, Bytes data) {
  return Mutate(Mutation::kPutCell, name, [&](bool) {
    cells_[name] = std::move(data);
    return OkStatus();
  });
}

Result<Bytes> StableStore::GetCell(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cells_.find(name);
  if (it == cells_.end()) {
    return Status(Code::kNotFound, "no cell '" + name + "'");
  }
  return it->second;
}

Status StableStore::DeleteCell(const std::string& name) {
  return Mutate(Mutation::kDeleteCell, name, [&](bool) {
    cells_.erase(name);
    return OkStatus();
  });
}

std::vector<std::string> StableStore::ListStreams() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const auto& [name, stream] : streams_) {
    names.push_back(name);
  }
  return names;
}

size_t StableStore::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [name, stream] : streams_) {
    total += stream.size();
  }
  for (const auto& [name, cell] : cells_) {
    total += cell.size();
  }
  return total;
}

void StableStore::SetClock(const ClockSource* clock) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_ = clock;
}

void StableStore::SetWriteLatency(Micros latency) {
  std::lock_guard<std::mutex> lock(mu_);
  write_latency_ = latency;
}

void StableStore::ChopTail(const std::string& name, size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return;
  }
  Bytes& stream = it->second;
  stream.resize(stream.size() > n ? stream.size() - n : 0);
}

void StableStore::SetFailed(bool failed) {
  std::lock_guard<std::mutex> lock(mu_);
  failed_ = failed;
}

uint64_t StableStore::append_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return append_count_;
}

}  // namespace guardians
