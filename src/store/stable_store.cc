#include "src/store/stable_store.h"

#include <thread>

#include "src/fault/crashpoint.h"

namespace guardians {

namespace {
// A crash inside the media write itself: the first half of the data is on
// the device, the rest never arrives — the torn tail the WAL's framing
// must tolerate.
CrashPoint crash_store_append_partial("store.append.partial");
}  // namespace

Status StableStore::FailedLocked() const {
  return failed_ ? Status(Code::kStorageError, "stable storage device failed")
                 : OkStatus();
}

Status StableStore::Append(const std::string& name, const Bytes& data) {
  // While the fault layer is active the write lands in two halves with a
  // crashpoint between them, so an armed crash leaves a torn tail exactly
  // as a power failure mid-write would. Each stream has a single writer
  // (its guardian's WAL), so the split is unobservable without a crash.
  // Inactive (the normal case), it is the plain single insert.
  const bool two_phase = FaultInjectionActive() && data.size() > 1;
  const size_t first_half = two_phase ? data.size() / 2 : data.size();
  Micros latency{0};
  const ClockSource* clock = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    GUARDIANS_RETURN_IF_ERROR(FailedLocked());
    clock = clock_;
    Bytes& stream = streams_[name];
    stream.insert(stream.end(), data.begin(), data.begin() + first_half);
    if (!two_phase) {
      ++append_count_;
      latency = write_latency_;
    }
  }
  if (two_phase) {
    crash_store_append_partial.Hit();
    std::lock_guard<std::mutex> lock(mu_);
    GUARDIANS_RETURN_IF_ERROR(FailedLocked());
    Bytes& stream = streams_[name];
    stream.insert(stream.end(), data.begin() + first_half, data.end());
    ++append_count_;
    latency = write_latency_;
  }
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
  std::lock_guard<std::mutex> lock(mu_);
  GUARDIANS_RETURN_IF_ERROR(FailedLocked());
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status(Code::kNotFound, "no stream '" + name + "'");
  }
  if (new_size < it->second.size()) {
    it->second.resize(new_size);
  }
  return OkStatus();
}

Status StableStore::Delete(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  GUARDIANS_RETURN_IF_ERROR(FailedLocked());
  streams_.erase(name);
  return OkStatus();
}

Status StableStore::PutCell(const std::string& name, Bytes data) {
  std::lock_guard<std::mutex> lock(mu_);
  GUARDIANS_RETURN_IF_ERROR(FailedLocked());
  cells_[name] = std::move(data);
  return OkStatus();
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
  std::lock_guard<std::mutex> lock(mu_);
  GUARDIANS_RETURN_IF_ERROR(FailedLocked());
  cells_.erase(name);
  return OkStatus();
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
