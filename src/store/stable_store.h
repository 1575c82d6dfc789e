// StableStore: the per-node storage that survives a node crash
// (Section 2.2: "processes in the guardian save recovery data as needed
// (by, e.g., logging it in storage that will survive a node crash)").
//
// The device is a set of named append-only byte streams plus small named
// cells (for node metadata such as the persistent-guardian table). A node
// crash destroys every guardian's volatile objects but leaves the
// StableStore intact. Every mutation is a fault-injection boundary
// (src/fault/fault_injector.h): an armed crash plan lands just before one,
// just after it, or inside an append, leaving the torn tail a power failure
// mid-write would.
//
// Synchronous append latency is configurable: logging to stable storage is
// the dominant cost of permanence, and the ROBUST experiment measures it.
#ifndef GUARDIANS_SRC_STORE_STABLE_STORE_H_
#define GUARDIANS_SRC_STORE_STABLE_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/result.h"

namespace guardians {

enum class Mutation : uint8_t;  // src/fault/fault_injector.h

class StableStore {
 public:
  StableStore() = default;

  StableStore(const StableStore&) = delete;
  StableStore& operator=(const StableStore&) = delete;

  // --- Streams (append-only) ----------------------------------------------
  Status Append(const std::string& name, const Bytes& data);
  // Whole contents; empty if the stream doesn't exist.
  Bytes Read(const std::string& name) const;
  size_t StreamSize(const std::string& name) const;
  Status Truncate(const std::string& name, size_t new_size);
  Status Delete(const std::string& name);

  // --- Cells (small replace-on-write values) ------------------------------
  // Takes `data` by value: a caller that moves a large cell in copies
  // nothing.
  Status PutCell(const std::string& name, Bytes data);
  Result<Bytes> GetCell(const std::string& name) const;
  Status DeleteCell(const std::string& name);

  std::vector<std::string> ListStreams() const;
  size_t TotalBytes() const;

  // --- Device model --------------------------------------------------------
  // Synchronous write latency applied on every Append (default: none).
  void SetWriteLatency(Micros latency);
  // Clock the modeled write latency sleeps on (borrowed; default: wall).
  // NodeRuntime points this at the node's clock so the device model runs
  // on simulated time with everything else.
  void SetClock(const ClockSource* clock);
  // Fault injection: chop `n` bytes off a stream's tail, as a crash in the
  // middle of a write would. The WAL's framing must recover.
  void ChopTail(const std::string& name, size_t n);
  // Device failure injection: every subsequent mutating op (Append, PutCell,
  // Truncate, Delete, DeleteCell) fails with kStorageError; reads still
  // work, like a disk gone read-only.
  void SetFailed(bool failed);

  uint64_t append_count() const;

 private:
  // Every mutation runs here: the fault hook, then apply(torn) under mu_
  // unless the device has failed. `torn` asks an append to land only its
  // first half.
  template <typename Apply>
  Status Mutate(Mutation kind, const std::string& name, Apply apply);

  const ClockSource* clock_ = nullptr;  // null: wall clock

  mutable std::mutex mu_;
  std::map<std::string, Bytes> streams_;
  std::map<std::string, Bytes> cells_;
  Micros write_latency_{0};
  bool failed_ = false;
  uint64_t append_count_ = 0;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_STORE_STABLE_STORE_H_
