// Wal: a write-ahead log over StableStore, the mechanism behind
// "permanence of effect" (Section 2.2). A guardian logs each completed
// atomic operation before replying; its recovery process replays the log
// after a node crash.
//
// Frame format per record: [u32 length][u32 crc32(payload)][payload].
// Recovery tolerates a torn tail (a crash mid-append): the incomplete or
// CRC-failing final frame is discarded, everything before it is returned.
// A bad frame *followed by* more valid data indicates device corruption and
// fails with kLogCorrupt.
//
// Checkpoints are crash-atomic via an epoch protocol: the snapshot cell is
// written as [u64 epoch][payload] and a separate epoch cell records the
// last *committed* checkpoint epoch, updated only after the log truncate.
// Recovery that finds a snapshot epoch ahead of the committed epoch knows
// a crash interrupted Checkpoint() between the snapshot write and the
// truncate; the log's records are all covered by that snapshot, so it
// ignores them and rolls the repair forward (re-truncates, commits the
// epoch) instead of replaying covered records on top of the snapshot.
#ifndef GUARDIANS_SRC_STORE_WAL_H_
#define GUARDIANS_SRC_STORE_WAL_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/store/stable_store.h"
#include "src/value/value.h"
#include "src/wire/limits.h"

namespace guardians {

struct WalRecovery {
  std::optional<Bytes> snapshot;  // most recent checkpoint, if any
  std::vector<Bytes> records;     // records appended after the checkpoint
  bool torn_tail = false;         // an incomplete final record was discarded
  // A crash hit Checkpoint() between the snapshot write and the truncate;
  // the snapshot won, the covered log records were discarded and the
  // half-done checkpoint was rolled forward.
  bool interrupted_checkpoint = false;
};

class Wal {
 public:
  // `store` must outlive the Wal. `name` scopes the log's streams within
  // the node's stable store (one WAL per guardian resource).
  Wal(StableStore* store, std::string name);

  // Append one record; returns only after it is stable, or, with
  // `owed_latency`, leaves the wait for stability to the caller
  // (StableStore::Append).
  Status Append(const Bytes& payload, Micros* owed_latency = nullptr);
  // Convenience: wire-encode a Value as the record payload.
  Status AppendValue(const Value& v);

  // Replace the checkpoint with `snapshot` and truncate the record log.
  // Crash-safe at any interior point (see the epoch protocol above); fails
  // with kStorageError when the device has failed, in which case the
  // checkpoint may be half-done on media — recovery repairs it. The
  // snapshot's first kSnapshotPrefix bytes are reserved: Checkpoint writes
  // the epoch there in place, and the moved-in buffer becomes the snapshot
  // cell without a copy. What Recover returns as the snapshot is the rest.
  static constexpr size_t kSnapshotPrefix = 8;
  Status Checkpoint(Bytes snapshot);

  // Read everything back (the recovery process's input). Non-const: it
  // rolls an interrupted checkpoint forward on the store.
  Result<WalRecovery> Recover();
  // Value-decoding variant for logs written with AppendValue.
  Result<std::vector<Value>> RecoverValues();

  // Number of records appended since construction (not counting recovered
  // ones); for experiments. Appends may come from several processes.
  uint64_t appended() const { return appended_.load(); }
  size_t SizeBytes() const;

  const std::string& name() const { return name_; }

 private:
  std::string LogStream() const { return name_ + ".log"; }
  std::string SnapCell() const { return name_ + ".snap"; }
  std::string EpochCell() const { return name_ + ".epoch"; }

  uint64_t CommittedEpoch() const;

  StableStore* store_;
  std::string name_;
  std::atomic<uint64_t> appended_{0};
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_STORE_WAL_H_
