#include "src/store/wal.h"

#include <algorithm>

#include "src/wire/codec.h"
#include "src/wire/crc32.h"
#include "src/wire/value_codec.h"

namespace guardians {

namespace {

Bytes EncodeU64Le(uint64_t v) {
  Bytes out(8);
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  return out;
}

uint64_t DecodeU64Le(const Bytes& in) {
  uint64_t v = 0;
  for (int i = 0; i < 8 && i < static_cast<int>(in.size()); ++i) {
    v |= static_cast<uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

}  // namespace

Wal::Wal(StableStore* store, std::string name)
    : store_(store), name_(std::move(name)) {}

Status Wal::Append(const Bytes& payload) {
  // One pre-sized frame: header and payload go into a single buffer
  // instead of encoding the header and then splicing the payload after it.
  WireEncoder enc;
  enc.Reserve(8 + payload.size());
  enc.PutU32(static_cast<uint32_t>(payload.size()));
  enc.PutU32(Crc32(payload));
  enc.PutBytes(payload);
  GUARDIANS_RETURN_IF_ERROR(store_->Append(LogStream(), enc.Take()));
  appended_.fetch_add(1);
  return OkStatus();
}

Status Wal::AppendValue(const Value& v) {
  WireEncoder enc;
  GUARDIANS_RETURN_IF_ERROR(EncodeValue(v, DefaultLimits(), enc));
  return Append(enc.Take());
}

uint64_t Wal::CommittedEpoch() const {
  auto cell = store_->GetCell(EpochCell());
  return cell.ok() ? DecodeU64Le(*cell) : 0;
}

Status Wal::Checkpoint(Bytes snapshot) {
  const uint64_t epoch = CommittedEpoch() + 1;
  // The cell is [u64 epoch][snapshot], built in the snapshot's own buffer.
  const size_t size = snapshot.size();
  snapshot.resize(8 + size);
  std::copy_backward(snapshot.begin(), snapshot.begin() + size,
                     snapshot.end());
  const Bytes epoch_le = EncodeU64Le(epoch);
  std::copy(epoch_le.begin(), epoch_le.end(), snapshot.begin());
  GUARDIANS_RETURN_IF_ERROR(store_->PutCell(SnapCell(), std::move(snapshot)));
  Status truncated = store_->Truncate(LogStream(), 0);
  if (!truncated.ok() && truncated.code() != Code::kNotFound) {
    return truncated;  // kNotFound just means nothing was ever appended
  }
  return store_->PutCell(EpochCell(), EncodeU64Le(epoch));
}

Result<WalRecovery> Wal::Recover() {
  WalRecovery out;
  uint64_t snap_epoch = 0;
  auto snap = store_->GetCell(SnapCell());
  if (snap.ok()) {
    Bytes cell = snap.take();
    if (cell.size() < 8) {
      return Status(Code::kLogCorrupt,
                    "snapshot cell of '" + name_ + "' is missing its epoch");
    }
    snap_epoch = DecodeU64Le(cell);
    out.snapshot = Bytes(cell.begin() + 8, cell.end());
  }

  if (snap_epoch > CommittedEpoch()) {
    // A crash interrupted Checkpoint() after the snapshot write but before
    // the epoch commit. Every record still in the log is covered by this
    // snapshot (appends only resume after Checkpoint returns), so replaying
    // them would double-apply; discard them and roll the repair forward.
    out.interrupted_checkpoint = true;
    Status truncated = store_->Truncate(LogStream(), 0);
    if (!truncated.ok() && truncated.code() != Code::kNotFound) {
      return truncated;
    }
    GUARDIANS_RETURN_IF_ERROR(
        store_->PutCell(EpochCell(), EncodeU64Le(snap_epoch)));
    return out;
  }

  const Bytes raw = store_->Read(LogStream());
  size_t pos = 0;
  while (pos < raw.size()) {
    if (raw.size() - pos < 8) {
      out.torn_tail = true;  // incomplete frame header at the tail
      break;
    }
    uint32_t len = 0;
    uint32_t crc = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(raw[pos + i]) << (8 * i);
      crc |= static_cast<uint32_t>(raw[pos + 4 + i]) << (8 * i);
    }
    if (raw.size() - pos - 8 < len) {
      out.torn_tail = true;  // incomplete payload at the tail
      break;
    }
    // Verify in place; only frames that pass their CRC are materialized.
    const ConstByteSpan body(raw.data() + pos + 8, len);
    if (Crc32(body) != crc) {
      if (pos + 8 + len == raw.size()) {
        out.torn_tail = true;  // garbage only in the final frame
        break;
      }
      return Status(Code::kLogCorrupt,
                    "log '" + name_ + "' has a bad frame mid-stream");
    }
    out.records.emplace_back(body.begin(), body.end());
    pos += 8 + len;
  }
  return out;
}

Result<std::vector<Value>> Wal::RecoverValues() {
  GUARDIANS_ASSIGN_OR_RETURN(WalRecovery rec, Recover());
  std::vector<Value> values;
  values.reserve(rec.records.size());
  for (const auto& record : rec.records) {
    WireDecoder dec(record);
    GUARDIANS_ASSIGN_OR_RETURN(Value v,
                               DecodeValue(dec, DefaultLimits(), nullptr));
    values.push_back(std::move(v));
  }
  return values;
}

size_t Wal::SizeBytes() const { return store_->StreamSize(LogStream()); }

}  // namespace guardians
