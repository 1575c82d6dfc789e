#include "src/guardian/dedup.h"

#include <algorithm>

#include "src/common/log.h"
#include "src/fault/plant.h"
#include "src/value/type_tag.h"

namespace guardians {

namespace {

// The journal's cells and streams. Each segment is a Wal whose record
// stream is "<name>.log"; the cell holds the active segment's index.
constexpr const char* kSegmentNames[2] = {"node/dedup.0", "node/dedup.1"};
constexpr char kActiveCell[] = "node/dedup.active";

void PutTag(WireEncoder& enc, TypeTag tag) {
  enc.PutU8(static_cast<uint8_t>(tag));
}

Status ExpectTag(WireDecoder& dec, TypeTag want) {
  GUARDIANS_ASSIGN_OR_RETURN(uint8_t tag, dec.GetU8());
  if (tag != static_cast<uint8_t>(want)) {
    return Status(Code::kCorrupt, "dedup record field has the wrong tag");
  }
  return OkStatus();
}

// A record's tag and field count, then its three ids as Int fields: all of
// a floor record, and the head of a reply's.
Status PutRecordIds(uint64_t fields, uint64_t session, uint64_t seq,
                    uint64_t high_water, WireEncoder& enc) {
  const WireLimits& limits = DefaultLimits();
  PutTag(enc, TypeTag::kRecord);
  enc.PutVarU64(fields);
  const std::pair<const char*, uint64_t> ids[] = {
      {"s", session}, {"q", seq}, {"hw", high_water}};
  for (const auto& [name, id] : ids) {
    enc.PutString(name);
    PutTag(enc, TypeTag::kInt);
    GUARDIANS_RETURN_IF_ERROR(limits.CheckInt(static_cast<int64_t>(id)));
    enc.PutVarI64(static_cast<int64_t>(id));
  }
  return OkStatus();
}

// An upper bound on the bytes EncodeDedupRecord writes for `reply`: field
// names, tags, ids, the port name and the length prefixes take at most 101
// bytes; each arg's encoding is within its ApproxSize plus a tag and a
// length.
size_t DedupRecordSizeBound(const DedupTable::CachedReply& reply) {
  size_t bound = 104 + reply.command.size();
  for (const Value& arg : reply.args) {
    bound += arg.ApproxSize() + 12;
  }
  return bound;
}

// A frame with its header reserved, ready for EncodeDedupRecord, which then
// finds the room it reserves already there.
WireEncoder FrameEncoder(size_t record_bound) {
  WireEncoder enc;
  enc.Reserve(Wal::kFrameHeader + record_bound);
  enc.PutU64(0);  // Wal::AppendFrame writes the header here
  return enc;
}

}  // namespace

// --- DedupTable --------------------------------------------------------------

DedupTable::Verdict DedupTable::Classify(uint64_t session, uint64_t seq,
                                         CachedReply* replay) const {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return Verdict::kFresh;
  }
  const Session& s = it->second;
  const bool below_floor = seq <= s.floor;
  if (!below_floor && s.seen.count(seq) == 0) {
    return Verdict::kFresh;
  }
  auto reply = replies_.find(Key{session, seq});
  if (reply == replies_.end()) {
    return below_floor ? Verdict::kBelowWindow : Verdict::kDuplicate;
  }
  if (replay != nullptr) {
    *replay = reply->second;
  }
  return Verdict::kReplay;
}

void DedupTable::MarkSeen(uint64_t session, uint64_t seq) {
  Session& s = sessions_[session];
  s.seen.insert(seq);
  if (seq > s.high_water) {
    s.high_water = seq;
  }
  // Slide the window: everything at or below the floor is implicitly seen,
  // so the set only holds the (window)-many most recent seqs.
  if (s.high_water > config_.window) {
    s.floor = std::max(s.floor, s.high_water - config_.window);
  }
  while (!s.seen.empty() && *s.seen.begin() <= s.floor) {
    s.seen.erase(s.seen.begin());
  }
  while (!s.acked.empty() && *s.acked.begin() <= s.floor) {
    s.acked.erase(s.acked.begin());
  }
}

void DedupTable::Unmark(uint64_t session, uint64_t seq) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return;
  }
  // The high-water mark stays where MarkSeen left it — at worst the floor
  // is conservatively high, which only drops (never re-executes) seqs.
  it->second.seen.erase(seq);
  it->second.acked.erase(seq);
}

void DedupTable::MarkAcked(uint64_t session, uint64_t seq) {
  auto it = sessions_.find(session);
  if (it == sessions_.end() || seq <= it->second.floor) {
    return;  // at or below the floor: Acked() already reports true
  }
  it->second.acked.insert(seq);
}

bool DedupTable::Acked(uint64_t session, uint64_t seq) const {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return false;
  }
  return seq <= it->second.floor || it->second.acked.count(seq) > 0;
}

void DedupTable::RestoreFloor(uint64_t session, uint64_t floor) {
  Session& s = sessions_[session];
  s.floor = std::max(s.floor, floor);
  s.high_water = std::max(s.high_water, floor);
  while (!s.seen.empty() && *s.seen.begin() <= s.floor) {
    s.seen.erase(s.seen.begin());
  }
  while (!s.acked.empty() && *s.acked.begin() <= s.floor) {
    s.acked.erase(s.acked.begin());
  }
}

void DedupTable::CacheReply(uint64_t session, uint64_t seq,
                            CachedReply reply) {
  MarkSeen(session, seq);
  InsertReply(session, seq, std::move(reply));
}

void DedupTable::CacheAdmittedReply(uint64_t session, uint64_t seq,
                                    uint64_t epoch, CachedReply reply) {
  if (epoch != forget_epoch_) {
    MarkSeen(session, seq);
  }
  InsertReply(session, seq, std::move(reply));
}

void DedupTable::InsertReply(uint64_t session, uint64_t seq,
                             CachedReply reply) {
  const Key key{session, seq};
  auto [it, inserted] = replies_.emplace(key, std::move(reply));
  if (!inserted) {
    return;  // already cached (journal replay after recovery)
  }
  reply_fifo_.push_back(key);
  while (replies_.size() > config_.reply_cache_capacity) {
    replies_.erase(reply_fifo_.front());
    reply_fifo_.pop_front();
  }
}

uint64_t DedupTable::HighWater(uint64_t session) const {
  auto it = sessions_.find(session);
  return it != sessions_.end() ? it->second.high_water : 0;
}

std::vector<uint64_t> DedupTable::SessionsWithCachedReplies() const {
  std::vector<uint64_t> sessions;
  for (const Key& key : reply_fifo_) {
    sessions.push_back(key.first);
  }
  std::sort(sessions.begin(), sessions.end());
  sessions.erase(std::unique(sessions.begin(), sessions.end()),
                 sessions.end());
  return sessions;
}

void DedupTable::Touch(uint64_t session, TimePoint now) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return;  // only stamp sessions some Mark/Cache call created
  }
  if (now > it->second.last_touch) {
    it->second.last_touch = now;
  }
}

size_t DedupTable::ExpireIdleSessions(TimePoint now, Micros idle) {
  size_t dropped = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    const TimePoint stamp = it->second.last_touch;
    // Never-stamped sessions (journal recovery) age from epoch zero and
    // are collectable like any other; future stamps clamp to zero age.
    const Micros age = now <= stamp
                           ? Micros(0)
                           : std::chrono::duration_cast<Micros>(now - stamp);
    if (age < idle) {
      ++it;
      continue;
    }
    const uint64_t session = it->first;
    it = sessions_.erase(it);
    ++dropped;
    ++forget_epoch_;
    for (auto r = reply_fifo_.begin(); r != reply_fifo_.end();) {
      if (r->first == session) {
        replies_.erase(*r);
        r = reply_fifo_.erase(r);
      } else {
        ++r;
      }
    }
  }
  return dropped;
}

void DedupTable::Clear() {
  ++forget_epoch_;
  sessions_.clear();
  replies_.clear();
  reply_fifo_.clear();
}

// --- Records -----------------------------------------------------------------

Status EncodeDedupRecord(uint64_t session, uint64_t seq, uint64_t high_water,
                         const DedupTable::CachedReply& reply,
                         WireEncoder& enc) {
  // The Wal's limits, as AppendValue would apply them.
  const WireLimits& limits = DefaultLimits();
  if (reply.command.size() > limits.max_blob_bytes) {
    return Status(Code::kEncodeError, "string exceeds system blob bound");
  }
  enc.Reserve(DedupRecordSizeBound(reply));
  GUARDIANS_RETURN_IF_ERROR(
      PutRecordIds(/*fields=*/6, session, seq, high_water, enc));
  enc.PutString("to");
  PutTag(enc, TypeTag::kPortName);
  EncodePortName(reply.reply_to, enc);
  enc.PutString("cmd");
  PutTag(enc, TypeTag::kString);
  enc.PutString(reply.command);
  enc.PutString("args");
  PutTag(enc, TypeTag::kArray);
  enc.PutVarU64(reply.args.size());
  for (const Value& arg : reply.args) {
    // record (depth 0) > "args" array (depth 1) > each arg (depth 2).
    GUARDIANS_RETURN_IF_ERROR(EncodeValue(arg, limits, enc, /*depth=*/2));
  }
  return OkStatus();
}

Status EncodeDedupFloor(uint64_t session, uint64_t high_water,
                        WireEncoder& enc) {
  return PutRecordIds(/*fields=*/3, session, /*seq=*/0, high_water, enc);
}

Result<DedupRecordHeader> ReadDedupRecordHeader(ConstByteSpan record) {
  WireDecoder dec(record);
  GUARDIANS_RETURN_IF_ERROR(ExpectTag(dec, TypeTag::kRecord));
  GUARDIANS_ASSIGN_OR_RETURN(uint64_t fields, dec.GetVarU64());
  DedupRecordHeader h;
  bool have_session = false;
  bool have_seq = false;
  bool have_to = false;
  bool have_cmd = false;
  for (uint64_t i = 0; i < fields; ++i) {
    Result<std::string> field = dec.GetString(4096);
    if (!field.ok()) {
      return field.status();
    }
    const std::string& name = *field;
    if (name == "s" || name == "q" || name == "hw") {
      GUARDIANS_RETURN_IF_ERROR(ExpectTag(dec, TypeTag::kInt));
      GUARDIANS_ASSIGN_OR_RETURN(int64_t v, dec.GetVarI64());
      const uint64_t id = static_cast<uint64_t>(v);
      if (name == "s") {
        h.session = id;
        have_session = true;
      } else if (name == "q") {
        h.seq = id;
        have_seq = true;
      } else {
        h.high_water = id;
      }
    } else if (name == "to") {
      GUARDIANS_RETURN_IF_ERROR(ExpectTag(dec, TypeTag::kPortName));
      GUARDIANS_ASSIGN_OR_RETURN(h.reply_to, DecodePortName(dec));
      have_to = true;
    } else if (name == "cmd") {
      GUARDIANS_RETURN_IF_ERROR(ExpectTag(dec, TypeTag::kString));
      GUARDIANS_ASSIGN_OR_RETURN(h.command,
                                 dec.GetString(DefaultLimits().max_blob_bytes));
      have_cmd = true;
    } else if (name == "args") {
      h.args_offset = record.size() - dec.remaining();
      GUARDIANS_RETURN_IF_ERROR(ExpectTag(dec, TypeTag::kArray));
      h.has_reply = have_to && have_cmd;
      break;  // the args come last; they are decoded only for a replay
    } else {
      return Status(Code::kCorrupt, "dedup record has an unknown field");
    }
  }
  if (!have_session || !have_seq) {
    return Status(Code::kCorrupt, "dedup record lacks its session or seq");
  }
  return h;
}

// --- DedupLayer --------------------------------------------------------------

DedupLayer::DedupLayer(StableStore* store, const ClockSource* base_clock,
                       const ClockSource* node_clock, Micros session_idle,
                       Counters counters)
    : store_(store), base_clock_(base_clock), node_clock_(node_clock),
      session_idle_(session_idle), counters_(counters),
      segments_{Wal(store, kSegmentNames[0]), Wal(store, kSegmentNames[1])} {}

DedupLayer::Gate::Gate(DedupLayer& layer)
    : layer_(layer), lock_(layer.mu_), now_(layer.base_clock_->Now()) {
  const Micros idle = layer_.session_idle_;
  if (idle.count() <= 0) {
    return;
  }
  // Idle-session GC, amortized like the reassembler sweep: at most once
  // per idle/4. The sweep measures against the same monotonic clock the
  // stamps were written with — unless the planted local-clock bug is
  // armed, in which case it consults the node's skewable view and a
  // forward skew step >= idle expires sessions that are in active use.
  const TimePoint sweep_now = PlantArmed(Plant::kDedupSweepOnLocalClock)
                                  ? layer_.node_clock_->Now()
                                  : now_;
  if (sweep_now - layer_.last_sweep_ >= idle / 4 ||
      sweep_now < layer_.last_sweep_) {
    const size_t expired = layer_.table_.ExpireIdleSessions(sweep_now, idle);
    layer_.last_sweep_ = sweep_now;
    if (expired > 0) {
      layer_.counters_.sessions_expired->Inc(expired);
    }
  }
}

DedupTable::Verdict DedupLayer::Gate::Classify(
    const Envelope& env, DedupTable::CachedReply* replay, bool* acked) {
  DedupTable& table = layer_.table_;
  const DedupTable::Verdict verdict =
      table.Classify(env.session_id, env.dedup_seq, replay);
  table.Touch(env.session_id, now_);
  if (verdict != DedupTable::Verdict::kFresh) {
    *acked = table.Acked(env.session_id, env.dedup_seq);
  }
  return verdict;
}

void DedupLayer::Gate::Admit(const Envelope& env) {
  layer_.table_.MarkSeen(env.session_id, env.dedup_seq);
  layer_.table_.Touch(env.session_id, now_);
  if (env.HasReply()) {
    layer_.pending_[env.reply_to] = PendingReply{
        env.session_id, env.dedup_seq, layer_.table_.forget_epoch()};
  }
}

void DedupLayer::MarkAcked(uint64_t session, uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  table_.MarkAcked(session, seq);
}

void DedupLayer::RollBack(uint64_t session, uint64_t seq,
                          const PortName& reply_to) {
  std::lock_guard<std::mutex> lock(mu_);
  table_.Unmark(session, seq);
  if (reply_to.IsNull()) {
    return;
  }
  auto it = pending_.find(reply_to);
  if (it != pending_.end() && it->second.session == session &&
      it->second.seq == seq) {
    pending_.erase(it);
  }
}

void DedupLayer::JournalReply(Envelope& env) {
  PendingReply pending;
  uint64_t high_water = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(env.target);
    if (it == pending_.end()) {
      return;
    }
    pending = it->second;
    pending_.erase(it);
    high_water = std::max(table_.HighWater(pending.session), pending.seq);
  }
  // One record per replied-to operation: identity, the session's receive
  // high-water mark (recovery's conservative floor), and the reply itself,
  // encoded once, straight into its frame. The frame goes to the device
  // and then becomes the cache entry; the args live on only in it.
  DedupTable::CachedReply reply{std::move(env.command), std::move(env.args),
                                env.target};
  WireEncoder frame = FrameEncoder(DedupRecordSizeBound(reply));
  Status st = EncodeDedupRecord(pending.session, pending.seq, high_water,
                                reply, frame);
  Bytes bytes;
  if (st.ok()) {
    bytes = frame.Take();
  }
  const bool journal = st.ok() && !PlantArmed(Plant::kSkipDedupJournal);
  Micros owed{0};
  {
    std::lock_guard<std::mutex> log_lock(log_mu_);
    if (journal) {
      st = segments_[active_].AppendFrame(bytes, &owed);
      if (st.ok()) {
        counters_.journaled->Inc();
        ++active_replies_;
      }
    }
    if (!st.ok()) {
      GLOG_ERROR << "failed to journal reply for dedup seq " << pending.seq
                 << ": " << st;
    }
    if (!bytes.empty()) {
      // The record holds the args now. An entry whose append failed keeps
      // its record too: it still answers a duplicate until a crash.
      reply.args.clear();
      const size_t size = bytes.size();
      reply.record = BufferSlice(Buffer::Adopt(std::move(bytes)),
                                 Wal::kFrameHeader, size - Wal::kFrameHeader);
    }
    // Cache while still holding the log lock, so the cache's FIFO order is
    // the journal's append order: a rotation then truncates only records
    // the FIFO has already evicted.
    {
      std::lock_guard<std::mutex> lock(mu_);
      table_.CacheAdmittedReply(pending.session, pending.seq, pending.epoch,
                                std::move(reply));
    }
    if (active_replies_ >= kSegmentReplies) {
      RotateLocked(&owed);
    }
  }
  store_->WaitOwed(owed);
}

void DedupLayer::RotateLocked(Micros* owed) {
  std::vector<std::pair<uint64_t, uint64_t>> floors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t session : table_.SessionsWithCachedReplies()) {
      floors.emplace_back(session, table_.HighWater(session));
    }
  }
  // The floors go into the full segment first: the records they stand for
  // may sit in the segment about to be truncated.
  Wal& full = segments_[active_];
  for (const auto& [session, high_water] : floors) {
    WireEncoder frame = FrameEncoder(32);
    Status st = EncodeDedupFloor(session, high_water, frame);
    Bytes bytes = frame.Take();
    if (st.ok()) {
      st = full.AppendFrame(bytes, owed);
    }
    if (!st.ok()) {
      GLOG_ERROR << "dedup journal rotation: floor append failed: " << st;
      return;
    }
  }
  const int next = 1 - active_;
  Status truncated = segments_[next].Truncate(0);
  if (!truncated.ok() && truncated.code() != Code::kNotFound) {
    GLOG_ERROR << "dedup journal rotation: truncate failed: " << truncated;
    return;  // kNotFound: that segment was never written
  }
  Status named =
      store_->PutCell(kActiveCell, Bytes{static_cast<uint8_t>(next)});
  if (!named.ok()) {
    GLOG_ERROR << "dedup journal rotation: active cell failed: " << named;
    return;
  }
  active_ = next;
  active_replies_ = 0;
  counters_.rotations->Inc();
}

Result<ValueList> DedupLayer::ReplayArgs(
    const DedupTable::CachedReply& reply,
    const AbstractDecodeFn& decode_abstract) {
  if (reply.record.empty()) {
    return reply.args;
  }
  GUARDIANS_ASSIGN_OR_RETURN(DedupRecordHeader header,
                             ReadDedupRecordHeader(reply.record));
  if (!header.has_reply) {
    return Status(Code::kCorrupt, "dedup record holds no reply");
  }
  WireDecoder dec(reply.record.span().subspan(header.args_offset));
  GUARDIANS_RETURN_IF_ERROR(ExpectTag(dec, TypeTag::kArray));
  GUARDIANS_ASSIGN_OR_RETURN(uint64_t n, dec.GetVarU64());
  if (n > dec.remaining()) {
    return Status(Code::kCorrupt, "dedup record args count exceeds data");
  }
  ValueList args;
  args.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    GUARDIANS_ASSIGN_OR_RETURN(
        Value arg, DecodeValue(dec, DefaultLimits(), decode_abstract));
    args.push_back(std::move(arg));
  }
  return args;
}

void DedupLayer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  table_.Clear();
  pending_.clear();
}

Status DedupLayer::Recover() {
  std::lock_guard<std::mutex> log_lock(log_mu_);
  auto cell = store_->GetCell(kActiveCell);
  active_ = cell.ok() && !cell->empty() ? ((*cell)[0] & 1) : 0;
  active_replies_ = 0;
  std::lock_guard<std::mutex> lock(mu_);
  table_.Clear();
  pending_.clear();
  // The older segment first, then the newer: the cache's FIFO keeps the
  // newest replies, as it did before the crash.
  for (const int segment : {1 - active_, active_}) {
    Wal& wal = segments_[segment];
    GUARDIANS_ASSIGN_OR_RETURN(WalRecovery recovery, wal.ReadLog());
    if (recovery.torn_tail) {
      // A crash tore the last append. Cut it off before anything is
      // appended after it, or the next recovery would find a bad frame
      // mid-segment.
      GUARDIANS_RETURN_IF_ERROR(wal.Truncate(recovery.log_bytes));
    }
    for (Bytes& record : recovery.records) {
      GUARDIANS_ASSIGN_OR_RETURN(DedupRecordHeader header,
                                 ReadDedupRecordHeader(record));
      table_.RestoreFloor(header.session, header.high_water);
      if (header.seq == 0 || !header.has_reply) {
        continue;
      }
      if (segment == active_) {
        ++active_replies_;
      }
      table_.CacheReply(header.session, header.seq,
                        DedupTable::CachedReply{
                            std::move(header.command), {}, header.reply_to,
                            BufferSlice(std::move(record))});
    }
  }
  return OkStatus();
}

}  // namespace guardians
