#include "src/airline/flight_guardian.h"

#include <thread>

#include "src/common/bytes.h"
#include "src/common/log.h"
#include "src/wire/value_codec.h"

namespace guardians {

ValueList FlightConfig::ToArgs() const {
  return {Value::Int(flight_no),
          Value::Int(capacity),
          Value::Int(static_cast<int>(organization)),
          Value::Int(workers),
          Value::Int(service_time.count()),
          Value::Bool(logging),
          Value::Int(checkpoint_every)};
}

Result<FlightConfig> FlightConfig::FromArgs(const ValueList& args) {
  if (args.size() != 7) {
    return Status(Code::kInvalidArgument,
                  "flight guardian takes 7 creation arguments");
  }
  for (size_t i = 0; i < args.size(); ++i) {
    const TypeTag want = i == 5 ? TypeTag::kBool : TypeTag::kInt;
    if (!args[i].is(want)) {
      return Status(Code::kInvalidArgument,
                    "bad flight guardian creation argument " +
                        std::to_string(i));
    }
  }
  FlightConfig config;
  config.flight_no = args[0].int_value();
  config.capacity = static_cast<int>(args[1].int_value());
  const int64_t org = args[2].int_value();
  if (org < 0 || org > 2) {
    return Status(Code::kInvalidArgument, "bad flight organization");
  }
  config.organization = static_cast<FlightOrganization>(org);
  config.workers = static_cast<int>(args[3].int_value());
  config.service_time = Micros(args[4].int_value());
  config.logging = args[5].bool_value();
  config.checkpoint_every = static_cast<int>(args[6].int_value());
  return config;
}

Status FlightGuardian::Setup(const ValueList& args) {
  return InitCommon(args, /*recovering=*/false);
}

Status FlightGuardian::Recover(const ValueList& args) {
  return InitCommon(args, /*recovering=*/true);
}

Status FlightGuardian::InitCommon(const ValueList& args, bool recovering) {
  GUARDIANS_ASSIGN_OR_RETURN(config_, FlightConfig::FromArgs(args));
  db_.emplace(config_.flight_no, config_.capacity);
  // Only managers may list passengers or administer the flight
  // (Section 2.3's access control example); reserve/cancel are open to any
  // requester.
  acl_.Grant("manager", "list_passengers");
  acl_.Grant("manager", "archive");
  acl_.Grant("manager", "flight_stats");

  if (config_.logging) {
    log_ = OpenLog("flight");
    if (recovering) {
      // The recovery process: re-apply the snapshot and every logged
      // operation, in order. FlightDb is a deterministic state machine, so
      // replay reproduces the pre-crash state exactly.
      GUARDIANS_ASSIGN_OR_RETURN(WalRecovery recovery, log_->Recover());
      if (recovery.snapshot.has_value()) {
        GUARDIANS_ASSIGN_OR_RETURN(Value snapshot,
                                   DecodeValueFromBytes(*recovery.snapshot));
        GUARDIANS_ASSIGN_OR_RETURN(FlightDb db,
                                   FlightDb::FromSnapshot(snapshot));
        db_.emplace(std::move(db));
      }
      for (const auto& record : recovery.records) {
        GUARDIANS_ASSIGN_OR_RETURN(Value v, DecodeValueFromBytes(record));
        GUARDIANS_ASSIGN_OR_RETURN(Value op, v.field("op"));
        GUARDIANS_ASSIGN_OR_RETURN(Value passenger, v.field("p"));
        GUARDIANS_ASSIGN_OR_RETURN(Value date, v.field("d"));
        db_->Apply(op.string_value(), passenger.string_value(),
                   date.string_value());
      }
    }
  }

  if (config_.organization == FlightOrganization::kSerializer) {
    serializer_ = std::make_unique<Serializer>(
        static_cast<size_t>(config_.workers));
  }
  AddPort(FlightPortType(), /*capacity=*/1024, /*provided=*/true);
  return OkStatus();
}

void FlightGuardian::Main() { ServeLoop(); }

void FlightGuardian::ServeLoop() {
  Port* requests = port(0);
  for (;;) {
    auto received = Receive(requests, Micros::max());
    if (!received.ok()) {
      return;  // node down
    }
    switch (config_.organization) {
      case FlightOrganization::kOneAtATime:
        // Figure 1a: process p handles requests sequentially.
        HandleRequest(std::move(*received));
        break;
      case FlightOrganization::kSerializer: {
        // Figure 1b: p queues the request; a worker q_i performs it when
        // the flight data of interest (the date) are available.
        const uint64_t key =
            received->args.size() >= 2 &&
                    received->args[1].is(TypeTag::kString)
                ? Fnv1a64(received->args[1].string_value())
                : 0;
        serializer_->Enqueue(key,
                             [this, message = std::move(*received)]() mutable {
                               HandleRequest(std::move(message));
                             });
        break;
      }
      case FlightOrganization::kMonitorFork: {
        // Figure 1c: p forks q_i per request; the q_i synchronize through
        // the keyed monitor inside HandleRequest.
        Fork("req-" + std::to_string(forked_.fetch_add(1)),
             [this, message = std::move(*received)]() mutable {
               HandleRequest(std::move(message));
             });
        if (forked_.load() % 64 == 0) {
          ReapProcesses();
        }
        break;
      }
    }
  }
}

void FlightGuardian::HandleRequest(Received request) {
  if (request.command == "reserve") {
    DoReserve(request);
  } else if (request.command == "cancel") {
    DoCancel(request);
  } else if (request.command == "list_passengers") {
    DoListPassengers(request);
  } else if (request.command == "archive") {
    DoArchive(request);
  } else if (request.command == "flight_stats") {
    DoStats(request);
  }
  handled_.fetch_add(1);
}

void FlightGuardian::ReplySimple(const PortName& to, const char* command) {
  if (to.IsNull()) {
    return;
  }
  Status st = Send(to, command, {});
  (void)st;  // delivery is best-effort; the requester times out otherwise
}

void FlightGuardian::LogOp(const std::string& op,
                           const std::string& passenger,
                           const std::string& date) {
  if (log_ == nullptr) {
    return;
  }
  Status st = log_->AppendValue(Value::Record({{"op", Value::Str(op)},
                                               {"p", Value::Str(passenger)},
                                               {"d", Value::Str(date)}}));
  if (!st.ok()) {
    GLOG_ERROR << "flight " << config_.flight_no << " log failed: " << st;
  }
}

void FlightGuardian::MaybeCheckpoint() {
  // Checkpointing truncates the log; it is only safe when no operation can
  // sit between "logged" and "applied", i.e. in the sequential
  // organization, and only *after* the triggering operation has been
  // applied (the snapshot must cover everything the truncation discards).
  if (log_ == nullptr ||
      config_.organization != FlightOrganization::kOneAtATime ||
      config_.checkpoint_every <= 0 ||
      log_->appended() % static_cast<uint64_t>(config_.checkpoint_every) !=
          0) {
    return;
  }
  Bytes snapshot;
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    auto encoded = EncodeValueToBytes(db_->ToSnapshot());
    if (!encoded.ok()) {
      return;
    }
    snapshot = encoded.take();
  }
  Status cp = log_->Checkpoint(std::move(snapshot));
  (void)cp;
}

void FlightGuardian::DoReserve(const Received& request) {
  const std::string& passenger = request.args[0].string_value();
  const std::string& date = request.args[1].string_value();
  // Only one process manipulates the data for a particular date at a time.
  // (The serializer organization already guarantees this by keying the
  // queue on the date; the monitor organization uses the keyed monitor.)
  const bool use_monitor =
      config_.organization == FlightOrganization::kMonitorFork;
  if (use_monitor) {
    date_monitor_.StartRequest(date);
  }
  if (config_.service_time.count() > 0) {
    runtime().clock().SleepFor(config_.service_time);
  }
  // Permanence first (Section 2.2): the operation is logged before it is
  // applied and before the requester learns the result.
  LogOp("reserve", passenger, date);
  ReserveOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    outcome = db_->Reserve(passenger, date);
  }
  MaybeCheckpoint();
  if (use_monitor) {
    date_monitor_.EndRequest(date);
  }
  ReplySimple(request.reply_to, OutcomeName(outcome));
}

void FlightGuardian::DoCancel(const Received& request) {
  const std::string& passenger = request.args[0].string_value();
  const std::string& date = request.args[1].string_value();
  const bool use_monitor =
      config_.organization == FlightOrganization::kMonitorFork;
  if (use_monitor) {
    date_monitor_.StartRequest(date);
  }
  if (config_.service_time.count() > 0) {
    runtime().clock().SleepFor(config_.service_time);
  }
  LogOp("cancel", passenger, date);
  CancelOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    outcome = db_->Cancel(passenger, date);
  }
  MaybeCheckpoint();
  if (use_monitor) {
    date_monitor_.EndRequest(date);
  }
  ReplySimple(request.reply_to, OutcomeName(outcome));
}

void FlightGuardian::DoListPassengers(const Received& request) {
  const std::string& date = request.args[0].string_value();
  const std::string& principal = request.args[1].string_value();
  if (!acl_.Allows(principal, "list_passengers")) {
    ReplySimple(request.reply_to, "denied");
    return;
  }
  std::vector<Value> passengers;
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    for (const auto& passenger : db_->Passengers(date)) {
      passengers.push_back(Value::Str(passenger));
    }
  }
  if (!request.reply_to.IsNull()) {
    Status st = Send(request.reply_to, "info",
                     {Value::Array(std::move(passengers))});
    (void)st;
  }
}

void FlightGuardian::DoArchive(const Received& request) {
  const std::string& before_date = request.args[0].string_value();
  const std::string& principal = request.args[1].string_value();
  if (!acl_.Allows(principal, "archive")) {
    ReplySimple(request.reply_to, "denied");
    return;
  }
  // Archival is a state change: it must be logged like any other, or a
  // recovery would resurrect the archived dates.
  LogOp("archive", "", before_date);
  int removed;
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    removed = db_->Archive(before_date);
  }
  MaybeCheckpoint();
  if (!request.reply_to.IsNull()) {
    Status st = Send(request.reply_to, "archived", {Value::Int(removed)});
    (void)st;
  }
}

void FlightGuardian::DoStats(const Received& request) {
  const std::string& principal = request.args[0].string_value();
  if (!acl_.Allows(principal, "flight_stats")) {
    ReplySimple(request.reply_to, "denied");
    return;
  }
  FlightDb::Stats stats;
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    stats = db_->GetStats();
  }
  if (!request.reply_to.IsNull()) {
    Value record = Value::Record(
        {{"flight", Value::Int(config_.flight_no)},
         {"dates", Value::Int(stats.dates)},
         {"reservations", Value::Int(stats.reservations)},
         {"wait_listed", Value::Int(stats.wait_listed)},
         {"reserve_ops", Value::Int(static_cast<int64_t>(stats.reserve_ops))},
         {"cancel_ops", Value::Int(static_cast<int64_t>(stats.cancel_ops))}});
    Status st = Send(request.reply_to, "stats_info", {record});
    (void)st;
  }
}

FlightDb FlightGuardian::SnapshotDb() const {
  std::lock_guard<std::mutex> lock(db_mu_);
  return *db_;
}

}  // namespace guardians
