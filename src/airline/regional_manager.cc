#include "src/airline/regional_manager.h"

#include "src/common/log.h"
#include "src/wire/value_codec.h"

namespace guardians {

ValueList RegionalConfig::ToArgs() const {
  return {Value::Int(static_cast<int>(organization)),
          Value::Int(flight_workers),
          Value::Int(flight_service_time.count()),
          Value::Bool(logging),
          Value::Int(checkpoint_every)};
}

Result<RegionalConfig> RegionalConfig::FromArgs(const ValueList& args) {
  if (args.size() != 5 || !args[0].is(TypeTag::kInt) ||
      !args[1].is(TypeTag::kInt) || !args[2].is(TypeTag::kInt) ||
      !args[3].is(TypeTag::kBool) || !args[4].is(TypeTag::kInt)) {
    return Status(Code::kInvalidArgument,
                  "regional manager takes 5 creation arguments");
  }
  RegionalConfig config;
  const int64_t org = args[0].int_value();
  if (org < 0 || org > 2) {
    return Status(Code::kInvalidArgument, "bad flight organization");
  }
  config.organization = static_cast<FlightOrganization>(org);
  config.flight_workers = static_cast<int>(args[1].int_value());
  config.flight_service_time = Micros(args[2].int_value());
  config.logging = args[3].bool_value();
  config.checkpoint_every = static_cast<int>(args[4].int_value());
  return config;
}

Status RegionalManager::Setup(const ValueList& args) {
  return InitCommon(args, /*recovering=*/false);
}

Status RegionalManager::Recover(const ValueList& args) {
  return InitCommon(args, /*recovering=*/true);
}

Status RegionalManager::InitCommon(const ValueList& args, bool recovering) {
  GUARDIANS_ASSIGN_OR_RETURN(config_, RegionalConfig::FromArgs(args));
  // The flight-guardian program must be runnable at this node for the
  // region to create flights.
  if (!runtime().KnowsGuardianType(kFlightTypeName)) {
    runtime().RegisterGuardianType(kFlightTypeName,
                                   MakeFactory<FlightGuardian>());
  }
  if (config_.logging) {
    dir_log_ = OpenLog("directory");
    if (recovering) {
      // Rebuild the flight map. The flight guardians themselves are
      // re-created by the node (they were created persistent), with the
      // same guardian ids — so the logged port names are still theirs.
      GUARDIANS_ASSIGN_OR_RETURN(auto records, dir_log_->RecoverValues());
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& record : records) {
        GUARDIANS_ASSIGN_OR_RETURN(Value flight, record.field("flight"));
        GUARDIANS_ASSIGN_OR_RETURN(Value port, record.field("port"));
        directory_[flight.int_value()] = port.port_value();
      }
    }
  }
  AddPort(RegionalPortType(), /*capacity=*/1024, /*provided=*/true);
  return OkStatus();
}

void RegionalManager::Main() {
  Port* requests = port(0);
  for (;;) {
    auto received = Receive(requests, Micros::max());
    if (!received.ok()) {
      return;
    }
    if (received->command == "add_flight") {
      HandleAddFlight(*received);
    } else if (received->command == "reserve" ||
               received->command == "cancel" ||
               received->command == "list_passengers" ||
               received->command == "archive" ||
               received->command == "flight_stats") {
      ForwardToFlight(*received);
    } else if (received->command == "region_stats") {
      if (!received->reply_to.IsNull()) {
        Value stats = Value::Record(
            {{"flights", Value::Int(static_cast<int64_t>(flight_count()))},
             {"node", Value::Int(node())}});
        Status st = Send(received->reply_to, "stats_info", {stats});
        (void)st;
      }
    }
  }
}

void RegionalManager::HandleAddFlight(const Received& request) {
  const int64_t flight_no = request.args[0].int_value();
  const int capacity = static_cast<int>(request.args[1].int_value());
  bool exists = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    exists = directory_.count(flight_no) > 0;
  }
  // Replies leave with mu_ released: a send may park this process (the
  // dedup journal's write latency), and no process parks holding a mutex.
  if (exists) {
    if (!request.reply_to.IsNull()) {
      Status st = Send(request.reply_to, "exists", {});
      (void)st;
    }
    return;
  }
  FlightConfig flight_config;
  flight_config.flight_no = flight_no;
  flight_config.capacity = capacity;
  flight_config.organization = config_.organization;
  flight_config.workers = config_.flight_workers;
  flight_config.service_time = config_.flight_service_time;
  flight_config.logging = config_.logging;
  flight_config.checkpoint_every = config_.checkpoint_every;

  auto created = runtime().Create<FlightGuardian>(
      kFlightTypeName, name() + "/flight-" + std::to_string(flight_no),
      flight_config.ToArgs(), /*persistent=*/IsPersistent());
  if (!created.ok()) {
    GLOG_ERROR << "region " << name() << " could not create flight "
               << flight_no << ": " << created.status();
    if (!request.reply_to.IsNull()) {
      Status st = Send(request.reply_to, "exists", {});
      (void)st;
    }
    return;
  }
  const PortName flight_port = (*created)->ProvidedPorts()[0];
  {
    std::lock_guard<std::mutex> lock(mu_);
    directory_[flight_no] = flight_port;
  }
  if (dir_log_ != nullptr) {
    Status st = dir_log_->AppendValue(
        Value::Record({{"flight", Value::Int(flight_no)},
                       {"port", Value::OfPort(flight_port)}}));
    (void)st;
  }
  if (!request.reply_to.IsNull()) {
    Status st = Send(request.reply_to, "added", {});
    (void)st;
  }
}

void RegionalManager::ForwardToFlight(const Received& request) {
  const int64_t flight_no = request.args[0].int_value();
  PortName flight_port;
  bool known = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = directory_.find(flight_no);
    if (it != directory_.end()) {
      flight_port = it->second;
      known = true;
    }
  }
  if (!known) {
    // `except when no_entry` of Figure 4.
    if (!request.reply_to.IsNull()) {
      Status st = Send(request.reply_to, "no_such_flight", {});
      (void)st;
    }
    return;
  }
  // Forward minus the flight_no argument, keeping the original replyto:
  // the response bypasses this manager entirely (Figure 4).
  ValueList forwarded(request.args.begin() + 1, request.args.end());
  Status st = Send(flight_port, request.command, std::move(forwarded),
                   request.reply_to);
  (void)st;
}

size_t RegionalManager::flight_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return directory_.size();
}

}  // namespace guardians
