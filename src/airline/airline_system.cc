#include "src/airline/airline_system.h"

#include "src/airline/workload.h"
#include "src/sendprims/remote_call.h"

namespace guardians {

Result<AirlineTopology> BuildAirline(System& system,
                                     const AirlineParams& params) {
  AirlineTopology topology;

  RegionalConfig regional_config;
  regional_config.organization = params.organization;
  regional_config.flight_workers = params.flight_workers;
  regional_config.flight_service_time = params.flight_service_time;
  regional_config.logging = params.logging;
  regional_config.checkpoint_every = params.checkpoint_every;

  for (int r = 0; r < params.regions; ++r) {
    NodeRuntime& node = system.AddNode("region-" + std::to_string(r));
    node.RegisterGuardianType(RegionalManager::kTypeName,
                              MakeFactory<RegionalManager>());
    node.RegisterGuardianType(RegionalManager::kFlightTypeName,
                              MakeFactory<FlightGuardian>());
    node.RegisterGuardianType(UserGuardian::kTypeName,
                              MakeFactory<UserGuardian>());
    node.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());

    GUARDIANS_ASSIGN_OR_RETURN(
        RegionalManager * regional,
        node.Create<RegionalManager>(RegionalManager::kTypeName,
                                     std::string("P").append(std::to_string(r)),
                                     regional_config.ToArgs(),
                                     /*persistent=*/params.logging));
    topology.region_nodes.push_back(node.id());
    topology.regionals.push_back(regional);
    topology.regional_ports.push_back(regional->ProvidedPorts()[0]);
  }

  // Every U_j guards the entire airline data base: it routes to all P_j.
  UserConfig user_config;
  user_config.regionals = topology.regional_ports;
  user_config.reserve_timeout = params.reserve_timeout;
  user_config.idle_timeout = params.idle_timeout;
  user_config.cancel_attempts = params.cancel_attempts;
  for (int r = 0; r < params.regions; ++r) {
    NodeRuntime& node = system.node(topology.region_nodes[r]);
    GUARDIANS_ASSIGN_OR_RETURN(
        UserGuardian * user,
        node.Create<UserGuardian>(UserGuardian::kTypeName,
                                  std::string("U").append(std::to_string(r)),
                                  user_config.ToArgs(),
                                  /*persistent=*/false));
    topology.users.push_back(user);
    topology.user_ports.push_back(user->ProvidedPorts()[0]);
  }

  // Register the flights through the message protocol, as an airline
  // administrator's program would.
  NodeRuntime& admin_node = system.node(topology.region_nodes[0]);
  GUARDIANS_ASSIGN_OR_RETURN(
      Guardian * admin,
      admin_node.CreateGuardian("shell", "airline-admin", {}, false));
  for (int r = 0; r < params.regions; ++r) {
    for (int f = 0; f < params.flights_per_region; ++f) {
      RemoteCallOptions options;
      options.timeout = Millis(2000);
      options.max_attempts = 3;  // add_flight is idempotent ("exists")
      GUARDIANS_ASSIGN_OR_RETURN(
          RemoteReply reply,
          RemoteCall(*admin, topology.regional_ports[r], "add_flight",
                     {Value::Int(FlightNo(r, f)), Value::Int(params.capacity)},
                     ReservationReplyType(), options));
      if (reply.command != "added" && reply.command != "exists") {
        return Status(Code::kInternal,
                      "add_flight failed: " + reply.command);
      }
    }
  }
  return topology;
}

}  // namespace guardians
