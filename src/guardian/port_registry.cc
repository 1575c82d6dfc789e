#include "src/guardian/port_registry.h"

namespace guardians {

Result<const PortType*> PortTypeRegistry::Register(const PortType& type) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = types_.find(type.hash());
  if (it == types_.end()) {
    return &types_.emplace(type.hash(), type).first->second;
  }
  if (it->second.Canonical() != type.Canonical()) {
    std::string why = "port type hash collision for '";
    why += type.name();
    why += '\'';
    return Status(Code::kInternal, std::move(why));
  }
  return &it->second;
}

const PortType* PortTypeRegistry::Lookup(uint64_t hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = types_.find(hash);
  return it != types_.end() ? &it->second : nullptr;
}

bool PortTypeRegistry::Knows(uint64_t hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  return types_.count(hash) > 0;
}

size_t PortTypeRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return types_.size();
}

}  // namespace guardians
