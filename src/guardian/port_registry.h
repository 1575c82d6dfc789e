// PortTypeRegistry: the analog of CLU's "library containing descriptions of
// guardian headers" (Section 3.2). Every port type in the system is
// registered here by its canonical hash; every send command is checked
// against the registered description before any bits go on the wire, giving
// the same guarantee as the paper's compile-time checking.
//
// The library is append-only: an entry, once registered, is never changed
// or removed, so the pointers it hands out stay valid for the registry's
// lifetime. Ports refer to their type's entry and senders check against it
// in place; no type is copied per port or per send.
#ifndef GUARDIANS_SRC_GUARDIAN_PORT_REGISTRY_H_
#define GUARDIANS_SRC_GUARDIAN_PORT_REGISTRY_H_

#include <mutex>
#include <unordered_map>

#include "src/common/result.h"
#include "src/value/port_type.h"

namespace guardians {

class PortTypeRegistry {
 public:
  // Returns the library's entry for `type`'s hash, adding a copy of `type`
  // if the hash is new. Idempotent for identical definitions (the same
  // header may be "compiled against" at many nodes; re-registration costs
  // one compare of the canonical texts). Conflicting redefinition of a
  // hash is internal corruption and fails.
  Result<const PortType*> Register(const PortType& type);

  // The registered type with this hash, or null when none is.
  const PortType* Lookup(uint64_t hash) const;
  bool Knows(uint64_t hash) const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  // Node-based: entries keep their address across rehashing.
  std::unordered_map<uint64_t, PortType> types_;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_GUARDIAN_PORT_REGISTRY_H_
