// Port types (Section 3.2): a port is described by the messages that can be
// sent to it. Each message signature pairs a command identifier with the
// argument types and, optionally, the reply commands the requester may
// expect (the `replies` clause — really a description of the extra replyto
// argument, singled out to clarify intent).
//
// Port types are the unit of message type checking: the type's hash is
// embedded in every PortName, and every send is validated against the
// declared type before transmission. This reproduces CLU's compile-time
// checking "in the context of a library containing descriptions of guardian
// headers", moved to send time.
#ifndef GUARDIANS_SRC_VALUE_PORT_TYPE_H_
#define GUARDIANS_SRC_VALUE_PORT_TYPE_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/value/value.h"

namespace guardians {

// The type of one message argument. For built-in types the tag suffices;
// for abstract types the system-wide type name is part of the signature.
struct ArgType {
  TypeTag tag = TypeTag::kAny;
  std::string abstract_name;  // set only when tag == kAbstract

  static ArgType Any() { return {TypeTag::kAny, ""}; }
  static ArgType Of(TypeTag t) { return {t, ""}; }
  static ArgType AbstractOf(std::string name) {
    return {TypeTag::kAbstract, std::move(name)};
  }

  // Does a concrete value satisfy this argument type?
  bool Matches(const Value& v) const;

  // Canonical rendering used in the type hash ("int", "abstract<complex>").
  std::string Canonical() const;

  friend bool operator==(const ArgType& a, const ArgType& b) {
    return a.tag == b.tag && a.abstract_name == b.abstract_name;
  }
};

// One `when C(arg types) [replies (r1, r2, ...)]` line of a port type.
struct MessageSig {
  std::string command;
  std::vector<ArgType> args;
  // Commands of the expected responses; empty means no response expected.
  // As in the paper, a non-empty replies list means the message carries an
  // implicit extra replyto-port argument.
  std::vector<std::string> replies;

  std::string Canonical() const;
};

// A full port type: a named set of message signatures. The implicit system
// message `failure(string)` is associated with *every* port type and need
// not (must not) be declared.
class PortType {
 public:
  PortType() = default;
  PortType(std::string name, std::vector<MessageSig> sigs);

  const std::string& name() const { return name_; }
  const std::vector<MessageSig>& signatures() const { return sigs_; }
  uint64_t hash() const { return hash_; }

  // The signature for a command, or null when the type does not declare
  // it; understands the implicit failure message. Points into this type
  // (or at FailureSig()), so it lives as long as the type does.
  const MessageSig* Find(std::string_view command) const;

  // Check a concrete (command, args, has_reply_port) against this type.
  // Returns kTypeError with a specific explanation on mismatch.
  Status Check(std::string_view command, const ValueList& args,
               bool has_reply_port) const;

  // Does `command` expect replies (i.e. may carry a replyto port)?
  bool ExpectsReply(std::string_view command) const;

  // The canonical text from which the hash is computed; stable across
  // processes, suitable for the guardian-header library. Rendered once, at
  // construction.
  const std::string& Canonical() const { return canonical_; }

 private:
  std::string name_;
  std::vector<MessageSig> sigs_;
  std::string canonical_;
  uint64_t hash_ = 0;
};

// The implicit system failure message's command identifier.
inline constexpr char kFailureCommand[] = "failure";

// Signature of the implicit failure message: failure(string).
const MessageSig& FailureSig();

}  // namespace guardians

#endif  // GUARDIANS_SRC_VALUE_PORT_TYPE_H_
