#include "src/value/port_type.h"

#include "src/common/bytes.h"

namespace guardians {

namespace {

// Canonical renderings, appended in place: a port type renders its whole
// text into one string, with no temporary per argument or signature.
void AppendCanonical(const ArgType& arg, std::string& out) {
  if (arg.tag == TypeTag::kAbstract) {
    out += "abstract<";
    out += arg.abstract_name;
    out += '>';
    return;
  }
  out += TypeTagName(arg.tag);
}

void AppendCanonical(const MessageSig& sig, std::string& out) {
  out += sig.command;
  out += '(';
  for (size_t i = 0; i < sig.args.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    AppendCanonical(sig.args[i], out);
  }
  out += ')';
  if (!sig.replies.empty()) {
    out += " replies(";
    for (size_t i = 0; i < sig.replies.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += sig.replies[i];
    }
    out += ')';
  }
}

}  // namespace

bool ArgType::Matches(const Value& v) const {
  if (tag == TypeTag::kAny) {
    return true;
  }
  if (v.tag() != tag) {
    return false;
  }
  if (tag == TypeTag::kAbstract) {
    return v.abstract_value()->TypeName() == abstract_name;
  }
  return true;
}

std::string ArgType::Canonical() const {
  std::string out;
  AppendCanonical(*this, out);
  return out;
}

std::string MessageSig::Canonical() const {
  std::string out;
  AppendCanonical(*this, out);
  return out;
}

PortType::PortType(std::string name, std::vector<MessageSig> sigs)
    : name_(std::move(name)), sigs_(std::move(sigs)) {
  canonical_ = "port ";
  canonical_ += name_;
  canonical_ += " {";
  for (const auto& sig : sigs_) {
    canonical_ += ' ';
    AppendCanonical(sig, canonical_);
    canonical_ += ';';
  }
  canonical_ += " }";
  hash_ = Fnv1a64(canonical_);
}

const MessageSig& FailureSig() {
  static const MessageSig kFailure{kFailureCommand,
                                   {ArgType::Of(TypeTag::kString)},
                                   {}};
  return kFailure;
}

const MessageSig* PortType::Find(std::string_view command) const {
  if (command == kFailureCommand) {
    return &FailureSig();
  }
  for (const auto& sig : sigs_) {
    if (sig.command == command) {
      return &sig;
    }
  }
  return nullptr;
}

Status PortType::Check(std::string_view command, const ValueList& args,
                       bool has_reply_port) const {
  const MessageSig* sig = Find(command);
  if (sig == nullptr) {
    std::string why = "port type '";
    why += name_;
    why += "' has no command '";
    why += command;
    why += '\'';
    return Status(Code::kTypeError, std::move(why));
  }
  if (args.size() != sig->args.size()) {
    std::string why = "command '";
    why += command;
    why += "' of port type '";
    why += name_;
    why += "' takes ";
    why += std::to_string(sig->args.size());
    why += " argument(s), got ";
    why += std::to_string(args.size());
    return Status(Code::kTypeError, std::move(why));
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (!sig->args[i].Matches(args[i])) {
      std::string why = "argument ";
      why += std::to_string(i);
      why += " of '";
      why += command;
      why += "': expected ";
      AppendCanonical(sig->args[i], why);
      why += ", got ";
      why += TypeTagName(args[i].tag());
      return Status(Code::kTypeError, std::move(why));
    }
  }
  if (has_reply_port && sig->replies.empty() && command != kFailureCommand) {
    std::string why = "command '";
    why += command;
    why += "' declares no replies but a replyto port was given";
    return Status(Code::kTypeError, std::move(why));
  }
  return OkStatus();
}

bool PortType::ExpectsReply(std::string_view command) const {
  const MessageSig* sig = Find(command);
  return sig != nullptr && !sig->replies.empty();
}

}  // namespace guardians
