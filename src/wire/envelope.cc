#include "src/wire/envelope.h"

#include <sstream>

namespace guardians {

namespace {
// Format marker so stray/corrupt buffers fail fast in the decoder.
constexpr uint8_t kEnvelopeMagic = 0xE7;
}  // namespace

std::string Envelope::ToString() const {
  std::ostringstream os;
  os << command << '(';
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << args[i].ToString();
  }
  os << ") to " << target.ToString();
  if (HasReply()) {
    os << " replyto " << reply_to.ToString();
  }
  return os.str();
}

Result<Bytes> EncodeEnvelope(const Envelope& env, const WireLimits& limits) {
  WireEncoder enc;
  // Fixed header fields total ~154 bytes (magic + ids + four 24-byte port
  // names + flow feedback), and each argument encodes within its
  // ApproxSize plus a tag and a length prefix: reserve the whole message
  // once, so it encodes into one allocation.
  size_t estimate = 170 + env.command.size();
  for (const auto& arg : env.args) {
    estimate += arg.ApproxSize() + 12;
  }
  enc.Reserve(estimate);
  enc.PutU8(kEnvelopeMagic);
  enc.PutU64(env.msg_id);
  enc.PutU64(env.trace_id);
  enc.PutU32(env.src_node);
  enc.PutU64(env.session_id);
  enc.PutU64(env.dedup_seq);
  EncodePortName(env.target, enc);
  EncodePortName(env.reply_to, enc);
  EncodePortName(env.ack_to, enc);
  EncodePortName(env.fc_port, enc);
  enc.PutU32(env.fc_depth);
  enc.PutU32(env.fc_capacity);
  enc.PutU8(env.fc_full ? 1 : 0);
  enc.PutVarU64(env.deadline_micros);
  enc.PutString(env.command);
  enc.PutVarU64(env.args.size());
  for (const auto& arg : env.args) {
    GUARDIANS_RETURN_IF_ERROR(EncodeValue(arg, limits, enc));
  }
  if (enc.size() > limits.max_message_bytes) {
    return Status(Code::kEncodeError,
                  "encoded message exceeds system message bound");
  }
  return enc.Take();
}

namespace {
Result<Envelope> DecodeHeaderInto(WireDecoder& dec) {
  GUARDIANS_ASSIGN_OR_RETURN(uint8_t magic, dec.GetU8());
  if (magic != kEnvelopeMagic) {
    return Status(Code::kCorrupt, "bad envelope magic");
  }
  Envelope env;
  GUARDIANS_ASSIGN_OR_RETURN(env.msg_id, dec.GetU64());
  GUARDIANS_ASSIGN_OR_RETURN(env.trace_id, dec.GetU64());
  GUARDIANS_ASSIGN_OR_RETURN(env.src_node, dec.GetU32());
  GUARDIANS_ASSIGN_OR_RETURN(env.session_id, dec.GetU64());
  GUARDIANS_ASSIGN_OR_RETURN(env.dedup_seq, dec.GetU64());
  GUARDIANS_ASSIGN_OR_RETURN(env.target, DecodePortName(dec));
  GUARDIANS_ASSIGN_OR_RETURN(env.reply_to, DecodePortName(dec));
  GUARDIANS_ASSIGN_OR_RETURN(env.ack_to, DecodePortName(dec));
  GUARDIANS_ASSIGN_OR_RETURN(env.fc_port, DecodePortName(dec));
  GUARDIANS_ASSIGN_OR_RETURN(env.fc_depth, dec.GetU32());
  GUARDIANS_ASSIGN_OR_RETURN(env.fc_capacity, dec.GetU32());
  GUARDIANS_ASSIGN_OR_RETURN(uint8_t fc_full, dec.GetU8());
  env.fc_full = fc_full != 0;
  GUARDIANS_ASSIGN_OR_RETURN(env.deadline_micros, dec.GetVarU64());
  GUARDIANS_ASSIGN_OR_RETURN(env.command, dec.GetString(4096));
  return env;
}
}  // namespace

Result<Envelope> DecodeEnvelopeHeader(ConstByteSpan bytes,
                                      const WireLimits& limits) {
  (void)limits;
  WireDecoder dec(bytes);
  return DecodeHeaderInto(dec);
}

Result<Envelope> DecodeEnvelope(ConstByteSpan bytes, const WireLimits& limits,
                                const AbstractDecodeFn& decode_abstract) {
  WireDecoder dec(bytes);
  GUARDIANS_ASSIGN_OR_RETURN(Envelope env, DecodeHeaderInto(dec));
  GUARDIANS_ASSIGN_OR_RETURN(uint64_t argc, dec.GetVarU64());
  if (argc > dec.remaining()) {
    return Status(Code::kCorrupt, "argument count exceeds data");
  }
  env.args.reserve(argc);
  for (uint64_t i = 0; i < argc; ++i) {
    GUARDIANS_ASSIGN_OR_RETURN(Value arg,
                               DecodeValue(dec, limits, decode_abstract));
    env.args.push_back(std::move(arg));
  }
  if (!dec.AtEnd()) {
    return Status(Code::kCorrupt, "trailing bytes after envelope");
  }
  return env;
}

}  // namespace guardians
