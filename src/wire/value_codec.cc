#include "src/wire/value_codec.h"

namespace guardians {
namespace {

Status EncodeValueDepth(const Value& v, const WireLimits& limits,
                        WireEncoder& enc, int depth) {
  if (depth > limits.max_depth) {
    return Status(Code::kEncodeError, "value nesting exceeds system depth");
  }
  enc.PutU8(static_cast<uint8_t>(v.tag()));
  switch (v.tag()) {
    case TypeTag::kNull:
      return OkStatus();
    case TypeTag::kBool:
      enc.PutU8(v.bool_value() ? 1 : 0);
      return OkStatus();
    case TypeTag::kInt:
      GUARDIANS_RETURN_IF_ERROR(limits.CheckInt(v.int_value()));
      enc.PutVarI64(v.int_value());
      return OkStatus();
    case TypeTag::kReal:
      enc.PutDouble(v.real_value());
      return OkStatus();
    case TypeTag::kString:
      if (v.string_value().size() > limits.max_blob_bytes) {
        return Status(Code::kEncodeError, "string exceeds system blob bound");
      }
      // Pre-size for the length prefix + body: one growth step instead of
      // doubling through a large payload.
      enc.Reserve(10 + v.string_value().size());
      enc.PutString(v.string_value());
      return OkStatus();
    case TypeTag::kBytes:
      if (v.bytes_value().size() > limits.max_blob_bytes) {
        return Status(Code::kEncodeError, "bytes exceed system blob bound");
      }
      enc.Reserve(10 + v.bytes_value().size());
      enc.PutBlob(v.bytes_value());
      return OkStatus();
    case TypeTag::kArray: {
      enc.PutVarU64(v.items().size());
      for (const auto& item : v.items()) {
        GUARDIANS_RETURN_IF_ERROR(
            EncodeValueDepth(item, limits, enc, depth + 1));
      }
      return OkStatus();
    }
    case TypeTag::kRecord: {
      enc.PutVarU64(v.fields().size());
      for (const auto& [name, field] : v.fields()) {
        enc.PutString(name);
        GUARDIANS_RETURN_IF_ERROR(
            EncodeValueDepth(field, limits, enc, depth + 1));
      }
      return OkStatus();
    }
    case TypeTag::kPortName:
      EncodePortName(v.port_value(), enc);
      return OkStatus();
    case TypeTag::kToken:
      EncodeToken(v.token_value(), enc);
      return OkStatus();
    case TypeTag::kAbstract: {
      // internal rep -> external rep via the object's encode operation.
      auto external = v.abstract_value()->Encode();
      if (!external.ok()) {
        return Status(Code::kEncodeError,
                      "encode of '" + v.abstract_value()->TypeName() +
                          "' failed: " + external.status().message());
      }
      enc.PutString(v.abstract_value()->TypeName());
      return EncodeValueDepth(*external, limits, enc, depth + 1);
    }
    case TypeTag::kAny:
      return Status(Code::kEncodeError, "'any' is not a transmissible value");
  }
  return Status(Code::kInternal, "unknown value tag");
}

Result<Value> DecodeValueDepth(WireDecoder& dec, const WireLimits& limits,
                               const AbstractDecodeFn& decode_abstract,
                               int depth) {
  if (depth > limits.max_depth) {
    return Status(Code::kCorrupt, "value nesting exceeds system depth");
  }
  GUARDIANS_ASSIGN_OR_RETURN(uint8_t raw_tag, dec.GetU8());
  if (raw_tag > static_cast<uint8_t>(TypeTag::kAbstract)) {
    return Status(Code::kCorrupt, "unknown value tag on wire");
  }
  switch (static_cast<TypeTag>(raw_tag)) {
    case TypeTag::kNull:
      return Value::Null();
    case TypeTag::kBool: {
      GUARDIANS_ASSIGN_OR_RETURN(uint8_t b, dec.GetU8());
      return Value::Bool(b != 0);
    }
    case TypeTag::kInt: {
      GUARDIANS_ASSIGN_OR_RETURN(int64_t i, dec.GetVarI64());
      GUARDIANS_RETURN_IF_ERROR(limits.CheckInt(i));
      return Value::Int(i);
    }
    case TypeTag::kReal: {
      GUARDIANS_ASSIGN_OR_RETURN(double d, dec.GetDouble());
      return Value::Real(d);
    }
    case TypeTag::kString: {
      GUARDIANS_ASSIGN_OR_RETURN(std::string s,
                                 dec.GetString(limits.max_blob_bytes));
      return Value::Str(std::move(s));
    }
    case TypeTag::kBytes: {
      GUARDIANS_ASSIGN_OR_RETURN(Bytes b, dec.GetBlob(limits.max_blob_bytes));
      return Value::Blob(std::move(b));
    }
    case TypeTag::kArray: {
      GUARDIANS_ASSIGN_OR_RETURN(uint64_t n, dec.GetVarU64());
      if (n > dec.remaining()) {
        return Status(Code::kCorrupt, "array count exceeds data");
      }
      std::vector<Value> items;
      items.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        GUARDIANS_ASSIGN_OR_RETURN(
            Value item, DecodeValueDepth(dec, limits, decode_abstract,
                                         depth + 1));
        items.push_back(std::move(item));
      }
      return Value::Array(std::move(items));
    }
    case TypeTag::kRecord: {
      GUARDIANS_ASSIGN_OR_RETURN(uint64_t n, dec.GetVarU64());
      if (n > dec.remaining()) {
        return Status(Code::kCorrupt, "record count exceeds data");
      }
      std::vector<Value::Field> fields;
      fields.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        GUARDIANS_ASSIGN_OR_RETURN(std::string name, dec.GetString(4096));
        GUARDIANS_ASSIGN_OR_RETURN(
            Value field, DecodeValueDepth(dec, limits, decode_abstract,
                                          depth + 1));
        fields.emplace_back(std::move(name), std::move(field));
      }
      return Value::Record(std::move(fields));
    }
    case TypeTag::kPortName: {
      GUARDIANS_ASSIGN_OR_RETURN(PortName p, DecodePortName(dec));
      return Value::OfPort(p);
    }
    case TypeTag::kToken: {
      GUARDIANS_ASSIGN_OR_RETURN(Token t, DecodeToken(dec));
      return Value::OfToken(t);
    }
    case TypeTag::kAbstract: {
      GUARDIANS_ASSIGN_OR_RETURN(std::string type_name, dec.GetString(4096));
      GUARDIANS_ASSIGN_OR_RETURN(
          Value external, DecodeValueDepth(dec, limits, decode_abstract,
                                           depth + 1));
      if (!decode_abstract) {
        return Status(Code::kDecodeError,
                      "no decode operation for abstract type '" + type_name +
                          "' at this node");
      }
      auto obj = decode_abstract(type_name, external);
      if (!obj.ok()) {
        return Status(Code::kDecodeError,
                      "decode of '" + type_name +
                          "' failed: " + obj.status().message());
      }
      return Value::Abstract(obj.take());
    }
    default:
      return Status(Code::kCorrupt, "unknown value tag on wire");
  }
}

}  // namespace

Status EncodeValue(const Value& v, const WireLimits& limits,
                   WireEncoder& enc, int depth) {
  return EncodeValueDepth(v, limits, enc, depth);
}

Result<Value> DecodeValue(WireDecoder& dec, const WireLimits& limits,
                          const AbstractDecodeFn& decode_abstract) {
  return DecodeValueDepth(dec, limits, decode_abstract, 0);
}

Result<Bytes> EncodeValueToBytes(const Value& v, const WireLimits& limits) {
  WireEncoder enc;
  GUARDIANS_RETURN_IF_ERROR(EncodeValue(v, limits, enc));
  return enc.Take();
}

Result<Value> DecodeValueFromBytes(ConstByteSpan bytes,
                                   const WireLimits& limits,
                                   const AbstractDecodeFn& decode_abstract) {
  WireDecoder dec(bytes);
  GUARDIANS_ASSIGN_OR_RETURN(Value v, DecodeValue(dec, limits,
                                                  decode_abstract));
  if (!dec.AtEnd()) {
    return Status(Code::kCorrupt, "trailing bytes after value");
  }
  return v;
}

void EncodePortName(const PortName& p, WireEncoder& enc) {
  enc.PutU32(p.node);
  enc.PutU64(p.guardian);
  enc.PutU32(p.port_index);
  enc.PutU64(p.type_hash);
}

Result<PortName> DecodePortName(WireDecoder& dec) {
  PortName p;
  GUARDIANS_ASSIGN_OR_RETURN(p.node, dec.GetU32());
  GUARDIANS_ASSIGN_OR_RETURN(p.guardian, dec.GetU64());
  GUARDIANS_ASSIGN_OR_RETURN(p.port_index, dec.GetU32());
  GUARDIANS_ASSIGN_OR_RETURN(p.type_hash, dec.GetU64());
  return p;
}

void EncodeToken(const Token& t, WireEncoder& enc) {
  enc.PutU64(t.owner);
  enc.PutU64(t.seal);
  enc.PutU64(t.handle);
}

Result<Token> DecodeToken(WireDecoder& dec) {
  Token t;
  GUARDIANS_ASSIGN_OR_RETURN(t.owner, dec.GetU64());
  GUARDIANS_ASSIGN_OR_RETURN(t.seal, dec.GetU64());
  GUARDIANS_ASSIGN_OR_RETURN(t.handle, dec.GetU64());
  return t;
}

}  // namespace guardians
