// Serialization of Values to and from wire bytes (Section 3.3/3.4 step 2:
// "the message is actually constructed (made into a string of bits with
// appropriate format)").
//
// Abstract values are encoded by first applying the object's own encode
// operation (internal rep -> external rep), then serializing the external
// rep tagged with the system-wide type name. Decoding an abstract value
// needs the *receiving node's* decode operation, supplied here as a hook so
// the wire layer stays independent of the transmittable-type registry.
#ifndef GUARDIANS_SRC_WIRE_VALUE_CODEC_H_
#define GUARDIANS_SRC_WIRE_VALUE_CODEC_H_

#include <functional>
#include <string>

#include "src/common/result.h"
#include "src/value/value.h"
#include "src/wire/codec.h"
#include "src/wire/limits.h"

namespace guardians {

// Rebuilds a node-local abstract object from (type name, external rep).
using AbstractDecodeFn =
    std::function<Result<AbstractPtr>(const std::string& type_name,
                                      const Value& external_rep)>;

// Encode one value. Applies WireLimits (integer bounds, blob sizes, depth).
// Returns kEncodeError / kOutOfRange / kNotTransmittable on failure; on
// failure nothing is sent (the send "terminates and raises"). `depth` is
// the nesting level `v` sits at when a caller writes the enclosing values
// itself (0 = top level); the depth bound counts from the top.
Status EncodeValue(const Value& v, const WireLimits& limits,
                   WireEncoder& enc, int depth = 0);

// Decode one value. `decode_abstract` may be null, in which case abstract
// values fail with kDecodeError (the type is not transmittable *here*).
Result<Value> DecodeValue(WireDecoder& dec, const WireLimits& limits,
                          const AbstractDecodeFn& decode_abstract);

// Whole-value convenience wrappers (used by the WAL for snapshots/records).
Result<Bytes> EncodeValueToBytes(const Value& v,
                                 const WireLimits& limits = DefaultLimits());
Result<Value> DecodeValueFromBytes(
    ConstByteSpan bytes, const WireLimits& limits = DefaultLimits(),
    const AbstractDecodeFn& decode_abstract = nullptr);

// Port names and tokens appear both inside values and in message headers.
void EncodePortName(const PortName& p, WireEncoder& enc);
Result<PortName> DecodePortName(WireDecoder& dec);
void EncodeToken(const Token& t, WireEncoder& enc);
Result<Token> DecodeToken(WireDecoder& dec);

}  // namespace guardians

#endif  // GUARDIANS_SRC_WIRE_VALUE_CODEC_H_
