// Low-level binary codec: little-endian fixed-width integers, LEB128
// varints, zigzag signed varints, length-prefixed blobs. The decoder never
// trusts its input: every read is bounds-checked and returns a Result.
//
// The encoder grows its vector with bulk appends (PutBytes) and an
// up-front Reserve sized by the caller, so the hot encode path is one
// allocation instead of per-byte growth. The decoder is a non-owning view
// (pointer + length): it reads straight out of a message buffer slice
// without materializing an owning vector.
#ifndef GUARDIANS_SRC_WIRE_CODEC_H_
#define GUARDIANS_SRC_WIRE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/result.h"

namespace guardians {

class WireEncoder {
 public:
  // Pre-size for `n` further bytes; one allocation for a well-estimated
  // message instead of log(n) doublings of push_back.
  void Reserve(size_t n) { out_.reserve(out_.size() + n); }

  void PutU8(uint8_t v) { out_.push_back(v); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutVarU64(uint64_t v);
  void PutVarI64(int64_t v);  // zigzag
  void PutDouble(double v);
  // Raw bytes, no length prefix.
  void PutBytes(ConstByteSpan b);
  void PutString(std::string_view s);  // varint length + bytes
  void PutBlob(ConstByteSpan b);       // varint length + bytes

  const Bytes& bytes() const { return out_; }
  Bytes Take() { return std::move(out_); }
  // Empty the encoder, keeping its buffer for the next encoding.
  void Clear() { out_.clear(); }
  size_t size() const { return out_.size(); }

 private:
  Bytes out_;
};

class WireDecoder {
 public:
  // A non-owning view; the underlying storage must outlive the decoder.
  // Bytes and BufferSlice both convert implicitly to ConstByteSpan.
  explicit WireDecoder(ConstByteSpan in)
      : data_(in.data()), size_(in.size()) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<uint64_t> GetVarU64();
  Result<int64_t> GetVarI64();
  Result<double> GetDouble();
  // max_len guards length-prefixed reads against hostile lengths.
  Result<std::string> GetString(uint64_t max_len);
  Result<Bytes> GetBlob(uint64_t max_len);

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  Status Need(size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_WIRE_CODEC_H_
