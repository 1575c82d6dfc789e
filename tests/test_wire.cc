// Unit and property tests for the low-level wire layer: varints, CRC32,
// value serialization, system-wide limits, packets and reassembly.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/common/rng.h"
#include "src/store/stable_store.h"
#include "src/store/wal.h"
#include "src/transmit/complex.h"
#include "src/transmit/registry.h"
#include "src/wire/codec.h"
#include "src/wire/crc32.h"
#include "src/wire/crc32_kernels.h"
#include "src/wire/envelope.h"
#include "src/wire/packet.h"
#include "src/wire/value_codec.h"

namespace guardians {
namespace {

// --- codec ------------------------------------------------------------------

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, Unsigned) {
  WireEncoder enc;
  enc.PutVarU64(GetParam());
  WireDecoder dec(enc.bytes());
  auto out = dec.GetVarU64();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, GetParam());
  EXPECT_TRUE(dec.AtEnd());
}

TEST_P(VarintRoundTrip, SignedZigZagBothSigns) {
  // Negate in unsigned arithmetic: -INT64_MIN overflows a signed negation.
  for (int64_t v : {static_cast<int64_t>(GetParam()),
                    static_cast<int64_t>(0 - GetParam())}) {
    WireEncoder enc;
    enc.PutVarI64(v);
    WireDecoder dec(enc.bytes());
    auto out = dec.GetVarI64();
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                      (1ull << 23) - 1, 1ull << 23, (1ull << 31),
                      (1ull << 63), ~0ull >> 1));

TEST(CodecTest, FixedWidthRoundTrip) {
  WireEncoder enc;
  enc.PutU8(0xAB);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutDouble(-2.5);
  WireDecoder dec(enc.bytes());
  EXPECT_EQ(*dec.GetU8(), 0xAB);
  EXPECT_EQ(*dec.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(*dec.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(*dec.GetDouble(), -2.5);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CodecTest, StringAndBlob) {
  WireEncoder enc;
  enc.PutString("héllo");
  enc.PutBlob(Bytes{0, 255, 7});
  WireDecoder dec(enc.bytes());
  EXPECT_EQ(*dec.GetString(100), "héllo");
  EXPECT_EQ(*dec.GetBlob(100), (Bytes{0, 255, 7}));
}

TEST(CodecTest, TruncatedInputFailsCleanly) {
  WireEncoder enc;
  enc.PutU64(42);
  Bytes cut(enc.bytes().begin(), enc.bytes().begin() + 3);
  WireDecoder dec(cut);
  EXPECT_EQ(dec.GetU64().status().code(), Code::kCorrupt);
}

TEST(CodecTest, LengthLimitEnforced) {
  WireEncoder enc;
  enc.PutString("abcdefgh");
  WireDecoder dec(enc.bytes());
  EXPECT_EQ(dec.GetString(4).status().code(), Code::kCorrupt);
}

TEST(CodecTest, HostileLengthDoesNotOverread) {
  // A varint length far beyond the buffer.
  WireEncoder enc;
  enc.PutVarU64(1ull << 40);
  WireDecoder dec(enc.bytes());
  EXPECT_FALSE(dec.GetBlob(1ull << 41).ok());
}

TEST(CodecTest, VarintOverflowRejected) {
  Bytes evil(11, 0xFF);
  WireDecoder dec(evil);
  EXPECT_EQ(dec.GetVarU64().status().code(), Code::kCorrupt);
}

// --- crc32 -----------------------------------------------------------------

TEST(Crc32Test, DetectsSingleBitFlip) {
  Bytes data = ToBytes("permanence of effect");
  const uint32_t clean = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x10;
    EXPECT_NE(Crc32(data), clean) << "flip at " << i;
    data[i] ^= 0x10;
  }
}

// The definition of the checksum: one byte at a time, one bit at a time, no
// tables. Every kernel must agree with it on every input.
uint32_t BytewiseStep(uint32_t crc, uint8_t byte) {
  crc ^= byte;
  for (int k = 0; k < 8; ++k) {
    crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc;
}

uint32_t BytewiseCrc32(const uint8_t* p, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = BytewiseStep(crc, p[i]);
  }
  return crc ^ 0xFFFFFFFFu;
}

Bytes RandomBytes(uint64_t seed, size_t size) {
  Rng rng(seed);
  Bytes out(size);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.NextBelow(256));
  }
  return out;
}

// Crc32 runs one kernel per host, so each kernel is also tested on its own:
// the checks below run against Crc32 itself and against every kernel the
// host can execute.
struct Crc32Kernel {
  const char* name;
  uint32_t (*fn)(const void*, size_t);
  bool (*supported)();
};

const Crc32Kernel kCrc32Kernels[] = {
    {"dispatch", &Crc32, [] { return true; }},
    {"portable", &crc32_internal::PortableCrc32, [] { return true; }},
    {"folding", &crc32_internal::FoldingCrc32,
     &crc32_internal::FoldingSupported},
};

class Crc32KernelTest : public ::testing::TestWithParam<Crc32Kernel> {
 protected:
  void SetUp() override {
    if (!GetParam().supported()) {
      GTEST_SKIP() << GetParam().name << " kernel: not supported on this CPU";
    }
  }
  uint32_t Crc(const void* data, size_t size) const {
    return GetParam().fn(data, size);
  }
  uint32_t Crc(const Bytes& data) const {
    return Crc(data.data(), data.size());
  }
};

TEST_P(Crc32KernelTest, KnownVectors) {
  // IEEE 802.3 test vector: "123456789" -> 0xCBF43926.
  const std::string nine = "123456789";
  EXPECT_EQ(Crc(nine.data(), nine.size()), 0xCBF43926u);
  EXPECT_EQ(Crc(nullptr, 0), 0u);
  // 64 and 1,024 bytes are folded in full by the folding kernel.
  EXPECT_EQ(Crc(Bytes(64, 0)), 0x758D6336u);
  EXPECT_EQ(Crc(Bytes(1024, 0xFF)), 0xB83AFFF4u);
}

TEST_P(Crc32KernelTest, MatchesBytewiseReferenceAtEveryShortLengthAndOffset) {
  // Lengths 0-64 cover the tail-only path, exactly one and several 16-byte
  // blocks, and every tail length; offsets 0-15 start the blocks unaligned.
  const Bytes buf = RandomBytes(1, 64 + 16);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t size = 0; size <= 64; ++size) {
      EXPECT_EQ(Crc(buf.data() + offset, size),
                BytewiseCrc32(buf.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
}

TEST_P(Crc32KernelTest, MatchesBytewiseReferenceAtEveryPacketLengthAndOffset) {
  // Every length from 64 bytes to just past a full 1,024-byte packet
  // payload, at every start offset 0-63: the folding kernel's 64-byte
  // stride, its 16-byte blocks and its tail all start unaligned.
  constexpr size_t kMaxSize = 1100;
  const Bytes buf = RandomBytes(5, kMaxSize + 64);
  for (size_t offset = 0; offset < 64; ++offset) {
    const uint8_t* start = buf.data() + offset;
    uint32_t reference = 0xFFFFFFFFu;
    for (size_t size = 1; size <= kMaxSize; ++size) {
      reference = BytewiseStep(reference, start[size - 1]);
      if (size >= 64) {
        ASSERT_EQ(Crc(start, size), reference ^ 0xFFFFFFFFu)
            << "offset " << offset << " size " << size;
      }
    }
  }
}

TEST_P(Crc32KernelTest, MatchesBytewiseReferenceAroundEveryBlockBoundary) {
  // 16k-1, 16k and 16k+1 for every k up to a 9 KiB message (an 8 KiB blob
  // plus envelope), each at a start offset cycling through 0-15.
  constexpr size_t kMaxBlocks = 9 * 1024 / 16;
  const Bytes buf = RandomBytes(2, kMaxBlocks * 16 + 1 + 15);
  for (size_t k = 1; k <= kMaxBlocks; ++k) {
    const uint8_t* start = buf.data() + k % 16;
    for (size_t size : {16 * k - 1, 16 * k, 16 * k + 1}) {
      ASSERT_EQ(Crc(start, size), BytewiseCrc32(start, size))
          << "offset " << k % 16 << " size " << size;
    }
  }
}

TEST_P(Crc32KernelTest, DetectsBurstErrorsOfUpTo32BitsIn8KiB) {
  // A CRC of degree 32 detects every error burst of length <= 32. For each
  // burst length, bursts start at every bit of the first and last 64 bits
  // and at a stride through the middle; the interior bits are random, both
  // ends always flipped.
  constexpr size_t kBits = 8 * 1024 * 8;
  Bytes data = RandomBytes(3, kBits / 8);
  const uint32_t clean = Crc(data);
  std::vector<size_t> starts;
  for (size_t bit = 0; bit < kBits; ++bit) {
    if (bit < 64 || bit >= kBits - 64 || bit % 509 == 0) {
      starts.push_back(bit);
    }
  }
  Rng rng(4);
  for (size_t len = 1; len <= 32; ++len) {
    for (size_t start : starts) {
      if (start + len > kBits) {
        break;
      }
      std::vector<size_t> flipped;
      for (size_t i = 0; i < len; ++i) {
        if (i == 0 || i + 1 == len || rng.NextBool(0.5)) {
          flipped.push_back(start + i);
        }
      }
      auto flip = [&] {
        for (size_t bit : flipped) {
          data[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        }
      };
      flip();
      EXPECT_NE(Crc(data), clean)
          << "burst of " << len << " bits at bit " << start;
      flip();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Crc32KernelTest, ::testing::ValuesIn(kCrc32Kernels),
    [](const ::testing::TestParamInfo<Crc32Kernel>& kernel) {
      return std::string(kernel.param.name);
    });

TEST(Crc32Test, SealedPacketsAndWalFramesKeepTheirBytes) {
  // Constants taken from the slicing-by-16 build, before the folding
  // kernel existed: whichever kernel this host runs, the checksums on the
  // wire and in the log are the same bits.
  const std::vector<Packet> packets =
      Fragment(RandomBytes(5, 3000), /*msg_id=*/1, /*src=*/1, /*dst=*/2,
               /*max_payload=*/1024, /*trace_id=*/0, /*src_session=*/0);
  ASSERT_EQ(packets.size(), 3u);
  EXPECT_EQ(packets[0].crc, 0x0C24E685u);
  EXPECT_EQ(packets[1].crc, 0xB5D8A68Eu);
  EXPECT_EQ(packets[2].crc, 0x4FC81C39u);  // 952 bytes: folded + 8-byte tail

  StableStore store;
  Wal wal(&store, "golden");
  const Bytes payload = RandomBytes(6, 200);
  ASSERT_TRUE(wal.Append(payload).ok());
  const Bytes frame = store.Read("golden.log");
  const Bytes header = {0xC8, 0x00, 0x00, 0x00,   // length 200
                        0x29, 0x4B, 0x4C, 0x27};  // crc32(payload)
  ASSERT_EQ(frame.size(), header.size() + payload.size());
  EXPECT_TRUE(std::equal(header.begin(), header.end(), frame.begin()));
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), frame.begin() + 8));
}

// --- value serialization -----------------------------------------------------

Value RandomValue(Rng& rng, int depth) {
  const uint64_t pick = rng.NextBelow(depth > 2 ? 6 : 8);
  switch (pick) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng.NextBool(0.5));
    case 2:
      return Value::Int(static_cast<int64_t>(rng.NextU64()));
    case 3:
      return Value::Real(rng.NextDouble() * 1e6 - 5e5);
    case 4: {
      std::string s;
      for (uint64_t i = 0; i < rng.NextBelow(12); ++i) {
        s += static_cast<char>('a' + rng.NextBelow(26));
      }
      return Value::Str(std::move(s));
    }
    case 5: {
      Bytes b;
      for (uint64_t i = 0; i < rng.NextBelow(12); ++i) {
        b.push_back(static_cast<uint8_t>(rng.NextBelow(256)));
      }
      return Value::Blob(std::move(b));
    }
    case 6: {
      std::vector<Value> items;
      for (uint64_t i = 0; i < rng.NextBelow(4); ++i) {
        items.push_back(RandomValue(rng, depth + 1));
      }
      return Value::Array(std::move(items));
    }
    default: {
      std::vector<Value::Field> fields;
      for (uint64_t i = 0; i < rng.NextBelow(4); ++i) {
        fields.emplace_back("f" + std::to_string(i),
                            RandomValue(rng, depth + 1));
      }
      return Value::Record(std::move(fields));
    }
  }
}

class ValueCodecProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueCodecProperty, RoundTripPreservesEquality) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Value v = RandomValue(rng, 0);
    auto bytes = EncodeValueToBytes(v);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    auto back = DecodeValueFromBytes(*bytes);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_TRUE(v.Equals(*back)) << v.ToString() << " vs "
                                 << back->ToString();
  }
}

TEST_P(ValueCodecProperty, CorruptionNeverCrashesTheDecoder) {
  Rng rng(GetParam() ^ 0xBEEF);
  for (int i = 0; i < 50; ++i) {
    const Value v = RandomValue(rng, 0);
    auto bytes = EncodeValueToBytes(v);
    ASSERT_TRUE(bytes.ok());
    Bytes mutated = *bytes;
    if (mutated.empty()) {
      continue;
    }
    mutated[rng.NextBelow(mutated.size())] ^=
        static_cast<uint8_t>(1 + rng.NextBelow(255));
    // Either decodes to *something* or fails cleanly; must not crash or
    // hang. (The network discards CRC-failing packets before this layer,
    // but the decoder must still be defensive.)
    auto out = DecodeValueFromBytes(mutated);
    (void)out;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueCodecProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(ValueCodecTest, PortAndTokenRoundTrip) {
  PortName pn;
  pn.node = 9;
  pn.guardian = 77;
  pn.port_index = 3;
  pn.type_hash = 0xFEED;
  Token t{4, 0xAA, 0xBB};
  const Value v = Value::Array({Value::OfPort(pn), Value::OfToken(t)});
  auto bytes = EncodeValueToBytes(v);
  ASSERT_TRUE(bytes.ok());
  auto back = DecodeValueFromBytes(*bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->at(0).port_value().type_hash, 0xFEEDu);
  EXPECT_TRUE(v.Equals(*back));
}

TEST(ValueCodecTest, SystemIntegerBound24Bits) {
  WireLimits limits;
  limits.int_bits = 24;
  EXPECT_TRUE(EncodeValueToBytes(Value::Int((1 << 23) - 1), limits).ok());
  EXPECT_TRUE(EncodeValueToBytes(Value::Int(-(1 << 23)), limits).ok());
  auto too_big = EncodeValueToBytes(Value::Int(1 << 23), limits);
  EXPECT_EQ(too_big.status().code(), Code::kOutOfRange);
  auto too_small = EncodeValueToBytes(Value::Int(-(1 << 23) - 1), limits);
  EXPECT_EQ(too_small.status().code(), Code::kOutOfRange);
}

TEST(ValueCodecTest, DecoderEnforcesIntegerBoundToo) {
  // Encoded under permissive limits, decoded under the 24-bit system.
  auto bytes = EncodeValueToBytes(Value::Int(1 << 23));
  ASSERT_TRUE(bytes.ok());
  WireLimits limits;
  limits.int_bits = 24;
  EXPECT_FALSE(DecodeValueFromBytes(*bytes, limits).ok());
}

TEST(ValueCodecTest, DepthLimitStopsRunawayNesting) {
  WireLimits limits;
  limits.max_depth = 4;
  Value v = Value::Int(1);
  for (int i = 0; i < 10; ++i) {
    v = Value::Array({v});
  }
  EXPECT_EQ(EncodeValueToBytes(v, limits).status().code(),
            Code::kEncodeError);
}

TEST(ValueCodecTest, BlobBoundEnforced) {
  WireLimits limits;
  limits.max_blob_bytes = 4;
  EXPECT_FALSE(EncodeValueToBytes(Value::Str("too long"), limits).ok());
  EXPECT_TRUE(EncodeValueToBytes(Value::Str("ok"), limits).ok());
}

TEST(ValueCodecTest, AbstractWithoutDecoderFails) {
  auto bytes = EncodeValueToBytes(Value::Abstract(MakeRectComplex(1, 2)));
  ASSERT_TRUE(bytes.ok());
  auto out = DecodeValueFromBytes(*bytes, DefaultLimits(), nullptr);
  EXPECT_EQ(out.status().code(), Code::kDecodeError);
}

TEST(ValueCodecTest, AbstractCrossRepresentation) {
  TransmitRegistry registry;
  ASSERT_TRUE(registry.Register(kComplexTypeName, PolarComplexDecoder()).ok());
  const Value rect = Value::Abstract(MakeRectComplex(3.0, 4.0));
  auto bytes = EncodeValueToBytes(rect);
  ASSERT_TRUE(bytes.ok());
  auto back = DecodeValueFromBytes(*bytes, DefaultLimits(),
                                   registry.AsDecodeFn());
  ASSERT_TRUE(back.ok()) << back.status();
  // Arrived as the receiving node's representation...
  auto polar = std::dynamic_pointer_cast<const PolarComplex>(
      back->abstract_value());
  ASSERT_NE(polar, nullptr);
  EXPECT_NEAR(polar->Magnitude(), 5.0, 1e-9);
  // ...and is the same abstract value.
  EXPECT_TRUE(rect.Equals(*back));
}

// --- envelope ----------------------------------------------------------------

Envelope MakeEnvelope() {
  Envelope env;
  env.msg_id = 42;
  env.src_node = 3;
  env.target = PortName{2, 7, 1, 0x1234};
  env.reply_to = PortName{3, 9, 0, 0x5678};
  env.command = "reserve";
  env.args = {Value::Str("smith"), Value::Int(12)};
  return env;
}

TEST(EnvelopeTest, RoundTrip) {
  const Envelope env = MakeEnvelope();
  auto bytes = EncodeEnvelope(env, DefaultLimits());
  ASSERT_TRUE(bytes.ok());
  auto back = DecodeEnvelope(*bytes, DefaultLimits(), nullptr);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->msg_id, env.msg_id);
  EXPECT_EQ(back->src_node, env.src_node);
  EXPECT_EQ(back->target, env.target);
  EXPECT_EQ(back->reply_to, env.reply_to);
  EXPECT_TRUE(back->ack_to.IsNull());
  EXPECT_EQ(back->command, "reserve");
  ASSERT_EQ(back->args.size(), 2u);
  EXPECT_EQ(back->args[1].int_value(), 12);
}

TEST(EnvelopeTest, FlowFeedbackFieldsRoundTrip) {
  Envelope env = MakeEnvelope();
  env.fc_port = PortName{2, 7, 1, 0x1234};
  env.fc_depth = 13;
  env.fc_capacity = 64;
  env.fc_full = true;
  ASSERT_TRUE(env.HasFlowFeedback());
  auto bytes = EncodeEnvelope(env, DefaultLimits());
  ASSERT_TRUE(bytes.ok());
  auto back = DecodeEnvelope(*bytes, DefaultLimits(), nullptr);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->fc_port, env.fc_port);
  EXPECT_EQ(back->fc_depth, 13u);
  EXPECT_EQ(back->fc_capacity, 64u);
  EXPECT_TRUE(back->fc_full);
  // The fc fields live in the header section: a header-only decode (used
  // to route failure replies when full decode fails) carries them too.
  auto header = DecodeEnvelopeHeader(*bytes, DefaultLimits());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->fc_port, env.fc_port);
  EXPECT_TRUE(header->fc_full);
  // And an envelope without feedback decodes back to "none attached".
  auto plain = DecodeEnvelope(*EncodeEnvelope(MakeEnvelope(), DefaultLimits()),
                              DefaultLimits(), nullptr);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->HasFlowFeedback());
  EXPECT_FALSE(plain->fc_full);
}

TEST(EnvelopeTest, DeadlineBudgetRoundTrips) {
  Envelope env = MakeEnvelope();
  env.deadline_micros = 12'345;  // remaining budget, decremented per hop
  auto bytes = EncodeEnvelope(env, DefaultLimits());
  ASSERT_TRUE(bytes.ok());
  auto back = DecodeEnvelope(*bytes, DefaultLimits(), nullptr);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->deadline_micros, 12'345u);
  // The budget lives in the header section (like the fc fields), so the
  // shedding decision never needs a full arg decode.
  auto header = DecodeEnvelopeHeader(*bytes, DefaultLimits());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->deadline_micros, 12'345u);
  // 0 on the wire means "no deadline" and must survive a round trip as 0.
  auto plain = DecodeEnvelope(*EncodeEnvelope(MakeEnvelope(), DefaultLimits()),
                              DefaultLimits(), nullptr);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->deadline_micros, 0u);
}

TEST(EnvelopeTest, HeaderOnlyDecodeRecoversReplyPort) {
  const Envelope env = MakeEnvelope();
  auto bytes = EncodeEnvelope(env, DefaultLimits());
  ASSERT_TRUE(bytes.ok());
  auto header = DecodeEnvelopeHeader(*bytes, DefaultLimits());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->reply_to, env.reply_to);
  EXPECT_TRUE(header->args.empty());
}

TEST(EnvelopeTest, BadMagicRejected) {
  auto bytes = EncodeEnvelope(MakeEnvelope(), DefaultLimits());
  ASSERT_TRUE(bytes.ok());
  (*bytes)[0] ^= 0xFF;
  EXPECT_FALSE(DecodeEnvelope(*bytes, DefaultLimits(), nullptr).ok());
}

TEST(EnvelopeTest, TrailingBytesRejected) {
  auto bytes = EncodeEnvelope(MakeEnvelope(), DefaultLimits());
  bytes->push_back(0);
  EXPECT_FALSE(DecodeEnvelope(*bytes, DefaultLimits(), nullptr).ok());
}

TEST(EnvelopeTest, MessageSizeBoundEnforced) {
  WireLimits limits;
  limits.max_message_bytes = 64;
  Envelope env = MakeEnvelope();
  env.args = {Value::Str(std::string(200, 'x'))};
  EXPECT_FALSE(EncodeEnvelope(env, limits).ok());
}

// --- packets -----------------------------------------------------------------

TEST(PacketTest, FragmentCountsAndSizes) {
  const Bytes msg(2500, 0x5A);
  auto packets = Fragment(BufferSlice(msg), 1, 1, 2, 1024);
  ASSERT_EQ(packets.size(), 3u);
  EXPECT_EQ(packets[0].payload.size(), 1024u);
  EXPECT_EQ(packets[2].payload.size(), 452u);
  for (const auto& p : packets) {
    EXPECT_TRUE(p.Verify());
    EXPECT_EQ(p.frag_count, 3u);
  }
}

TEST(PacketTest, EmptyMessageIsOnePacket) {
  auto packets = Fragment({}, 1, 1, 2, 1024);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_TRUE(packets[0].payload.empty());
}

TEST(PacketTest, ReassemblyInOrder) {
  const Bytes msg = ToBytes("a somewhat long message for fragmentation");
  auto packets = Fragment(BufferSlice(msg), 7, 1, 2, 8);
  Reassembler reassembler;
  for (size_t i = 0; i < packets.size(); ++i) {
    auto out = reassembler.Add(std::move(packets[i]));
    ASSERT_TRUE(out.ok());
    if (i + 1 < packets.size()) {
      EXPECT_FALSE(out->has_value());
    } else {
      ASSERT_TRUE(out->has_value());
      EXPECT_EQ(**out, msg);
    }
  }
  EXPECT_EQ(reassembler.partial_count(), 0u);
}

TEST(PacketTest, ReassemblyOutOfOrderAndDuplicates) {
  const Bytes msg = ToBytes("out of order arrival is permitted by 3.4");
  auto packets = Fragment(BufferSlice(msg), 9, 1, 2, 5);
  Reassembler reassembler;
  // Deliver reversed, with every packet duplicated.
  std::optional<BufferSlice> complete;
  for (auto it = packets.rbegin(); it != packets.rend(); ++it) {
    for (int dup = 0; dup < 2; ++dup) {
      auto out = reassembler.Add(Packet(*it));  // Add consumes; keep the dup
      ASSERT_TRUE(out.ok());
      if (out->has_value()) {
        complete = **out;
      }
    }
  }
  ASSERT_TRUE(complete.has_value());
  EXPECT_EQ(*complete, msg);
}

TEST(PacketTest, CorruptPacketDroppedByErrorDetection) {
  const Bytes msg = ToBytes("check the error detection bits");
  auto packets = Fragment(BufferSlice(msg), 11, 1, 2, 8);
  packets[1].payload.MutableData()[0] ^= 0x40;  // keep stale CRC
  Reassembler reassembler;
  auto st = reassembler.Add(std::move(packets[1]));
  EXPECT_EQ(st.status().code(), Code::kCorrupt);
  EXPECT_EQ(reassembler.corrupt_dropped(), 1u);
}

TEST(PacketTest, InterleavedMessagesReassembleIndependently) {
  const Bytes m1 = ToBytes("first message body");
  const Bytes m2 = ToBytes("second message body!");
  auto p1 = Fragment(BufferSlice(m1), 100, 1, 2, 6);
  auto p2 = Fragment(BufferSlice(m2), 200, 1, 2, 6);
  Reassembler reassembler;
  int completed = 0;
  for (size_t i = 0; i < std::max(p1.size(), p2.size()); ++i) {
    if (i < p1.size()) {
      auto out = reassembler.Add(std::move(p1[i]));
      ASSERT_TRUE(out.ok());
      if (out->has_value()) {
        EXPECT_EQ(**out, m1);
        ++completed;
      }
    }
    if (i < p2.size()) {
      auto out = reassembler.Add(std::move(p2[i]));
      ASSERT_TRUE(out.ok());
      if (out->has_value()) {
        EXPECT_EQ(**out, m2);
        ++completed;
      }
    }
  }
  EXPECT_EQ(completed, 2);
}

TEST(PacketTest, PartialEvictionBoundsMemory) {
  Reassembler reassembler(/*max_partial=*/4);
  for (uint64_t m = 0; m < 10; ++m) {
    auto packets = Fragment(Bytes(64, 1), m, 1, 2, 16);
    ASSERT_TRUE(reassembler.Add(std::move(packets[0])).ok());  // never complete
  }
  EXPECT_LE(reassembler.partial_count(), 4u);
}

TEST(PacketTest, InconsistentFragmentHeaderRejected) {
  Packet p;
  p.msg_id = 1;
  p.frag_index = 5;
  p.frag_count = 2;  // index >= count
  p.payload = Bytes{1, 2, 3};
  p.Seal();
  Reassembler reassembler;
  EXPECT_EQ(reassembler.Add(std::move(p)).status().code(), Code::kCorrupt);
}

TEST(PacketTest, SameMsgIdFromTwoSendersReassemblesIndependently) {
  // Regression: partials used to be keyed by msg_id alone, so two senders
  // minting the same id toward one destination interleaved into a single
  // partial and corrupted (or rejected) both messages. Keying by
  // (src, msg_id) keeps them apart.
  const Bytes from_a(29, 0xAA);  // 5 fragments of <= 7 bytes
  const Bytes from_b(50, 0xBB);  // 8 fragments of <= 7 bytes
  constexpr uint64_t kCollidingId = 77;
  auto pa = Fragment(BufferSlice(from_a), kCollidingId, /*src=*/1, /*dst=*/3, 7);
  auto pb = Fragment(BufferSlice(from_b), kCollidingId, /*src=*/2, /*dst=*/3, 7);
  ASSERT_GT(pa.size(), 1u);
  ASSERT_GT(pb.size(), 1u);
  ASSERT_NE(pa.size(), pb.size());  // clashing counts made the old code drop

  Reassembler reassembler;
  std::optional<BufferSlice> got_a;
  std::optional<BufferSlice> got_b;
  // Strictly interleave the two senders' fragments.
  for (size_t i = 0; i < std::max(pa.size(), pb.size()); ++i) {
    if (i < pa.size()) {
      auto out = reassembler.Add(std::move(pa[i]));
      ASSERT_TRUE(out.ok()) << out.status();
      if (out->has_value()) {
        got_a = **out;
      }
    }
    if (i < pb.size()) {
      auto out = reassembler.Add(std::move(pb[i]));
      ASSERT_TRUE(out.ok()) << out.status();
      if (out->has_value()) {
        got_b = **out;
      }
    }
  }
  ASSERT_TRUE(got_a.has_value());
  ASSERT_TRUE(got_b.has_value());
  EXPECT_EQ(*got_a, from_a);
  EXPECT_EQ(*got_b, from_b);
  EXPECT_EQ(reassembler.corrupt_dropped(), 0u);
  EXPECT_EQ(reassembler.partial_count(), 0u);
}

TEST(PacketTest, StalePartialsExpireByAge) {
  // Regression: a lost fragment used to pin its partial (and its payload
  // bytes) forever; steady loss on large messages grew the table until the
  // count-based eviction started cannibalizing *young* in-progress
  // messages. Partials idle past the age horizon are now swept on Add.
  Reassembler reassembler(/*max_partial=*/1024, /*expiry=*/Micros(20'000));

  // Two 2-fragment messages, each missing its second fragment.
  const Bytes one(14, 0x11);
  const Bytes two(14, 0x22);
  auto pa = Fragment(BufferSlice(one), /*msg_id=*/1, /*src=*/1, /*dst=*/2, 7);
  auto pb = Fragment(BufferSlice(two), /*msg_id=*/2, /*src=*/1, /*dst=*/2, 7);
  ASSERT_EQ(pa.size(), 2u);
  ASSERT_TRUE(reassembler.Add(std::move(pa[0])).ok());
  ASSERT_TRUE(reassembler.Add(std::move(pb[0])).ok());
  EXPECT_EQ(reassembler.partial_count(), 2u);
  EXPECT_EQ(reassembler.expired(), 0u);

  // Let both partials pass the horizon, then feed an unrelated fragment:
  // its Add runs the amortized sweep.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  const Bytes three(14, 0x33);
  auto pc = Fragment(BufferSlice(three), /*msg_id=*/3, /*src=*/1, /*dst=*/2, 7);
  auto out = reassembler.Add(std::move(pc[0]));
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->has_value());
  EXPECT_EQ(reassembler.expired(), 2u);
  EXPECT_EQ(reassembler.partial_count(), 1u);  // only msg 3 survives

  // The young partial was not collateral damage: it still completes.
  auto done = reassembler.Add(std::move(pc[1]));
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done->has_value());
  EXPECT_EQ(**done, three);
  EXPECT_EQ(reassembler.partial_count(), 0u);
}

TEST(PacketTest, ExpiryZeroDisablesAgeSweep) {
  Reassembler reassembler(/*max_partial=*/1024, /*expiry=*/Micros(0));
  const Bytes msg(14, 0x44);
  auto packets = Fragment(BufferSlice(msg), /*msg_id=*/9, /*src=*/1, /*dst=*/2, 7);
  ASSERT_TRUE(reassembler.Add(std::move(packets[0])).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto done = reassembler.Add(std::move(packets[1]));
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done->has_value());
  EXPECT_EQ(reassembler.expired(), 0u);
}

TEST(PacketTest, NewIncarnationDropsPredecessorPartials) {
  // Regression: partials were keyed by (src, msg_id) with no incarnation
  // component, so a source that crashed mid-message and restarted could —
  // with a reused msg_id — complete a message spliced half from pre-crash
  // fragments and half from post-crash ones. Every fragment passes its own
  // CRC, so nothing downstream catches the splice: the receiver decodes a
  // chimera no incarnation ever sent.
  const Bytes pre(40, 0x0A);
  const Bytes post(40, 0x0B);
  constexpr uint64_t kReusedId = 42;
  auto old_inc = Fragment(BufferSlice(pre), kReusedId, /*src=*/1, /*dst=*/2, 10,
                          /*trace_id=*/0, /*src_session=*/100);
  auto new_inc = Fragment(BufferSlice(post), kReusedId, /*src=*/1, /*dst=*/2, 10,
                          /*trace_id=*/0, /*src_session=*/200);
  ASSERT_EQ(old_inc.size(), 4u);
  ASSERT_EQ(new_inc.size(), 4u);

  Reassembler reassembler;
  // The old incarnation lands fragments 0 and 1, then the source crashes.
  ASSERT_TRUE(reassembler.Add(std::move(old_inc[0])).ok());
  ASSERT_TRUE(reassembler.Add(std::move(old_inc[1])).ok());
  EXPECT_EQ(reassembler.partial_count(), 1u);

  // The restarted incarnation sends fragments 2 and 3 of "the same"
  // message. Under the old keying these completed a 0xA/0xB chimera; now
  // the first new-session packet drops the predecessor's partial outright.
  auto out = reassembler.Add(std::move(new_inc[2]));
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->has_value());
  auto out2 = reassembler.Add(std::move(new_inc[3]));
  ASSERT_TRUE(out2.ok());
  EXPECT_FALSE(out2->has_value());  // the splice can never complete
  EXPECT_EQ(reassembler.session_dropped(), 1u);

  // The new incarnation's own message still completes, bit-exact.
  ASSERT_TRUE(reassembler.Add(std::move(new_inc[0])).ok());
  auto done = reassembler.Add(std::move(new_inc[1]));
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done->has_value());
  EXPECT_EQ(**done, post);
  EXPECT_EQ(reassembler.partial_count(), 0u);
  EXPECT_EQ(reassembler.corrupt_dropped(), 0u);
}

// --- buffers and the zero-copy path -----------------------------------------

TEST(BufferTest, SlicesShareStorageAndSubViewsAreFree) {
  const uint64_t copied_before = BufferStats::BytesCopied();
  BufferSlice whole(Bytes{0, 1, 2, 3, 4, 5, 6, 7});
  BufferSlice mid = whole.Sub(2, 4);
  EXPECT_EQ(mid.size(), 4u);
  EXPECT_EQ(mid[0], 2);
  EXPECT_TRUE(mid.SharesBufferWith(whole));
  BufferSlice copy = mid;  // refcount bump
  EXPECT_TRUE(copy.SharesBufferWith(whole));
  EXPECT_EQ(BufferStats::BytesCopied(), copied_before);  // no byte moved
  // Out-of-range requests clamp instead of overreading.
  EXPECT_EQ(whole.Sub(6, 100).size(), 2u);
  EXPECT_EQ(whole.Sub(100, 4).size(), 0u);
}

TEST(BufferTest, MutableDataCopiesOnlyWhenShared) {
  // Sole owner of the whole buffer: write-in-place, nothing copied.
  BufferSlice lone(Bytes{1, 2, 3});
  const void* storage = lone.buffer().id();
  lone.MutableData()[0] = 9;
  EXPECT_EQ(lone.buffer().id(), storage);
  EXPECT_EQ(lone[0], 9);

  // Shared: the writer detaches, the sibling keeps the original bytes.
  BufferSlice a(Bytes{1, 2, 3});
  BufferSlice b = a;
  b.MutableData()[0] = 7;
  EXPECT_FALSE(a.SharesBufferWith(b));
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(b[0], 7);

  // A sub-slice writer detaches too, and only its window is copied.
  BufferSlice base(Bytes(100, 0x11));
  BufferSlice window = base.Sub(10, 5);
  const uint64_t copied_before = BufferStats::BytesCopied();
  window.MutableData()[0] = 0x22;
  EXPECT_EQ(BufferStats::BytesCopied() - copied_before, 5u);
  EXPECT_EQ(base[10], 0x11);
  EXPECT_EQ(window[0], 0x22);
}

TEST(BufferTest, GatherContiguousSlicesIsZeroCopy) {
  BufferSlice whole(Bytes{0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  std::vector<BufferSlice> parts = {whole.Sub(0, 4), whole.Sub(4, 4),
                                    whole.Sub(8, 2)};
  const uint64_t copied_before = BufferStats::BytesCopied();
  BufferSlice joined = GatherSlices(parts, 10);
  EXPECT_EQ(BufferStats::BytesCopied(), copied_before);
  EXPECT_TRUE(joined.SharesBufferWith(whole));
  EXPECT_EQ(joined, whole);
}

TEST(BufferTest, GatherForeignSlicesJoinsOnce) {
  std::vector<BufferSlice> parts = {BufferSlice(Bytes{1, 2}),
                                    BufferSlice(Bytes{3}),
                                    BufferSlice(Bytes{4, 5})};
  const uint64_t copied_before = BufferStats::BytesCopied();
  BufferSlice joined = GatherSlices(parts, 5);
  EXPECT_EQ(joined, ConstByteSpan(Bytes{1, 2, 3, 4, 5}));
  EXPECT_EQ(BufferStats::BytesCopied() - copied_before, 5u);
}

TEST(PacketTest, FragmentsAreViewsOfOneBufferAndReassemblyIsZeroCopy) {
  // The tentpole property end to end at the wire layer: fragmentation
  // copies nothing, and reassembly of intact fragments completes as a
  // spanning view of the sender's encode buffer.
  Bytes msg(200, 0);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i);
  }
  const Bytes original = msg;
  const uint64_t copied_before = BufferStats::BytesCopied();
  auto packets = Fragment(std::move(msg), 5, 1, 2, 64);
  ASSERT_EQ(packets.size(), 4u);
  for (size_t i = 1; i < packets.size(); ++i) {
    EXPECT_TRUE(packets[i].payload.SharesBufferWith(packets[0].payload));
  }
  const BufferSlice first = packets[0].payload;  // keep a handle on the buffer

  Reassembler reassembler;
  std::optional<BufferSlice> complete;
  for (auto& p : packets) {
    auto out = reassembler.Add(std::move(p));
    ASSERT_TRUE(out.ok());
    if (out->has_value()) {
      complete = std::move(**out);
    }
  }
  ASSERT_TRUE(complete.has_value());
  EXPECT_EQ(*complete, original);
  EXPECT_TRUE(complete->SharesBufferWith(first));
  EXPECT_EQ(BufferStats::BytesCopied(), copied_before)
      << "fragment + reassemble of intact fragments must not copy payload";
}

TEST(PacketTest, ReassemblyGathersOnceWhenAFragmentWasRewritten) {
  // A COW'd (e.g. corrupted-then-resent) fragment breaks contiguity, so
  // completion falls back to exactly one pre-sized gather.
  Bytes msg(60, 0x3C);
  const Bytes original = msg;
  auto packets = Fragment(std::move(msg), 6, 1, 2, 20);
  ASSERT_EQ(packets.size(), 3u);
  // Rewrite a byte and put it back, as a retransmission would.
  packets[1].payload.MutableData()[0] = 0x3C;  // same value: bytes unchanged
  packets[1].Seal();
  Reassembler reassembler;
  std::optional<BufferSlice> complete;
  const uint64_t copied_before = BufferStats::BytesCopied();
  for (auto& p : packets) {
    auto out = reassembler.Add(std::move(p));
    ASSERT_TRUE(out.ok());
    if (out->has_value()) {
      complete = std::move(**out);
    }
  }
  ASSERT_TRUE(complete.has_value());
  EXPECT_EQ(*complete, original);
  // Exactly one pre-sized 60-byte gather; nothing else.
  EXPECT_EQ(BufferStats::BytesCopied() - copied_before, 60u);
}

}  // namespace
}  // namespace guardians
