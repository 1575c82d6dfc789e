// Allocation budgets for the message path.
//
// A global operator-new interposer (alloc_interposer.cc) counts heap
// allocations made while a counting gate is open. The tests open a gate
// around exactly the region under measurement (never around gtest
// assertions, which allocate for their messages) and assert the path stays
// within a fixed allocation budget per message.
//
// The wire tests are single-threaded on purpose and use the thread-local
// gate, so their numbers are exactly reproducible: a reintroduced payload
// clone or per-fragment vector copy shows up as a budget overrun. The
// round-trip test uses the process-wide gate, because a RemoteCall spans
// the caller, the delivery shards and the echo guardian. None of them is
// tsan-labeled: tsan's allocator would skew the counts anyway.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "src/common/buffer.h"
#include "src/guardian/system.h"
#include "src/obs/trace.h"
#include "src/sendprims/remote_call.h"
#include "src/wire/envelope.h"
#include "src/wire/packet.h"
#include "tests/alloc_interposer.h"

namespace guardians {
namespace {

// Opens the calling thread's counting gate for one scope and reports the
// delta.
class AllocationMeter {
 public:
  AllocationMeter() : start_(alloc_test::Allocations()) {
    alloc_test::SetThreadCounting(true);
  }
  ~AllocationMeter() { alloc_test::SetThreadCounting(false); }
  uint64_t Stop() {
    alloc_test::SetThreadCounting(false);
    return alloc_test::Allocations() - start_;
  }

 private:
  uint64_t start_;
};

Envelope SmallEnvelope() {
  Envelope env;
  env.msg_id = 1;
  env.src_node = 1;
  env.target = PortName{2, 3, 0, 0xABCD};
  env.command = "tick";
  env.args = {Value::Int(42)};
  return env;
}

TEST(AllocBudgetTest, UnfragmentedSendToDeliverPathIsBounded) {
  // The steady-state hot path for a small message: encode once, wrap the
  // bytes (buffer adoption), one single-fragment packet, reassembler
  // passthrough. Budget rationale: ~3 for the encoder vector + Result
  // plumbing, 2 for buffer adoption (control block may be separate), 1 for
  // the packets vector — with slack for library-version noise, but far
  // below what any reintroduced payload copy chain would cost.
  constexpr uint64_t kBudget = 12;

  Reassembler reassembler;
  const Envelope env = SmallEnvelope();
  // Warm up once outside the meter (lazy statics, first-touch pools).
  {
    auto warm = EncodeEnvelope(env, DefaultLimits());
    ASSERT_TRUE(warm.ok());
    auto packets = Fragment(std::move(*warm), 0, 1, 2, 1024);
    auto out = reassembler.Add(std::move(packets[0]));
    ASSERT_TRUE(out.ok());
  }

  uint64_t allocations = 0;
  bool ok = true;
  std::optional<BufferSlice> delivered;
  {
    AllocationMeter meter;
    auto bytes = EncodeEnvelope(env, DefaultLimits());
    ok = bytes.ok();
    if (ok) {
      auto packets =
          Fragment(std::move(*bytes), /*msg_id=*/1, 1, 2, /*max_payload=*/1024);
      auto out = reassembler.Add(std::move(packets[0]));
      ok = out.ok() && out->has_value();
      if (ok) {
        delivered = std::move(**out);
      }
    }
    allocations = meter.Stop();
  }
  ASSERT_TRUE(ok);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_LE(allocations, kBudget)
      << "unfragmented send->deliver allocated " << allocations
      << " times; the zero-copy path budget is " << kBudget;
}

TEST(AllocBudgetTest, FragmentationAddsNoPerFragmentPayloadAllocations) {
  // A 4-fragment message: fragmentation must cost one packets vector, not
  // one payload clone per fragment, and reassembly completes by view.
  const Bytes message(256, 0x5A);
  Reassembler reassembler;
  {  // warm-up
    auto packets = Fragment(BufferSlice(message), 0, 1, 2, 64);
    for (auto& p : packets) {
      ASSERT_TRUE(reassembler.Add(std::move(p)).ok());
    }
  }

  const uint64_t copied_before = BufferStats::BytesCopied();
  uint64_t allocations = 0;
  bool completed = false;
  Bytes fresh = message;
  {
    AllocationMeter meter;
    BufferSlice slice(std::move(fresh));  // adopt a fresh buffer
    auto packets = Fragment(std::move(slice), /*msg_id=*/1, 1, 2, 64);
    for (auto& p : packets) {
      auto out = reassembler.Add(std::move(p));
      if (out.ok() && out->has_value()) {
        completed = true;
      }
    }
    allocations = meter.Stop();
  }
  ASSERT_TRUE(completed);
  // Adoption + packets vector + the reassembler's partial bookkeeping
  // (map node, frags/have vectors). The old subrange-copy path added 4
  // payload clones on top; a regression busts this budget immediately.
  EXPECT_LE(allocations, 14u);
  EXPECT_EQ(BufferStats::BytesCopied() - copied_before, 0u)
      << "fragment + reassemble must not copy payload bytes";
}

PortType EchoType() {
  return PortType("alloc_echo",
                  {MessageSig{"echo",
                              {ArgType::Of(TypeTag::kInt),
                               ArgType::Of(TypeTag::kBytes)},
                              {"echoed"}}});
}

PortType EchoReplyType() {
  return PortType("alloc_echo_reply",
                  {MessageSig{"echoed",
                              {ArgType::Of(TypeTag::kInt),
                               ArgType::Of(TypeTag::kBytes)},
                              {}}});
}

// Sends every request's arguments straight back.
class EchoGuardian : public Guardian {
 public:
  Status Setup(const ValueList& args) override {
    (void)args;
    AddPort(EchoType(), Port::kDefaultCapacity, /*provided=*/true);
    return OkStatus();
  }

  void Main() override {
    Port* requests = port(0);
    for (;;) {
      auto received = Receive(requests, Micros::max());
      if (!received.ok()) {
        return;
      }
      Status sent =
          Send(received->reply_to, "echoed", std::move(received->args));
      (void)sent;
    }
  }
};

// Drains run by a sending thread, summed over every shard
// (net.shard.<k>.batch.inline).
uint64_t InlineDrains(const MetricsRegistry& metrics) {
  uint64_t total = 0;
  for (const auto& [name, value] : metrics.CountersWithPrefix("net.shard.")) {
    if (name.ends_with(".batch.inline")) {
      total += value;
    }
  }
  return total;
}

TEST(AllocBudgetTest, TraceRecordAllocatesNothing) {
  // Every hop of every message records a trace event, so recording one
  // must not allocate: a new trace costs nothing more than another event.
  constexpr uint64_t kEvents = 10000;
  TraceBuffer traces;
  traces.Record(1, 1, "send");  // warm-up: first use of the ring's pages
  AllocationMeter meter;
  for (uint64_t i = 0; i < kEvents; ++i) {
    traces.Record(/*trace_id=*/i + 2, /*node=*/1, i % 2 == 0 ? "send" : "recv");
  }
  const uint64_t allocations = meter.Stop();
  EXPECT_EQ(allocations, 0u)
      << kEvents << " trace events allocated " << allocations << " times";
  EXPECT_TRUE(traces.HasTrace(kEvents + 1));
}

TEST(AllocBudgetTest, RemoteCallRoundTripIsBounded) {
  // The whole real path of one call, on every thread it touches: type
  // check, encode, dedup gate and journal, fragment, network, delivery
  // batch, port, receive, the echo's reply and its way back. 2,000
  // sequential calls span about eight dedup-journal rotations (one per
  // DedupLayer::kSegmentReplies replies), so the budget includes their
  // share. Each request and reply is sent by a thread that has just
  // received, so its sender delivers it (an inline drain); the test checks
  // that, so the budget measures the path perfbench runs.
  constexpr int kWarmup = 600;
  constexpr int kCalls = 2000;
  constexpr double kBudgetPerCall = 30;
  constexpr double kMinInlineShare = 0.99;

  SystemConfig config;
  config.seed = 7;
  config.default_link.latency = Micros(0);
  System system(config);
  NodeRuntime& client = system.AddNode("client");
  NodeRuntime& server = system.AddNode("server");
  client.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  server.RegisterGuardianType("echo", MakeFactory<EchoGuardian>());
  auto echo = server.Create<EchoGuardian>("echo", "echo", {});
  ASSERT_TRUE(echo.ok());
  const PortName to = (*echo)->ProvidedPorts()[0];
  auto caller = client.Create<ShellGuardian>("shell", "caller", {});
  ASSERT_TRUE(caller.ok());
  const PortType reply_type = EchoReplyType();
  const Bytes blob(16, 0x5A);
  RemoteCallOptions options;
  options.timeout = Millis(5000);

  int failed = 0;
  uint64_t start = 0;
  uint64_t inline_before = 0;
  for (int i = 0; i < kWarmup + kCalls; ++i) {
    if (i == kWarmup) {
      inline_before = InlineDrains(system.metrics());
      start = alloc_test::Allocations();
      alloc_test::SetProcessCounting(true);
    }
    SetCurrentTraceId(0);  // each call is its own causal chain
    auto reply = RemoteCall(**caller, to, "echo",
                            {Value::Int(i), Value::Blob(blob)}, reply_type,
                            options);
    if (!reply.ok() || reply->command != "echoed") {
      ++failed;
    }
  }
  alloc_test::SetProcessCounting(false);
  const double per_call =
      static_cast<double>(alloc_test::Allocations() - start) / kCalls;
  // One single-packet message each way per call, so one drain per message.
  const double inline_share =
      static_cast<double>(InlineDrains(system.metrics()) - inline_before) /
      (2.0 * kCalls);

  // Readable with --gtest_output=xml.
  RecordProperty("allocations_per_call", std::to_string(per_call));
  RecordProperty("inline_share", std::to_string(inline_share));

  EXPECT_EQ(failed, 0);
  EXPECT_LE(per_call, kBudgetPerCall)
      << "a RemoteCall round trip allocated " << per_call
      << " times per call; the budget is " << kBudgetPerCall;
  EXPECT_GE(inline_share, kMinInlineShare)
      << "only " << inline_share
      << " of the counted messages were delivered by their sender";
}

}  // namespace
}  // namespace guardians
