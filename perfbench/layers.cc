// Standalone layer timings for the traced run: the public functions of the
// wire, store and runtime modules, called single-threaded from here on the
// workload's own message shape, after the load has stopped.
#include <functional>

#include "perfbench/bench.h"
#include "src/common/buffer.h"
#include "src/store/stable_store.h"
#include "src/store/wal.h"
#include "src/wire/crc32.h"
#include "src/wire/envelope.h"
#include "src/wire/packet.h"

namespace perfbench {
namespace {

using namespace guardians;

constexpr int kRounds = 31;

// Median over kRounds of the mean time per call of `batch` calls, in us.
// `prepare` (untimed) runs before each round.
double TimePerCallUs(int batch, const std::function<void()>& prepare,
                     const std::function<void(int)>& call) {
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    prepare();
    const int64_t t0 = NowNs();
    for (int i = 0; i < batch; ++i) {
      call(i);
    }
    rounds.push_back((NowNs() - t0) / 1e3 / batch);
  }
  return Quantile(rounds, 0.5);
}

}  // namespace

void StandaloneLayers(Workload& workload, Report* report) {
  const Envelope env = workload.SampleEnvelope();
  const WireLimits& limits = workload.system().limits();
  const uint64_t max_payload = limits.max_packet_payload;
  auto encoded = EncodeEnvelope(env, limits);
  if (!encoded.ok()) {
    return;  // the per-layer table then reads 0 for wire.*
  }
  const Bytes bytes = *encoded;
  const BufferSlice message(bytes);
  constexpr int kBatch = 64;
  volatile uint64_t sink = 0;

  report->Add("wire.encode_us",
              TimePerCallUs(kBatch, [] {},
                            [&](int) {
                              auto e = EncodeEnvelope(env, limits);
                              sink = sink + (e.ok() ? e->size() : 0);
                            }),
              "us");
  report->Add("wire.fragment_us",
              TimePerCallUs(kBatch, [] {},
                            [&](int i) {
                              auto packets = Fragment(
                                  message, static_cast<uint64_t>(i) + 1, 1, 2,
                                  max_payload, 1, 7);
                              sink = sink + packets.size();
                            }),
              "us");
  std::vector<std::vector<Packet>> fragmented(kBatch);
  uint64_t msg_id = 0;
  Reassembler reassembler;
  report->Add("wire.reassemble_us",
              TimePerCallUs(
                  kBatch,
                  [&] {
                    for (auto& packets : fragmented) {
                      packets = Fragment(message, ++msg_id, 1, 2, max_payload,
                                         1, 7);
                    }
                  },
                  [&](int i) {
                    for (Packet& p : fragmented[i]) {
                      auto out = reassembler.Add(std::move(p));
                      sink = sink + (out.ok() && out->has_value() ? 1 : 0);
                    }
                  }),
              "us");
  report->Add("wire.decode_us",
              TimePerCallUs(kBatch, [] {},
                            [&](int) {
                              auto d = DecodeEnvelope(message.span(), limits,
                                                      nullptr);
                              sink = sink + (d.ok() ? d->args.size() : 0);
                            }),
              "us");
  report->Add("wire.crc_us",
              TimePerCallUs(kBatch, [] {},
                            [&](int) { sink = sink + Crc32(message.span()); }),
              "us");

  // A flight log record, as FlightGuardian::LogOp writes it.
  StableStore store;
  Wal wal(&store, "perfbench/flight");
  const Value record = Value::Record({{"op", Value::Str("reserve")},
                                      {"p", Value::Str("c0-123456")},
                                      {"d", Value::Str("1979-09-06")}});
  report->Add("store.wal_append_us",
              TimePerCallUs(kBatch, [] {},
                            [&](int) {
                              sink = sink + (wal.AppendValue(record).ok() ? 1
                                                                          : 0);
                            }),
              "us");

  // Fork + join of an empty body on a guardian of the workload's world.
  NodeRuntime& node = workload.system().node(1);
  auto probe = node.CreateGuardian("shell", "fork-probe", {});
  if (probe.ok()) {
    Guardian* g = *probe;
    report->Add("runtime.fork_us",
                TimePerCallUs(8, [] {},
                              [&](int) {
                                g->Fork("probe", [] {});
                                g->JoinProcesses();
                              }),
                "us");
  }
}

}  // namespace perfbench
