// Concurrency property tests: a Hoare-monitor bounded buffer (exercising
// Monitor::Condition directly), serializer linearization under random keys,
// keyed-monitor exclusion under churn, WAL append safety under concurrent
// writers, and flight-guardian organization equivalence (all three Figure 1
// organizations compute the same final database for the same request
// multiset per date).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "src/airline/flight_guardian.h"
#include "src/guardian/system.h"
#include "src/runtime/monitor.h"
#include "src/common/task.h"
#include "src/runtime/serializer.h"
#include "src/sendprims/remote_call.h"
#include "src/store/wal.h"

namespace guardians {
namespace {

// A classic monitor: bounded buffer with not-full / not-empty conditions.
class BoundedBuffer : private Monitor {
 public:
  explicit BoundedBuffer(size_t capacity) : capacity_(capacity) {}

  void Put(int v) {
    Entry entry(*this);
    not_full_.WaitUntil(entry, [this] { return items_.size() < capacity_; });
    items_.push_back(v);
    not_empty_.Signal();
  }

  int Take() {
    Entry entry(*this);
    not_empty_.WaitUntil(entry, [this] { return !items_.empty(); });
    const int v = items_.front();
    items_.erase(items_.begin());
    not_full_.Signal();
    return v;
  }

  size_t SizeUnlocked() const { return items_.size(); }

 private:
  const size_t capacity_;
  std::vector<int> items_;
  Condition not_full_;
  Condition not_empty_;
};

TEST(MonitorBufferTest, ProducersAndConsumersMeetExactly) {
  BoundedBuffer buffer(4);
  constexpr int kPerProducer = 200;
  constexpr int kProducers = 3;
  std::atomic<int64_t> consumed_sum{0};
  CarrierPool pool;
  ProcessGroup group(pool);
  for (int p = 0; p < kProducers; ++p) {
    group.Fork("producer", [&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        buffer.Put(p * kPerProducer + i);
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    group.Fork("consumer", [&] {
      for (int i = 0; i < kPerProducer * kProducers / 2; ++i) {
        consumed_sum.fetch_add(buffer.Take());
      }
    });
  }
  group.JoinAll();
  const int64_t n = kPerProducer * kProducers;
  EXPECT_EQ(consumed_sum.load(), n * (n - 1) / 2);
  EXPECT_EQ(buffer.SizeUnlocked(), 0u);
}

class SerializerProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializerProperty, PerKeyOrderUnderRandomKeys) {
  CarrierPool pool;
  Serializer serializer(6, pool);
  constexpr int kTasks = 300;
  Rng rng(GetParam());
  std::mutex mu;
  std::map<uint64_t, std::vector<int>> per_key_order;
  std::vector<uint64_t> keys;
  for (int i = 0; i < kTasks; ++i) {
    keys.push_back(rng.NextBelow(5));
  }
  for (int i = 0; i < kTasks; ++i) {
    serializer.Enqueue(keys[i], [&, i] {
      std::lock_guard<std::mutex> lock(mu);
      per_key_order[keys[i]].push_back(i);
    });
  }
  serializer.Drain();
  EXPECT_EQ(serializer.executed(), static_cast<uint64_t>(kTasks));
  for (const auto& [key, order] : per_key_order) {
    for (size_t i = 1; i < order.size(); ++i) {
      EXPECT_LT(order[i - 1], order[i]) << "key " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerProperty,
                         ::testing::Values(3, 17, 99));

TEST(KeyedMonitorChurnTest, ManyKeysManyThreadsNoLostExclusion) {
  KeyedMonitor<int> monitor;
  constexpr int kKeys = 4;
  std::atomic<int> in_critical[kKeys] = {};
  std::atomic<bool> violated{false};
  CarrierPool pool;
  ProcessGroup group(pool);
  for (int t = 0; t < 6; ++t) {
    group.Fork("worker", [&, t] {
      Rng rng(t + 1);
      for (int i = 0; i < 100; ++i) {
        const int key = static_cast<int>(rng.NextBelow(kKeys));
        KeyedMonitor<int>::Request request(monitor, key);
        if (in_critical[key].fetch_add(1) != 0) {
          violated = true;
        }
        std::this_thread::sleep_for(Micros(20));
        in_critical[key].fetch_sub(1);
      }
    });
  }
  group.JoinAll();
  EXPECT_FALSE(violated.load());
}

TEST(WalConcurrencyTest, ParallelAppendsAllRecoverIntact) {
  StableStore store;
  Wal wal(&store, "g/parallel");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  CarrierPool pool;
  ProcessGroup group(pool);
  for (int t = 0; t < kThreads; ++t) {
    group.Fork("appender", [&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string payload =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(wal.Append(ToBytes(payload)).ok());
      }
    });
  }
  group.JoinAll();
  auto recovery = wal.Recover();
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  ASSERT_EQ(recovery->records.size(),
            static_cast<size_t>(kThreads * kPerThread));
  EXPECT_FALSE(recovery->torn_tail);
  // Per-thread order is preserved (each append is atomic in the store).
  std::map<char, int> last_index;
  for (const auto& record : recovery->records) {
    const std::string s = ToString(record);
    const char thread_tag = s[1];
    const int index = std::stoi(s.substr(3));
    auto it = last_index.find(thread_tag);
    if (it != last_index.end()) {
      EXPECT_GT(index, it->second);
    }
    last_index[thread_tag] = index;
  }
}

// Organization equivalence: whatever the internal structure (Fig. 1a/1b/1c),
// the guardian computes the same abstract result for the same per-date
// request sequences — the organizations differ in concurrency, not meaning.
class OrgEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OrgEquivalence, SameRequestsSameFinalDatabase) {
  SystemConfig config;
  config.seed = 8;
  config.default_link.latency = Micros(50);
  System system(config);
  NodeRuntime& node = system.AddNode("n");
  node.RegisterGuardianType("flight", MakeFactory<FlightGuardian>());
  node.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  Guardian* driver = *node.Create<ShellGuardian>("shell", "driver", {});

  FlightConfig flight_config;
  flight_config.flight_no = 1;
  flight_config.capacity = 3;
  flight_config.organization = static_cast<FlightOrganization>(GetParam());
  flight_config.workers = 4;
  flight_config.logging = false;
  auto flight = node.Create<FlightGuardian>("flight", "f",
                                            flight_config.ToArgs(), false);
  ASSERT_TRUE(flight.ok());
  const PortName port = (*flight)->ProvidedPorts()[0];

  // One clerk per date so each date sees a deterministic sequence even in
  // the concurrent organizations.
  constexpr int kDates = 3;
  std::vector<std::thread> clerks;
  for (int d = 0; d < kDates; ++d) {
    clerks.emplace_back([&, d] {
      Rng rng(100 + d);
      const std::string date = "d" + std::to_string(d);
      for (int i = 0; i < 40; ++i) {
        const std::string passenger = "p" + std::to_string(rng.NextBelow(5));
        const bool cancel = rng.NextBool(0.3);
        RemoteCallOptions options;
        options.timeout = Millis(5000);
        auto reply = RemoteCall(
            *driver, port, cancel ? "cancel" : "reserve",
            {Value::Str(passenger), Value::Str(date)},
            ReservationReplyType(), options);
        ASSERT_TRUE(reply.ok()) << reply.status();
      }
    });
  }
  for (auto& clerk : clerks) {
    clerk.join();
  }

  // Compare against the reference computed directly on a FlightDb.
  FlightDb reference(1, 3);
  for (int d = 0; d < kDates; ++d) {
    Rng rng(100 + d);
    const std::string date = "d" + std::to_string(d);
    for (int i = 0; i < 40; ++i) {
      const std::string passenger = "p" + std::to_string(rng.NextBelow(5));
      const bool cancel = rng.NextBool(0.3);
      reference.Apply(cancel ? "cancel" : "reserve", passenger, date);
    }
  }
  EXPECT_TRUE((*flight)->SnapshotDb().Equals(reference))
      << "organization " << GetParam()
      << " diverged from the sequential reference";
}

INSTANTIATE_TEST_SUITE_P(AllOrganizations, OrgEquivalence,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace guardians
