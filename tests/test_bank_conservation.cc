// Money-conservation property under loss and crashes: across any number of
// transfers on a lossy network with retries, plus a crash/restart of the
// branch node, no money is ever created; after recovery completes every
// in-doubt transfer, none is destroyed either.
#include <gtest/gtest.h>

#include <thread>

#include "src/bank/branch_guardian.h"
#include "src/guardian/system.h"
#include "src/sendprims/remote_call.h"

namespace guardians {
namespace {

class ConservationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConservationTest, TransfersUnderLossConserveMoney) {
  SystemConfig config;
  config.seed = GetParam();
  config.default_link.latency = Micros(150);
  config.default_link.drop_prob = 0.10;
  System system(config);

  NodeRuntime& hq = system.AddNode("hq");
  NodeRuntime& branch_node = system.AddNode("branch-town");
  for (NodeRuntime* node : {&hq, &branch_node}) {
    node->RegisterGuardianType(AccountGuardian::kTypeName,
                               MakeFactory<AccountGuardian>());
    node->RegisterGuardianType(BranchGuardian::kTypeName,
                               MakeFactory<BranchGuardian>());
    node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  }

  constexpr int kAccounts = 4;
  constexpr int64_t kInitial = 100;
  std::vector<AccountGuardian*> accounts;
  std::vector<PortName> account_ports;
  for (int i = 0; i < kAccounts; ++i) {
    NodeRuntime& node = i % 2 == 0 ? hq : branch_node;
    auto account = node.Create<AccountGuardian>(
        AccountGuardian::kTypeName, "acct-" + std::to_string(i),
        {Value::Str("owner-" + std::to_string(i)), Value::Int(kInitial)},
        /*persistent=*/true);
    ASSERT_TRUE(account.ok());
    accounts.push_back(*account);
    account_ports.push_back((*account)->ProvidedPorts()[0]);
  }
  auto branch = hq.Create<BranchGuardian>(
      BranchGuardian::kTypeName, "branch",
      {Value::Int(60000), Value::Int(4)}, /*persistent=*/true);
  ASSERT_TRUE(branch.ok());
  const PortName branch_port = (*branch)->ProvidedPorts()[0];

  auto teller = branch_node.Create<ShellGuardian>("shell", "teller", {});
  ASSERT_TRUE(teller.ok());

  // Fire transfers under loss.
  Rng rng(GetParam() ^ 0xC0FFEE);
  constexpr int kTransfers = 24;
  for (int i = 0; i < kTransfers; ++i) {
    const int from = static_cast<int>(rng.NextBelow(kAccounts));
    int to = static_cast<int>(rng.NextBelow(kAccounts));
    if (to == from) {
      to = (to + 1) % kAccounts;
    }
    RemoteCallOptions options;
    options.timeout = Millis(500);
    options.max_attempts = 3;  // the transfer request itself is txid-keyed
    auto reply = RemoteCall(
        **teller, branch_port, "transfer",
        {Value::OfPort(account_ports[from]), Value::OfPort(account_ports[to]),
         Value::Int(1 + static_cast<int64_t>(rng.NextBelow(20))),
         Value::Str("tx-" + std::to_string(i))},
        BankReplyType(), options);
    (void)reply;  // done, failed, or in doubt — conservation must hold
  }

  // Crash the branch's node mid-life and restart: recovery completes any
  // in-doubt transfer.
  hq.Crash();
  ASSERT_TRUE(hq.Restart().ok());

  // Stop losing packets and let recovery settle.
  LinkParams clean;
  clean.latency = Micros(150);
  system.network().SetDefaultLink(clean);

  auto total = [&]() {
    int64_t sum = 0;
    for (int i = 0; i < kAccounts; ++i) {
      // Re-find accounts on hq (their guardians were re-created).
      NodeRuntime& node = i % 2 == 0 ? hq : branch_node;
      auto* account = dynamic_cast<AccountGuardian*>(
          node.FindGuardian(account_ports[i].guardian));
      if (account == nullptr) {
        return int64_t{-1};
      }
      sum += account->BalanceForTesting();
    }
    return sum;
  };

  // Money must never exceed the initial supply (no creation), and after
  // recovery drains it must equal it exactly (no destruction).
  const Deadline deadline(Millis(8000));
  int64_t sum = -1;
  while (!deadline.Expired()) {
    sum = total();
    if (sum == kAccounts * kInitial) {
      break;
    }
    ASSERT_LE(sum, kAccounts * kInitial) << "money was created";
    std::this_thread::sleep_for(Millis(25));
  }
  EXPECT_EQ(sum, kAccounts * kInitial)
      << "money was destroyed (an in-doubt transfer never completed)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationTest,
                         ::testing::Values(11, 222, 3333));

TEST(PartitionHealTest, RetryStormAfterHealDoesNotDoubleApplyTransfers) {
  // The link between teller and branch is cut mid-workload and then
  // restored, with every surviving packet duplicated on the wire. The
  // retry storm that follows the heal — resent requests plus their network
  // duplicates — must be deduplicated: each transfer applies once, so the
  // total supply is conserved exactly.
  SystemConfig config;
  config.seed = 808;
  config.default_link.latency = Micros(150);
  config.default_link.dup_prob = 1.0;
  System system(config);

  NodeRuntime& hq = system.AddNode("hq");
  NodeRuntime& branch_node = system.AddNode("branch-town");
  for (NodeRuntime* node : {&hq, &branch_node}) {
    node->RegisterGuardianType(AccountGuardian::kTypeName,
                               MakeFactory<AccountGuardian>());
    node->RegisterGuardianType(BranchGuardian::kTypeName,
                               MakeFactory<BranchGuardian>());
    node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  }

  constexpr int kAccounts = 2;
  constexpr int64_t kInitial = 100;
  std::vector<PortName> account_ports;
  for (int i = 0; i < kAccounts; ++i) {
    auto account = hq.Create<AccountGuardian>(
        AccountGuardian::kTypeName, "acct-" + std::to_string(i),
        {Value::Str("owner-" + std::to_string(i)), Value::Int(kInitial)},
        /*persistent=*/true);
    ASSERT_TRUE(account.ok());
    account_ports.push_back((*account)->ProvidedPorts()[0]);
  }
  auto branch = hq.Create<BranchGuardian>(
      BranchGuardian::kTypeName, "branch",
      {Value::Int(60000), Value::Int(4)}, /*persistent=*/true);
  ASSERT_TRUE(branch.ok());
  const PortName branch_port = (*branch)->ProvidedPorts()[0];
  auto teller = branch_node.Create<ShellGuardian>("shell", "teller", {});
  ASSERT_TRUE(teller.ok());

  system.network().SetPartitioned(hq.id(), branch_node.id(), true);
  std::thread healer([&] {
    std::this_thread::sleep_for(Millis(400));
    system.network().SetPartitioned(hq.id(), branch_node.id(), false);
  });

  constexpr int kTransfers = 6;
  int applied = 0;
  for (int i = 0; i < kTransfers; ++i) {
    RemoteCallOptions options;
    options.timeout = Millis(150);
    options.max_attempts = 20;  // the first call's storm spans the heal
    auto reply = RemoteCall(
        **teller, branch_port, "transfer",
        {Value::OfPort(account_ports[0]), Value::OfPort(account_ports[1]),
         Value::Int(5), Value::Str("heal-tx-" + std::to_string(i))},
        BankReplyType(), options);
    if (reply.ok() && reply->command == "transfer_done") {
      ++applied;
    }
  }
  healer.join();
  EXPECT_EQ(applied, kTransfers);

  system.network().DrainForTesting();
  auto balance = [&](int i) {
    return dynamic_cast<AccountGuardian*>(
               hq.FindGuardian(account_ports[i].guardian))
        ->BalanceForTesting();
  };
  // Deadline loop: the last transfer's debit/credit legs may still be
  // settling inside the branch when the reply arrives.
  const Deadline deadline(Millis(8000));
  while (!deadline.Expired() &&
         balance(1) != kInitial + 5 * kTransfers) {
    std::this_thread::sleep_for(Millis(25));
  }
  // Exactly once each: duplicates suppressed, no double-applied legs.
  EXPECT_EQ(balance(0), kInitial - 5 * kTransfers);
  EXPECT_EQ(balance(1), kInitial + 5 * kTransfers);
  EXPECT_EQ(balance(0) + balance(1), kAccounts * kInitial);
  EXPECT_GE(system.metrics().CounterValue("deliver.dup.suppressed"), 1u);
}

}  // namespace
}  // namespace guardians
