#include "src/bank/account_guardian.h"

#include "src/common/log.h"
#include "src/wire/value_codec.h"

namespace guardians {

PortType AccountPortType() {
  const ArgType kInt = ArgType::Of(TypeTag::kInt);
  const ArgType kStr = ArgType::Of(TypeTag::kString);
  return PortType(
      "account_port",
      {MessageSig{"deposit", {kInt, kStr}, {"ok_balance", "bad_amount"}},
       MessageSig{"withdraw",
                  {kInt, kStr},
                  {"ok_balance", "insufficient", "bad_amount"}},
       MessageSig{"balance", {}, {"balance_is"}},
       MessageSig{"statement_token", {}, {"the_token"}},
       MessageSig{"read_statement",
                  {ArgType::Of(TypeTag::kToken)},
                  {"statement", "bad_token"}}});
}

PortType BankReplyType() {
  return PortType(
      "bank_reply",
      {MessageSig{"ok_balance", {ArgType::Of(TypeTag::kInt)}, {}},
       MessageSig{"insufficient", {ArgType::Of(TypeTag::kInt)}, {}},
       MessageSig{"bad_amount", {}, {}},
       MessageSig{"balance_is", {ArgType::Of(TypeTag::kInt)}, {}},
       MessageSig{"the_token", {ArgType::Of(TypeTag::kToken)}, {}},
       MessageSig{"statement", {ArgType::Of(TypeTag::kArray)}, {}},
       MessageSig{"bad_token", {}, {}},
       MessageSig{"transfer_done", {ArgType::Of(TypeTag::kString)}, {}},
       MessageSig{"transfer_failed", {ArgType::Of(TypeTag::kString)}, {}}});
}

Status AccountGuardian::Setup(const ValueList& args) {
  return InitCommon(args, /*recovering=*/false);
}

Status AccountGuardian::Recover(const ValueList& args) {
  return InitCommon(args, /*recovering=*/true);
}

Status AccountGuardian::InitCommon(const ValueList& args, bool recovering) {
  if (args.size() != 2 || !args[0].is(TypeTag::kString) ||
      !args[1].is(TypeTag::kInt)) {
    return Status(Code::kInvalidArgument,
                  "account takes (owner, initial_balance)");
  }
  owner_ = args[0].string_value();
  balance_ = args[1].int_value();
  log_ = OpenLog("account");
  if (recovering) {
    GUARDIANS_ASSIGN_OR_RETURN(auto records, log_->RecoverValues());
    for (const auto& record : records) {
      GUARDIANS_ASSIGN_OR_RETURN(Value kind, record.field("kind"));
      GUARDIANS_ASSIGN_OR_RETURN(Value amount, record.field("amount"));
      GUARDIANS_ASSIGN_OR_RETURN(Value txid, record.field("txid"));
      const std::string id = txid.string_value();
      if (applied_.count(id) > 0) {
        continue;
      }
      applied_.insert(id);
      const int64_t delta = kind.string_value() == "deposit"
                                ? amount.int_value()
                                : -amount.int_value();
      balance_ += delta;
      statement_.push_back(Entry{id, kind.string_value(),
                                 amount.int_value(), balance_});
    }
  }
  AddPort(AccountPortType(), /*capacity=*/256, /*provided=*/true);
  return OkStatus();
}

void AccountGuardian::Main() {
  Port* requests = port(0);
  for (;;) {
    auto received = Receive(requests, Micros::max());
    if (!received.ok()) {
      return;
    }
    HandleRequest(*received);
  }
}

Result<int64_t> AccountGuardian::ApplyOp(const std::string& kind,
                                         int64_t amount,
                                         const std::string& txid) {
  std::lock_guard<std::mutex> lock(mu_);
  if (applied_.count(txid) > 0) {
    return balance_;  // exactly-once: a retry observes the original effect
  }
  if (kind == "withdraw" && balance_ < amount) {
    return Status(Code::kInvalidArgument, "insufficient");
  }
  // Permanence first: log, then apply, then the caller replies.
  Status logged = log_->AppendValue(
      Value::Record({{"kind", Value::Str(kind)},
                     {"amount", Value::Int(amount)},
                     {"txid", Value::Str(txid)}}));
  if (!logged.ok()) {
    return logged;
  }
  applied_.insert(txid);
  balance_ += kind == "deposit" ? amount : -amount;
  statement_.push_back(Entry{txid, kind, amount, balance_});
  return balance_;
}

void AccountGuardian::HandleRequest(const Received& request) {
  auto reply = [&](const char* command, ValueList args) {
    if (!request.reply_to.IsNull()) {
      Status st = Send(request.reply_to, command, std::move(args));
      (void)st;
    }
  };
  // Replies leave with mu_ released: a send may park this process (the
  // dedup journal's write latency), and no process parks holding a mutex.
  auto balance_now = [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return balance_;
  };

  if (request.command == "deposit" || request.command == "withdraw") {
    const int64_t amount = request.args[0].int_value();
    const std::string& txid = request.args[1].string_value();
    if (amount <= 0) {
      reply("bad_amount", {});
      return;
    }
    auto balance = ApplyOp(request.command, amount, txid);
    if (!balance.ok()) {
      if (balance.status().code() == Code::kInvalidArgument) {
        reply("insufficient", {Value::Int(balance_now())});
      }
      return;  // storage failure: stay silent, requester times out
    }
    reply("ok_balance", {Value::Int(*balance)});

  } else if (request.command == "balance") {
    reply("balance_is", {Value::Int(balance_now())});

  } else if (request.command == "statement_token") {
    size_t index;
    {
      std::lock_guard<std::mutex> lock(mu_);
      index = statement_.size();  // statement as of now
    }
    reply("the_token", {Value::OfToken(Seal(index))});

  } else if (request.command == "read_statement") {
    auto index = Unseal(request.args[0].token_value());
    if (!index.ok()) {
      reply("bad_token", {});
      return;
    }
    std::vector<Value> entries;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const size_t limit = std::min<size_t>(*index, statement_.size());
      for (size_t i = 0; i < limit; ++i) {
        const Entry& entry = statement_[i];
        entries.push_back(Value::Record(
            {{"txid", Value::Str(entry.txid)},
             {"kind", Value::Str(entry.kind)},
             {"amount", Value::Int(entry.amount)},
             {"balance", Value::Int(entry.balance_after)}}));
      }
    }
    reply("statement", {Value::Array(std::move(entries))});
  }
}

int64_t AccountGuardian::BalanceForTesting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return balance_;
}

}  // namespace guardians
