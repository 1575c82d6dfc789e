#include "src/services/spooler.h"

#include <optional>
#include <thread>

#include "src/guardian/system.h"

namespace guardians {

PortType SpoolerPortType() {
  return PortType(
      "spooler",
      {MessageSig{"submit", {ArgType::AbstractOf(kDocumentTypeName)},
                  {"queued"}},
       MessageSig{"job_status", {ArgType::Of(TypeTag::kInt)},
                  {"job_state", "unknown_job"}},
       MessageSig{"cancel_job", {ArgType::Of(TypeTag::kInt)},
                  {"canceled_job", "too_late", "unknown_job"}}});
}

PortType SpoolerReplyType() {
  return PortType(
      "spooler_reply",
      {MessageSig{"queued", {ArgType::Of(TypeTag::kInt)}, {}},
       MessageSig{"job_state", {ArgType::Of(TypeTag::kString)}, {}},
       MessageSig{"unknown_job", {}, {}},
       MessageSig{"canceled_job", {}, {}},
       MessageSig{"too_late", {}, {}}});
}

Status SpoolerGuardian::Setup(const ValueList& args) {
  if (args.size() != 1 || !args[0].is(TypeTag::kInt)) {
    return Status(Code::kInvalidArgument,
                  "spooler takes (per_word_print_time_us)");
  }
  per_word_ = Micros(args[0].int_value());
  // Documents must be decodable at this node for submissions to arrive.
  if (!runtime().transmit_registry().Knows(kDocumentTypeName)) {
    Status st = runtime().transmit_registry().Register(kDocumentTypeName,
                                                       DocumentDecoder());
    (void)st;
  }
  AddPort(SpoolerPortType(), /*capacity=*/128, /*provided=*/true);
  // The device process (the q of Figure 1b, with the queue as S).
  Fork("printer", [this] { PrinterLoop(); });
  return OkStatus();
}

void SpoolerGuardian::Main() {
  Port* requests = port(0);
  for (;;) {
    auto received = Receive(requests, Micros::max());
    if (!received.ok()) {
      // Node down: release the printer process too.
      {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
      }
      work_cv_.notify_all();
      return;
    }
    runtime().system().metrics().counter("services.spooler.requests")->Inc();
    auto reply = [&](const char* command, ValueList args) {
      if (!received->reply_to.IsNull()) {
        Status st = Send(received->reply_to, command, std::move(args));
        (void)st;
      }
    };

    if (received->command == "submit") {
      auto doc = std::static_pointer_cast<const Document>(
          received->args[0].abstract_value());
      int64_t id;
      {
        std::lock_guard<std::mutex> lock(mu_);
        id = next_job_++;
        queue_.push_back(Job{id, std::move(doc)});
        states_[id] = JobState::kQueued;
      }
      work_cv_.notify_one();
      reply("queued", {Value::Int(id)});

    } else if (received->command == "job_status") {
      // Replies leave with mu_ released: a send may park this process, and
      // the printer process takes mu_ too.
      const int64_t id = received->args[0].int_value();
      std::optional<JobState> state;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = states_.find(id);
        if (it != states_.end()) {
          state = it->second;
        }
      }
      if (state.has_value()) {
        reply("job_state", {Value::Str(StateName(*state))});
      } else {
        reply("unknown_job", {});
      }

    } else if (received->command == "cancel_job") {
      const int64_t id = received->args[0].int_value();
      const char* answer = "unknown_job";
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = states_.find(id);
        if (it != states_.end() && it->second == JobState::kQueued) {
          it->second = JobState::kCanceled;
          answer = "canceled_job";
        } else if (it != states_.end()) {
          // Printing, done, or already canceled: the paper's asymmetry
          // again — what has happened cannot be unhappened.
          answer = "too_late";
        }
      }
      reply(answer, {});
    }
  }
}

void SpoolerGuardian::PrinterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (shutdown_) {
      return;
    }
    Job job = std::move(queue_.front());
    queue_.pop_front();
    if (states_[job.id] == JobState::kCanceled) {
      continue;  // canceled while queued
    }
    states_[job.id] = JobState::kPrinting;
    const size_t words = job.doc->WordCount();
    lock.unlock();
    // "Print": the device is busy for a word-proportional time.
    if (per_word_.count() > 0 && words > 0) {
      runtime().clock().SleepFor(per_word_ * words);
    }
    lock.lock();
    if (shutdown_) {
      return;
    }
    states_[job.id] = JobState::kDone;
    ++printed_;
  }
}

const char* SpoolerGuardian::StateName(JobState state) const {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kPrinting:
      return "printing";
    case JobState::kDone:
      return "done";
    case JobState::kCanceled:
      return "canceled";
  }
  return "?";
}

uint64_t SpoolerGuardian::printed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return printed_;
}

}  // namespace guardians
