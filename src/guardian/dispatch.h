// Dispatch: the receive statement of Section 3.4 as a library construct.
//
//   receive on <port list>
//     when C1 (formal arglist) [replyto <formal port arg>]: S1
//     ...
//     when failure (x: string): Sfailure
//     when timeout <exp>: Stimeout
//   end
//
// becomes:
//
//   Dispatch()
//       .When("reserve", [&](const Received& m) { ... })
//       .OnFailure([&](const std::string& why, const Received& m) { ... })
//       .OnTimeout([&] { ... })
//       .Loop(*this, {port(0)}, Millis(500));
//
// "The line containing the command identifier of this message is selected
//  (such a line must exist; this can be checked at compile time)" — the
// analog here is CheckCovers(port_type), which verifies every declared
// command has a when-clause before the loop starts.
#ifndef GUARDIANS_SRC_GUARDIAN_DISPATCH_H_
#define GUARDIANS_SRC_GUARDIAN_DISPATCH_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/guardian/guardian.h"

namespace guardians {

class Dispatch {
 public:
  using Handler = std::function<void(const Received&)>;
  using FailureHandler =
      std::function<void(const std::string& reason, const Received&)>;
  using TimeoutHandler = std::function<void()>;

  // Adds a when-clause. Later duplicates replace earlier ones.
  Dispatch& When(const std::string& command, Handler handler) {
    handlers_[command] = std::move(handler);
    return *this;
  }

  // when failure (x: string) — the implicit system message. Without this
  // clause failure messages are ignored (many loops want exactly that).
  Dispatch& OnFailure(FailureHandler handler) {
    failure_ = std::move(handler);
    return *this;
  }

  // when timeout <exp>. Without this clause a timeout simply returns.
  Dispatch& OnTimeout(TimeoutHandler handler) {
    timeout_ = std::move(handler);
    return *this;
  }

  // The compile-time coverage check: every command of `type` (and nothing
  // else, bar failure) must have a when-clause.
  Status CheckCovers(const PortType& type) const {
    for (const auto& sig : type.signatures()) {
      if (handlers_.count(sig.command) == 0) {
        return Status(Code::kTypeError,
                      "no when-clause for command '" + sig.command +
                          "' of port type '" + type.name() + "'");
      }
    }
    for (const auto& [command, handler] : handlers_) {
      if (type.Find(command) == nullptr) {
        return Status(Code::kTypeError,
                      "when-clause for '" + command +
                          "' which port type '" + type.name() +
                          "' cannot deliver");
      }
    }
    return OkStatus();
  }

  // Execute one receive statement. Returns the receive's status: ok when a
  // message (or failure) was handled, kTimeout after the timeout clause ran,
  // kNodeDown when the node is down.
  Status Once(Guardian& guardian, const std::vector<Port*>& ports,
              Micros timeout) const {
    auto received = guardian.Receive(ports, timeout);
    if (!received.ok()) {
      if (received.status().code() == Code::kTimeout && timeout_) {
        timeout_();
      }
      return received.status();
    }
    if (received->command == kFailureCommand) {
      if (failure_) {
        const std::string reason =
            !received->args.empty() &&
                    received->args[0].is(TypeTag::kString)
                ? received->args[0].string_value()
                : "";
        failure_(reason, *received);
      }
      return OkStatus();
    }
    auto it = handlers_.find(received->command);
    if (it != handlers_.end()) {
      it->second(*received);
    }
    return OkStatus();
  }

  // Run Once until the node goes down or a handler calls Stop(). A timeout
  // does not end the loop (the timeout clause runs and the loop continues),
  // matching a server process's receive loop.
  Status Loop(Guardian& guardian, const std::vector<Port*>& ports,
              Micros timeout = Micros::max()) {
    stopped_ = false;
    for (;;) {
      Status st = Once(guardian, ports, timeout);
      if (st.code() == Code::kNodeDown) {
        return st;
      }
      if (stopped_) {
        return OkStatus();
      }
    }
  }

  // Callable from inside a handler to end Loop after this message.
  void Stop() { stopped_ = true; }

 private:
  std::map<std::string, Handler> handlers_;
  FailureHandler failure_;
  TimeoutHandler timeout_;
  bool stopped_ = false;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_GUARDIAN_DISPATCH_H_
