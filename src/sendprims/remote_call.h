// The remote transaction send (Section 3, primitive 3): "The sending
// process waits for a response from the receiving process that the command
// has been carried out" — Brinch Hansen's primitive, and the shape of
// remote invocation.
//
// Built on the no-wait send: the request carries an ephemeral reply port;
// the caller blocks on it with a timeout. On timeout "nothing is known
// about the true state of affairs: the request may never be done, or it
// might already be done" (Section 3.5). Historically that made retries
// sound only for idempotent requests; now every call is *tracked* — one
// dedup sequence number spans all attempts, the receiving node executes at
// most one of them and answers later attempts from its reply cache
// (DESIGN.md §10) — so retrying a non-idempotent request is safe.
#ifndef GUARDIANS_SRC_SENDPRIMS_REMOTE_CALL_H_
#define GUARDIANS_SRC_SENDPRIMS_REMOTE_CALL_H_

#include <string>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/guardian/guardian.h"

namespace guardians {

struct RemoteCallOptions {
  // Per-attempt receive timeout ("the expression e would cause a delay long
  // enough to permit the request to complete under reasonable
  // circumstances").
  Micros timeout{Millis(500)};
  // Total attempts. The at-most-once layer makes >1 sound even for
  // non-idempotent requests: re-deliveries are suppressed at the receiver
  // and answered from its reply cache, so "many performances" literally
  // are one performance. On exhaustion the uncertainty remains (the one
  // execution may still have happened), as Section 3.5 warns.
  int max_attempts = 1;
};

struct RemoteReply {
  std::string command;  // one of the declared replies, or "failure"
  ValueList args;
  int attempts = 0;     // how many sends it took
};

// Send `command` to `to` and wait for any reply on a fresh reply port of
// `reply_type`. System failure(...) messages count as replies (command
// "failure") on the final attempt but trigger a retry while attempts
// remain, like timeouts do. Only an application reply credits the
// destination's flow window; a failure never does.
Result<RemoteReply> RemoteCall(Guardian& caller, const PortName& to,
                               const std::string& command, ValueList args,
                               const PortType& reply_type,
                               const RemoteCallOptions& options = {});

// Convenience for the common remote-creation flow: ask `primordial` (the
// primordial port of another node) to create a guardian there, returning
// the provided ports. Creation is not idempotent, but retrying it is safe:
// the request is tracked (duplicates answered from the reply cache), and
// the target node keys remote creation by guardian name, so retries — even
// across a crash of the target in the logged-but-not-acked window —
// converge on the one guardian the first execution made.
Result<std::vector<PortName>> CreateGuardianAt(
    Guardian& caller, const PortName& primordial,
    const std::string& type_name, const std::string& guardian_name,
    ValueList creation_args, bool persistent, Micros timeout,
    int max_attempts = 3);

}  // namespace guardians

#endif  // GUARDIANS_SRC_SENDPRIMS_REMOTE_CALL_H_
