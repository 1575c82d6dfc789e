// SpoolerGuardian: an office print spooler — a guardian that guards a
// *device* ("the resources being so guarded may be data, devices or
// computation", Section 2.3).
//
// Internal organization is Figure 1b in miniature: the Main process
// receives requests and queues jobs; a separate printer process consumes
// the queue, so submissions never wait for the device. Clients converse
// with the spooler about job state (queued / printing / done / canceled).
//
// The spooler is deliberately NOT persistent: like Section 3.5's
// transactions, a print queue is forgotten on a crash rather than resumed —
// the clerk resubmits, and the cabinet (which IS persistent) still has the
// document.
#ifndef GUARDIANS_SRC_SERVICES_SPOOLER_H_
#define GUARDIANS_SRC_SERVICES_SPOOLER_H_

#include <deque>
#include <map>
#include <mutex>
#include <string>

#include "src/common/task.h"
#include "src/guardian/node_runtime.h"
#include "src/transmit/document.h"

namespace guardians {

// submit (document)    replies (queued)            [job id]
// job_status (job)     replies (job_state)         [state string]
// cancel_job (job)     replies (canceled_job, too_late, unknown_job)
PortType SpoolerPortType();
PortType SpoolerReplyType();

class SpoolerGuardian : public Guardian {
 public:
  static constexpr char kTypeName[] = "spooler";

  // args: [per_word_print_time_us int]
  Status Setup(const ValueList& args) override;
  void Main() override;

  uint64_t printed() const;

 private:
  enum class JobState { kQueued, kPrinting, kDone, kCanceled };
  struct Job {
    int64_t id;
    std::shared_ptr<const Document> doc;
  };

  void PrinterLoop();
  const char* StateName(JobState state) const;

  Micros per_word_{Micros(100)};
  mutable std::mutex mu_;
  CondVar work_cv_;
  std::deque<Job> queue_;
  std::map<int64_t, JobState> states_;
  int64_t next_job_ = 1;
  uint64_t printed_ = 0;
  bool shutdown_ = false;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_SERVICES_SPOOLER_H_
