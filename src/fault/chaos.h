// Deterministic chaos harness: FoundationDB-style simulation testing for
// the §1.1/§2.2 fault model.
//
// One seed generates a time-ordered schedule of composed fault events —
// symmetric and one-way partitions forming and healing, campus-level cuts
// (topology.h), link-quality storms (LinkParams loss/dup/corrupt/jitter
// mutated mid-run through the Network's link-epoch path, under the global
// send lock), node crashes (quiescent power failures, or crash plans armed
// at a stable-store mutation boundary, with supervised restarts), and
// StableStore device failures — interleaved with the bank and airline
// workloads plus a non-idempotent tally guardian that witnesses duplicate
// effects.
//
// After every epoch and at final quiescence a ChaosInvariants pass asserts
// the global laws the system already implies:
//
//   - packet conservation: delivered + dropped == sent + duplicated
//   - bank balance conservation (no creation mid-run; exact at the end)
//   - airline no-oversell, FlightDb invariants, §2.2 permanence of acked
//     effects after recovery, no phantoms
//   - zero duplicate non-idempotent effects (the tally witness)
//   - no expired op produces an effect: every kOverloadStorm op carries a
//     1us wire budget it cannot survive, and the tally witness proves none
//     of them ever executed (§16 deadline-aware shedding)
//   - metric ledger identities across layers, e.g.
//     sendprims.reliable.calls == ok + exhausted + deadline_exceeded
//     + hard_fail, and the shards' enqueued == delivered + dropped
//
// On a violation the engine dumps the seed, the full event schedule and
// DumpTrace output; ShrinkSchedule then delta-debugs the schedule (ddmin
// chunk removal) down to a 1-minimal failing schedule — no single event
// can be dropped without the failure disappearing — which is what a
// human debugs.
//
// Determinism: in the default (unsupervised) mode the workload is driven
// in lockstep — each operation completes (or times out) before the next
// starts, and every event applies on a drained network at an epoch
// boundary — so the global Send order, and with it every loss/dup/corrupt
// die roll, is a pure function of the seed. The outcome counts are then
// bit-identical at every (delivery_shards x delivery_batch_max) point,
// which tests/test_chaos.cc asserts over the same grid test_batching uses.
#ifndef GUARDIANS_SRC_FAULT_CHAOS_H_
#define GUARDIANS_SRC_FAULT_CHAOS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/fault/fault_injector.h"
#include "src/net/network.h"

namespace guardians {

enum class ChaosEventKind {
  kPartition,        // symmetric cut between nodes a and b
  kHeal,             // heal the symmetric cut
  kPartitionOneWay,  // cut a -> b only; b -> a still flows
  kHealOneWay,       // heal the one-way cut
  kCampusCut,        // cut every cross-campus pair (PartitionCampuses)
  kCampusHeal,       // heal the campus cut
  kLinkStorm,        // override LinkParams on the a<->b link
  kLinkCalm,         // restore the default params on the a<->b link
  kCrash,            // crash node a; restarted per ChaosConfig::supervised
  kStoreFail,        // node a's stable store starts failing mutations
  kStoreHeal,        // the store works again
  kDupReplay,        // re-send a duplicate of a completed non-idempotent op
  // Simulated-time events (generated only when ChaosConfig::sim_time; a
  // wall-clock RunSchedule treats them as no-ops so hand-built schedules
  // stay portable):
  kClockSkew,        // step node a's clock by skew_us (may be negative)
  kClockDrift,       // node a's clock runs at `drift` x base speed
  kReorderStorm,     // hold up to reorder_k packets on the a<->b link;
                     // released in a seed-shuffled order at epoch end
  // Clock-agnostic again (wall and sim alike):
  kOverloadStorm,    // burst of overload_n deadline-doomed tracked adds
                     // (1us wire budgets no hop can survive); the tally
                     // witness proves none of them produced an effect
};

struct ChaosEvent {
  ChaosEventKind kind = ChaosEventKind::kPartition;
  int epoch = 0;   // applied (in schedule order) before this epoch's ops
  NodeId a = 0;    // primary node: crash/store target, or link endpoint
  NodeId b = 0;    // second link endpoint (partition/storm events)
  LinkParams storm{};         // kLinkStorm only
  // kCrash, supervised mode: the plan armed on node a's stable store;
  // none = a direct power failure between operations.
  std::optional<CrashPlan> crash_plan{};
  int64_t skew_us = 0;      // kClockSkew: step size (negative = backward)
  double drift = 1.0;       // kClockDrift: rate vs base time
  uint64_t reorder_k = 0;   // kReorderStorm: max packets held
  uint64_t overload_n = 0;  // kOverloadStorm: doomed ops in the burst

  std::string Describe() const;
};

struct ChaosConfig {
  uint64_t seed = 1;
  int epochs = 6;
  int ops_per_epoch = 6;
  // Forwarded into SystemConfig: the determinism grid.
  size_t delivery_shards = Network::kDefaultShards;
  size_t delivery_batch_max = Network::kDefaultBatchMax;
  // false: deterministic mode — crashes are quiescent power failures with
  // an immediate synchronous restart, storms keep dup off the RPC links,
  // and outcome counts are bit-identical across the shard/batch grid.
  // true: supervised mode — crashes arm plans at stable-store mutation
  // boundaries, a Supervisor restarts (and may quarantine) the node, and
  // storms hit every link; counts are then timing-dependent, so only the
  // schedule and the invariants are asserted.
  bool supervised = false;
  // Generous on purpose: a healthy op must never time out from host
  // scheduling jitter alone (a spurious retry changes the packet counts
  // and breaks grid determinism on slow or oversubscribed machines);
  // doomed ops don't pay this — their budgets are derived from the
  // schedule-mirrored link state.
  Micros op_timeout{Millis(400)};
  int op_attempts = 4;
  // Epilogue budget: heal everything, restart what is down, and wait for
  // the system to answer probes before the final invariant pass.
  Micros settle_deadline{Millis(15000)};
  // Plant the known at-most-once bug (the dedup layer skips the journal
  // write; Plant::kSkipDedupJournal) for the shrinker proof. Tests only.
  bool plant_dedup_bug = false;
  // Run the whole world on a SimulatedClock owned by RunSchedule (with an
  // auto-stepper driving virtual time). Unlocks the clock-skew / drift /
  // reordering events above; timeout-heavy schedules finish at simulation
  // speed. Off by default: the wall-clock build and its pinned seeds are
  // untouched.
  bool sim_time = false;
  // Receiver dedup-session idle GC horizon, forwarded to SystemConfig
  // (0 = sweep disabled). Only meaningful with sim_time skew schedules or
  // very long runs.
  Micros dedup_session_idle{0};
  // Plant the TTL-on-local-clock bug (Plant::kDedupSweepOnLocalClock: the
  // dedup layer measures session idleness on the node's skewable clock
  // instead of the monotonic base clock). Only a sim_time schedule with a
  // forward skew step >= the idle horizon can expose it — wall-clock chaos
  // cannot reproduce it deterministically. Tests only.
  bool plant_clock_bug = false;
};

// Outcome counts that must be bit-identical across the shard/batch grid in
// deterministic mode (the test_batching contract, extended to chaos runs).
struct ChaosCounts {
  NetworkStats net;
  uint64_t executions = 0;   // deliver.delivered, all nodes
  uint64_t suppressed = 0;   // deliver.dup.suppressed: duplicates stopped
  uint64_t replayed = 0;     // deliver.dup.replayed: ...answered from cache
  uint64_t partition_drops = 0;         // net.drop.partition
  uint64_t oneway_partition_drops = 0;  // net.drop.partition_oneway
  uint64_t link_epochs = 0;  // Network::link_epoch at the end of the run

  bool Equal(const ChaosCounts& other) const;
  std::string Diff(const ChaosCounts& other) const;  // empty when Equal
};

struct ChaosViolation {
  int epoch = -1;  // -1: the final post-settle pass
  std::string invariant;
  std::string detail;
};

struct ChaosReport {
  uint64_t seed = 0;
  std::vector<ChaosEvent> schedule;
  std::vector<ChaosViolation> violations;
  ChaosCounts counts;
  uint64_t events_applied = 0;
  uint64_t crashes = 0;
  uint64_t recoveries = 0;
  uint64_t dup_replays = 0;
  int ops_attempted = 0;
  int ops_acked = 0;
  // Blocked waits (receives and idle delivery shards) that ended mid-spin
  // (DESIGN.md §8). Timing-dependent on the wall clock; always 0 with
  // sim_time, where nothing spins.
  uint64_t waits_spun = 0;
  // Seed + schedule + DumpTrace evidence; filled when violations exist.
  std::string failure_dump;

  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

// The engine. Stateless between runs: every Run/RunSchedule builds a fresh
// three-node world (region: accounts + branch + flight f1 + tally; annex:
// flight f2 + a fire-and-forget noise sink; client: the driver), campuses
// {region, annex} | {client}, drives the composed workload through the
// schedule, and checks invariants at every epoch boundary.
class ChaosEngine {
 public:
  explicit ChaosEngine(ChaosConfig config);

  // Pure function of the config: same seed, same schedule, every time.
  std::vector<ChaosEvent> GenerateSchedule() const;

  // GenerateSchedule + RunSchedule.
  ChaosReport Run();
  // Run the workload under an explicit schedule (the shrinker's entry
  // point; also how tests construct hand-built schedules).
  ChaosReport RunSchedule(const std::vector<ChaosEvent>& schedule);

  const ChaosConfig& config() const { return config_; }

 private:
  ChaosConfig config_;
};

struct ShrinkResult {
  std::vector<ChaosEvent> minimal;  // smallest schedule that still fails
  int runs = 0;                     // re-runs the shrinker spent
  ChaosReport final_report;         // the report of the minimal schedule
};

// ddmin (Zeller/Hildebrandt) chunk removal: split the schedule into n
// chunks, try dropping each whole chunk, restart coarse on success and
// double the granularity on failure, until no single event can be removed
// (1-minimal). Removing a chunk of k events costs one re-run instead of
// k, so a 12-event schedule with a 2-event culprit shrinks in ~a dozen
// runs rather than ~60. The engine's epilogue heals every fault
// regardless of schedule content, so any subset of a sane schedule is
// itself sane (no stuck partitions/stores).
ShrinkResult ShrinkSchedule(const ChaosConfig& config,
                            const std::vector<ChaosEvent>& failing);

}  // namespace guardians

#endif  // GUARDIANS_SRC_FAULT_CHAOS_H_
