// Consultant-driven repair: the acting half of the resilience loop.
//
// The fault subsystem (rocc/faults.hpp) perturbs the modeled system and the
// FaultDetector measures how long the analysis side takes to notice; this
// module closes the loop by *acting* on the detection signal.  A
// RepairPolicy maps fault types to repair actions with realistic
// retry/timeout/backoff semantics, and the RepairEngine schedules the
// attempts as ordinary calendar-queue events, so repair runs stay
// deterministic across --jobs values and bit-identical under both event
// queue implementations.
//
// Policy grammar (one action; join several with ';'):
//
//   restart_daemon[:timeout=500ms,max_retries=3,backoff=exp:200ms,
//                   jitter=0.1,success_p=0.9]
//   reroute_link[:penalty=1.5,threshold=2,...]
//   reset_pipe[:...]
//
// Times accept us / ms / s suffixes (bare numbers are microseconds), and
// every number must be finite.  An action matches fault types by kind:
// restart_daemon repairs daemon_stall / daemon_crash, reroute_link repairs
// link_slow, reset_pipe repairs pipe_backpressure; sample_drop is
// unrepairable.  The first declared action matching a fault's type
// handles it.
//
// Attempt lifecycle: when the detector first flags a fault, the matching
// action starts attempt 1, which occupies `timeout` of simulated time and
// then resolves by a Bernoulli draw with `success_p` from the dedicated
// kRepairRngTag stream (derived only when a policy is armed, so repair-free
// runs consume zero randomness).  Success applies the repair through the
// Simulation's repair API and records time_to_repair (injection -> repair
// completion, the MTTR numerator).  Failure backs off —
// base * 2^(attempt-1) for exp, base for fixed, times (1 + jitter * U) —
// and retries until the attempt budget `max_retries` is spent, which ends
// in the terminal `gave_up` outcome.  A fault whose window lifts naturally
// mid-repair just stops retrying (neither repaired nor gave_up).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "des/random.hpp"
#include "rocc/faults.hpp"
#include "rocc/simulation.hpp"

namespace paradyn::consultant {

enum class RepairAction : std::uint8_t {
  RestartDaemon,  ///< Kill + re-warm a stalled/crashed daemon (buffered loss).
  RerouteLink,    ///< Shift a slowed link's traffic to a fallback path.
  ResetPipe,      ///< Drain + unclamp a backpressured pipe.
};

[[nodiscard]] const char* to_string(RepairAction a) noexcept;

enum class BackoffKind : std::uint8_t { Exponential, Fixed };

struct RepairSpec {
  RepairAction action = RepairAction::RestartDaemon;
  /// Each attempt occupies this window before its outcome resolves.
  rocc::SimTime timeout_us = 500'000.0;
  /// Total attempt budget (>= 1); exhausting it yields `gave_up`.
  std::int32_t max_retries = 3;
  BackoffKind backoff = BackoffKind::Exponential;
  rocc::SimTime backoff_base_us = 200'000.0;
  /// Uniform jitter fraction on each backoff: b *= 1 + jitter * U[0, 1).
  double jitter = 0.0;
  /// Per-attempt success probability (1 = always; 0 forces gave_up).
  double success_p = 1.0;
  /// reroute_link only: the fallback path's capacity penalty (>= 1) that
  /// replaces the faulty link's slowdown factor.
  double penalty = 1.5;
  /// reroute_link only: engage only when the fault's slowdown factor is at
  /// least this (0 = always reroute).
  double threshold = 0.0;

  /// True when this action repairs faults of type `t`.
  [[nodiscard]] bool matches(rocc::FaultType t) const noexcept;
  /// "restart_daemon timeout=500000us retries=3 backoff=exp:200000us p=1".
  [[nodiscard]] std::string describe() const;
};

/// An ordered set of repair actions — the compiled --repair payload.
struct RepairPolicy {
  std::vector<RepairSpec> actions;

  [[nodiscard]] bool empty() const noexcept { return actions.empty(); }

  /// Parse a ';'-joined action list (the --repair flag payload).  Throws
  /// std::invalid_argument naming the offending token, its clause and
  /// character position, and — for misspelled actions/keys — the nearest
  /// known name.
  [[nodiscard]] static RepairPolicy parse(const std::string& specs);

  /// Range-check every action (parse() already did; for programmatic
  /// construction).  Throws std::invalid_argument.
  void validate() const;

  /// First declared action matching the fault's type and threshold, or
  /// nullptr when the fault is unrepairable under this policy.
  [[nodiscard]] const RepairSpec* match(const rocc::FaultSpec& f) const noexcept;
};

/// Drives repair attempts for one run.  Construct after the Simulation
/// (needs the resolved fault plan), wire on_detected to the FaultDetector's
/// detection callback, and finalize into the result's fault outcomes after
/// run().  DetectionHarness does all three.
class RepairEngine {
 public:
  RepairEngine(rocc::Simulation& sim, RepairPolicy policy);

  /// Detection signal: plan fault `fault_index` first diverged at `now`.
  void on_detected(std::size_t fault_index, rocc::SimTime now);

  /// Merge the per-fault repair records into the outcome rows (plan order;
  /// appended cascade-induced rows are left untouched).
  void finalize(std::vector<rocc::FaultOutcome>& outcomes) const;

 private:
  struct Record {
    bool attempted = false;
    std::uint32_t attempts = 0;
    bool repaired = false;
    bool gave_up = false;
    rocc::SimTime time_to_repair_us = -1.0;
    rocc::SimTime backoff_us = 0.0;
  };

  void resolve_attempt(std::size_t fault_index, std::int32_t attempt);
  /// Apply the action's effect through the Simulation repair API; false
  /// when the fault's effect already lifted on its own.
  bool apply(std::size_t fault_index);

  rocc::Simulation& sim_;
  RepairPolicy policy_;
  /// policy_.match result per plan fault (nullptr = unrepairable).
  std::vector<const RepairSpec*> matched_;
  des::RngStream rng_;
  std::vector<Record> records_;
};

}  // namespace paradyn::consultant
