// Fault / perturbation injection subsystem.
//
// The paper measures monitoring latency and perturbation under nominal
// operation; this module injects *off-nominal* behavior — stalled or
// crashed daemons, degraded links, lossy sampling, shrunken pipes — so the
// instrumentation system's detection latency and recovery behavior become
// measurable outputs (in the spirit of ParaVerser's fault-detection
// evaluation, DSN'25).  A FaultPlan is a list of typed, scheduled
// perturbations validated at configuration time and compiled into ordinary
// calendar-queue events at simulation start, so fault runs are
// deterministic across --jobs values and bit-identical under both event
// queue implementations (the schedule is plain (time, seq) events; every
// fault RNG is a dedicated stream independent of every model stream).
//
// Spec grammar (one fault; join several with ';'):
//
//   daemon_stall:daemon=0,start=1s,dur=500ms
//   daemon_crash:daemon=0,start=1s,dur=250ms
//   link_slow:start=2s,dur=1s,factor=8
//   sample_drop:node=all,start=1s,dur=2s,p=0.25
//   pipe_backpressure:daemon=0,start=1s,dur=1s,capacity=2
//
// Durations accept us / ms / s suffixes (bare numbers are microseconds).
// Every number must be finite; `capacity` and `cascade_hops` are integers.
// `daemon=all` / `node=all` (or -1) targets every daemon / node.
//
// Stochastic windows: `start` and `dur` also accept a distribution spec
// `exp:MEAN`, `uniform:LO:HI`, `lognormal:MEAN:STDDEV`, or
// `weibull:SHAPE:SCALE` (parameters take the same time suffixes; weibull's
// SHAPE is a bare number).  Drawn once per run at build time from a
// dedicated RNG stream (kFaultWindowRngTag), so fixed-window plans consume
// zero extra randomness and model streams never shift.
//
//   daemon_stall:daemon=0,start=exp:1s,dur=uniform:200ms:800ms
//
// Cascading faults: a daemon_stall / daemon_crash with a concrete target
// may carry `cascade=P` (per-hop propagation probability), plus optional
// `cascade_delay` (per hop, default 50ms), `cascade_hops` (default 1), and
// `cascade_factor` (neighbor uplink penalty, default 4).  When the fault
// fires, each topology neighbor (tree: parent and children; direct: the
// adjacent daemon indices) is tested once per cascade with probability P
// after the hop delay; a hit multiplies that daemon's forwarding-network
// occupancy by cascade_factor until the parent window ends, and appends an
// induced FaultOutcome with `cascaded_from` set to the parent's plan index.
//
// Overlap semantics (deterministic application order): windows apply in
// declaration order at their start times (same-time edges keep the plan's
// FIFO event order), and overlapping same-target effects are commutative —
// stalls extend to the max deadline, slowdown factors multiply, capacity
// clamps take the min, drop windows each draw independently — so reordering
// clauses never changes the modeled behavior, only RNG-stream-free event
// ordering.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "des/random.hpp"
#include "rocc/types.hpp"
#include "stats/distributions.hpp"

namespace paradyn::rocc {

/// Dedicated RNG stream tags (the role slot of RngStream(seed, entity,
/// role)) for the fault/repair machinery.  Derived only when the matching
/// feature is active, so feature-free runs consume zero extra randomness.
/// kFaultDropRngTag must stay 8 — the PR-6 value — for stream stability.
inline constexpr std::uint64_t kFaultDropRngTag = 8;
inline constexpr std::uint64_t kFaultWindowRngTag = 9;
inline constexpr std::uint64_t kCascadeRngTag = 10;
inline constexpr std::uint64_t kRepairRngTag = 11;

enum class FaultType : std::uint8_t {
  DaemonStall,       ///< Daemon stops draining/forwarding for the window.
  DaemonCrash,       ///< Daemon dies (in-memory batches lost), restarts after.
  LinkSlowdown,      ///< Network occupancies stretched by `magnitude`.
  SampleDrop,        ///< Samples dropped at pipe ingress with prob `magnitude`.
  PipeBackpressure,  ///< Pipe capacity clamped to `magnitude` samples.
};

[[nodiscard]] const char* to_string(FaultType t) noexcept;

/// One scheduled perturbation.
struct FaultSpec {
  FaultType type = FaultType::DaemonStall;
  /// Target daemon (stall/crash/backpressure) or node (sample_drop); -1 =
  /// all.  Ignored by link_slow (the interconnect is a shared resource).
  std::int32_t target = -1;
  SimTime start_us = 0.0;
  SimTime duration_us = 0.0;
  /// Type-dependent: slowdown factor (>= 1), drop probability (0, 1], or
  /// clamped pipe capacity (>= 1).  Unused for stall/crash.
  double magnitude = 0.0;

  /// Stochastic window: when set, start_us / duration_us are drawn once at
  /// simulation build time (FaultPlan::resolve) and the concrete values
  /// replace the placeholders above.
  stats::DistributionPtr start_dist;
  stats::DistributionPtr duration_dist;

  /// Cascade clause (stall/crash with a concrete target only); 0 = off.
  double cascade_p = 0.0;
  SimTime cascade_delay_us = 50'000.0;
  std::int32_t cascade_hops = 1;
  double cascade_factor = 4.0;

  [[nodiscard]] SimTime end_us() const noexcept { return start_us + duration_us; }
  [[nodiscard]] bool stochastic() const noexcept {
    return start_dist != nullptr || duration_dist != nullptr;
  }
  /// "daemon_stall daemon 0 @ [1e+06, 1.5e+06) us" — for stamps and tables.
  [[nodiscard]] std::string describe() const;
};

/// Scheduled set of perturbations for one run.
struct FaultPlan {
  std::vector<FaultSpec> faults;

  [[nodiscard]] bool empty() const noexcept { return faults.empty(); }

  /// Parse a ';'-joined spec list (the --fault flag payload).  Errors cite
  /// the clause number and the token's position within the full string.
  [[nodiscard]] static FaultPlan parse(const std::string& specs);

  /// Structural validation against the static shape of the system:
  /// windows must be non-degenerate, start inside [0, sim_duration), and
  /// target an existing daemon/node.  Stochastic windows skip the timing
  /// checks (the drawn values are clamped at resolve time instead).
  /// Throws std::invalid_argument.  `daemon_count` is the number of
  /// daemons the architecture will build (0 when instrumentation is
  /// disabled).
  void validate(std::int32_t daemon_count, std::int32_t nodes, SimTime sim_duration_us,
                std::int32_t pipe_capacity) const;

  /// True when any spec draws its window from a distribution.
  [[nodiscard]] bool any_stochastic() const noexcept;

  /// Draw every stochastic window (declaration order; start before
  /// duration) and replace the placeholders with concrete clamped values:
  /// start >= 0, duration >= 1 us.  A drawn start at/past the run length
  /// leaves a window that never fires (outcome stays `injected = false`).
  void resolve(des::Pcg32& rng);
};

/// Runtime sample-drop gate shared by the application processes of one
/// shard: the currently active drop windows plus one RNG stream per
/// emitting node, RngStream(seed, node, kFaultDropRngTag).  A node's drop
/// decisions depend only on its own emission history — never on how other
/// nodes' emissions interleave, on one shard or across several.  Bernoulli
/// draws happen only while a window covers the emitting node, so a
/// fault-free run consumes no randomness and every model entity's stream is
/// untouched by the presence of this object.
class FaultGate {
 public:
  explicit FaultGate(std::uint64_t seed) noexcept : seed_(seed) {}

  /// The open drop windows as (node, p) in opening order (node -1 = all
  /// nodes); Simulation's fault-effect fold rewrites them at every edge.
  [[nodiscard]] std::vector<std::pair<std::int32_t, double>>& windows() noexcept {
    return windows_;
  }

  [[nodiscard]] bool active() const noexcept { return !windows_.empty(); }

  /// One Bernoulli draw per active window covering `node`; true if any
  /// window claims the sample.
  [[nodiscard]] bool should_drop(std::int32_t node);

 private:
  [[nodiscard]] des::RngStream& stream_for(std::int32_t node);

  std::uint64_t seed_;
  /// Lazily materialized per-node streams.  Ordered map: iteration order
  /// never matters, but a deterministic container keeps the gate's behavior
  /// auditable.
  std::map<std::int32_t, des::RngStream> node_rngs_;
  std::vector<std::pair<std::int32_t, double>> windows_;
};

/// Post-run record of one injected fault.  Simulation fills the injection
/// side (plus cascade-induced entries, appended after the plan's in
/// declaration order); the consultant's FaultDetector fills
/// detection/recovery and its RepairEngine the repair block (negative
/// latency = not observed within the run).
struct FaultOutcome {
  FaultSpec spec;
  bool injected = false;
  bool detected = false;
  SimTime detection_latency_us = -1.0;
  bool recovered = false;
  SimTime recovery_latency_us = -1.0;

  /// Repair block (consultant/repair.hpp; all-defaults when no --repair
  /// policy was active or no action matched this fault type).
  bool repair_attempted = false;
  std::uint32_t repair_attempts = 0;
  bool repaired = false;
  bool gave_up = false;
  /// Injection -> successful repair completion (MTTR numerator); -1 when
  /// the fault was never repaired.
  SimTime time_to_repair_us = -1.0;
  /// Total simulated time spent backing off between failed attempts.
  SimTime repair_backoff_us = 0.0;

  /// Plan index of the fault whose cascade induced this one; -1 = a
  /// primary (planned) fault.
  std::int32_t cascaded_from = -1;
};

}  // namespace paradyn::rocc
