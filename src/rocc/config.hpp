// Simulation configuration: every knob of the ROCC model, with builders for
// the paper's three architecture cases parameterized per Table 2.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include "rocc/faults.hpp"
#include "rocc/types.hpp"
#include "stats/distributions.hpp"

namespace paradyn::rocc {

/// Workload of one (instrumented) application process: alternating
/// computation and communication states (Figure 7), optionally extended
/// with the Blocked-for-I/O state of the detailed model (Figure 6).
struct AppModel {
  /// Length of a CPU occupancy request (computation state).
  stats::DistributionPtr cpu_burst;
  /// Length of a network occupancy request (communication state).
  stats::DistributionPtr net_burst;
  /// Probability that a cycle ends in the Blocked (I/O) state of Figure 6;
  /// 0 reproduces the simplified two-state model of Figure 7.
  double io_block_probability = 0.0;
  /// Duration of an I/O block (required when io_block_probability > 0).
  stats::DistributionPtr io_block_duration;
};

/// Which perturbation the sampling regulator (rocc/cost_model.hpp) keeps
/// under budget by stretching the sampling period on-line.  Global is
/// Paradyn's dynamic cost model (reference [12], --adaptive-budget): one
/// period for the whole IS against its direct CPU cost.  PerDaemon
/// (--adaptive-sampling) gives each daemon its own period against its CPU
/// plus its applications' pipe-blocked time.
enum class RegulatorScope : std::uint8_t { Off, Global, PerDaemon };

struct RegulatorConfig {
  RegulatorScope scope = RegulatorScope::Off;
  /// Perturbation budget, percent of the domain's CPU capacity (all CPUs
  /// for Global, the host's for PerDaemon).
  double budget_pct = 1.0;
  /// Global scope only: tick interval and period bounds.  The per-daemon
  /// law fixes its own (250 ms, [SP, 16 SP]).
  SimTime adjust_interval_us = 500'000.0;
  SimTime min_period_us = 1'000.0;
  SimTime max_period_us = 1'000'000.0;
};

/// How instrumentation data is produced (Section 2.3.1): periodic sampling
/// ("after specified intervals of time") or event tracing ("after
/// occurrence of an event of interest") — here, one trace record per
/// completed computation/communication cycle.
enum class InstrumentationMode : std::uint8_t { Sampling, Tracing };

/// Cost model of a Paradyn daemon.  The paper's Table 2 gives a single
/// exponential(267) CPU request per collected-and-forwarded sample; we split
/// it into a per-sample *collect* part and a per-forwarding-operation
/// *forward* part (the system call the paper identifies as the CF policy's
/// overhead).  collect+forward defaults sum to the Table 2 mean, so CF
/// reproduces the measured per-sample cost while BF amortizes the forward
/// part across the batch.
struct PdCostModel {
  stats::DistributionPtr collect_cpu;   ///< CPU per collected sample.
  stats::DistributionPtr forward_cpu;   ///< CPU per forwarding operation.
  stats::DistributionPtr net_occupancy; ///< Network per forwarding operation.
  stats::DistributionPtr merge_cpu;     ///< CPU per received batch (tree only).
};

/// Background load: the PVM daemon and "other user/system processes" of
/// Table 2, modeled as open arrival streams.
struct BackgroundModel {
  bool enabled = true;
  stats::DistributionPtr pvmd_cpu_length;
  stats::DistributionPtr pvmd_net_length;
  stats::DistributionPtr pvmd_interarrival;
  stats::DistributionPtr other_cpu_length;
  stats::DistributionPtr other_net_length;
  stats::DistributionPtr other_cpu_interarrival;
  stats::DistributionPtr other_net_interarrival;
};

/// Full system configuration.
struct SystemConfig {
  Architecture arch = Architecture::Now;

  /// Number of system nodes.  NOW/MPP: physical nodes, each with
  /// `cpus_per_node` CPUs.  SMP: the paper's "number of nodes" is the
  /// number of CPUs in the shared pool; use the smp() builder.
  std::int32_t nodes = 8;
  std::int32_t cpus_per_node = 1;

  /// Application processes per node (NOW/MPP) or in total (SMP).
  std::int32_t app_processes_per_node = 1;

  /// Paradyn daemons: always 1 per node for NOW/MPP; 1-4 total for SMP.
  std::int32_t daemons = 1;

  /// Sampling period (microseconds): time between successive samples from
  /// each instrumented application process.
  SimTime sampling_period_us = 40'000.0;

  /// Sampling (timer-driven) vs tracing (event-driven) data collection.
  InstrumentationMode instrumentation_mode = InstrumentationMode::Sampling;

  /// On-line sampling regulation; sampling_period_us is the initial period.
  RegulatorConfig regulator;

  /// Batch size in samples; 1 == collect-and-forward.
  std::int32_t batch_size = 1;

  ForwardingTopology topology = ForwardingTopology::Direct;
  NetworkContention contention = NetworkContention::ContentionFree;

  /// CPU scheduling quantum (Table 2: 10,000 us).
  SimTime cpu_quantum_us = 10'000.0;

  /// Global barrier period for the application (microseconds); 0 disables
  /// barriers (Figure 28 sweeps this).  Time-based: a process joins the
  /// next barrier once this much time elapsed since its last one.
  SimTime barrier_period_us = 0.0;

  /// Work-based barriers: join the barrier every N computation/
  /// communication cycles (the SPMD iteration structure); 0 disables.
  /// May be combined with barrier_period_us; either trigger joins.
  std::int32_t barrier_every_cycles = 0;

  /// Capacity (in samples) of the Unix pipe between an application process
  /// and its Paradyn daemon.  A full pipe blocks the producer (Section
  /// 4.3.3).
  std::int32_t pipe_capacity = 64;

  /// Master switch for the IS; false simulates the uninstrumented system
  /// (the "Uninstrumented" curves in the figures).
  bool instrumentation_enabled = true;

  /// Host the main Paradyn process on a dedicated extra workstation (the
  /// paper's Figure 29 measurement setup) instead of sharing node 0's CPU
  /// (the Section 4.2 simulation setup).
  bool main_on_dedicated_host = false;

  /// Record every delivered sample's latency in SimulationResult::
  /// latency_series_us (memory ~ one double per sample) for steady-state
  /// time-series analysis.
  bool record_latency_series = false;

  /// Fault plan (--fault): typed, scheduled perturbations — daemon stalls
  /// and crashes, link slowdowns, sample drops, pipe backpressure —
  /// compiled into calendar-queue events at simulation setup.
  FaultPlan faults;

  /// Simulated duration and RNG seed.
  SimTime duration_us = 10.0e6;
  std::uint64_t seed = 1;

  /// Conservative-window PDES shard count (--shards), an execution choice
  /// only: every run is a des::ShardSet of max(1, shards) contiguous node
  /// groups, each owning its own des::Engine, and results are bit-identical
  /// for every count (the differential suite gates 0, 1 and N).  Two or
  /// more shards need uplink_latency_us > 0 (the lookahead) and reject SMP,
  /// barriers and the global regulator scope.
  std::int32_t shards = 0;

  /// Minimum latency (microseconds) of a daemon's uplink delivery — batch
  /// forwarding completes on the network at t, and the destination (main or
  /// tree parent) receives it at t + uplink_latency_us.  This is the
  /// cross-shard lookahead and the window width.  0 (one shard only) hands
  /// each batch over inside the event that cleared the network.
  SimTime uplink_latency_us = 0.0;

  /// Warm-up (transient-deletion) period: the model runs for this long,
  /// all accounting is reset, and metrics cover only the remaining
  /// duration_us - warmup_us of (closer-to-)steady-state operation.
  SimTime warmup_us = 0.0;

  AppModel app;
  /// Optional per-node application workload overrides (e.g. a skewed node
  /// for bottleneck-search scenarios); nodes not listed use `app`.
  std::map<std::int32_t, AppModel> app_overrides;
  PdCostModel pd;
  BackgroundModel background;
  /// Main Paradyn process CPU demand per received forwarding unit.
  stats::DistributionPtr main_cpu;

  /// Effective scheduling policy implied by batch_size.
  [[nodiscard]] SchedulingPolicy policy() const noexcept {
    return batch_size <= 1 ? SchedulingPolicy::CollectAndForward
                           : SchedulingPolicy::BatchAndForward;
  }

  /// Number of Paradyn daemons the simulation will build — statically
  /// derivable from the architecture, so fault targets can be validated at
  /// configuration time.  0 when instrumentation is disabled.
  [[nodiscard]] std::int32_t daemon_count() const noexcept {
    if (!instrumentation_enabled) return 0;
    return arch == Architecture::Smp ? daemons : nodes;
  }

  /// Throws std::invalid_argument if any knob is out of range or any
  /// required distribution is missing.
  void validate() const;

  /// One-line human-readable summary of the headline knobs, for
  /// reproducibility stamps and report headers.
  [[nodiscard]] std::string summary() const;

  /// Paper-default NOW configuration (Section 4.2): `nodes` workstations,
  /// one app process + one Pd each, contention-free network (per the
  /// captions of Figures 18-19), main Paradyn on node 0.
  [[nodiscard]] static SystemConfig now(std::int32_t nodes);

  /// Paper-default SMP configuration (Section 4.3): `cpus` processors in a
  /// shared pool, `app_processes` application processes, `daemons` Paradyn
  /// daemons, shared-bus interconnect.
  [[nodiscard]] static SystemConfig smp(std::int32_t cpus, std::int32_t app_processes,
                                        std::int32_t daemons);

  /// Paper-default MPP configuration (Section 4.4): `nodes` nodes, one app
  /// + one Pd each, contention-free network, direct or tree forwarding.
  [[nodiscard]] static SystemConfig mpp(std::int32_t nodes,
                                        ForwardingTopology topology = ForwardingTopology::Direct);

  /// The Table 2 workload parameterization shared by all three builders.
  [[nodiscard]] static SystemConfig paper_defaults();
};

}  // namespace paradyn::rocc
