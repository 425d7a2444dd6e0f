// Simulation façade: builds the ROCC queueing network for a SystemConfig
// (Figure 2 / Figure 5), runs it, and reports the paper's metrics.
//
// Typical use:
//   auto cfg = rocc::SystemConfig::now(8);
//   cfg.sampling_period_us = 40'000;
//   cfg.batch_size = 32;                       // BF policy
//   cfg.warmup_us = 1e6;                       // optional transient deletion
//   rocc::SimulationResult r = rocc::Simulation(cfg).run();
//
// To consume delivered samples (e.g. with the Performance Consultant),
// construct the Simulation, attach a sink via main_process(), then run:
//   rocc::Simulation sim(cfg);
//   sim.main_process()->set_sample_sink([&](const rocc::Sample& s) { ... });
//   auto r = sim.run();
//
// Every run executes on a des::ShardSet of max(1, config.shards) shards.
// --shards is an execution choice only: one shard and many give the same
// results for the same uplink_latency_us.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "des/engine.hpp"
#include "des/shard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rocc/app_process.hpp"
#include "rocc/background.hpp"
#include "rocc/barrier.hpp"
#include "rocc/config.hpp"
#include "rocc/cost_model.hpp"
#include "rocc/cpu.hpp"
#include "rocc/daemon.hpp"
#include "rocc/faults.hpp"
#include "rocc/main_paradyn.hpp"
#include "rocc/metrics.hpp"
#include "rocc/network.hpp"
#include "rocc/partition.hpp"
#include "rocc/pipe.hpp"

namespace paradyn::rocc {

class Simulation {
 public:
  /// Validates and captures the configuration, then builds the model.
  explicit Simulation(SystemConfig config);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Run to config.duration_us and collect the metrics.  May be called once.
  [[nodiscard]] SimulationResult run();

  /// Accessors for tests and custom drivers (valid after construction).
  /// engine() is shard 0's engine — the one hosting the main Paradyn
  /// process, so detection/repair machinery that schedules against "the"
  /// engine lands on the shard whose clock governs sample delivery.
  [[nodiscard]] des::Engine& engine() noexcept { return shards_->engine(0); }
  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }
  /// Shard 0's collector: every delivery-side counter, and the whole run's
  /// counters when the run has one shard.
  [[nodiscard]] const MetricsCollector& metrics() const noexcept { return collectors_.front(); }
  [[nodiscard]] std::size_t num_daemons() const noexcept { return daemons_.size(); }
  [[nodiscard]] std::size_t num_apps() const noexcept { return apps_.size(); }
  /// The main Paradyn process, for attaching sample consumers (null when
  /// instrumentation is disabled).  Call before run().
  [[nodiscard]] MainParadyn* main_process() noexcept { return main_.get(); }

  /// The fault plan this run will inject: config.faults with stochastic
  /// windows already resolved to concrete values (drawn once at
  /// construction from the dedicated kFaultWindowRngTag stream).  Empty
  /// when no faults are configured (or instrumentation is disabled).
  [[nodiscard]] const FaultPlan& effective_fault_plan() const noexcept { return plan_; }

  // --- Consultant-driven repair actions (consultant/repair.hpp).  Each
  // returns true when the action was dispatched against a fault whose
  // effect was still active; callable only from inside the run.  The
  // decision reads only the plan and the repairs already dispatched, never
  // cross-shard state.  The action itself takes effect inside the calling
  // event when uplink_latency_us is 0, else one uplink latency later on
  // every affected shard. ---

  /// restart_daemon: kill + re-warm the daemons covered by plan fault
  /// `fault_index` (stall/crash) — buffered samples are lost (counted as
  /// dropped) and draining resumes, pre-empting the rest of the fault
  /// window.  False when no covered daemon was still stalled.
  bool repair_restart_daemon(std::size_t fault_index);
  /// reroute_link: replace the fault's active slowdown factor with the
  /// fallback path's capacity penalty (>= 1).  False when the window is
  /// not active.
  bool repair_reroute_link(std::size_t fault_index, double penalty_factor);
  /// reset_pipe: lift the fault's capacity clamp and drain the covered
  /// pipes (drained samples count as dropped).  False when the window is
  /// not active or the clamp was already reset.
  bool repair_reset_pipe(std::size_t fault_index);

  /// Record the run into `recorder`: engine spans, CPU/network occupancy
  /// intervals, daemon/main activity, and sample lifecycles, on fixed global
  /// tracks (0 = engine, 1 = network, 2 = main, then CPUs, daemons,
  /// application processes — labeled via track metadata).  One tracer (= one
  /// recorder process) per shard, named `process_name` for a one-shard run
  /// and "shard s" otherwise; each entity records on its owner shard's
  /// tracer.  Call before run(); the recorder must outlive it.
  void set_trace_recorder(obs::TraceRecorder& recorder,
                          const std::string& process_name = "rocc");

  /// Executor for the window loop (see des::ShardSet): absent, shards run
  /// serially in index order; experiments::ParallelRunner installs a pooled
  /// one by its lane rule.  Results are bit-identical either way.
  void set_shard_executor(des::ShardSet::Executor executor);

  /// Register the standard probes (event-queue depth, pipe occupancy,
  /// per-class CPU busy fraction, main backlog, sample counters) on
  /// `registry` and sample them every `tick_us` of simulated time during
  /// run().  Call before run(); the registry must outlive it.  Throws
  /// std::logic_error when the run has two or more shards (the probes read
  /// cross-shard state mid-run).
  void enable_metrics(obs::MetricsRegistry& registry, SimTime tick_us);

 private:
  void build();
  void schedule_metrics_tick();
  /// Compile the plan (and the resolved cascade hits) into shard-local
  /// timed events.
  void schedule_faults();
  /// Open or close plan fault `fault_index`'s window on `shard`'s replica
  /// of a replicated resource (link slowdown, drop gate, pipe clamp).
  void fault_edge(std::size_t fault_index, std::size_t shard, bool opening);
  /// Fold `shard`'s open effects into what they act on: the shard's network
  /// slowdown, its own daemons' uplink penalties and pipes' clamps, and its
  /// drop gate's windows.
  void fold_effects(std::size_t shard);
  /// Deterministic mirror of a daemon's stalled-until deadline as of shard
  /// 0 time `t`, folded from the plan's stall/crash windows and the restart
  /// deliveries this run dispatched (window starts win ties, restarts
  /// override) — restart_daemon decides from this instead of peeking at
  /// cross-shard daemon state.
  [[nodiscard]] SimTime mirror_stalled_until(std::size_t daemon, SimTime t) const;
  /// Run `deliver` on shard `to` one uplink latency after shard `from`'s
  /// now: inside the calling event when the latency is 0 (one shard, one
  /// window), else as a ShardSet mailbox message.
  template <class Deliver>
  void send(std::size_t from, std::size_t to, std::uint64_t sender_key, Deliver&& deliver);
  /// A fault/repair marker on `shard`'s engine track (no-op untraced).
  void trace_marker(std::size_t shard, const char* category, const char* name,
                    const char* arg_name, double arg);
  /// Shard owning CPU group `n` (the dedicated main host rides on shard 0).
  [[nodiscard]] std::size_t cpu_shard(std::size_t n) const;
  [[nodiscard]] SimulationResult collect() const;

  SystemConfig config_;
  /// Node -> shard map; max(1, config.shards) contiguous node blocks.
  PartitionPlan partition_;
  /// Every run is a ShardSet: one engine per shard, synchronized at windows
  /// of uplink_latency_us (one window for the whole run when that is 0).
  std::unique_ptr<des::ShardSet> shards_;
  /// One collector per shard, sized once in build() (entities keep
  /// references).  Shard 0's holds the main-owned delivery counters;
  /// generation-side counters are written where the emitting entity lives
  /// and summed by collect().
  std::vector<MetricsCollector> collectors_;
  obs::MetricsRegistry* registry_ = nullptr;
  SimTime metrics_tick_us_ = 0.0;

  std::vector<std::unique_ptr<CpuResource>> node_cpus_;
  /// Per-shard network replicas with per-node busy accounting, so collect()
  /// rebuilds the global figure in canonical node order.
  std::vector<std::unique_ptr<NetworkResource>> networks_;
  std::unique_ptr<BarrierManager> barrier_;
  std::vector<std::unique_ptr<Pipe>> pipes_;
  /// Index of the daemon draining pipes_[i] (backpressure targeting).
  std::vector<std::size_t> pipe_daemon_;
  std::vector<std::unique_ptr<ApplicationProcess>> apps_;
  std::vector<std::unique_ptr<ParadynDaemon>> daemons_;
  std::vector<std::size_t> daemon_shard_;
  std::unique_ptr<MainParadyn> main_;
  std::vector<std::unique_ptr<OpenArrivalStream>> background_;
  /// Sampling regulators by shard (empty when off): the global scope's one
  /// on shard 0, or one per shard holding that shard's daemon domains.
  /// Daemon d's period is domain daemon_domain_[d] of its shard's regulator.
  std::vector<std::unique_ptr<SamplingRegulator>> regulators_;
  std::vector<std::int32_t> daemon_domain_;

  /// Runtime fault state.  fault_outcomes_ has one row per plan fault, then
  /// one per cascade hit.
  FaultPlan plan_;
  std::vector<FaultOutcome> fault_outcomes_;
  /// Per-shard drop gates (allocated only when the plan drops samples).
  std::vector<std::unique_ptr<FaultGate>> gates_;
  /// Build-time resolved cascade hits (partition.hpp), in engine order; hit
  /// k is outcome row plan_.faults.size() + k.
  std::vector<CascadeHit> cascade_hits_;
  /// Per-shard open effects as (outcome row, value) in opening order: plan
  /// link_slow, sample_drop and pipe_backpressure rows on every shard, and
  /// cascade rows on the hit daemon's shard.  A window's close and
  /// reset_pipe erase their row, reroute_link rewrites its value, and every
  /// change refolds the list (fold_effects), so overlapping windows revert
  /// exactly what they applied.
  std::vector<std::vector<std::pair<std::size_t, double>>> effects_;
  /// Control events that fired per shard: effects replicated onto every
  /// shard (link/drop/clamp edges, repair broadcasts) plus regulator ticks.
  /// collect() reports sum(engines) - sum(control) + control[0], which is
  /// invariant in the shard count.
  std::vector<std::uint64_t> control_fired_;
  /// Repair mirror: restart delivery times dispatched per daemon, and a
  /// one-shot flag per plan fault for reset_pipe.
  std::vector<std::vector<SimTime>> restart_dispatches_;
  std::vector<char> reset_dispatched_;
  /// One tracer per shard while tracing, else empty.
  std::vector<obs::Tracer> tracers_;
  bool ran_ = false;
};

/// Convenience: build and run in one call.
[[nodiscard]] SimulationResult run_simulation(const SystemConfig& config);

}  // namespace paradyn::rocc
