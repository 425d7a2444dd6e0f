#include "rocc/simulation.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace paradyn::rocc {
namespace {

/// Mailbox sender keys for cross-shard messages (des/shard.hpp sorts
/// injections by (delivery time, sender key, seq)).  Daemon forwards use the
/// daemon index directly; the repair dispatcher's keys live far above any
/// daemon index so control messages never collide with data traffic.
constexpr std::uint64_t kRepairRestartKeyBase = std::uint64_t{1} << 20;
constexpr std::uint64_t kRepairEffectKeyBase = std::uint64_t{1} << 21;

/// Role tags for RNG stream derivation — keep stable so results are
/// reproducible across code changes that add entities.  The fault/repair
/// machinery tags (8..11) are defined in faults.hpp (kFaultDropRngTag and
/// friends) so the consultant's RepairEngine derives from the same table.
enum RoleTag : std::uint64_t {
  kTagApp = 1,
  kTagDaemon = 2,
  kTagMain = 3,
  kTagPvmdCpu = 4,
  kTagPvmdNet = 5,
  kTagOtherCpu = 6,
  kTagOtherNet = 7,
};

/// The globally unique entity tag of application process `index` on
/// `node`, from which the app's RNG stream is derived.
constexpr std::uint64_t app_entity_tag(std::int32_t node, std::int32_t index) noexcept {
  return static_cast<std::uint64_t>(node) * 4096 + static_cast<std::uint64_t>(index);
}

/// Remove outcome row `row` from an (outcome row, value) effect list; false
/// when it was not there.
bool erase_effect(std::vector<std::pair<std::size_t, double>>& effects, std::size_t row) {
  const auto it = std::find_if(effects.begin(), effects.end(),
                               [row](const auto& e) { return e.first == row; });
  if (it == effects.end()) return false;
  effects.erase(it);
  return true;
}

}  // namespace

Simulation::Simulation(SystemConfig config) : config_(std::move(config)) {
  config_.validate();
  build();
}

void Simulation::build() {
  const std::int32_t nodes = config_.nodes;
  const SimTime uplink = config_.uplink_latency_us;

  // The node groups are cut into contiguous shard blocks, each owning its
  // own engine (calendar queue, clock) plus replicas of the shared
  // resources.  The uplink latency is the conservative lookahead window; at
  // 0 (legal for one shard only) the whole run is a single window and every
  // forward lands inside the event that sent it.
  partition_ = PartitionPlan::build(nodes, std::max(1, config_.shards));
  const std::size_t shard_count = partition_.shards;
  des::ShardSetConfig sc;
  sc.shards = shard_count;
  sc.window_us = uplink;
  sc.warmup_us = config_.warmup_us;
  sc.duration_us = config_.duration_us;
  shards_ = std::make_unique<des::ShardSet>(sc);
  collectors_.resize(shard_count);
  collectors_.front().record_latency_series = config_.record_latency_series;
  networks_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    networks_.push_back(std::make_unique<NetworkResource>(shards_->engine(s), config_.contention));
    // Per-node busy attribution lets collect() rebuild the global per-class
    // totals in canonical node order, independent of sharding.
    networks_.back()->enable_node_accounting(nodes);
  }
  control_fired_.assign(shard_count, 0);

  // Where a node-bound entity lives: its shard's engine, network, collector.
  const auto node_engine = [&](std::int32_t n) -> des::Engine& {
    return shards_->engine(partition_.shard_of(n));
  };
  const auto node_network = [&](std::int32_t n) -> NetworkResource& {
    return *networks_[partition_.shard_of(n)];
  };
  const auto node_collector = [&](std::int32_t n) -> MetricsCollector& {
    return collectors_[partition_.shard_of(n)];
  };

  // Resources.  An optional extra CPU at the end hosts the main Paradyn
  // process when it runs on a dedicated workstation (Figure 29 setup); that
  // host rides on shard 0 with the main process itself.
  const bool dedicated_main = config_.instrumentation_enabled && config_.main_on_dedicated_host;
  const std::int32_t cpu_groups = nodes + (dedicated_main ? 1 : 0);
  node_cpus_.reserve(static_cast<std::size_t>(cpu_groups));
  for (std::int32_t n = 0; n < cpu_groups; ++n) {
    node_cpus_.push_back(std::make_unique<CpuResource>(
        shards_->engine(cpu_shard(static_cast<std::size_t>(n))), config_.cpus_per_node,
        config_.cpu_quantum_us));
  }

  // Barriers couple every node at zero latency; config validation admits
  // them only with one shard, so they live on shard 0.
  const std::int32_t total_apps = nodes * config_.app_processes_per_node;
  if ((config_.barrier_period_us > 0.0 || config_.barrier_every_cycles > 0) && total_apps > 0) {
    barrier_ = std::make_unique<BarrierManager>(shards_->engine(0), total_apps);
  }

  // Main Paradyn process lives on node 0's CPU(s), or on the dedicated
  // host CPU when main_on_dedicated_host is set — shard 0 either way.
  if (config_.instrumentation_enabled) {
    CpuResource& main_cpu = dedicated_main ? *node_cpus_.back() : *node_cpus_[0];
    main_ = std::make_unique<MainParadyn>(shards_->engine(0), config_, main_cpu,
                                          collectors_.front(),
                                          des::RngStream(config_.seed, 0, kTagMain));
  }

  // Daemons: one per node (NOW/MPP) or `daemons` sharing the pool (SMP).
  if (config_.instrumentation_enabled) {
    const std::int32_t daemon_count =
        (config_.arch == Architecture::Smp) ? config_.daemons : nodes;
    daemons_.reserve(static_cast<std::size_t>(daemon_count));
    daemon_shard_.reserve(static_cast<std::size_t>(daemon_count));
    for (std::int32_t d = 0; d < daemon_count; ++d) {
      const std::int32_t host_node = (config_.arch == Architecture::Smp) ? 0 : d;
      daemons_.push_back(std::make_unique<ParadynDaemon>(
          node_engine(host_node), config_, *node_cpus_[host_node], node_network(host_node),
          node_collector(host_node),
          des::RngStream(config_.seed, static_cast<std::uint64_t>(d), kTagDaemon), host_node));
      daemon_shard_.push_back(partition_.shard_of(host_node));
    }
    // Forwarding: every daemon hands each completed batch to one sink that
    // routes it through send() to its tree parent or to the main process.
    // With an uplink latency every forward — even one whose destination
    // shares the sender's shard, or a one-shard run — becomes a timestamped
    // ShardSet message, delivered L after the batch clears the sender's
    // network.  Routing all traffic one way keeps the receiver-side event
    // order identical for every shard count, which is what the bit-identity
    // gate relies on.  At L = 0 the batch lands inside the event that
    // cleared the network.
    for (std::size_t d = 0; d < daemons_.size(); ++d) {
      const std::size_t src = daemon_shard_[d];
      if (config_.topology == ForwardingTopology::BinaryTree && d > 0) {
        ParadynDaemon* parent = daemons_[(d - 1) / 2].get();
        const std::size_t dst = daemon_shard_[(d - 1) / 2];
        daemons_[d]->set_forward_sink([this, d, src, dst, parent](Batch batch) {
          send(src, dst, d, [parent, batch = std::move(batch)]() mutable {
            parent->receive_from_child(std::move(batch));
          });
        });
      } else {
        MainParadyn* main = main_.get();
        daemons_[d]->set_forward_sink([this, d, src, main](Batch batch) {
          send(src, 0, d, [main, batch = std::move(batch)] { main->receive(batch); });
        });
      }
    }
  }

  // Application processes and their pipes.
  for (std::int32_t n = 0; n < nodes; ++n) {
    for (std::int32_t a = 0; a < config_.app_processes_per_node; ++a) {
      Pipe* pipe = nullptr;
      const std::size_t app_global =
          static_cast<std::size_t>(n) * static_cast<std::size_t>(config_.app_processes_per_node) +
          static_cast<std::size_t>(a);
      if (config_.instrumentation_enabled) {
        pipes_.push_back(std::make_unique<Pipe>(config_.pipe_capacity));
        pipe = pipes_.back().get();
        // NOW/MPP: the node's own daemon.  SMP: apps assigned round-robin
        // over the daemon pool.
        const std::size_t daemon_idx = (config_.arch == Architecture::Smp)
                                           ? app_global % daemons_.size()
                                           : static_cast<std::size_t>(n);
        daemons_[daemon_idx]->attach_pipe(*pipe);
        pipe_daemon_.push_back(daemon_idx);
      }
      const auto override_it = config_.app_overrides.find(n);
      const AppModel& model =
          override_it != config_.app_overrides.end() ? override_it->second : config_.app;
      apps_.push_back(std::make_unique<ApplicationProcess>(
          node_engine(n), config_, model, *node_cpus_[n], node_network(n), pipe, barrier_.get(),
          node_collector(n), des::RngStream(config_.seed, app_entity_tag(n, a), kTagApp), n, a));
      // Interleaved per-process ids: run-unique, independent of the
      // sharding, and never reset by warm-up deletion.
      apps_.back()->set_sample_ids(static_cast<std::uint64_t>(app_global) + 1,
                                   static_cast<std::uint64_t>(total_apps));
    }
  }

  // Background load (PVM daemon + other processes) on every node.
  if (config_.background.enabled) {
    const auto& bg = config_.background;
    for (std::int32_t n = 0; n < nodes; ++n) {
      const auto node_tag = static_cast<std::uint64_t>(n);
      background_.push_back(std::make_unique<OpenArrivalStream>(
          node_engine(n), bg.pvmd_interarrival, bg.pvmd_cpu_length, ProcessClass::PvmDaemon,
          node_cpus_[n].get(), nullptr, des::RngStream(config_.seed, node_tag, kTagPvmdCpu), n));
      background_.push_back(std::make_unique<OpenArrivalStream>(
          node_engine(n), bg.pvmd_interarrival, bg.pvmd_net_length, ProcessClass::PvmDaemon,
          nullptr, &node_network(n), des::RngStream(config_.seed, node_tag, kTagPvmdNet), n));
      background_.push_back(std::make_unique<OpenArrivalStream>(
          node_engine(n), bg.other_cpu_interarrival, bg.other_cpu_length, ProcessClass::Other,
          node_cpus_[n].get(), nullptr, des::RngStream(config_.seed, node_tag, kTagOtherCpu), n));
      background_.push_back(std::make_unique<OpenArrivalStream>(
          node_engine(n), bg.other_net_interarrival, bg.other_net_length, ProcessClass::Other,
          nullptr, &node_network(n), des::RngStream(config_.seed, node_tag, kTagOtherNet), n));
    }
  }

  // Sampling regulator; the scope picks the domains.  Global: one domain of
  // every CPU on shard 0 (validation admits it with one shard only), shared
  // by every daemon.  Per daemon: one domain per daemon (its share of its
  // host CPU plus the application processes whose pipes it drains).  Those
  // domains are node-local, so that scope shards cleanly: one regulator per
  // shard, each ticking on its own engine at identical times.
  const RegulatorConfig& reg = config_.regulator;
  if (config_.instrumentation_enabled && reg.scope != RegulatorScope::Off) {
    const bool global = reg.scope == RegulatorScope::Global;
    regulators_.resize(shard_count);
    daemon_domain_.assign(daemons_.size(), 0);
    const auto regulator_on = [&](std::size_t s) -> SamplingRegulator& {
      if (!regulators_[s]) {
        regulators_[s] = std::make_unique<SamplingRegulator>(shards_->engine(s), reg,
                                                             config_.sampling_period_us);
      }
      return *regulators_[s];
    };
    if (global) {
      std::vector<const CpuResource*> cpus;
      for (const auto& cpu : node_cpus_) cpus.push_back(cpu.get());
      regulator_on(0).add_domain(
          std::move(cpus), 1.0,
          static_cast<double>(node_cpus_.size()) * static_cast<double>(config_.cpus_per_node));
    } else {
      std::vector<std::int32_t> daemons_on_host(node_cpus_.size(), 0);
      for (const auto& daemon : daemons_) {
        ++daemons_on_host[static_cast<std::size_t>(daemon->node())];
      }
      for (std::size_t d = 0; d < daemons_.size(); ++d) {
        const auto host = static_cast<std::size_t>(daemons_[d]->node());
        daemon_domain_[d] = regulator_on(daemon_shard_[d])
                                .add_domain({node_cpus_[host].get()},
                                            1.0 / static_cast<double>(daemons_on_host[host]),
                                            static_cast<double>(config_.cpus_per_node));
      }
    }
    // Instrumented apps and pipes are created pairwise, so apps_[i]'s
    // daemon is pipe_daemon_[i].
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      const std::size_t d = pipe_daemon_[i];
      SamplingRegulator& regulator = *regulators_[daemon_shard_[d]];
      if (!global) regulator.add_app(daemon_domain_[d], apps_[i].get());
      apps_[i]->set_sampling_period(&regulator.period_us(daemon_domain_[d]));
    }
  }

  // Fault plan: resolved once at build time.  Every auxiliary stream (drop
  // gate, stochastic windows, cascade Bernoulli) is derived only when the
  // matching feature appears in the plan, so fault-free runs — and runs
  // without that feature — touch no extra randomness.
  plan_ = config_.faults;
  if (plan_.any_stochastic()) {
    des::RngStream window_rng(config_.seed, 0, kFaultWindowRngTag);
    plan_.resolve(window_rng);
  }
  const bool any_drop =
      std::any_of(plan_.faults.begin(), plan_.faults.end(),
                  [](const FaultSpec& f) { return f.type == FaultType::SampleDrop; });
  if (any_drop) {
    // One gate replica per shard; each node draws from its own stream, so
    // its decisions never depend on how emissions interleave across shards.
    for (std::size_t s = 0; s < shard_count; ++s) {
      gates_.push_back(std::make_unique<FaultGate>(config_.seed));
    }
    for (auto& app : apps_) app->set_fault_gate(gates_[partition_.shard_of(app->node())].get());
  }
  if (!daemons_.empty()) {
    // Cascade propagation is plan-determined (no model event feeds the
    // BFS), so the whole thing resolves at build time into per-shard timed
    // events — see rocc/partition.hpp for the replay argument.
    cascade_hits_ = resolve_cascades(plan_, daemons_.size(), config_.topology, config_.seed,
                                     config_.duration_us);
  }
  if (!plan_.empty()) {
    effects_.assign(shard_count, {});
    restart_dispatches_.assign(daemons_.size(), {});
    reset_dispatched_.assign(plan_.faults.size(), 0);
  }
}

std::size_t Simulation::cpu_shard(std::size_t n) const {
  return n < static_cast<std::size_t>(config_.nodes)
             ? partition_.shard_of(static_cast<std::int32_t>(n))
             : 0;
}

template <class Deliver>
void Simulation::send(std::size_t from, std::size_t to, std::uint64_t sender_key,
                      Deliver&& deliver) {
  const SimTime uplink = config_.uplink_latency_us;
  if (uplink == 0.0) {
    deliver();
    return;
  }
  shards_->post(from, to, shards_->engine(from).now() + uplink, sender_key,
                std::forward<Deliver>(deliver));
}

void Simulation::trace_marker(std::size_t shard, const char* category, const char* name,
                              const char* arg_name, double arg) {
  if (tracers_.empty()) return;
  tracers_[shard].instant(category, name, obs::kEngineTrack, shards_->engine(shard).now(),
                          arg_name, arg);
}

void Simulation::fold_effects(std::size_t shard) {
  const auto& effects = effects_[shard];
  const std::size_t plan_rows = plan_.faults.size();
  const auto plan_row = [&](std::size_t row, FaultType type) {
    return row < plan_rows && plan_.faults[row].type == type;
  };

  // Slowdown factors multiply in opening order, so closing one window
  // leaves exactly the double the remaining set would have produced alone.
  double slowdown = 1.0;
  for (const auto& [row, value] : effects) {
    if (plan_row(row, FaultType::LinkSlowdown)) slowdown *= value;
  }
  networks_[shard]->set_slowdown(slowdown);

  // Cascade penalties on this shard's daemons, multiplied the same way.
  for (std::size_t d = 0; d < daemons_.size(); ++d) {
    if (daemon_shard_[d] != shard) continue;
    double penalty = 1.0;
    for (const auto& [row, value] : effects) {
      if (row >= plan_rows && cascade_hits_[row - plan_rows].daemon == d) penalty *= value;
    }
    daemons_[d]->set_net_penalty(penalty);
  }

  // Per-pipe limit = min over the clamps covering it, for the pipes this
  // shard owns (capacity changes fire producer wake-ups, which must stay on
  // the owner shard's engine).  Only touch pipes whose effective capacity
  // actually changes: set/clear fire a pending space callback
  // unconditionally, so a redundant call would inject a spurious wake-up
  // event and shift the stream.
  for (std::size_t p = 0; p < pipes_.size(); ++p) {
    if (partition_.shard_of(apps_[p]->node()) != shard) continue;
    std::int32_t limit = INT32_MAX;
    for (const auto& [row, value] : effects) {
      if (!plan_row(row, FaultType::PipeBackpressure)) continue;
      const std::int32_t target = plan_.faults[row].target;
      if (target >= 0 && pipe_daemon_[p] != static_cast<std::size_t>(target)) continue;
      limit = std::min(limit, static_cast<std::int32_t>(value));
    }
    const std::int32_t desired = std::min(pipes_[p]->capacity(), limit);
    if (desired == pipes_[p]->effective_capacity()) continue;
    if (limit == INT32_MAX) {
      pipes_[p]->clear_capacity_limit();
    } else {
      pipes_[p]->set_capacity_limit(limit);
    }
  }

  // Drop windows each draw independently, in opening order.
  if (!gates_.empty()) {
    auto& windows = gates_[shard]->windows();
    windows.clear();
    for (const auto& [row, value] : effects) {
      if (!plan_row(row, FaultType::SampleDrop)) continue;
      windows.emplace_back(plan_.faults[row].target, value);
    }
  }
}

void Simulation::schedule_faults() {
  if (plan_.empty()) return;
  fault_outcomes_.clear();
  fault_outcomes_.reserve(plan_.faults.size() + cascade_hits_.size());
  for (const FaultSpec& f : plan_.faults) {
    FaultOutcome outcome;
    outcome.spec = f;
    fault_outcomes_.push_back(outcome);
  }
  // Induced cascade rows are pre-appended in hit order — the order the hit
  // events execute — with disjoint writer shards; the owner shard's hit
  // event flips `injected` when it fires.
  for (const CascadeHit& h : cascade_hits_) {
    const FaultSpec& parent = plan_.faults[h.fault_index];
    FaultOutcome induced;
    induced.spec.type = FaultType::LinkSlowdown;
    induced.spec.target = static_cast<std::int32_t>(h.daemon);
    induced.spec.start_us = h.at_us;
    induced.spec.duration_us = parent.end_us() - h.at_us;
    induced.spec.magnitude = parent.cascade_factor;
    induced.cascaded_from = static_cast<std::int32_t>(h.fault_index);
    fault_outcomes_.push_back(induced);
  }

  // Every fault compiles to shard-local events.  Effects on replicated
  // resources (link slowdown, drop gates, pipe clamps) fire on every shard
  // and count as control events so events_processed stays invariant;
  // per-daemon effects fire once, on the owner shard.
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& f = plan_.faults[i];
    if (f.type != FaultType::DaemonStall && f.type != FaultType::DaemonCrash) {
      for (std::size_t s = 0; s < partition_.shards; ++s) {
        shards_->engine(s).schedule_at(f.start_us, [this, i, s] { fault_edge(i, s, true); });
        shards_->engine(s).schedule_at(f.end_us(), [this, i, s] { fault_edge(i, s, false); });
      }
      continue;
    }
    // The first covered daemon's shard marks the window edges.  The close
    // marker is scheduled even untraced, so the event count never depends
    // on whether a tracer is attached.
    std::optional<std::size_t> marker_shard;
    for (std::size_t d = 0; d < daemons_.size(); ++d) {
      if (f.target >= 0 && static_cast<std::size_t>(f.target) != d) continue;
      const std::size_t s = daemon_shard_[d];
      const bool mark = !marker_shard.has_value();
      if (mark) marker_shard = s;
      shards_->engine(s).schedule_at(f.start_us, [this, i, d, s, mark] {
        const FaultSpec& spec = plan_.faults[i];
        if (mark) {
          fault_outcomes_[i].injected = true;
          trace_marker(s, "fault", to_string(spec.type), "window", 1.0);
        }
        if (spec.type == FaultType::DaemonStall) {
          daemons_[d]->stall_until(spec.end_us());
        } else {
          daemons_[d]->crash_until(spec.end_us());
        }
      });
    }
    if (marker_shard) {
      const std::size_t s = *marker_shard;
      shards_->engine(s).schedule_at(f.end_us(), [this, i, s] {
        trace_marker(s, "fault", to_string(plan_.faults[i].type), "window", 0.0);
      });
    }
  }

  // Precomputed cascade hits: the penalty applies on the hit daemon's owner
  // shard at the resolved time, and lifts when the parent window ends.
  for (std::size_t k = 0; k < cascade_hits_.size(); ++k) {
    const CascadeHit h = cascade_hits_[k];
    const std::size_t row = plan_.faults.size() + k;
    const std::size_t s = daemon_shard_[h.daemon];
    shards_->engine(s).schedule_at(h.at_us, [this, h, row, s] {
      effects_[s].emplace_back(row, plan_.faults[h.fault_index].cascade_factor);
      fold_effects(s);
      fault_outcomes_[row].injected = true;
      trace_marker(s, "fault", "cascade", "daemon", static_cast<double>(h.daemon));
    });
    shards_->engine(s).schedule_at(plan_.faults[h.fault_index].end_us(), [this, row, s] {
      if (erase_effect(effects_[s], row)) fold_effects(s);
    });
  }
}

void Simulation::fault_edge(std::size_t fault_index, std::size_t shard, bool opening) {
  const FaultSpec& f = plan_.faults[fault_index];
  ++control_fired_[shard];
  if (shard == 0) {
    if (opening) fault_outcomes_[fault_index].injected = true;
    trace_marker(0, "fault", to_string(f.type), "window", opening ? 1.0 : 0.0);
  }
  if (opening) {
    effects_[shard].emplace_back(fault_index, f.magnitude);
    fold_effects(shard);
  } else if (erase_effect(effects_[shard], fault_index)) {
    // (A reset_pipe repair may have erased the row already; the window end
    // is then a no-op, with no spurious pipe callbacks.)
    fold_effects(shard);
  }
}

SimTime Simulation::mirror_stalled_until(std::size_t daemon, SimTime t) const {
  struct Edge {
    SimTime time;
    int kind;  // 0 = stall/crash window start, 1 = restart delivery
    SimTime value;
  };
  std::vector<Edge> edges;
  for (const FaultSpec& f : plan_.faults) {
    if (f.type != FaultType::DaemonStall && f.type != FaultType::DaemonCrash) continue;
    if (f.target >= 0 && static_cast<std::size_t>(f.target) != daemon) continue;
    if (f.start_us > t) continue;
    edges.push_back(Edge{f.start_us, 0, f.end_us()});
  }
  for (const SimTime r : restart_dispatches_[daemon]) {
    if (r <= t) edges.push_back(Edge{r, 1, r});
  }
  // Window starts win same-time ties (they are build-scheduled, so they run
  // before a restart delivered at the same instant on the owner shard);
  // overlapping windows fold commutatively via max, matching stall_until.
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.kind < b.kind;
  });
  SimTime until = 0.0;
  for (const Edge& e : edges) {
    until = e.kind == 0 ? std::max(until, e.value) : e.value;
  }
  return until;
}

bool Simulation::repair_restart_daemon(std::size_t fault_index) {
  const FaultSpec& f = plan_.faults[fault_index];
  const SimTime now = shards_->engine(0).now();
  bool any = false;
  for (std::size_t d = 0; d < daemons_.size(); ++d) {
    if (f.target >= 0 && static_cast<std::size_t>(f.target) != d) continue;
    if (mirror_stalled_until(d, now) <= now) continue;
    restart_dispatches_[d].push_back(now + config_.uplink_latency_us);
    ParadynDaemon* daemon = daemons_[d].get();
    send(0, daemon_shard_[d], kRepairRestartKeyBase + d, [daemon] { daemon->restart_now(); });
    any = true;
  }
  if (any) trace_marker(0, "repair", "restart_daemon", "fault", static_cast<double>(fault_index));
  return any;
}

bool Simulation::repair_reroute_link(std::size_t fault_index, double penalty_factor) {
  // The slowdown lists are replicated per shard; the factor swap goes to
  // every replica.
  const FaultSpec& f = plan_.faults[fault_index];
  const SimTime now = shards_->engine(0).now();
  if (f.type != FaultType::LinkSlowdown) return false;
  if (!(f.start_us <= now && now < f.end_us())) return false;
  for (std::size_t s = 0; s < partition_.shards; ++s) {
    send(0, s, kRepairEffectKeyBase + fault_index, [this, s, fault_index, penalty_factor] {
      ++control_fired_[s];
      for (auto& [row, value] : effects_[s]) {
        if (row != fault_index) continue;
        value = penalty_factor;
        fold_effects(s);
        break;
      }
    });
  }
  trace_marker(0, "repair", "reroute_link", "fault", static_cast<double>(fault_index));
  return true;
}

bool Simulation::repair_reset_pipe(std::size_t fault_index) {
  const FaultSpec& f = plan_.faults[fault_index];
  const SimTime now = shards_->engine(0).now();
  if (f.type != FaultType::PipeBackpressure) return false;
  if (reset_dispatched_[fault_index] != 0) return false;  // one-shot per fault
  if (!(f.start_us <= now && now < f.end_us())) return false;
  reset_dispatched_[fault_index] = 1;
  for (std::size_t s = 0; s < partition_.shards; ++s) {
    send(0, s, kRepairEffectKeyBase + fault_index, [this, s, fault_index] {
      ++control_fired_[s];
      if (erase_effect(effects_[s], fault_index)) fold_effects(s);
      const FaultSpec& spec = plan_.faults[fault_index];
      std::uint64_t drained = 0;
      for (std::size_t p = 0; p < pipes_.size(); ++p) {
        if (partition_.shard_of(apps_[p]->node()) != s) continue;
        if (spec.target >= 0 && pipe_daemon_[p] != static_cast<std::size_t>(spec.target)) {
          continue;
        }
        drained += pipes_[p]->drain();
      }
      collectors_[s].samples_dropped += drained;
    });
  }
  trace_marker(0, "repair", "reset_pipe", "fault", static_cast<double>(fault_index));
  return true;
}

void Simulation::set_trace_recorder(obs::TraceRecorder& recorder,
                                    const std::string& process_name) {
  tracers_.clear();
  if (partition_.shards == 1) {
    tracers_.push_back(recorder.create_tracer(process_name));
  } else {
    for (std::size_t s = 0; s < partition_.shards; ++s) {
      tracers_.push_back(recorder.create_tracer("shard " + std::to_string(s)));
    }
  }

  // Fixed global track ids: 0 = engine, 1 = network, 2 = main, then one per
  // CPU resource, daemon, and application process, each registered on its
  // owner shard's tracer — a sharded trace lays out like a one-shard trace
  // split across shard processes.  Labels become Perfetto thread names.
  constexpr std::int32_t kNetworkTrack = 1;
  constexpr std::int32_t kMainTrack = 2;
  for (std::size_t s = 0; s < partition_.shards; ++s) {
    shards_->engine(s).set_tracer(&tracers_[s]);
    networks_[s]->set_tracer(&tracers_[s], kNetworkTrack);
    tracers_[s].set_track_name(obs::kEngineTrack, "engine");
    tracers_[s].set_track_name(kNetworkTrack, "network");
  }
  if (main_) {
    main_->set_tracer(&tracers_[0], kMainTrack);
    tracers_[0].set_track_name(kMainTrack, "main paradyn");
  }

  std::int32_t track = 3;
  const bool dedicated_main = config_.instrumentation_enabled && config_.main_on_dedicated_host;
  for (std::size_t n = 0; n < node_cpus_.size(); ++n, ++track) {
    const std::size_t s = cpu_shard(n);
    node_cpus_[n]->set_tracer(&tracers_[s], track);
    const bool is_main_host = dedicated_main && n + 1 == node_cpus_.size();
    tracers_[s].set_track_name(
        track, is_main_host ? std::string("cpu main-host") : "cpu node " + std::to_string(n));
  }
  for (std::size_t d = 0; d < daemons_.size(); ++d, ++track) {
    const std::size_t s = daemon_shard_[d];
    daemons_[d]->set_tracer(&tracers_[s], track);
    tracers_[s].set_track_name(track, "daemon " + std::to_string(d) + " (node " +
                                          std::to_string(daemons_[d]->node()) + ")");
  }
  for (std::size_t a = 0; a < apps_.size(); ++a, ++track) {
    const std::size_t s = partition_.shard_of(apps_[a]->node());
    apps_[a]->set_tracer(&tracers_[s], track);
    tracers_[s].set_track_name(track, "app n" + std::to_string(apps_[a]->node()) + "." +
                                          std::to_string(apps_[a]->index()));
  }
}

void Simulation::set_shard_executor(des::ShardSet::Executor executor) {
  shards_->set_executor(std::move(executor));
}

void Simulation::enable_metrics(obs::MetricsRegistry& registry, SimTime tick_us) {
  if (partition_.shards > 1) {
    throw std::logic_error(
        "Simulation::enable_metrics: needs a one-shard run — the probes read cross-shard state "
        "mid-run");
  }
  if (!(tick_us > 0.0)) {
    throw std::invalid_argument("Simulation::enable_metrics: tick_us must be > 0");
  }
  registry_ = &registry;
  metrics_tick_us_ = tick_us;

  // One shard: every probe reads shard 0's engine, network and collector.
  const des::Engine& engine = shards_->engine(0);
  const MetricsCollector& metrics = collectors_.front();
  const NetworkResource& network = *networks_.front();
  registry.add_probe("engine.pending_events",
                     [&engine] { return static_cast<double>(engine.pending_events()); });
  registry.add_probe("engine.events_processed",
                     [&engine] { return static_cast<double>(engine.events_processed()); });
  registry.add_probe("samples.generated",
                     [&metrics] { return static_cast<double>(metrics.samples_generated); });
  registry.add_probe("samples.delivered",
                     [&metrics] { return static_cast<double>(metrics.samples_delivered); });
  registry.add_probe("batches.delivered",
                     [&metrics] { return static_cast<double>(metrics.batches_delivered); });
  if (!plan_.empty()) {
    registry.add_probe("samples.dropped",
                       [&metrics] { return static_cast<double>(metrics.samples_dropped); });
    registry.add_probe("net.slowdown", [&network] { return network.slowdown(); });
  }
  if (config_.regulator.scope == RegulatorScope::PerDaemon && !regulators_.empty()) {
    const SamplingRegulator& regulator = *regulators_.front();
    const SimTime sp = config_.sampling_period_us;
    registry.add_probe("throttle.max_factor",
                       [&regulator, sp] { return regulator.peak_period_us() / sp; });
  }

  // Busy fraction of the whole CPU pool per process class: accumulated busy
  // time over elapsed capacity.  Warm-up deletion resets the numerator, so
  // the fraction dips at the warm-up boundary by design.
  const double total_cpus =
      static_cast<double>(node_cpus_.size()) * static_cast<double>(config_.cpus_per_node);
  const auto busy_fraction = [this, &engine, total_cpus](ProcessClass c) {
    const double elapsed = engine.now();
    if (elapsed <= 0.0) return 0.0;
    double busy = 0.0;
    for (const auto& cpu : node_cpus_) busy += cpu->busy_time(c);
    return busy / (elapsed * total_cpus);
  };
  registry.add_probe("cpu.app_busy_frac",
                     [busy_fraction] { return busy_fraction(ProcessClass::Application); });
  registry.add_probe("cpu.pd_busy_frac",
                     [busy_fraction] { return busy_fraction(ProcessClass::ParadynDaemon); });
  registry.add_probe("cpu.main_busy_frac",
                     [busy_fraction] { return busy_fraction(ProcessClass::MainParadyn); });
  registry.add_probe("cpu.background_busy_frac", [busy_fraction] {
    return busy_fraction(ProcessClass::PvmDaemon) + busy_fraction(ProcessClass::Other);
  });
  registry.add_probe("net.busy_frac", [&engine, &network] {
    const double elapsed = engine.now();
    return elapsed > 0.0 ? network.busy_time_total() / elapsed : 0.0;
  });
  registry.add_probe("net.backlog",
                     [&network] { return static_cast<double>(network.backlog()); });

  registry.add_probe("pipe.occupancy_total", [this] {
    double total = 0.0;
    for (const auto& pipe : pipes_) total += static_cast<double>(pipe->size());
    return total;
  });
  registry.add_probe("pipe.occupancy_max", [this] {
    std::size_t max_depth = 0;
    for (const auto& pipe : pipes_) max_depth = std::max(max_depth, pipe->size());
    return static_cast<double>(max_depth);
  });
  registry.add_probe("main.backlog", [this] {
    return main_ ? static_cast<double>(main_->backlog()) : 0.0;
  });
}

void Simulation::schedule_metrics_tick() {
  des::Engine& engine = shards_->engine(0);
  registry_->sample(engine.now());
  engine.schedule_after(metrics_tick_us_, [this] { schedule_metrics_tick(); });
}

SimulationResult Simulation::run() {
  if (ran_) throw std::logic_error("Simulation::run: already ran");
  ran_ = true;

  // Each entity schedules onto its owner shard's engine.
  for (auto& stream : background_) stream->start();
  for (auto& daemon : daemons_) daemon->start();
  for (auto& app : apps_) app->start();
  for (auto& regulator : regulators_) {
    if (regulator) regulator->start();
  }
  // First probe row at t = 0, then one every tick of simulated time.
  if (registry_ != nullptr) schedule_metrics_tick();
  schedule_faults();

  shards_->run([this](SimTime) {
    // Transient deletion at the warm-up boundary (every shard stopped at
    // exactly warmup_us; the boundary's messages are already injected):
    // zero every accumulator so the reported metrics cover only the
    // (closer-to-)steady-state window.  control_fired_ is deliberately not
    // reset: events_processed spans the whole run, warm-up included.
    for (auto& cpu : node_cpus_) cpu->reset_accounting();
    for (auto& net : networks_) net->reset_accounting();
    if (barrier_) barrier_->reset_accounting();
    for (auto& collector : collectors_) collector = MetricsCollector{};
    collectors_.front().record_latency_series = config_.record_latency_series;
  });
  return collect();
}

SimulationResult Simulation::collect() const {
  SimulationResult r;
  // The measurement window excludes the warm-up (all accounting was reset
  // at its end).
  const SimTime window_us = config_.duration_us - config_.warmup_us;
  r.duration_us = window_us;
  r.nodes = config_.nodes;
  r.cpus_per_node = config_.cpus_per_node;

  const double total_cpus =
      static_cast<double>(config_.nodes) * static_cast<double>(config_.cpus_per_node);
  const double cpu_time_denominator = total_cpus;  // "per node" == per CPU-equivalent

  double app_busy = 0.0;
  double pd_busy = 0.0;
  double pvmd_busy = 0.0;
  double other_busy = 0.0;
  double main_busy = 0.0;
  double all_busy = 0.0;
  for (const auto& cpu : node_cpus_) {
    app_busy += cpu->busy_time(ProcessClass::Application);
    pd_busy += cpu->busy_time(ProcessClass::ParadynDaemon);
    pvmd_busy += cpu->busy_time(ProcessClass::PvmDaemon);
    other_busy += cpu->busy_time(ProcessClass::Other);
    main_busy += cpu->busy_time(ProcessClass::MainParadyn);
    all_busy += cpu->busy_time_total();
  }

  r.app_cpu_time_per_node_us = app_busy / cpu_time_denominator;
  r.pd_cpu_time_per_node_us = pd_busy / cpu_time_denominator;
  r.pvmd_cpu_time_per_node_us = pvmd_busy / cpu_time_denominator;
  r.other_cpu_time_per_node_us = other_busy / cpu_time_denominator;
  r.main_cpu_time_us = main_busy;

  const double capacity = total_cpus * window_us;
  r.app_cpu_util_pct = 100.0 * app_busy / capacity;
  r.pd_cpu_util_pct = 100.0 * pd_busy / capacity;
  r.main_cpu_util_pct = 100.0 * main_busy / window_us;
  r.is_cpu_util_pct = 100.0 * (pd_busy + main_busy) / capacity;
  r.pd_busy_share_pct = (all_busy > 0.0) ? 100.0 * pd_busy / all_busy : 0.0;

  // Rebuild the global network busy time from the per-node attribution of
  // each shard network: summing in canonical node order keeps the figure
  // independent of how the nodes were cut into shards.
  double net_busy = 0.0;
  for (std::int32_t n = 0; n < config_.nodes; ++n) {
    const NetworkResource& net = *networks_[partition_.shard_of(n)];
    for (int c = 0; c < trace::kNumProcessClasses; ++c) {
      net_busy += net.busy_time_node(n, static_cast<ProcessClass>(c));
    }
  }
  r.network_util_pct = 100.0 * net_busy / window_us;

  // Delivery-side counters (delivered, batches, latency) are main-owned and
  // live in shard 0's collector; generation-side counters are written where
  // the emitting entity lives, so they are summed over the shards.
  const MetricsCollector& delivery = collectors_.front();
  r.latency_us = delivery.latency_us;
  r.latency_series_us = delivery.latency_series_us;
  r.samples_delivered = delivery.samples_delivered;
  r.batches_delivered = delivery.batches_delivered;
  for (const MetricsCollector& c : collectors_) {
    r.samples_generated += c.samples_generated;
    r.samples_dropped += c.samples_dropped;
  }
  r.throughput_samples_per_sec =
      static_cast<double>(delivery.samples_delivered) / des::to_seconds(window_us);

  // Per-node occupancy breakdown.
  r.per_node.reserve(node_cpus_.size());
  for (std::size_t n = 0; n < node_cpus_.size(); ++n) {
    NodeBreakdown nb;
    nb.node = static_cast<std::int32_t>(n);
    nb.app_cpu_us = node_cpus_[n]->busy_time(ProcessClass::Application);
    nb.pd_cpu_us = node_cpus_[n]->busy_time(ProcessClass::ParadynDaemon);
    nb.pvmd_cpu_us = node_cpus_[n]->busy_time(ProcessClass::PvmDaemon);
    nb.other_cpu_us = node_cpus_[n]->busy_time(ProcessClass::Other);
    nb.main_cpu_us = node_cpus_[n]->busy_time(ProcessClass::MainParadyn);
    r.per_node.push_back(nb);
  }

  // Replicated control events (fault edges, repair broadcasts, regulator
  // tick chains) fire once per shard; report the model events plus a single
  // replica's worth so the count is shard-count-invariant.
  std::uint64_t control_total = 0;
  std::uint64_t control_zero = 0;
  for (std::size_t s = 0; s < partition_.shards; ++s) {
    std::uint64_t control = control_fired_[s];
    if (s < regulators_.size() && regulators_[s]) control += regulators_[s]->ticks();
    control_total += control;
    if (s == 0) control_zero = control;
  }
  r.events_processed = shards_->events_processed() - control_total + control_zero;

  if (barrier_) {
    r.barrier_rounds = barrier_->rounds();
    r.barrier_wait_us = barrier_->total_wait_time();
  }
  r.fault_outcomes = fault_outcomes_;
  if (config_.regulator.scope == RegulatorScope::Global && !regulators_.empty()) {
    const SamplingRegulator& global = *regulators_.front();
    r.final_sampling_period_us = global.period_us(0);
    r.cost_adjustments = global.log();
  } else if (!regulators_.empty()) {
    // Per daemon: stitch the per-shard domains back into daemon order.  The
    // periods are SP * 2^k, so each factor is exact.
    const SimTime sp = config_.sampling_period_us;
    r.throttle_factors.reserve(daemons_.size());
    for (std::size_t d = 0; d < daemons_.size(); ++d) {
      r.throttle_factors.push_back(regulators_[daemon_shard_[d]]->period_us(daemon_domain_[d]) /
                                   sp);
    }
    for (const auto& regulator : regulators_) {
      if (!regulator) continue;
      r.max_throttle_factor = std::max(r.max_throttle_factor, regulator->peak_period_us() / sp);
      r.throttle_adjustments += regulator->adjustments();
    }
  }
  return r;
}

SimulationResult run_simulation(const SystemConfig& config) { return Simulation(config).run(); }

}  // namespace paradyn::rocc
