#include "rocc/simulation.hpp"

#include <algorithm>
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
/// friends) so the consultant's RepairEngine derives from the same table;
/// kTagFault must equal kFaultDropRngTag.
enum RoleTag : std::uint64_t {
  kTagApp = 1,
  kTagDaemon = 2,
  kTagMain = 3,
  kTagPvmdCpu = 4,
  kTagPvmdNet = 5,
  kTagOtherCpu = 6,
  kTagOtherNet = 7,
  kTagFault = kFaultDropRngTag,
};

/// The globally unique entity tag of application process `index` on
/// `node`, from which the app's RNG stream is derived.
constexpr std::uint64_t app_entity_tag(std::int32_t node, std::int32_t index) noexcept {
  return static_cast<std::uint64_t>(node) * 4096 + static_cast<std::uint64_t>(index);
}

}  // namespace

Simulation::Simulation(SystemConfig config) : config_(std::move(config)) {
  config_.validate();
  metrics_.record_latency_series = config_.record_latency_series;
  build();
}

void Simulation::build() {
  const std::int32_t nodes = config_.nodes;
  const bool pdes = config_.shards > 0;

  // Partitioned (PDES) mode: the node groups are cut into contiguous shard
  // blocks, each owning its own engine (calendar queue, clock) plus replicas
  // of the shared resources; the minimum cross-shard network latency
  // (config.uplink_latency_us) is the conservative lookahead window.
  if (pdes) {
    partition_ = PartitionPlan::build(nodes, config_.shards);
    des::ShardSetConfig sc;
    sc.shards = partition_.shards;
    sc.window_us = config_.uplink_latency_us;
    sc.warmup_us = config_.warmup_us;
    sc.duration_us = config_.duration_us;
    shards_ = std::make_unique<des::ShardSet>(sc);
    for (std::size_t s = 1; s < partition_.shards; ++s) {
      extra_metrics_.push_back(std::make_unique<MetricsCollector>());
    }
    shard_networks_.reserve(partition_.shards);
    for (std::size_t s = 0; s < partition_.shards; ++s) {
      auto net = std::make_unique<NetworkResource>(shards_->engine(s), config_.contention);
      // Per-node busy attribution lets collect() rebuild the global
      // per-class totals in canonical node order, independent of sharding.
      net->enable_node_accounting(nodes);
      shard_networks_.push_back(std::move(net));
    }
    shard_slowdowns_.assign(partition_.shards, {});
    shard_clamps_.assign(partition_.shards, {});
    shard_control_fired_.assign(partition_.shards, 0);
  }
  // Where a node-bound entity lives: its shard's engine/network/collector in
  // partitioned mode, the single global instances otherwise.
  const auto node_engine = [&](std::int32_t n) -> des::Engine& {
    return pdes ? shards_->engine(partition_.shard_of(n)) : engine_;
  };
  const auto node_network = [&](std::int32_t n) -> NetworkResource& {
    return pdes ? *shard_networks_[partition_.shard_of(n)] : *network_;
  };
  const auto node_collector = [&](std::int32_t n) -> MetricsCollector& {
    return pdes ? shard_collector(partition_.shard_of(n)) : metrics_;
  };

  // Resources.  An optional extra CPU at the end hosts the main Paradyn
  // process when it runs on a dedicated workstation (Figure 29 setup); that
  // host rides on shard 0 with the main process itself.
  const bool dedicated_main = config_.instrumentation_enabled && config_.main_on_dedicated_host;
  const std::int32_t cpu_groups = nodes + (dedicated_main ? 1 : 0);
  node_cpus_.reserve(static_cast<std::size_t>(cpu_groups));
  for (std::int32_t n = 0; n < cpu_groups; ++n) {
    des::Engine& cpu_engine =
        n < nodes ? node_engine(n) : (pdes ? shards_->engine(0) : engine_);
    node_cpus_.push_back(
        std::make_unique<CpuResource>(cpu_engine, config_.cpus_per_node, config_.cpu_quantum_us));
  }
  if (!pdes) network_ = std::make_unique<NetworkResource>(engine_, config_.contention);

  const std::int32_t total_apps = nodes * config_.app_processes_per_node;
  if ((config_.barrier_period_us > 0.0 || config_.barrier_every_cycles > 0) && total_apps > 0) {
    barrier_ = std::make_unique<BarrierManager>(engine_, total_apps);
  }

  // Main Paradyn process lives on node 0's CPU(s), or on the dedicated
  // host CPU when main_on_dedicated_host is set.
  if (config_.instrumentation_enabled) {
    CpuResource& main_cpu = dedicated_main ? *node_cpus_.back() : *node_cpus_[0];
    // Partitioned: main lives on shard 0 (which owns node 0 and the
    // dedicated host CPU), writing into metrics_ — the shard-0 collector.
    main_ = std::make_unique<MainParadyn>(pdes ? shards_->engine(0) : engine_, config_, main_cpu,
                                          metrics_, des::RngStream(config_.seed, 0, kTagMain));
  }

  // Daemons: one per node (NOW/MPP) or `daemons` sharing the pool (SMP).
  if (config_.instrumentation_enabled) {
    const std::int32_t daemon_count =
        (config_.arch == Architecture::Smp) ? config_.daemons : nodes;
    daemons_.reserve(static_cast<std::size_t>(daemon_count));
    for (std::int32_t d = 0; d < daemon_count; ++d) {
      const std::int32_t host_node = (config_.arch == Architecture::Smp) ? 0 : d;
      daemons_.push_back(std::make_unique<ParadynDaemon>(
          node_engine(host_node), config_, *node_cpus_[host_node], node_network(host_node),
          node_collector(host_node),
          des::RngStream(config_.seed, static_cast<std::uint64_t>(d), kTagDaemon), host_node));
      if (pdes) daemon_shard_.push_back(partition_.shard_of(host_node));
    }
    // Forwarding destinations.
    if (pdes) {
      // Every forward — even one whose destination happens to share the
      // sender's shard — becomes an explicit timestamped message routed
      // through the ShardSet mailbox, delivered L = uplink_latency_us after
      // the batch clears the sender's network.  Routing all traffic one way
      // keeps the receiver-side event order identical for every shard
      // count, which is what the bit-identity gate relies on.
      for (std::size_t d = 0; d < daemons_.size(); ++d) {
        const std::size_t src = daemon_shard_[d];
        ParadynDaemon* parent = nullptr;
        std::size_t dst = 0;  // main lives on shard 0
        if (config_.topology == ForwardingTopology::BinaryTree && d > 0) {
          parent = daemons_[(d - 1) / 2].get();
          dst = daemon_shard_[(d - 1) / 2];
        }
        des::Engine* src_engine = &shards_->engine(src);
        MainParadyn* main = main_.get();
        daemons_[d]->set_forward_sink(
            [this, d, src, dst, parent, src_engine, main](const Batch& batch) {
              const SimTime deliver_at = src_engine->now() + config_.uplink_latency_us;
              if (parent != nullptr) {
                shards_->post(src, dst, deliver_at, d,
                              [parent, batch] { parent->receive_from_child(batch); });
              } else {
                shards_->post(src, dst, deliver_at, d, [main, batch] { main->receive(batch); });
              }
            });
      }
    } else if (config_.topology == ForwardingTopology::BinaryTree) {
      for (std::size_t d = 0; d < daemons_.size(); ++d) {
        if (d == 0) {
          daemons_[d]->set_destination_main(*main_);
        } else {
          daemons_[d]->set_destination_parent(*daemons_[(d - 1) / 2]);
        }
      }
    } else {
      for (auto& daemon : daemons_) daemon->set_destination_main(*main_);
    }
  }

  // Adaptive cost model: the controller watches every CPU's IS occupancy
  // and owns the live sampling period.
  if (config_.instrumentation_enabled && config_.adaptive.enabled) {
    std::vector<const CpuResource*> cpu_views;
    cpu_views.reserve(node_cpus_.size());
    for (const auto& cpu : node_cpus_) cpu_views.push_back(cpu.get());
    const double capacity =
        static_cast<double>(node_cpus_.size()) * static_cast<double>(config_.cpus_per_node);
    controller_ = std::make_unique<SamplingController>(
        engine_, config_.adaptive, config_.sampling_period_us, std::move(cpu_views), capacity);
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
          controller_.get(), node_collector(n),
          des::RngStream(config_.seed, app_entity_tag(n, a), kTagApp), n, a));
      if (pdes) {
        // Legacy ids come from the shared samples_generated counter, whose
        // interleaving depends on the sharding; give every app a disjoint
        // id block instead so ids are shard-count-invariant.
        apps_.back()->set_sample_id_base((static_cast<std::uint64_t>(app_global) + 1) << 40);
      }
    }
  }

  // Background load (PVM daemon + other processes) on every node.
  if (config_.background.enabled) {
    const auto& bg = config_.background;
    const stats::SamplerBackend backend = config_.sampler_backend();
    for (std::int32_t n = 0; n < nodes; ++n) {
      const auto node_tag = static_cast<std::uint64_t>(n);
      background_.push_back(std::make_unique<OpenArrivalStream>(
          node_engine(n), bg.pvmd_interarrival, bg.pvmd_cpu_length, ProcessClass::PvmDaemon,
          node_cpus_[n].get(), nullptr, des::RngStream(config_.seed, node_tag, kTagPvmdCpu),
          backend, n));
      background_.push_back(std::make_unique<OpenArrivalStream>(
          node_engine(n), bg.pvmd_interarrival, bg.pvmd_net_length, ProcessClass::PvmDaemon,
          nullptr, &node_network(n), des::RngStream(config_.seed, node_tag, kTagPvmdNet),
          backend, n));
      background_.push_back(std::make_unique<OpenArrivalStream>(
          node_engine(n), bg.other_cpu_interarrival, bg.other_cpu_length, ProcessClass::Other,
          node_cpus_[n].get(), nullptr, des::RngStream(config_.seed, node_tag, kTagOtherCpu),
          backend, n));
      background_.push_back(std::make_unique<OpenArrivalStream>(
          node_engine(n), bg.other_net_interarrival, bg.other_net_length, ProcessClass::Other,
          nullptr, &node_network(n), des::RngStream(config_.seed, node_tag, kTagOtherNet),
          backend, n));
    }
  }

  // Per-daemon adaptive throttle: one domain per daemon (its host CPU plus
  // the application processes whose pipes it drains).
  if (config_.instrumentation_enabled && config_.adaptive_throttle.enabled &&
      !daemons_.empty()) {
    std::vector<std::int32_t> daemons_on_host(node_cpus_.size(), 0);
    for (const auto& daemon : daemons_) {
      ++daemons_on_host[static_cast<std::size_t>(daemon->node())];
    }
    if (pdes) {
      // Domains are node-local (host CPU + the apps the daemon drains), so
      // the throttle shards cleanly: one instance per shard, each ticking on
      // its own engine with identical interval times.  Domain indices are
      // per instance; daemon_throttle_domain_ maps daemon -> local domain.
      shard_throttles_.resize(partition_.shards);
      daemon_throttle_domain_.resize(daemons_.size());
      for (std::size_t d = 0; d < daemons_.size(); ++d) {
        const auto host = static_cast<std::size_t>(daemons_[d]->node());
        const std::size_t s = daemon_shard_[d];
        if (!shard_throttles_[s]) {
          shard_throttles_[s] = std::make_unique<PerDaemonThrottle>(shards_->engine(s),
                                                                    config_.adaptive_throttle);
        }
        daemon_throttle_domain_[d] = shard_throttles_[s]->add_domain(
            node_cpus_[host].get(), 1.0 / static_cast<double>(daemons_on_host[host]),
            static_cast<double>(config_.cpus_per_node));
      }
      for (std::size_t i = 0; i < apps_.size(); ++i) {
        const std::size_t d = pipe_daemon_[i];
        const std::size_t s = daemon_shard_[d];
        shard_throttles_[s]->add_app(daemon_throttle_domain_[d], apps_[i].get());
        apps_[i]->set_throttle(shard_throttles_[s].get(), daemon_throttle_domain_[d]);
      }
    } else {
      throttle_ = std::make_unique<PerDaemonThrottle>(engine_, config_.adaptive_throttle);
      for (const auto& daemon : daemons_) {
        const auto host = static_cast<std::size_t>(daemon->node());
        throttle_->add_domain(node_cpus_[host].get(),
                              1.0 / static_cast<double>(daemons_on_host[host]),
                              static_cast<double>(config_.cpus_per_node));
      }
      // Instrumented apps and pipes are created pairwise, so apps_[i]'s pipe
      // is pipes_[i] and its daemon is pipe_daemon_[i].
      for (std::size_t i = 0; i < apps_.size(); ++i) {
        const auto domain = static_cast<std::int32_t>(pipe_daemon_[i]);
        throttle_->add_app(domain, apps_[i].get());
        apps_[i]->set_throttle(throttle_.get(), domain);
      }
    }
  }

  // Fault plan: resolved once at build time.  Every auxiliary stream (drop
  // gate, stochastic windows, cascade Bernoulli) is derived only when the
  // matching feature appears in the plan, so fault-free runs — and runs
  // without that feature — touch no extra randomness.
  plan_ = compose_fault_plan();
  if (plan_.any_stochastic()) {
    des::RngStream window_rng(config_.seed, 0, kFaultWindowRngTag);
    plan_.resolve(window_rng, config_.sampler_backend());
  }
  bool any_drop = false;
  bool any_cascade = false;
  for (const FaultSpec& f : plan_.faults) {
    any_drop |= f.type == FaultType::SampleDrop;
    any_cascade |= f.cascade_p > 0.0;
  }
  if (any_drop) {
    if (pdes) {
      // One gate replica per shard, in per-node-stream mode: each node's
      // drop draws come from its own RngStream(seed, node, drop tag), so a
      // node's decisions depend only on its own emission history and never
      // on how other nodes' emissions interleave across shards.
      shard_gates_.reserve(partition_.shards);
      for (std::size_t s = 0; s < partition_.shards; ++s) {
        shard_gates_.push_back(std::make_unique<FaultGate>(FaultGate::per_node(config_.seed)));
      }
      for (auto& app : apps_) {
        app->set_fault_gate(shard_gates_[partition_.shard_of(app->node())].get());
      }
    } else {
      fault_gate_ = std::make_unique<FaultGate>(des::RngStream(config_.seed, 0, kTagFault));
      for (auto& app : apps_) app->set_fault_gate(fault_gate_.get());
    }
  }
  if (any_cascade && !daemons_.empty()) {
    if (pdes) {
      // Cascade propagation is plan-determined (no model event feeds the
      // BFS), so the whole thing resolves at build time into per-shard
      // timed events — see rocc/partition.hpp for the replay argument.
      cascade_hits_ = resolve_cascades(plan_, daemons_.size(), config_.topology, config_.seed,
                                       config_.duration_us);
      daemon_net_penalties_.assign(daemons_.size(), {});
    } else {
      cascade_rng_ = std::make_unique<des::RngStream>(config_.seed, 0, kCascadeRngTag);
      cascade_visited_.assign(plan_.faults.size(), {});
      daemon_net_penalties_.assign(daemons_.size(), {});
    }
  }
  if (pdes && !plan_.empty()) {
    restart_dispatches_.assign(daemons_.size(), {});
    reset_dispatched_.assign(plan_.faults.size(), 0);
  }
}

FaultPlan Simulation::compose_fault_plan() const {
  FaultPlan plan = config_.faults;
  const auto& stall = config_.fault_daemon_stall;
  if (stall.duration_us > 0.0) {
    FaultSpec f;
    f.type = FaultType::DaemonStall;
    f.target = stall.daemon_index;
    f.start_us = stall.start_us;
    f.duration_us = stall.duration_us;
    plan.faults.push_back(f);
  }
  return plan;
}

void Simulation::schedule_faults() {
  if (plan_.empty()) return;
  fault_outcomes_.clear();
  fault_outcomes_.reserve(plan_.faults.size());
  for (const FaultSpec& f : plan_.faults) {
    FaultOutcome outcome;
    outcome.spec = f;
    fault_outcomes_.push_back(outcome);
  }
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    engine_.schedule_at(plan_.faults[i].start_us, [this, i] { apply_fault(i); });
    engine_.schedule_at(plan_.faults[i].end_us(), [this, i] { revert_fault(i); });
  }
}

void Simulation::recompute_slowdown_shard(std::size_t shard) {
  double factor = 1.0;
  for (const auto& [fault_index, f] : shard_slowdowns_[shard]) factor *= f;
  shard_networks_[shard]->set_slowdown(factor);
}

void Simulation::recompute_pipe_clamps_shard(std::size_t shard) {
  // Same min-over-clamps rule as the legacy recompute, restricted to the
  // pipes this shard owns: capacity changes fire producer wake-ups, which
  // must stay on the owner shard's engine.
  for (std::size_t p = 0; p < pipes_.size(); ++p) {
    if (partition_.shard_of(apps_[p]->node()) != shard) continue;
    std::int32_t limit = INT32_MAX;
    for (const auto& [fault_index, cap] : shard_clamps_[shard]) {
      const FaultSpec& f = plan_.faults[fault_index];
      if (f.target >= 0 && pipe_daemon_[p] != static_cast<std::size_t>(f.target)) continue;
      limit = std::min(limit, cap);
    }
    const std::int32_t desired = std::min(pipes_[p]->capacity(), limit);
    if (desired == pipes_[p]->effective_capacity()) continue;
    if (limit == INT32_MAX) {
      pipes_[p]->clear_capacity_limit();
    } else {
      pipes_[p]->set_capacity_limit(limit);
    }
  }
}

void Simulation::schedule_faults_partitioned() {
  if (plan_.empty()) return;
  fault_outcomes_.clear();
  fault_outcomes_.reserve(plan_.faults.size() + cascade_hits_.size());
  for (const FaultSpec& f : plan_.faults) {
    FaultOutcome outcome;
    outcome.spec = f;
    fault_outcomes_.push_back(outcome);
  }
  // Induced cascade rows are pre-appended in hit order — the order the
  // legacy runtime appends them — with disjoint writer shards; the owner
  // shard's hit event flips `injected` when it fires.
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
  const auto tracer_at = [this](std::size_t shard) -> obs::Tracer* {
    return shard_tracers_.empty() ? nullptr : &shard_tracers_[shard];
  };
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& f = plan_.faults[i];
    switch (f.type) {
      case FaultType::DaemonStall:
      case FaultType::DaemonCrash: {
        std::vector<std::size_t> covered;
        for (std::size_t d = 0; d < daemons_.size(); ++d) {
          if (f.target < 0 || static_cast<std::size_t>(f.target) == d) covered.push_back(d);
        }
        for (std::size_t k = 0; k < covered.size(); ++k) {
          const std::size_t d = covered[k];
          const std::size_t s = daemon_shard_[d];
          const bool mark = k == 0;
          shards_->engine(s).schedule_at(f.start_us, [this, i, d, s, mark, tracer_at] {
            const FaultSpec& spec = plan_.faults[i];
            if (spec.type == FaultType::DaemonStall) {
              daemons_[d]->stall_until(spec.end_us());
            } else {
              daemons_[d]->crash_until(spec.end_us());
            }
            if (mark) {
              fault_outcomes_[i].injected = true;
              if (obs::Tracer* tr = tracer_at(s)) {
                tr->instant("fault", to_string(spec.type), obs::kEngineTrack,
                            shards_->engine(s).now(), "window", 1.0);
              }
            }
          });
        }
        if (!covered.empty()) {
          // Window-close marker (trace parity with the legacy revert
          // instant); scheduled unconditionally so the event count never
          // depends on whether a tracer is attached.
          const std::size_t s0 = daemon_shard_[covered.front()];
          shards_->engine(s0).schedule_at(f.end_us(), [this, i, s0, tracer_at] {
            if (obs::Tracer* tr = tracer_at(s0)) {
              tr->instant("fault", to_string(plan_.faults[i].type), obs::kEngineTrack,
                          shards_->engine(s0).now(), "window", 0.0);
            }
          });
        }
        break;
      }
      case FaultType::LinkSlowdown:
        for (std::size_t s = 0; s < partition_.shards; ++s) {
          shards_->engine(s).schedule_at(f.start_us, [this, i, s, tracer_at] {
            ++shard_control_fired_[s];
            shard_slowdowns_[s].emplace_back(i, plan_.faults[i].magnitude);
            recompute_slowdown_shard(s);
            if (s == 0) {
              fault_outcomes_[i].injected = true;
              if (obs::Tracer* tr = tracer_at(s)) {
                tr->instant("fault", to_string(plan_.faults[i].type), obs::kEngineTrack,
                            shards_->engine(s).now(), "window", 1.0);
              }
            }
          });
          shards_->engine(s).schedule_at(f.end_us(), [this, i, s, tracer_at] {
            ++shard_control_fired_[s];
            auto& slowdowns = shard_slowdowns_[s];
            for (auto it = slowdowns.begin(); it != slowdowns.end(); ++it) {
              if (it->first == i) {
                slowdowns.erase(it);
                break;
              }
            }
            recompute_slowdown_shard(s);
            if (s == 0) {
              if (obs::Tracer* tr = tracer_at(s)) {
                tr->instant("fault", to_string(plan_.faults[i].type), obs::kEngineTrack,
                            shards_->engine(s).now(), "window", 0.0);
              }
            }
          });
        }
        break;
      case FaultType::SampleDrop:
        for (std::size_t s = 0; s < partition_.shards; ++s) {
          shards_->engine(s).schedule_at(f.start_us, [this, i, s, tracer_at] {
            ++shard_control_fired_[s];
            const FaultSpec& spec = plan_.faults[i];
            shard_gates_[s]->add_drop(spec.target, spec.magnitude);
            if (s == 0) {
              fault_outcomes_[i].injected = true;
              if (obs::Tracer* tr = tracer_at(s)) {
                tr->instant("fault", to_string(spec.type), obs::kEngineTrack,
                            shards_->engine(s).now(), "window", 1.0);
              }
            }
          });
          shards_->engine(s).schedule_at(f.end_us(), [this, i, s, tracer_at] {
            ++shard_control_fired_[s];
            const FaultSpec& spec = plan_.faults[i];
            shard_gates_[s]->remove_drop(spec.target, spec.magnitude);
            if (s == 0) {
              if (obs::Tracer* tr = tracer_at(s)) {
                tr->instant("fault", to_string(spec.type), obs::kEngineTrack,
                            shards_->engine(s).now(), "window", 0.0);
              }
            }
          });
        }
        break;
      case FaultType::PipeBackpressure:
        for (std::size_t s = 0; s < partition_.shards; ++s) {
          shards_->engine(s).schedule_at(f.start_us, [this, i, s, tracer_at] {
            ++shard_control_fired_[s];
            shard_clamps_[s].emplace_back(i,
                                          static_cast<std::int32_t>(plan_.faults[i].magnitude));
            recompute_pipe_clamps_shard(s);
            if (s == 0) {
              fault_outcomes_[i].injected = true;
              if (obs::Tracer* tr = tracer_at(s)) {
                tr->instant("fault", to_string(plan_.faults[i].type), obs::kEngineTrack,
                            shards_->engine(s).now(), "window", 1.0);
              }
            }
          });
          shards_->engine(s).schedule_at(f.end_us(), [this, i, s, tracer_at] {
            ++shard_control_fired_[s];
            auto& clamps = shard_clamps_[s];
            bool removed = false;
            for (auto it = clamps.begin(); it != clamps.end(); ++it) {
              if (it->first == i) {
                clamps.erase(it);
                removed = true;
                break;
              }
            }
            // A reset_pipe repair may have lifted the clamp already.
            if (removed) recompute_pipe_clamps_shard(s);
            if (s == 0) {
              if (obs::Tracer* tr = tracer_at(s)) {
                tr->instant("fault", to_string(plan_.faults[i].type), obs::kEngineTrack,
                            shards_->engine(s).now(), "window", 0.0);
              }
            }
          });
        }
        break;
    }
  }

  // Precomputed cascade hits: the penalty applies on the hit daemon's owner
  // shard at the resolved time, and lifts when the parent window ends.
  for (std::size_t k = 0; k < cascade_hits_.size(); ++k) {
    const CascadeHit h = cascade_hits_[k];
    const std::size_t row = plan_.faults.size() + k;
    const std::size_t s = daemon_shard_[h.daemon];
    shards_->engine(s).schedule_at(h.at_us, [this, h, row, s, tracer_at] {
      daemon_net_penalties_[h.daemon].emplace_back(h.fault_index,
                                                   plan_.faults[h.fault_index].cascade_factor);
      recompute_net_penalty(h.daemon);
      fault_outcomes_[row].injected = true;
      if (obs::Tracer* tr = tracer_at(s)) {
        tr->instant("fault", "cascade", obs::kEngineTrack, shards_->engine(s).now(), "daemon",
                    static_cast<double>(h.daemon));
      }
    });
    shards_->engine(s).schedule_at(plan_.faults[h.fault_index].end_us(), [this, h] {
      auto& penalties = daemon_net_penalties_[h.daemon];
      const std::size_t before = penalties.size();
      penalties.erase(std::remove_if(penalties.begin(), penalties.end(),
                                     [&h](const auto& entry) {
                                       return entry.first == h.fault_index;
                                     }),
                      penalties.end());
      if (penalties.size() != before) recompute_net_penalty(h.daemon);
    });
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
  // before an injected restart at the same instant on the owner shard);
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

void Simulation::recompute_slowdown() {
  // Factors multiply in insertion order, so reverting one fault leaves the
  // exact double the remaining set would have produced on its own.
  double factor = 1.0;
  for (const auto& [fault_index, f] : active_slowdowns_) factor *= f;
  network_->set_slowdown(factor);
}

void Simulation::recompute_pipe_clamps() {
  // Per-pipe limit = min over active clamps covering it.  Only touch pipes
  // whose effective capacity actually changes: set/clear fire a pending
  // space callback unconditionally, so a redundant call would inject a
  // spurious wake-up event and shift the stream.
  for (std::size_t p = 0; p < pipes_.size(); ++p) {
    std::int32_t limit = INT32_MAX;
    for (const auto& [fault_index, cap] : active_clamps_) {
      const FaultSpec& f = plan_.faults[fault_index];
      if (f.target >= 0 && pipe_daemon_[p] != static_cast<std::size_t>(f.target)) continue;
      limit = std::min(limit, cap);
    }
    const std::int32_t desired = std::min(pipes_[p]->capacity(), limit);
    if (desired == pipes_[p]->effective_capacity()) continue;
    if (limit == INT32_MAX) {
      pipes_[p]->clear_capacity_limit();
    } else {
      pipes_[p]->set_capacity_limit(limit);
    }
  }
}

std::vector<std::size_t> Simulation::topology_neighbors(std::size_t d) const {
  std::vector<std::size_t> out;
  if (config_.topology == ForwardingTopology::BinaryTree) {
    if (d > 0) out.push_back((d - 1) / 2);
    if (2 * d + 1 < daemons_.size()) out.push_back(2 * d + 1);
    if (2 * d + 2 < daemons_.size()) out.push_back(2 * d + 2);
  } else {
    // Direct forwarding has no daemon-to-daemon edges; treat the index
    // chain as adjacency (d-1, d+1) so cascades still have a topology.
    if (d > 0) out.push_back(d - 1);
    if (d + 1 < daemons_.size()) out.push_back(d + 1);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Simulation::propagate_cascade(std::size_t fault_index, std::size_t from,
                                   std::int32_t hop) {
  const FaultSpec& f = plan_.faults[fault_index];
  // Each neighbor is tested at most once per cascade, in ascending index
  // order, from the dedicated cascade stream — deterministic regardless of
  // how the BFS frontier interleaves with model events.
  for (const std::size_t nb : topology_neighbors(from)) {
    if (cascade_visited_[fault_index][nb] != 0) continue;
    cascade_visited_[fault_index][nb] = 1;
    if (cascade_rng_->next_double() >= f.cascade_p) continue;
    engine_.schedule_after(f.cascade_delay_us,
                           [this, fault_index, nb, hop] { apply_cascade_hit(fault_index, nb, hop); });
  }
}

void Simulation::apply_cascade_hit(std::size_t fault_index, std::size_t daemon,
                                   std::int32_t hop) {
  const FaultSpec& f = plan_.faults[fault_index];
  const SimTime end = f.end_us();
  if (engine_.now() >= end) return;  // parent window already lifted
  daemon_net_penalties_[daemon].emplace_back(fault_index, f.cascade_factor);
  recompute_net_penalty(daemon);
  if (tracer_ != nullptr) {
    tracer_->instant("fault", "cascade", obs::kEngineTrack, engine_.now(), "daemon",
                     static_cast<double>(daemon));
  }
  // Record the induced effect as its own outcome row: an uplink slowdown
  // on the hit daemon for the remainder of the parent window.
  FaultOutcome induced;
  induced.spec.type = FaultType::LinkSlowdown;
  induced.spec.target = static_cast<std::int32_t>(daemon);
  induced.spec.start_us = engine_.now();
  induced.spec.duration_us = end - engine_.now();
  induced.spec.magnitude = f.cascade_factor;
  induced.injected = true;
  induced.cascaded_from = static_cast<std::int32_t>(fault_index);
  fault_outcomes_.push_back(induced);
  if (hop < f.cascade_hops) propagate_cascade(fault_index, daemon, hop + 1);
}

void Simulation::recompute_net_penalty(std::size_t daemon) {
  double factor = 1.0;
  for (const auto& [fault_index, f] : daemon_net_penalties_[daemon]) factor *= f;
  daemons_[daemon]->set_net_penalty(factor);
}

void Simulation::apply_fault(std::size_t fault_index) {
  const FaultSpec& f = plan_.faults[fault_index];
  fault_outcomes_[fault_index].injected = true;
  if (tracer_ != nullptr) {
    tracer_->instant("fault", to_string(f.type), obs::kEngineTrack, engine_.now(), "window",
                     1.0);
  }
  switch (f.type) {
    case FaultType::DaemonStall:
    case FaultType::DaemonCrash:
      for (std::size_t d = 0; d < daemons_.size(); ++d) {
        if (f.target >= 0 && static_cast<std::size_t>(f.target) != d) continue;
        if (f.type == FaultType::DaemonStall) {
          daemons_[d]->stall_until(f.end_us());
        } else {
          daemons_[d]->crash_until(f.end_us());
        }
      }
      if (f.cascade_p > 0.0 && cascade_rng_ != nullptr) {
        const auto origin = static_cast<std::size_t>(f.target);
        cascade_visited_[fault_index].assign(daemons_.size(), 0);
        cascade_visited_[fault_index][origin] = 1;
        propagate_cascade(fault_index, origin, 1);
      }
      break;
    case FaultType::LinkSlowdown:
      active_slowdowns_.emplace_back(fault_index, f.magnitude);
      recompute_slowdown();
      break;
    case FaultType::SampleDrop:
      fault_gate_->add_drop(f.target, f.magnitude);
      break;
    case FaultType::PipeBackpressure:
      active_clamps_.emplace_back(fault_index, static_cast<std::int32_t>(f.magnitude));
      recompute_pipe_clamps();
      break;
  }
}

void Simulation::revert_fault(std::size_t fault_index) {
  const FaultSpec& f = plan_.faults[fault_index];
  if (tracer_ != nullptr) {
    tracer_->instant("fault", to_string(f.type), obs::kEngineTrack, engine_.now(), "window",
                     0.0);
  }
  switch (f.type) {
    case FaultType::DaemonStall:
    case FaultType::DaemonCrash:
      // stall_until / crash_until resume on their own; lift any uplink
      // penalties this fault's cascade applied.
      if (f.cascade_p > 0.0 && cascade_rng_ != nullptr) {
        for (std::size_t d = 0; d < daemons_.size(); ++d) {
          auto& penalties = daemon_net_penalties_[d];
          const std::size_t before = penalties.size();
          penalties.erase(std::remove_if(penalties.begin(), penalties.end(),
                                         [fault_index](const auto& entry) {
                                           return entry.first == fault_index;
                                         }),
                          penalties.end());
          if (penalties.size() != before) recompute_net_penalty(d);
        }
      }
      break;
    case FaultType::LinkSlowdown:
      for (auto it = active_slowdowns_.begin(); it != active_slowdowns_.end(); ++it) {
        if (it->first == fault_index) {
          active_slowdowns_.erase(it);
          break;
        }
      }
      recompute_slowdown();
      break;
    case FaultType::SampleDrop:
      fault_gate_->remove_drop(f.target, f.magnitude);
      break;
    case FaultType::PipeBackpressure: {
      bool removed = false;
      for (auto it = active_clamps_.begin(); it != active_clamps_.end(); ++it) {
        if (it->first == fault_index) {
          active_clamps_.erase(it);
          removed = true;
          break;
        }
      }
      // A reset_pipe repair may have lifted the clamp already; the window
      // end is then a no-op (no spurious pipe callbacks).
      if (removed) recompute_pipe_clamps();
      break;
    }
  }
}

bool Simulation::repair_restart_daemon(std::size_t fault_index) {
  const FaultSpec& f = plan_.faults[fault_index];
  if (shards_) {
    // The covered daemons live on their owner shards, whose clocks may be up
    // to one window away.  Decide from the deterministic mirror (plan
    // windows + restarts already dispatched) instead of peeking at
    // cross-shard daemon state, then deliver restart_now as a timestamped
    // message one lookahead out — same transport as sample forwarding.
    const SimTime now = shards_->engine(0).now();
    bool any = false;
    for (std::size_t d = 0; d < daemons_.size(); ++d) {
      if (f.target >= 0 && static_cast<std::size_t>(f.target) != d) continue;
      if (mirror_stalled_until(d, now) <= now) continue;
      const SimTime deliver_at = now + config_.uplink_latency_us;
      ParadynDaemon* daemon = daemons_[d].get();
      shards_->post(0, daemon_shard_[d], deliver_at, kRepairRestartKeyBase + d,
                    [daemon] { daemon->restart_now(); });
      restart_dispatches_[d].push_back(deliver_at);
      any = true;
    }
    if (any && !shard_tracers_.empty()) {
      shard_tracers_[0].instant("repair", "restart_daemon", obs::kEngineTrack, now, "fault",
                                static_cast<double>(fault_index));
    }
    return any;
  }
  bool any = false;
  for (std::size_t d = 0; d < daemons_.size(); ++d) {
    if (f.target >= 0 && static_cast<std::size_t>(f.target) != d) continue;
    if (!daemons_[d]->stalled()) continue;
    daemons_[d]->restart_now();
    any = true;
  }
  if (any && tracer_ != nullptr) {
    tracer_->instant("repair", "restart_daemon", obs::kEngineTrack, engine_.now(), "fault",
                     static_cast<double>(fault_index));
  }
  return any;
}

bool Simulation::repair_reroute_link(std::size_t fault_index, double penalty_factor) {
  if (shards_) {
    // The slowdown lists are replicated per shard; the factor swap is
    // broadcast to every replica at +lookahead.  The decision ("window still
    // active?") mirrors the legacy membership test from the plan alone.
    const FaultSpec& f = plan_.faults[fault_index];
    const SimTime now = shards_->engine(0).now();
    if (f.type != FaultType::LinkSlowdown) return false;
    if (!(f.start_us <= now && now < f.end_us())) return false;
    const SimTime deliver_at = now + config_.uplink_latency_us;
    for (std::size_t s = 0; s < partition_.shards; ++s) {
      shards_->post(0, s, deliver_at, kRepairEffectKeyBase + fault_index,
                    [this, s, fault_index, penalty_factor] {
                      ++shard_control_fired_[s];
                      for (auto& [index, factor] : shard_slowdowns_[s]) {
                        if (index != fault_index) continue;
                        factor = penalty_factor;
                        recompute_slowdown_shard(s);
                        break;
                      }
                    });
    }
    if (!shard_tracers_.empty()) {
      shard_tracers_[0].instant("repair", "reroute_link", obs::kEngineTrack, now, "fault",
                                static_cast<double>(fault_index));
    }
    return true;
  }
  for (auto& [index, factor] : active_slowdowns_) {
    if (index != fault_index) continue;
    factor = penalty_factor;
    recompute_slowdown();
    if (tracer_ != nullptr) {
      tracer_->instant("repair", "reroute_link", obs::kEngineTrack, engine_.now(), "fault",
                       static_cast<double>(fault_index));
    }
    return true;
  }
  return false;  // window already ended
}

bool Simulation::repair_reset_pipe(std::size_t fault_index) {
  if (shards_) {
    const FaultSpec& f = plan_.faults[fault_index];
    const SimTime now = shards_->engine(0).now();
    if (f.type != FaultType::PipeBackpressure) return false;
    if (reset_dispatched_[fault_index] != 0) return false;  // one-shot per fault
    if (!(f.start_us <= now && now < f.end_us())) return false;
    reset_dispatched_[fault_index] = 1;
    const SimTime deliver_at = now + config_.uplink_latency_us;
    for (std::size_t s = 0; s < partition_.shards; ++s) {
      shards_->post(0, s, deliver_at, kRepairEffectKeyBase + fault_index, [this, s, fault_index] {
        ++shard_control_fired_[s];
        auto& clamps = shard_clamps_[s];
        bool removed = false;
        for (auto it = clamps.begin(); it != clamps.end(); ++it) {
          if (it->first == fault_index) {
            clamps.erase(it);
            removed = true;
            break;
          }
        }
        if (removed) recompute_pipe_clamps_shard(s);
        const FaultSpec& spec = plan_.faults[fault_index];
        std::uint64_t drained = 0;
        for (std::size_t p = 0; p < pipes_.size(); ++p) {
          if (partition_.shard_of(apps_[p]->node()) != s) continue;
          if (spec.target >= 0 && pipe_daemon_[p] != static_cast<std::size_t>(spec.target)) {
            continue;
          }
          drained += pipes_[p]->drain();
        }
        shard_collector(s).samples_dropped += drained;
      });
    }
    if (!shard_tracers_.empty()) {
      shard_tracers_[0].instant("repair", "reset_pipe", obs::kEngineTrack, now, "fault",
                                static_cast<double>(fault_index));
    }
    return true;
  }
  bool removed = false;
  for (auto it = active_clamps_.begin(); it != active_clamps_.end(); ++it) {
    if (it->first == fault_index) {
      active_clamps_.erase(it);
      removed = true;
      break;
    }
  }
  if (!removed) return false;
  recompute_pipe_clamps();
  const FaultSpec& f = plan_.faults[fault_index];
  std::uint64_t drained = 0;
  for (std::size_t p = 0; p < pipes_.size(); ++p) {
    if (f.target >= 0 && pipe_daemon_[p] != static_cast<std::size_t>(f.target)) continue;
    drained += pipes_[p]->drain();
  }
  metrics_.samples_dropped += drained;
  if (tracer_ != nullptr) {
    tracer_->instant("repair", "reset_pipe", obs::kEngineTrack, engine_.now(), "fault",
                     static_cast<double>(fault_index));
  }
  return true;
}

void Simulation::set_tracer(obs::Tracer* tracer) {
  if (shards_) {
    throw std::logic_error(
        "Simulation::set_tracer: a partitioned run has one tracer per shard — attach via "
        "set_trace_recorder");
  }
  tracer_ = tracer;
  // Fixed track ids: 0 = engine, 1 = network, 2 = main, then one per CPU
  // resource, daemon, and application process.  Labels become Perfetto
  // thread names via trace metadata.
  constexpr std::int32_t kNetworkTrack = 1;
  constexpr std::int32_t kMainTrack = 2;

  engine_.set_tracer(tracer);
  network_->set_tracer(tracer, kNetworkTrack);
  if (main_) main_->set_tracer(tracer, kMainTrack);

  std::int32_t next = 3;
  const std::int32_t first_cpu_track = next;
  for (auto& cpu : node_cpus_) cpu->set_tracer(tracer, next++);
  const std::int32_t first_daemon_track = next;
  for (auto& daemon : daemons_) daemon->set_tracer(tracer, next++);
  const std::int32_t first_app_track = next;
  for (auto& app : apps_) app->set_tracer(tracer, next++);

  if (tracer == nullptr) return;
  tracer->set_track_name(obs::kEngineTrack, "engine");
  tracer->set_track_name(kNetworkTrack, "network");
  if (main_) tracer->set_track_name(kMainTrack, "main paradyn");
  const bool dedicated_main = config_.instrumentation_enabled && config_.main_on_dedicated_host;
  for (std::size_t n = 0; n < node_cpus_.size(); ++n) {
    const bool is_main_host = dedicated_main && n + 1 == node_cpus_.size();
    tracer->set_track_name(first_cpu_track + static_cast<std::int32_t>(n),
                           is_main_host ? std::string("cpu main-host")
                                        : "cpu node " + std::to_string(n));
  }
  for (std::size_t d = 0; d < daemons_.size(); ++d) {
    tracer->set_track_name(first_daemon_track + static_cast<std::int32_t>(d),
                           "daemon " + std::to_string(d) + " (node " +
                               std::to_string(daemons_[d]->node()) + ")");
  }
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    tracer->set_track_name(first_app_track + static_cast<std::int32_t>(a),
                           "app n" + std::to_string(apps_[a]->node()) + "." +
                               std::to_string(apps_[a]->index()));
  }
}

void Simulation::set_trace_recorder(obs::TraceRecorder& recorder) {
  trace_recorder_ = &recorder;
  if (!shards_) {
    shard_tracers_.clear();
    shard_tracers_.push_back(recorder.create_tracer("rocc"));
    set_tracer(&shard_tracers_.front());
    return;
  }

  // One tracer (= one recorder process) per shard.  Entities keep the same
  // global track numbering as set_tracer — 0 engine, 1 network, 2 main, then
  // CPUs, daemons, apps — each registered on its owner shard's tracer, so a
  // merged view lays out exactly like a legacy trace split across shard
  // swimlanes.
  constexpr std::int32_t kNetworkTrack = 1;
  constexpr std::int32_t kMainTrack = 2;
  shard_tracers_.clear();
  shard_tracers_.reserve(partition_.shards);
  for (std::size_t s = 0; s < partition_.shards; ++s) {
    shard_tracers_.push_back(recorder.create_tracer("shard " + std::to_string(s)));
  }
  for (std::size_t s = 0; s < partition_.shards; ++s) {
    obs::Tracer* tr = &shard_tracers_[s];
    shards_->engine(s).set_tracer(tr);
    shard_networks_[s]->set_tracer(tr, kNetworkTrack);
    tr->set_track_name(obs::kEngineTrack, "engine");
    tr->set_track_name(kNetworkTrack, "network");
  }
  if (main_) {
    main_->set_tracer(&shard_tracers_[0], kMainTrack);
    shard_tracers_[0].set_track_name(kMainTrack, "main paradyn");
  }

  std::int32_t next = 3;
  const bool dedicated_main = config_.instrumentation_enabled && config_.main_on_dedicated_host;
  for (std::size_t n = 0; n < node_cpus_.size(); ++n) {
    const bool is_main_host = dedicated_main && n + 1 == node_cpus_.size();
    const std::size_t s =
        is_main_host ? 0 : partition_.shard_of(static_cast<std::int32_t>(n));
    node_cpus_[n]->set_tracer(&shard_tracers_[s], next);
    shard_tracers_[s].set_track_name(next, is_main_host
                                               ? std::string("cpu main-host")
                                               : "cpu node " + std::to_string(n));
    ++next;
  }
  for (std::size_t d = 0; d < daemons_.size(); ++d) {
    const std::size_t s = daemon_shard_[d];
    daemons_[d]->set_tracer(&shard_tracers_[s], next);
    shard_tracers_[s].set_track_name(next, "daemon " + std::to_string(d) + " (node " +
                                               std::to_string(daemons_[d]->node()) + ")");
    ++next;
  }
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    const std::size_t s = partition_.shard_of(apps_[a]->node());
    apps_[a]->set_tracer(&shard_tracers_[s], next);
    shard_tracers_[s].set_track_name(next, "app n" + std::to_string(apps_[a]->node()) + "." +
                                               std::to_string(apps_[a]->index()));
    ++next;
  }
}

void Simulation::set_shard_executor(des::ShardSet::Executor executor) {
  if (shards_) shards_->set_executor(std::move(executor));
}

void Simulation::enable_metrics(obs::MetricsRegistry& registry, SimTime tick_us) {
  if (shards_) {
    throw std::logic_error(
        "Simulation::enable_metrics: unsupported in partitioned mode — the probes read "
        "cross-shard state mid-run");
  }
  if (!(tick_us > 0.0)) {
    throw std::invalid_argument("Simulation::enable_metrics: tick_us must be > 0");
  }
  registry_ = &registry;
  metrics_tick_us_ = tick_us;

  registry.add_probe("engine.pending_events",
                     [this] { return static_cast<double>(engine_.pending_events()); });
  registry.add_probe("engine.events_processed",
                     [this] { return static_cast<double>(engine_.events_processed()); });
  registry.add_probe("samples.generated",
                     [this] { return static_cast<double>(metrics_.samples_generated); });
  registry.add_probe("samples.delivered",
                     [this] { return static_cast<double>(metrics_.samples_delivered); });
  registry.add_probe("batches.delivered",
                     [this] { return static_cast<double>(metrics_.batches_delivered); });
  if (!plan_.empty()) {
    registry.add_probe("samples.dropped",
                       [this] { return static_cast<double>(metrics_.samples_dropped); });
    registry.add_probe("net.slowdown", [this] { return network_->slowdown(); });
  }
  if (throttle_) {
    registry.add_probe("throttle.max_factor", [this] { return throttle_->max_factor(); });
  }

  // Busy fraction of the whole CPU pool per process class: accumulated busy
  // time over elapsed capacity.  Warm-up deletion resets the numerator, so
  // the fraction dips at the warm-up boundary by design.
  const double total_cpus =
      static_cast<double>(node_cpus_.size()) * static_cast<double>(config_.cpus_per_node);
  const auto busy_fraction = [this, total_cpus](ProcessClass c) {
    const double elapsed = engine_.now();
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
  registry.add_probe("net.busy_frac", [this] {
    const double elapsed = engine_.now();
    return elapsed > 0.0 ? network_->busy_time_total() / elapsed : 0.0;
  });
  registry.add_probe("net.backlog",
                     [this] { return static_cast<double>(network_->backlog()); });

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
  registry_->sample(engine_.now());
  engine_.schedule_after(metrics_tick_us_, [this] { schedule_metrics_tick(); });
}

SimulationResult Simulation::run() {
  if (ran_) throw std::logic_error("Simulation::run: already ran");
  ran_ = true;

  if (shards_) {
    // Same start order as the legacy path; each entity schedules onto its
    // owner shard's engine.  The controller/barrier/probe features are
    // rejected at config validation, so only the sharded throttles remain.
    for (auto& stream : background_) stream->start();
    for (auto& daemon : daemons_) daemon->start();
    for (auto& app : apps_) app->start();
    for (auto& throttle : shard_throttles_) {
      if (throttle) throttle->start();
    }
    schedule_faults_partitioned();
    shards_->run([this](SimTime) {
      // Transient deletion at the warm-up boundary (every shard stopped at
      // exactly warmup_us; the boundary's messages are already injected).
      for (auto& cpu : node_cpus_) cpu->reset_accounting();
      for (auto& net : shard_networks_) net->reset_accounting();
      for (std::size_t s = 0; s < partition_.shards; ++s) {
        shard_collector(s) = MetricsCollector{};
      }
      // (shard_control_fired_ is deliberately not reset: events_processed
      // spans the whole run, warm-up included, exactly like the legacy
      // engine counter.)
      metrics_.record_latency_series = config_.record_latency_series;
    });
    return collect();
  }

  for (auto& stream : background_) stream->start();
  for (auto& daemon : daemons_) daemon->start();
  for (auto& app : apps_) app->start();
  if (controller_) controller_->start();
  if (throttle_) throttle_->start();
  // First probe row at t = 0, then one every tick of simulated time.
  if (registry_ != nullptr) schedule_metrics_tick();

  // Fault injection: compile the plan (config.faults + the legacy stall
  // shorthand) into ordinary timed events.
  schedule_faults();

  if (config_.warmup_us > 0.0) {
    // Transient deletion: run the warm-up, then zero every accumulator so
    // the reported metrics cover only the (closer-to-)steady-state window.
    engine_.run_until(config_.warmup_us);
    for (auto& cpu : node_cpus_) cpu->reset_accounting();
    network_->reset_accounting();
    if (barrier_) barrier_->reset_accounting();
    metrics_ = MetricsCollector{};
    metrics_.record_latency_series = config_.record_latency_series;
  }
  engine_.run_until(config_.duration_us);
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

  if (shards_) {
    // Rebuild the global busy time from the per-node attribution of each
    // shard network: summing in canonical node order keeps the figure
    // independent of how the nodes were cut into shards.
    double net_busy = 0.0;
    for (std::int32_t n = 0; n < config_.nodes; ++n) {
      const NetworkResource& net = *shard_networks_[partition_.shard_of(n)];
      for (int c = 0; c < trace::kNumProcessClasses; ++c) {
        net_busy += net.busy_time_node(n, static_cast<ProcessClass>(c));
      }
    }
    r.network_util_pct = 100.0 * net_busy / window_us;
  } else {
    r.network_util_pct = 100.0 * network_->busy_time_total() / window_us;
  }

  r.latency_us = metrics_.latency_us;
  r.latency_series_us = metrics_.latency_series_us;

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
  // Delivery-side counters (delivered, batches, latency) are main-owned and
  // live in metrics_ — shard 0's collector — in both modes.  Generation-side
  // counters are written where the emitting entity lives, so the partitioned
  // path sums the shard collectors.
  r.samples_generated = metrics_.samples_generated;
  r.samples_delivered = metrics_.samples_delivered;
  r.batches_delivered = metrics_.batches_delivered;
  if (shards_) {
    for (std::size_t s = 1; s < partition_.shards; ++s) {
      r.samples_generated += shard_collector(s).samples_generated;
    }
    // Replicated control events (fault edges, repair broadcasts, throttle
    // tick chains) fire once per shard; report the model events plus a
    // single replica's worth so the count is shard-count-invariant.
    std::uint64_t control_total = 0;
    std::uint64_t control_zero = 0;
    for (std::size_t s = 0; s < partition_.shards; ++s) {
      std::uint64_t control = shard_control_fired_[s];
      if (s < shard_throttles_.size() && shard_throttles_[s]) {
        control += shard_throttles_[s]->ticks();
      }
      control_total += control;
      if (s == 0) control_zero = control;
    }
    r.events_processed = shards_->events_processed() - control_total + control_zero;
  } else {
    r.events_processed = engine_.events_processed();
  }
  r.throughput_samples_per_sec =
      static_cast<double>(metrics_.samples_delivered) / des::to_seconds(window_us);

  if (barrier_) {
    r.barrier_rounds = barrier_->rounds();
    r.barrier_wait_us = barrier_->total_wait_time();
  }
  if (controller_) {
    r.final_sampling_period_us = controller_->current_period_us();
    r.cost_adjustments = controller_->adjustments();
  }
  r.samples_dropped = metrics_.samples_dropped;
  if (shards_) {
    for (std::size_t s = 1; s < partition_.shards; ++s) {
      r.samples_dropped += shard_collector(s).samples_dropped;
    }
  }
  r.fault_outcomes = fault_outcomes_;
  if (throttle_) {
    r.throttle_factors = throttle_->factors();
    r.max_throttle_factor = throttle_->max_factor();
    r.throttle_adjustments = throttle_->adjustments();
  } else if (!shard_throttles_.empty()) {
    // Stitch the per-shard instances back into the legacy layout: factors in
    // daemon order (the order the single instance added its domains).
    r.throttle_factors.reserve(daemons_.size());
    for (std::size_t d = 0; d < daemons_.size(); ++d) {
      const auto& inst = *shard_throttles_[daemon_shard_[d]];
      r.throttle_factors.push_back(
          inst.factors()[static_cast<std::size_t>(daemon_throttle_domain_[d])]);
    }
    for (const auto& inst : shard_throttles_) {
      if (!inst) continue;
      r.max_throttle_factor = std::max(r.max_throttle_factor, inst->max_factor());
      r.throttle_adjustments += inst->adjustments();
    }
  }
  return r;
}

SimulationResult run_simulation(const SystemConfig& config) { return Simulation(config).run(); }

std::vector<SimulationResult> run_replications(SystemConfig config, std::size_t replications) {
  std::vector<SimulationResult> results;
  results.reserve(replications);
  for (std::size_t i = 0; i < replications; ++i) {
    SystemConfig c = config;
    c.seed = config.seed + i;
    results.push_back(run_simulation(c));
  }
  return results;
}

}  // namespace paradyn::rocc
