#include "rocc/config.hpp"

#include <cstdio>
#include <memory>

namespace paradyn::rocc {
namespace {

using stats::Exponential;
using stats::Lognormal;

stats::DistributionPtr exponential(double mean) { return std::make_shared<Exponential>(mean); }

stats::DistributionPtr lognormal(double mean, double stddev) {
  return std::make_shared<Lognormal>(Lognormal::from_mean_stddev(mean, stddev));
}

}  // namespace

void SystemConfig::validate() const {
  if (nodes <= 0) throw std::invalid_argument("SystemConfig: nodes must be > 0");
  if (cpus_per_node <= 0) throw std::invalid_argument("SystemConfig: cpus_per_node must be > 0");
  if (app_processes_per_node < 0) {
    throw std::invalid_argument("SystemConfig: app_processes_per_node must be >= 0");
  }
  if (daemons <= 0) throw std::invalid_argument("SystemConfig: daemons must be > 0");
  if (arch != Architecture::Smp && daemons != 1) {
    throw std::invalid_argument("SystemConfig: multiple daemons are an SMP-only option");
  }
  if (!(sampling_period_us > 0.0)) {
    throw std::invalid_argument("SystemConfig: sampling_period_us must be > 0");
  }
  if (batch_size <= 0) throw std::invalid_argument("SystemConfig: batch_size must be > 0");
  if (!(cpu_quantum_us > 0.0)) {
    throw std::invalid_argument("SystemConfig: cpu_quantum_us must be > 0");
  }
  if (barrier_period_us < 0.0) {
    throw std::invalid_argument("SystemConfig: barrier_period_us must be >= 0");
  }
  if (barrier_every_cycles < 0) {
    throw std::invalid_argument("SystemConfig: barrier_every_cycles must be >= 0");
  }
  if (pipe_capacity <= 0) throw std::invalid_argument("SystemConfig: pipe_capacity must be > 0");
  if (!(duration_us > 0.0)) throw std::invalid_argument("SystemConfig: duration_us must be > 0");
  if (warmup_us < 0.0 || warmup_us >= duration_us) {
    throw std::invalid_argument("SystemConfig: warmup_us must be in [0, duration_us)");
  }
  if (topology == ForwardingTopology::BinaryTree && arch != Architecture::Mpp) {
    throw std::invalid_argument("SystemConfig: tree forwarding is an MPP-only option");
  }
  if (!app.cpu_burst || !app.net_burst) {
    throw std::invalid_argument("SystemConfig: application workload distributions missing");
  }
  const auto check_app_model = [](const AppModel& m, const char* what) {
    if (m.io_block_probability < 0.0 || m.io_block_probability > 1.0) {
      throw std::invalid_argument(std::string("SystemConfig: ") + what +
                                  " io_block_probability must be in [0,1]");
    }
    if (m.io_block_probability > 0.0 && !m.io_block_duration) {
      throw std::invalid_argument(std::string("SystemConfig: ") + what +
                                  " io_block_duration missing");
    }
  };
  check_app_model(app, "app");
  for (const auto& [node, model] : app_overrides) {
    if (node < 0 || node >= nodes) {
      throw std::invalid_argument("SystemConfig: app override for nonexistent node");
    }
    if (!model.cpu_burst || !model.net_burst) {
      throw std::invalid_argument("SystemConfig: app override distributions missing");
    }
    check_app_model(model, "app override");
  }
  if (instrumentation_enabled) {
    if (!pd.collect_cpu || !pd.forward_cpu || !pd.net_occupancy || !pd.merge_cpu) {
      throw std::invalid_argument("SystemConfig: Paradyn daemon cost distributions missing");
    }
    if (!main_cpu) throw std::invalid_argument("SystemConfig: main_cpu distribution missing");
  }
  if (fault_daemon_stall.duration_us < 0.0 || fault_daemon_stall.start_us < 0.0) {
    throw std::invalid_argument("SystemConfig: daemon stall times must be >= 0");
  }
  if (fault_daemon_stall.duration_us > 0.0) {
    // Fail at configuration time, not at Simulation construction: the
    // daemon count is statically derivable from the architecture.
    if (fault_daemon_stall.daemon_index < 0 ||
        fault_daemon_stall.daemon_index >= daemon_count()) {
      throw std::invalid_argument("SystemConfig: daemon stall index out of range");
    }
    if (fault_daemon_stall.start_us >= duration_us) {
      throw std::invalid_argument("SystemConfig: daemon stall starts after sim end");
    }
  }
  if (!faults.empty()) {
    faults.validate(daemon_count(), nodes, duration_us, pipe_capacity);
  }
  if (adaptive_throttle.enabled) {
    if (!(adaptive_throttle.perturbation_budget_pct > 0.0)) {
      throw std::invalid_argument("SystemConfig: throttle perturbation budget must be > 0");
    }
    if (!(adaptive_throttle.adjust_interval_us > 0.0)) {
      throw std::invalid_argument("SystemConfig: throttle adjust interval must be > 0");
    }
    if (!(adaptive_throttle.max_slowdown >= 1.0)) {
      throw std::invalid_argument("SystemConfig: throttle max_slowdown must be >= 1");
    }
    if (!(adaptive_throttle.grow > 1.0) || !(adaptive_throttle.shrink > 0.0) ||
        adaptive_throttle.shrink >= 1.0) {
      throw std::invalid_argument("SystemConfig: throttle steps need grow > 1, shrink in (0,1)");
    }
  }
  if (pd.net_per_extra_sample_us < 0.0) {
    throw std::invalid_argument("SystemConfig: net_per_extra_sample_us must be >= 0");
  }
  if (background.enabled) {
    if (!background.pvmd_cpu_length || !background.pvmd_net_length ||
        !background.pvmd_interarrival || !background.other_cpu_length ||
        !background.other_net_length || !background.other_cpu_interarrival ||
        !background.other_net_interarrival) {
      throw std::invalid_argument("SystemConfig: background distributions missing");
    }
  }
  if (uplink_latency_us < 0.0) {
    throw std::invalid_argument("SystemConfig: uplink_latency_us must be >= 0");
  }
  if (shards < 0) throw std::invalid_argument("SystemConfig: shards must be >= 0");
  if (shards > 0) {
    // Conservative-window PDES preconditions.  Each rule names the global
    // coupling that would break the lookahead argument.
    if (!(uplink_latency_us > 0.0)) {
      throw std::invalid_argument(
          "SystemConfig: --shards requires uplink_latency_us > 0 — the minimum cross-shard "
          "network latency is the conservative lookahead, and zero lookahead cannot be "
          "window-synchronized");
    }
    if (shards > nodes) {
      throw std::invalid_argument("SystemConfig: shards must not exceed nodes");
    }
    if (arch == Architecture::Smp) {
      throw std::invalid_argument(
          "SystemConfig: --shards is incompatible with SMP — all processes share one CPU pool");
    }
    if (contention == NetworkContention::SharedSingleServer) {
      throw std::invalid_argument(
          "SystemConfig: --shards requires a contention-free network — a shared single-server "
          "interconnect is a global FIFO with no lookahead");
    }
    if (barrier_period_us > 0.0 || barrier_every_cycles > 0) {
      throw std::invalid_argument(
          "SystemConfig: --shards is incompatible with application barriers — a global barrier "
          "couples all nodes at zero latency");
    }
    if (adaptive.enabled) {
      throw std::invalid_argument(
          "SystemConfig: --shards is incompatible with the global adaptive sampling controller "
          "(it reads every CPU's accounting each interval); use --adaptive-throttle, whose "
          "domains are node-local");
    }
  }
}

SystemConfig SystemConfig::paper_defaults() {
  SystemConfig c;

  // Application process (Table 2).
  c.app.cpu_burst = lognormal(2'213.0, 3'034.0);
  c.app.net_burst = exponential(223.0);

  // Paradyn daemon.  Table 2's exponential(267) per-sample CPU request is
  // split 1:2 into collect (89) and forward (178) so that CF's per-sample
  // total matches the measurement while BF amortizes the system call.  The
  // split matches the >60 % Pd overhead reduction the paper measured for BF
  // (Figure 30): 89/267 ~= one third.
  c.pd.collect_cpu = exponential(89.0);
  c.pd.forward_cpu = exponential(178.0);
  c.pd.net_occupancy = exponential(71.0);
  c.pd.merge_cpu = exponential(89.0);
  c.pd.net_per_extra_sample_us = 0.0;

  // Background load (Table 2).
  c.background.enabled = true;
  c.background.pvmd_cpu_length = lognormal(294.0, 206.0);
  c.background.pvmd_net_length = exponential(58.0);
  c.background.pvmd_interarrival = exponential(6'485.0);
  c.background.other_cpu_length = lognormal(367.0, 819.0);
  c.background.other_net_length = exponential(92.0);
  c.background.other_cpu_interarrival = exponential(31'485.0);
  c.background.other_net_interarrival = exponential(5'598'903.0);

  // Main Paradyn process CPU demand (Table 1 statistics).
  c.main_cpu = lognormal(3'208.0, 3'287.0);

  return c;
}

SystemConfig SystemConfig::now(std::int32_t nodes) {
  SystemConfig c = paper_defaults();
  c.arch = Architecture::Now;
  c.nodes = nodes;
  c.cpus_per_node = 1;
  c.app_processes_per_node = 1;
  c.daemons = 1;
  c.contention = NetworkContention::ContentionFree;
  c.topology = ForwardingTopology::Direct;
  return c;
}

SystemConfig SystemConfig::smp(std::int32_t cpus, std::int32_t app_processes,
                               std::int32_t daemons) {
  SystemConfig c = paper_defaults();
  c.arch = Architecture::Smp;
  c.nodes = 1;
  c.cpus_per_node = cpus;
  c.app_processes_per_node = app_processes;
  c.daemons = daemons;
  c.contention = NetworkContention::SharedSingleServer;  // the shared bus
  c.topology = ForwardingTopology::Direct;
  return c;
}

std::string SystemConfig::summary() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "%s nodes=%d cpus/node=%d apps/node=%d daemons=%d period=%gus batch=%d (%s) topo=%s "
      "net=%s dur=%gus warmup=%gus instr=%s rng=%s",
      to_string(arch), nodes, cpus_per_node, app_processes_per_node, daemons, sampling_period_us,
      batch_size, to_string(policy()), to_string(topology),
      contention == NetworkContention::SharedSingleServer ? "shared" : "contention-free",
      duration_us, warmup_us, instrumentation_enabled ? "on" : "off",
      stats::to_string(sampler_backend()));
  std::string out = buf;
  if (shards > 0) {
    // Deliberately *excluded* from the stamp-visible summary when sharding
    // is off, keeping legacy report headers byte-identical.  The shard count
    // itself is also excluded when on: --shards N and --shards 1 produce
    // bit-identical results, and the differential suite compares whole
    // report documents, stamp included.
    std::snprintf(buf, sizeof(buf), " pdes uplink=%gus", uplink_latency_us);
    out += buf;
  }
  return out;
}

SystemConfig SystemConfig::mpp(std::int32_t nodes, ForwardingTopology topology) {
  SystemConfig c = paper_defaults();
  c.arch = Architecture::Mpp;
  c.nodes = nodes;
  c.cpus_per_node = 1;
  c.app_processes_per_node = 1;
  c.daemons = 1;
  c.contention = NetworkContention::ContentionFree;
  c.topology = topology;
  return c;
}

}  // namespace paradyn::rocc
