#include "trace/generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "stats/sampler.hpp"

namespace paradyn::trace {
namespace {

using stats::Exponential;
using stats::Lognormal;

std::shared_ptr<const Exponential> exponential(double mean) {
  return std::make_shared<Exponential>(mean);
}

std::shared_ptr<const Lognormal> lognormal(double mean, double stddev) {
  return std::make_shared<Lognormal>(Lognormal::from_mean_stddev(mean, stddev));
}

/// Records `model` is expected to emit on `nodes` nodes: one per mean
/// inter-arrival, or two per mean cycle of an alternating process (which
/// needs both lengths); the main process runs on node 0 only.
double expected_records(const Sp2TraceModel& model, std::int32_t nodes) {
  double per_us = 0.0;
  for (const ProcessTraceModel& pm : model.processes) {
    double rate = 0.0;
    if (pm.alternating) {
      if (!pm.cpu_length || !pm.net_length) {
        throw std::invalid_argument("generate_trace: alternating process needs both lengths");
      }
      rate = 2.0 / (pm.cpu_length->mean() + pm.net_length->mean());
    } else {
      if (pm.cpu_length && pm.cpu_interarrival) rate += 1.0 / pm.cpu_interarrival->mean();
      if (pm.net_length && pm.net_interarrival) rate += 1.0 / pm.net_interarrival->mean();
    }
    per_us += pm.pclass == ProcessClass::MainParadyn ? rate : rate * nodes;
  }
  return per_us * model.duration_us;
}

}  // namespace

Sp2TraceModel Sp2TraceModel::paper_pvmbt(double duration_us) {
  Sp2TraceModel model;
  model.duration_us = duration_us;

  // Application process: alternating computation/communication states
  // (Figure 7); lengths from Table 2.
  ProcessTraceModel app;
  app.pclass = ProcessClass::Application;
  app.cpu_length = lognormal(2213.0, 3034.0);
  app.net_length = exponential(223.0);
  app.alternating = true;
  model.processes.push_back(app);

  // Paradyn daemon: one CPU + one network request per collected sample;
  // inter-arrival = the typical 40 ms sampling period (Table 2).
  ProcessTraceModel pd;
  pd.pclass = ProcessClass::ParadynDaemon;
  pd.cpu_length = exponential(267.0);
  pd.net_length = exponential(71.0);
  pd.cpu_interarrival = exponential(40'000.0);
  pd.net_interarrival = exponential(40'000.0);
  model.processes.push_back(pd);

  // PVM daemon (Table 2).
  ProcessTraceModel pvmd;
  pvmd.pclass = ProcessClass::PvmDaemon;
  pvmd.cpu_length = lognormal(294.0, 206.0);
  pvmd.net_length = exponential(58.0);
  pvmd.cpu_interarrival = exponential(6'485.0);
  pvmd.net_interarrival = exponential(6'485.0);
  model.processes.push_back(pvmd);

  // Other user/system processes (Table 2).
  ProcessTraceModel other;
  other.pclass = ProcessClass::Other;
  other.cpu_length = lognormal(367.0, 819.0);
  other.net_length = exponential(92.0);
  other.cpu_interarrival = exponential(31'485.0);
  other.net_interarrival = exponential(5'598'903.0);
  model.processes.push_back(other);

  // Main Paradyn process (Table 1 statistics); its requests arrive with
  // the aggregate sample stream, approximated here by the sampling period.
  ProcessTraceModel main_p;
  main_p.pclass = ProcessClass::MainParadyn;
  main_p.cpu_length = lognormal(3'208.0, 3'287.0);
  main_p.net_length = lognormal(214.0, 451.0);
  main_p.cpu_interarrival = exponential(40'000.0);
  main_p.net_interarrival = exponential(40'000.0);
  model.processes.push_back(main_p);

  return model;
}

std::vector<TraceRecord> generate_trace(const Sp2TraceModel& model, std::int32_t nodes,
                                        std::uint64_t seed) {
  if (nodes <= 0) throw std::invalid_argument("generate_trace: nodes must be > 0");
  // An infinite duration never ends: records pile up until allocation fails.
  if (!(model.duration_us > 0.0) || !std::isfinite(model.duration_us)) {
    throw std::invalid_argument("generate_trace: duration must be > 0 and finite");
  }
  // Every record stays in memory until the sort: fail here, not in the allocator.
  if (const double n = expected_records(model, nodes); !(n <= kMaxTraceRecords)) {
    char message[128];
    std::snprintf(message, sizeof(message),
                  "generate_trace: the model expects about %.3g records, above the cap of %zu "
                  "(1 GiB of records)", n, kMaxTraceRecords);
    throw std::invalid_argument(message);
  }

  std::vector<TraceRecord> records;
  std::int32_t next_pid = 1;

  for (std::int32_t node = 0; node < nodes; ++node) {
    for (std::size_t pi = 0; pi < model.processes.size(); ++pi) {
      const ProcessTraceModel& pm = model.processes[pi];
      // The main Paradyn process only exists on the host node (node 0).
      if (pm.pclass == ProcessClass::MainParadyn && node != 0) continue;

      const std::int32_t pid = next_pid++;
      des::RngStream rng(seed, static_cast<std::uint64_t>(node) * 131 + pi, 17);

      if (pm.alternating) {
        const auto cpu_length = stats::FrozenSampler::compile(pm.cpu_length);
        const auto net_length = stats::FrozenSampler::compile(pm.net_length);
        double t = 0.0;
        while (t < model.duration_us) {
          const double cpu = cpu_length(rng);
          records.push_back({t, node, pid, pm.pclass, ResourceKind::Cpu, cpu});
          t += cpu;
          if (t >= model.duration_us) break;
          const double net = net_length(rng);
          records.push_back({t, node, pid, pm.pclass, ResourceKind::Network, net});
          t += net;
        }
      } else {
        if (pm.cpu_length && pm.cpu_interarrival) {
          const auto length = stats::FrozenSampler::compile(pm.cpu_length);
          const auto interarrival = stats::FrozenSampler::compile(pm.cpu_interarrival);
          double t = interarrival(rng);
          while (t < model.duration_us) {
            records.push_back({t, node, pid, pm.pclass, ResourceKind::Cpu, length(rng)});
            t += interarrival(rng);
          }
        }
        if (pm.net_length && pm.net_interarrival) {
          const auto length = stats::FrozenSampler::compile(pm.net_length);
          const auto interarrival = stats::FrozenSampler::compile(pm.net_interarrival);
          double t = interarrival(rng);
          while (t < model.duration_us) {
            records.push_back({t, node, pid, pm.pclass, ResourceKind::Network, length(rng)});
            t += interarrival(rng);
          }
        }
      }
    }
  }

  std::sort(records.begin(), records.end(), [](const TraceRecord& a, const TraceRecord& b) {
    if (a.timestamp_us != b.timestamp_us) return a.timestamp_us < b.timestamp_us;
    if (a.node != b.node) return a.node < b.node;
    return a.pid < b.pid;
  });
  return records;
}

}  // namespace paradyn::trace
