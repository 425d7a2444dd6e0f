// Micro-benchmarks of the simulation engine and statistics substrate
// (google-benchmark).  These guard the performance envelope that makes the
// paper-scale experiments (256-node MPP, 2^4 r factorials) cheap to run.
//
// Queue benchmarks run the same workload against both the calendar
// EventQueue (the production implementation) and the reference binary
// HeapEventQueue, so a single run shows the speedup the calendar design
// buys.  `--bench-json=PATH` switches to a deterministic fixed-workload
// mode that writes machine-comparable metrics (see emit_bench_json below)
// for the CI regression gate in tools/bench_compare.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_json_common.hpp"
#include "des/engine.hpp"
#include "des/event_queue.hpp"
#include "des/random.hpp"
#include "rocc/simulation.hpp"
#include "stats/distributions.hpp"
#include "stats/empirical.hpp"
#include "stats/fitting.hpp"
#include "stats/sampler.hpp"
#include "stats/ziggurat.hpp"
#include "support/heap_event_queue.hpp"

namespace {

using namespace paradyn;

// --- Queue drivers ---------------------------------------------------------
// Uniform interface over the two implementations so every queue benchmark
// runs the identical operation script against both.

struct CalendarDriver {
  static constexpr const char* kName = "calendar";
  des::EventQueue q;
  using Handle = des::EventHandle;
  Handle push(des::SimTime t) { return q.push(t, [] {}); }
  bool pop_fire() {
    auto fired = q.pop();
    if (!fired) return false;
    q.fire(*fired);
    return true;
  }
  void cancel(Handle& h) { q.cancel(h); }
};

struct HeapDriver {
  static constexpr const char* kName = "heap";
  des::HeapEventQueue q;
  using Handle = des::HeapEventHandle;
  Handle push(des::SimTime t) { return q.push(t, [] {}); }
  bool pop_fire() {
    auto fired = q.pop();
    if (!fired) return false;
    fired->callback();
    return true;
  }
  void cancel(Handle& h) { q.cancel(h); }
};

// --- Deterministic workloads (shared by gbench and --bench-json) -----------

/// Classical hold model: a queue held at steady-state size `n`; each hold
/// pops the minimum and schedules a replacement a random increment later.
/// This is the DES steady-state access pattern.  Returns operations done.
template <typename Driver>
std::size_t workload_hold(std::size_t n, std::size_t holds) {
  Driver d;
  des::RngStream rng(1, 101);
  for (std::size_t i = 0; i < n; ++i) (void)d.push(rng.next_double() * static_cast<double>(n));
  des::SimTime t = 0.0;
  for (std::size_t i = 0; i < holds; ++i) {
    d.pop_fire();
    t += 1.0;
    (void)d.push(t + rng.next_double() * static_cast<double>(n));
  }
  while (d.pop_fire()) {
  }
  return 2 * holds + 2 * n;
}

/// Bulk load a uniform horizon, then drain — the transient pattern at
/// simulation start and around barrier releases.
template <typename Driver>
std::size_t workload_bulk(std::size_t n) {
  Driver d;
  des::RngStream rng(2, 202);
  for (std::size_t i = 0; i < n; ++i) (void)d.push(rng.next_double() * 1e6);
  while (d.pop_fire()) {
  }
  return 2 * n;
}

/// Drain-dominated pattern: repeatedly bulk-load a horizon and pop it dry.
/// This is the workload the SoA bucket-record split targets — the pop loop
/// walks only the (time, seq) key columns and prefetches the callback slab
/// one event ahead, so drain throughput is the visible SoA payoff.
template <typename Driver>
std::size_t workload_drain(std::size_t n, std::size_t rounds) {
  Driver d;
  des::RngStream rng(4, 404);
  for (std::size_t r = 0; r < rounds; ++r) {
    // Each round's horizon starts where the last ended: simulated time
    // only moves forward, so the calendar's window advances instead of
    // degenerating into schedule-in-the-past scans.
    const double base = static_cast<double>(r) * 1e6;
    for (std::size_t i = 0; i < n; ++i) (void)d.push(base + rng.next_double() * 1e6);
    while (d.pop_fire()) {
    }
  }
  return 2 * n * rounds;
}

/// Cancel-heavy churn: the daemon flush-timer pattern where many scheduled
/// events are cancelled and rescheduled before they fire.
template <typename Driver>
std::size_t workload_cancel(std::size_t n) {
  Driver d;
  des::RngStream rng(3, 303);
  std::vector<typename Driver::Handle> handles;
  handles.reserve(n);
  des::SimTime t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    handles.push_back(d.push(t + 10.0 + rng.next_double() * 90.0));
    if (i % 2 == 1) d.cancel(handles[i - 1]);
    if (i % 4 == 3) {
      d.pop_fire();
      t += 1.0;
    }
  }
  while (d.pop_fire()) {
  }
  return 2 * n;
}

// --- Variate-generation workloads ------------------------------------------
// Ziggurat fast path vs the pre-PR-5 reference path (virtual
// Distribution::sample with Box-Muller / inverse-CDF math) for each workload
// family of Table 2.  Both sides draw from identically seeded streams so the
// ratio isolates the generation cost.

/// n draws through a frozen sampler; returns n (ops for items/s).
std::size_t workload_variates_frozen(const stats::FrozenSampler& sampler, std::size_t n) {
  des::RngStream rng(11, 41);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += sampler(rng);
  benchmark::DoNotOptimize(acc);
  return n;
}

/// n draws through the virtual reference interface.
std::size_t workload_variates_virtual(const stats::Distribution& dist, std::size_t n) {
  des::RngStream rng(11, 41);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += dist.sample(rng);
  benchmark::DoNotOptimize(acc);
  return n;
}

/// n standard-normal draws straight off the ziggurat tables.
std::size_t workload_normal_ziggurat(std::size_t n) {
  des::RngStream rng(11, 43);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += stats::ziggurat_normal(rng);
  benchmark::DoNotOptimize(acc);
  return n;
}

/// n standard-normal draws via the Box-Muller reference.
std::size_t workload_normal_reference(std::size_t n) {
  des::RngStream rng(11, 43);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += stats::sample_standard_normal(rng);
  benchmark::DoNotOptimize(acc);
  return n;
}

/// Table 2 parameterizations, one representative per family.
stats::DistributionPtr variate_family(const std::string& family) {
  if (family == "exponential") return std::make_shared<stats::Exponential>(223.0);
  if (family == "lognormal") {
    return std::make_shared<stats::Lognormal>(
        stats::Lognormal::from_mean_stddev(2213.0, 3034.0));
  }
  if (family == "weibull") return std::make_shared<stats::Weibull>(0.8, 250.0);
  if (family == "empirical") {
    // A fixed irregular 64-point sample (jittered quadratic gaps): unequal
    // segment widths exercise the alias table's merged columns.
    des::RngStream rng(13, 55);
    std::vector<double> data;
    for (int i = 0; i < 64; ++i) {
      data.push_back(10.0 * i + 0.2 * i * i + rng.next_double());
    }
    return std::make_shared<stats::Empirical>(data);
  }
  throw std::invalid_argument("unknown variate family: " + family);
}

// --- google-benchmark wrappers ---------------------------------------------

template <typename Driver>
void BM_QueueHold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload_hold<Driver>(n, 4 * n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * 4 * n + 2 * n));
  state.SetLabel(Driver::kName);
}
BENCHMARK_TEMPLATE(BM_QueueHold, CalendarDriver)->Arg(1'024)->Arg(65'536);
BENCHMARK_TEMPLATE(BM_QueueHold, HeapDriver)->Arg(1'024)->Arg(65'536);

template <typename Driver>
void BM_QueueBulkDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload_bulk<Driver>(n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n));
  state.SetLabel(Driver::kName);
}
BENCHMARK_TEMPLATE(BM_QueueBulkDrain, CalendarDriver)->Arg(1'000)->Arg(100'000);
BENCHMARK_TEMPLATE(BM_QueueBulkDrain, HeapDriver)->Arg(1'000)->Arg(100'000);

template <typename Driver>
void BM_QueueCancelChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload_cancel<Driver>(n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n));
  state.SetLabel(Driver::kName);
}
BENCHMARK_TEMPLATE(BM_QueueCancelChurn, CalendarDriver)->Arg(100'000);
BENCHMARK_TEMPLATE(BM_QueueCancelChurn, HeapDriver)->Arg(100'000);

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload_bulk<CalendarDriver>(n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1'000)->Arg(100'000);

void BM_EngineSelfScheduling(benchmark::State& state) {
  for (auto _ : state) {
    des::Engine engine;
    std::uint64_t count = 0;
    std::function<void()> tick = [&] {
      if (++count < 100'000) (void)engine.schedule_after(1.0, tick);
    };
    (void)engine.schedule_after(1.0, tick);
    (void)engine.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100'000);
}
BENCHMARK(BM_EngineSelfScheduling);

void BM_Pcg32(benchmark::State& state) {
  des::RngStream rng(7, 7);
  double acc = 0.0;
  for (auto _ : state) acc += rng.next_double();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Pcg32);

void BM_SampleLognormal(benchmark::State& state) {
  const auto dist = stats::Lognormal::from_mean_stddev(2213.0, 3034.0);
  des::RngStream rng(7, 9);
  double acc = 0.0;
  for (auto _ : state) acc += dist.sample(rng);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_SampleLognormal);

void BM_SampleExponential(benchmark::State& state) {
  const stats::Exponential dist(223.0);
  des::RngStream rng(7, 11);
  double acc = 0.0;
  for (auto _ : state) acc += dist.sample(rng);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_SampleExponential);

// Ziggurat vs reference, one pair per family.  The "reference" side is the
// honest pre-PR-5 cost: a virtual Distribution::sample call doing Box-Muller
// or inverse-CDF math.
void BM_VariatesZiggurat(benchmark::State& state, const char* family) {
  const auto sampler = stats::FrozenSampler::compile(variate_family(family));
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload_variates_frozen(sampler, 1'024));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1'024);
  state.SetLabel("ziggurat");
}
BENCHMARK_CAPTURE(BM_VariatesZiggurat, exponential, "exponential");
BENCHMARK_CAPTURE(BM_VariatesZiggurat, lognormal, "lognormal");
BENCHMARK_CAPTURE(BM_VariatesZiggurat, weibull, "weibull");

void BM_VariatesReference(benchmark::State& state, const char* family) {
  const stats::DistributionPtr dist = variate_family(family);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload_variates_virtual(*dist, 1'024));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1'024);
  state.SetLabel("reference");
}
BENCHMARK_CAPTURE(BM_VariatesReference, exponential, "exponential");
BENCHMARK_CAPTURE(BM_VariatesReference, lognormal, "lognormal");
BENCHMARK_CAPTURE(BM_VariatesReference, weibull, "weibull");

void BM_NormalZiggurat(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload_normal_ziggurat(1'024));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1'024);
}
BENCHMARK(BM_NormalZiggurat);

void BM_NormalBoxMuller(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload_normal_reference(1'024));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1'024);
}
BENCHMARK(BM_NormalBoxMuller);

void BM_FitLognormal(benchmark::State& state) {
  const auto dist = stats::Lognormal::from_mean_stddev(2213.0, 3034.0);
  des::RngStream rng(5, 5);
  std::vector<double> data;
  for (int i = 0; i < 10'000; ++i) data.push_back(dist.sample(rng));
  for (auto _ : state) {
    const auto fit = stats::fit_lognormal(data);
    benchmark::DoNotOptimize(fit.mu());
  }
}
BENCHMARK(BM_FitLognormal);

void BM_NowSimulation(benchmark::State& state) {
  const auto nodes = static_cast<std::int32_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto cfg = rocc::SystemConfig::now(nodes);
    cfg.duration_us = 1e6;  // 1 simulated second
    cfg.sampling_period_us = 40'000.0;
    rocc::Simulation sim(cfg);
    const auto result = sim.run();
    events += sim.engine().events_processed();
    benchmark::DoNotOptimize(result.pd_cpu_time_per_node_us);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("events/s == items/s; 1 simulated second per iteration");
}
BENCHMARK(BM_NowSimulation)->Arg(8)->Arg(64);

void BM_MppTreeSimulation(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto cfg = rocc::SystemConfig::mpp(64, rocc::ForwardingTopology::BinaryTree);
    cfg.duration_us = 1e6;
    cfg.batch_size = 32;
    rocc::Simulation sim(cfg);
    const auto result = sim.run();
    events += sim.engine().events_processed();
    benchmark::DoNotOptimize(result.latency_us.count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_MppTreeSimulation);

// --- --bench-json fixed-workload mode --------------------------------------

/// Median ops/second (millions) over `reps` timed runs of `fn`.
template <typename Fn>
double median_mops(int reps, Fn&& fn) {
  std::vector<double> mops;
  mops.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t ops = fn();
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    mops.push_back(static_cast<double>(ops) / elapsed.count() / 1e6);
  }
  std::sort(mops.begin(), mops.end());
  return mops[mops.size() / 2];
}

/// Deterministic medians for the CI gate.  Absolute `*_meps` numbers are
/// machine-dependent and informational; the `speedup_*` ratios
/// (calendar/heap on the same machine in the same run) are what
/// tools/bench_compare gates, so the baseline transfers across runners.
int emit_bench_json(const std::string& path) {
  constexpr int kReps = 5;
  std::vector<std::pair<std::string, double>> metrics;
  const auto record = [&metrics](const std::string& name, double calendar, double heap) {
    metrics.push_back({"calendar_" + name + "_meps", calendar});
    metrics.push_back({"heap_" + name + "_meps", heap});
    metrics.push_back({"speedup_" + name, calendar / heap});
    std::cout << name << ": calendar " << calendar << " Mops/s, heap " << heap
              << " Mops/s, speedup " << calendar / heap << "\n";
  };

  record("hold_1k",
         median_mops(kReps, [] { return workload_hold<CalendarDriver>(1'024, 1 << 20); }),
         median_mops(kReps, [] { return workload_hold<HeapDriver>(1'024, 1 << 20); }));
  record("hold_64k",
         median_mops(kReps, [] { return workload_hold<CalendarDriver>(65'536, 1 << 20); }),
         median_mops(kReps, [] { return workload_hold<HeapDriver>(65'536, 1 << 20); }));
  record("bulk_100k", median_mops(kReps, [] { return workload_bulk<CalendarDriver>(100'000); }),
         median_mops(kReps, [] { return workload_bulk<HeapDriver>(100'000); }));
  record("cancel_100k",
         median_mops(kReps, [] { return workload_cancel<CalendarDriver>(100'000); }),
         median_mops(kReps, [] { return workload_cancel<HeapDriver>(100'000); }));

  // Variate generation: ziggurat fast path vs the pre-PR-5 reference cost
  // (virtual Distribution::sample).  As with the queues, the `speedup_*`
  // ratios are the gated quantities; `*_mvps` (million variates/s) are
  // informational.
  constexpr std::size_t kDraws = 1 << 22;
  const auto record_variates = [&metrics](const std::string& family, double zig, double ref) {
    metrics.push_back({"ziggurat_" + family + "_mvps", zig});
    metrics.push_back({"reference_" + family + "_mvps", ref});
    metrics.push_back({"speedup_variates_" + family, zig / ref});
    std::cout << "variates " << family << ": ziggurat " << zig << " Mv/s, reference " << ref
              << " Mv/s, speedup " << zig / ref << "\n";
  };
  record_variates("normal",
                  median_mops(kReps, [] { return workload_normal_ziggurat(kDraws); }),
                  median_mops(kReps, [] { return workload_normal_reference(kDraws); }));
  for (const char* family : {"exponential", "lognormal", "weibull", "empirical"}) {
    const auto dist = variate_family(family);
    const auto sampler = stats::FrozenSampler::compile(dist);
    record_variates(
        family,
        median_mops(kReps, [&] { return workload_variates_frozen(sampler, kDraws); }),
        median_mops(kReps, [&] { return workload_variates_virtual(*dist, kDraws); }));
  }

  // Drain-heavy queue workload: the SoA key-column split shows up here
  // (pop walks only (time, seq); callbacks live in side slabs).
  record("queue_soa_drain",
         median_mops(kReps, [] { return workload_drain<CalendarDriver>(65'536, 4); }),
         median_mops(kReps, [] { return workload_drain<HeapDriver>(65'536, 4); }));

  bench::write_bench_json(path, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--bench-json=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      return emit_bench_json(argv[i] + std::strlen(kFlag));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
