#include "experiments/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <exception>
#include <future>
#include <optional>
#include <ostream>
#include <utility>

#include "experiments/shard_executor.hpp"
#include "experiments/thread_pool.hpp"
#include "obs/progress.hpp"

namespace paradyn::experiments {

namespace {

std::atomic<std::size_t> g_default_jobs{0};  // 0 = hardware concurrency
std::atomic<std::ostream*> g_progress{nullptr};

double now_sec() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_sec() { return static_cast<double>(std::clock()) / CLOCKS_PER_SEC; }

}  // namespace

void set_default_jobs(std::size_t jobs) noexcept { g_default_jobs.store(jobs); }

std::size_t default_jobs() noexcept {
  const std::size_t jobs = g_default_jobs.load();
  return jobs == 0 ? ThreadPool::hardware_jobs() : jobs;
}

void set_progress_stream(std::ostream* os) noexcept { g_progress.store(os); }

std::ostream* progress_stream() noexcept { return g_progress.load(); }

double RunReport::speedup_estimate() const noexcept {
  if (!(wall_sec > 0.0)) return 1.0;
  return serial_estimate_sec / wall_sec;
}

void RunReport::print(std::ostream& os, std::string_view label) const {
  char line[256];
  std::snprintf(line, sizeof(line),
                "[%.*s] jobs=%zu runs=%zu wall=%.2fs cpu=%.2fs serial-est=%.2fs speedup=%.2fx"
                " events=%llu (%.2fM ev/s)\n",
                static_cast<int>(label.size()), label.data(), jobs, runs, wall_sec, cpu_sec,
                serial_estimate_sec, speedup_estimate(),
                static_cast<unsigned long long>(events),
                wall_sec > 0.0 ? static_cast<double>(events) / wall_sec / 1e6 : 0.0);
  os << line;
}

std::size_t shard_lanes(std::size_t workers, std::size_t shards, std::size_t hardware) noexcept {
  return std::min(shards, std::max<std::size_t>(1, hardware / std::max<std::size_t>(1, workers)));
}

ParallelRunner::ParallelRunner(std::size_t jobs) : jobs_(jobs == 0 ? default_jobs() : jobs) {}

std::vector<rocc::SimulationResult> ParallelRunner::replications(const rocc::SystemConfig& config,
                                                                 std::size_t n) {
  auto grid = cells({config}, config.seed, n);
  return std::move(grid.front());
}

std::vector<std::vector<rocc::SimulationResult>> ParallelRunner::cells(
    const std::vector<rocc::SystemConfig>& cell_configs, std::uint64_t base_seed,
    std::size_t replications) {
  const std::size_t num_cells = cell_configs.size();
  report_ = RunReport{};
  report_.jobs = jobs_;
  report_.runs = num_cells * replications;
  report_.cells.resize(num_cells);
  for (auto& cell : report_.cells) cell.replications = replications;

  std::vector<std::vector<rocc::SimulationResult>> results(num_cells);
  for (auto& cell : results) cell.resize(replications);
  // Per-run wall times, written lock-free: each run owns one slot.
  std::vector<double> run_wall(num_cells * replications, 0.0);

  const double wall0 = now_sec();
  const double cpu0 = cpu_sec();

  std::optional<obs::ProgressMeter> meter;
  if (std::ostream* ps = progress_stream()) {
    meter.emplace(*ps, "sweep", report_.runs);
  }

  // At most one worker per run; a single worker runs inline on the caller.
  const std::size_t workers = std::min(jobs_, report_.runs);
  std::int32_t shards = 1;
  for (const auto& c : cell_configs) shards = std::max(shards, c.shards);
  const std::size_t lanes =  // a shard-free grid never queries the hardware
      shards < 2 ? 1 : shard_lanes(workers, shards, ThreadPool::hardware_jobs());
  std::optional<ThreadPool> lane_pool;  // each run's worker is its lane 0
  if (lanes > 1) lane_pool.emplace(workers * (lanes - 1));

  const auto run_one = [&](std::size_t cell, std::size_t rep) {
    rocc::SystemConfig c = cell_configs[cell];
    c.seed = base_seed + rep;  // common random numbers across cells
    const double t0 = now_sec();
    rocc::Simulation sim(std::move(c));
    if (lane_pool && cell_configs[cell].shards > 1) {
      sim.set_shard_executor(shard_pool_executor(*lane_pool, lanes));
    }
    if (hook_) hook_(sim, cell, rep);
    results[cell][rep] = sim.run();
    run_wall[cell * replications + rep] = now_sec() - t0;
    if (meter) meter->run_completed(results[cell][rep].events_processed);
  };

  if (workers <= 1) {
    for (std::size_t cell = 0; cell < num_cells; ++cell) {
      for (std::size_t rep = 0; rep < replications; ++rep) run_one(cell, rep);
    }
  } else {
    ThreadPool pool(workers);
    std::vector<std::future<void>> futures;
    futures.reserve(num_cells * replications);
    for (std::size_t cell = 0; cell < num_cells; ++cell) {
      for (std::size_t rep = 0; rep < replications; ++rep) {
        futures.push_back(pool.submit([&run_one, cell, rep] { run_one(cell, rep); }));
      }
    }
    // Wait for every run, then rethrow the first failure (in run order) on
    // the caller thread so parallel and serial error behavior agree.
    std::exception_ptr first_error;
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  if (meter) meter->finish();
  report_.wall_sec = now_sec() - wall0;
  report_.cpu_sec = cpu_sec() - cpu0;
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    double cell_wall = 0.0;
    for (std::size_t rep = 0; rep < replications; ++rep) {
      cell_wall += run_wall[cell * replications + rep];
      report_.events += results[cell][rep].events_processed;
    }
    report_.cells[cell].wall_sec = cell_wall;
    report_.serial_estimate_sec += cell_wall;
  }
  return results;
}

}  // namespace paradyn::experiments
