// The benchmark's workloads, each a batch job driven through the libraries'
// public API, with the output checks every run must pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

enum class Workload { PaperFactorials, Now128Serial, TraceProfile };

[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);
[[nodiscard]] const char* workload_name(Workload w);

struct Context {
  std::uint64_t seed = 1;
  std::size_t nproc = 1;  ///< CPUs this process may run on; caps every thread count.
  std::string work_dir;   ///< Where trace_profile writes its export.
  SpanLog* log = nullptr; ///< Non-null: the traced run.
};

/// One execution of a workload's whole job.
struct JobResult {
  double wall_s = 0.0;   ///< Job start to the end of its last teardown.
  double setup_s = 0.0;  ///< Job start to the first Simulation::run() (or RunHook).
  double cpu_s = 0.0;    ///< Process CPU time over the job.
  std::uint64_t runs = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> notes;
  /// Additive per-layer quantities of this job (traced runs only).
  std::map<std::string, double> layer;
  /// Bit-exact fingerprint of a sharded now128 run's result.
  std::string fingerprint;
};

[[nodiscard]] JobResult run_job(Workload w, const Context& ctx);

/// The once-per-invocation output check that runs outside the timed jobs:
/// for now128_serial, the same model and seed on 4 shards (pooled executor)
/// must be bit-identical to a 1-shard run.  Returns false (with `why`) on
/// mismatch.  Workloads without such a check return true without running
/// anything.
[[nodiscard]] bool invocation_check(Workload w, const Context& ctx, std::string& why);

/// Per-layer quantities measured outside the jobs in the traced run: the
/// event-queue depth of the workload's single-engine model, a des hold loop
/// at that depth, variate draw costs on the workload's distributions, and
/// for now128_serial the des shards layer on the same model at 4 shards.
[[nodiscard]] std::map<std::string, double> isolated_layers(Workload w, const Context& ctx);

}  // namespace perfbench
