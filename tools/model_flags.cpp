#include "model_flags.hpp"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/suggest.hpp"

namespace paradyn::tools {

std::vector<Flag> model_flags(std::string_view default_seconds,
                              std::initializer_list<Flag> own) {
  std::vector<Flag> rows = {
      {"arch", Kind::Text, "now|smp|mpp", "now", "architecture"},
      {"nodes", Kind::Integer, "N", "8", "nodes (NOW/MPP) or CPUs (SMP)", kInt32Min, kCountMax},
      {"apps", Kind::Integer, "N", "",
       "app processes per node; default 1, or on SMP\n"
       "the total, default --nodes", kInt32Min, kCountMax},
      {"daemons", Kind::Integer, "N", "1", "Paradyn daemons (SMP only)", kInt32Min, kCountMax},
      {"sampling-ms", Kind::Number, "X", "40", "sampling period in ms"},
      {"batch", Kind::Integer, "N", "1", "batch size (1 = CF)", kInt32Min, kCountMax},
      {"topology", Kind::Text, "direct|tree", "direct", "MPP forwarding configuration"},
      {"seconds", Kind::Number, "X", default_seconds, "simulated seconds"},
      {"seed", Kind::Integer, "N", "1", "RNG seed"},
      {"shards", Kind::Integer, "N", "0",
       "run the model on N conservative-window DES shards\n"
       "(PDES); results are bit-identical for every N, and\n"
       "0 and 1 both mean one shard.  N >= 2 needs\n"
       "--uplink-ms > 0 and rejects SMP and barriers, and in\n"
       "roccsim --adaptive-budget and --metrics", kInt32Min, kCountMax},
      {"uplink-ms", Kind::Number, "X", "0",
       "daemon uplink delivery latency in ms — part of the\n"
       "model, and the cross-shard lookahead"},
      {"reps", Kind::Integer, "N", "1",
       "seed-varied replications: roccsim prints 90% CIs\n"
       "over them, roccsweep their means", 1, kCountMax},
      {"jobs", Kind::Integer, "N", "0",
       "worker threads for the runs; 0 = all hardware\n"
       "threads, 1 = serial (results identical).  A run of\n"
       "N >= 2 shards gets min(N, max(1, hardware threads /\n"
       "min(--jobs, runs))) window threads", 0, kCountMax},
      {"progress", Kind::Switch, "", "", "heartbeat lines on stderr as runs finish"},
      {"report-json", Kind::Text, "FILE", "", "full SimulationResult of every run as JSON"},
  };
  rows.insert(rows.end(), own);
  return rows;
}

namespace {

/// The value of text flag --`name`, which must be one of `known`.
std::string one_of(const CliArgs& args, const std::string& name,
                   const std::set<std::string>& known) {
  const std::string value = args.get_string(name);
  if (known.count(value) != 0) return value;
  const std::string close = util::suggestion(value, known);
  throw std::invalid_argument("unknown --" + name + ": " + value +
                              (close.empty() ? "" : " (did you mean " + close + "?)"));
}

/// The int32 field an integer axis sets (--axis nodes sets the CPU count
/// on SMP), or nullptr for the other axes.
std::int32_t* integer_field(rocc::SystemConfig& cfg, const std::string& axis) {
  if (axis == "batch") return &cfg.batch_size;
  if (axis == "nodes") {
    return cfg.arch == rocc::Architecture::Smp ? &cfg.cpus_per_node : &cfg.nodes;
  }
  if (axis == "apps") return &cfg.app_processes_per_node;
  if (axis == "daemons") return &cfg.daemons;
  if (axis == "pipe") return &cfg.pipe_capacity;
  return nullptr;
}

}  // namespace

rocc::SystemConfig model_config(const CliArgs& args) {
  const auto int32_flag = [&](const char* name) {
    return static_cast<std::int32_t>(args.get_long(name));
  };
  const std::string arch = one_of(args, "arch", {"now", "smp", "mpp"});
  const std::int32_t nodes = int32_flag("nodes");
  const std::int32_t apps = args.has("apps") ? int32_flag("apps") : arch == "smp" ? nodes : 1;
  const std::int32_t daemons = int32_flag("daemons");
  const auto topology = one_of(args, "topology", {"direct", "tree"}) == "tree"
                            ? rocc::ForwardingTopology::BinaryTree
                            : rocc::ForwardingTopology::Direct;

  rocc::SystemConfig cfg = arch == "now"   ? rocc::SystemConfig::now(nodes)
                           : arch == "smp" ? rocc::SystemConfig::smp(nodes, apps, daemons)
                                           : rocc::SystemConfig::mpp(nodes, topology);
  if (arch != "smp") cfg.app_processes_per_node = apps;
  cfg.sampling_period_us = args.get_double("sampling-ms") * 1'000.0;
  cfg.batch_size = int32_flag("batch");
  cfg.duration_us = args.get_double("seconds") * 1e6;
  cfg.seed = static_cast<std::uint64_t>(args.get_long("seed"));
  cfg.shards = int32_flag("shards");
  cfg.uplink_latency_us = args.get_double("uplink-ms") * 1'000.0;
  return cfg;
}

double metrics_tick_us(const CliArgs& args, rocc::SimTime duration_us) {
  constexpr double kMaxRows = 1e6;
  const double tick_ms = args.get_double("metrics-tick-ms");
  const std::string text = args.get_string("metrics-tick-ms");
  if (!(tick_ms > 0.0) || !std::isfinite(tick_ms)) {
    throw std::invalid_argument("flag --metrics-tick-ms: must be > 0 and finite: " + text);
  }
  const double tick_us = tick_ms * 1'000.0;
  // A row at t = 0, then one per tick: floor(duration / tick) + 1 rows.
  if (!(duration_us / tick_us < kMaxRows)) {
    throw std::invalid_argument("flag --metrics-tick-ms: " + text +
                                " ms records more than 1000000 probe rows over the run");
  }
  return tick_us;
}

std::vector<double> parse_values(const std::string& axis, const std::string& csv) {
  rocc::SystemConfig probe;
  const bool integers = integer_field(probe, axis) != nullptr;
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (end == item.c_str() || *end != '\0' || !std::isfinite(v)) {
      throw std::invalid_argument("--values: not a finite number: " + item);
    }
    if (integers && !(v == std::trunc(v) && v >= static_cast<double>(kInt32Min) &&
                      v <= static_cast<double>(kCountMax))) {
      throw std::invalid_argument("--values: --axis " + axis + " takes 32-bit integers: " + item);
    }
    out.push_back(v);
  }
  if (out.empty()) throw std::invalid_argument("--values: no sweep points");
  return out;
}

void apply_axis(rocc::SystemConfig& cfg, const std::string& axis, double value) {
  if (std::int32_t* field = integer_field(cfg, axis)) {
    *field = static_cast<std::int32_t>(value);
  } else if (axis == "sampling-ms") {
    cfg.sampling_period_us = value * 1'000.0;
  } else if (axis == "barrier-ms") {
    cfg.barrier_period_us = value * 1'000.0;
  } else {
    throw std::invalid_argument("unknown --axis: " + axis);
  }
}

void FaultTally::add(const rocc::FaultOutcome& o) {
  ++rows;
  if (o.detected) {
    ++detected;
    detection_us += o.detection_latency_us;
  }
  if (o.recovered) {
    ++recovered;
    recovery_us += o.recovery_latency_us;
  }
  if (o.repair_attempted) {
    ++attempted;
    attempts += o.repair_attempts;
    backoff_us += o.repair_backoff_us;
  }
  if (o.repaired) {
    ++repaired;
    repair_us += o.time_to_repair_us;
  }
  if (o.gave_up) ++gave_up;
}

FaultTally& FaultTally::operator+=(const FaultTally& other) {
  rows += other.rows;
  detected += other.detected;
  recovered += other.recovered;
  attempted += other.attempted;
  repaired += other.repaired;
  gave_up += other.gave_up;
  detection_us += other.detection_us;
  recovery_us += other.recovery_us;
  repair_us += other.repair_us;
  attempts += other.attempts;
  backoff_us += other.backoff_us;
  return *this;
}

double FaultTally::frac(std::size_t k) const {
  return rows ? static_cast<double>(k) / static_cast<double>(rows) : 0.0;
}

double FaultTally::mean_ms(double sum_us, std::size_t k, double none) {
  return k ? sum_us / static_cast<double>(k) / 1e3 : none;
}

}  // namespace paradyn::tools
