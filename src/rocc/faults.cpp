#include "rocc/faults.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>

#include "stats/sampler.hpp"
#include "util/spec_grammar.hpp"
#include "util/suggest.hpp"

namespace paradyn::rocc {
namespace {

using util::SpecCtx;
using util::bad_spec;
using util::parse_number;
using util::parse_time_us;

std::int32_t parse_target(const SpecCtx& c, std::size_t pos, const std::string& text) {
  if (text == "all" || text == "-1") return -1;
  const double v = parse_number(c, pos, text);
  if (!util::is_int32(v) || v < 0.0) bad_spec(c, pos, "target must be 'all' or >= 0");
  return static_cast<std::int32_t>(v);
}

const std::set<std::string>& known_dist_names() {
  static const std::set<std::string> names = {"exp", "exponential", "uniform", "lognormal",
                                              "weibull"};
  return names;
}

/// "exp:1s" / "uniform:200ms:800ms" / "lognormal:300ms:100ms" /
/// "weibull:2:300ms" — parameters are times (weibull's SHAPE is bare).
stats::DistributionPtr parse_dist(const SpecCtx& c, std::size_t pos, const std::string& text) {
  std::vector<std::string> parts;
  std::vector<std::size_t> offsets;
  std::size_t at = 0;
  while (at <= text.size()) {
    const auto colon = text.find(':', at);
    const std::size_t end = colon == std::string::npos ? text.size() : colon;
    parts.push_back(text.substr(at, end - at));
    offsets.push_back(at);
    if (colon == std::string::npos) break;
    at = colon + 1;
  }
  const std::string& name = parts[0];
  const auto need = [&](std::size_t n) {
    if (parts.size() != n + 1) {
      bad_spec(c, pos,
               name + " takes " + std::to_string(n) + " ':'-separated parameter(s), got " +
                   std::to_string(parts.size() - 1));
    }
  };
  try {
    if (name == "exp" || name == "exponential") {
      need(1);
      return std::make_shared<stats::Exponential>(parse_time_us(c, pos + offsets[1], parts[1]));
    }
    if (name == "uniform") {
      need(2);
      const double lo = parse_time_us(c, pos + offsets[1], parts[1]);
      const double hi = parse_time_us(c, pos + offsets[2], parts[2]);
      return std::make_shared<stats::Uniform>(lo, hi);
    }
    if (name == "lognormal") {
      need(2);
      const double mean = parse_time_us(c, pos + offsets[1], parts[1]);
      const double stddev = parse_time_us(c, pos + offsets[2], parts[2]);
      return std::make_shared<stats::Lognormal>(stats::Lognormal::from_mean_stddev(mean, stddev));
    }
    if (name == "weibull") {
      need(2);
      const double shape = parse_number(c, pos + offsets[1], parts[1]);
      const double scale = parse_time_us(c, pos + offsets[2], parts[2]);
      return std::make_shared<stats::Weibull>(shape, scale);
    }
  } catch (const std::invalid_argument& e) {
    // Distribution constructors validate their parameters; re-cite the
    // clause position so the shell error still points at the token.
    const std::string what = e.what();
    if (what.rfind("FaultPlan:", 0) == 0) throw;
    bad_spec(c, pos, what);
  }
  bad_spec(c, pos, "unknown distribution: " + name + util::did_you_mean(name, known_dist_names()));
}

/// One row per fault type: its spelling, and the keys it takes besides
/// start and dur: a target key and a magnitude key (nullptr for none), and
/// the cascade keys for stall and crash.
struct FaultTypeRow {
  const char* name;
  FaultType type;
  const char* target_key;
  const char* magnitude_key;
  bool cascades;
};

constexpr FaultTypeRow kFaultTypes[] = {
    {"daemon_stall", FaultType::DaemonStall, "daemon", nullptr, true},
    {"daemon_crash", FaultType::DaemonCrash, "daemon", nullptr, true},
    {"link_slow", FaultType::LinkSlowdown, nullptr, "factor", false},
    {"sample_drop", FaultType::SampleDrop, "node", "p", false},
    {"pipe_backpressure", FaultType::PipeBackpressure, "daemon", "capacity", false},
};

constexpr const char* kCascadeKeys[] = {"cascade", "cascade_delay", "cascade_hops",
                                        "cascade_factor"};

/// The keys `row` accepts, for did-you-mean suggestions.
std::set<std::string> keys_of(const FaultTypeRow& row) {
  std::set<std::string> keys = {"start", "dur", "duration"};
  if (row.target_key != nullptr) keys.insert(row.target_key);
  if (row.magnitude_key != nullptr) keys.insert(row.magnitude_key);
  if (row.cascades) keys.insert(std::begin(kCascadeKeys), std::end(kCascadeKeys));
  return keys;
}

FaultSpec parse_spec_impl(const SpecCtx& c) {
  const std::string& spec = c.spec;
  const auto colon = spec.find(':');
  if (colon == std::string::npos) bad_spec(c, 0, "expected TYPE:key=value,...");
  const std::string type_name = spec.substr(0, colon);
  const auto* row = std::find_if(std::begin(kFaultTypes), std::end(kFaultTypes),
                                 [&](const FaultTypeRow& r) { return type_name == r.name; });
  if (row == std::end(kFaultTypes)) {
    std::set<std::string> types;
    for (const FaultTypeRow& r : kFaultTypes) types.insert(r.name);
    bad_spec(c, 0, "unknown fault type: " + type_name + util::did_you_mean(type_name, types));
  }

  FaultSpec f;
  f.type = row->type;

  bool saw_start = false;
  bool saw_duration = false;
  util::scan_keys(c, colon + 1, [&](const std::string& key, const std::string& value,
                                    std::size_t kv_pos, std::size_t value_pos) {
    // `start` / `dur` values containing ':' are distribution specs.
    if (key == "start") {
      if (value.find(':') != std::string::npos) {
        f.start_dist = parse_dist(c, value_pos, value);
      } else {
        f.start_us = parse_time_us(c, value_pos, value);
      }
      saw_start = true;
    } else if (key == "dur" || key == "duration") {
      if (value.find(':') != std::string::npos) {
        f.duration_dist = parse_dist(c, value_pos, value);
      } else {
        f.duration_us = parse_time_us(c, value_pos, value);
      }
      saw_duration = true;
    } else if (row->target_key != nullptr && key == row->target_key) {
      f.target = parse_target(c, value_pos, value);
    } else if (row->magnitude_key != nullptr && key == row->magnitude_key) {
      f.magnitude = key == "capacity" ? util::parse_integer(c, value_pos, value)
                                      : parse_number(c, value_pos, value);
    } else if (row->cascades && key == "cascade") {
      f.cascade_p = parse_number(c, value_pos, value);
    } else if (row->cascades && key == "cascade_delay") {
      f.cascade_delay_us = parse_time_us(c, value_pos, value);
    } else if (row->cascades && key == "cascade_hops") {
      f.cascade_hops = util::parse_count(c, value_pos, value);
    } else if (row->cascades && key == "cascade_factor") {
      f.cascade_factor = parse_number(c, value_pos, value);
    } else {
      bad_spec(c, kv_pos, "unknown key: " + key + util::did_you_mean(key, keys_of(*row)));
    }
  });
  if (!saw_start || !saw_duration) bad_spec(c, 0, "start and dur are required");
  return f;
}

}  // namespace

const char* to_string(FaultType t) noexcept {
  for (const FaultTypeRow& row : kFaultTypes) {
    if (row.type == t) return row.name;
  }
  return "?";
}

std::string FaultSpec::describe() const {
  char buf[160];
  std::string out;
  if (type == FaultType::LinkSlowdown) {
    std::snprintf(buf, sizeof(buf), "%s x%g @ [%g, %g) us", to_string(type), magnitude, start_us,
                  end_us());
    out = buf;
  } else {
    const char* target_kind = type == FaultType::SampleDrop ? "node" : "daemon";
    char who[32];
    if (target < 0) {
      std::snprintf(who, sizeof(who), "%s all", target_kind);
    } else {
      std::snprintf(who, sizeof(who), "%s %d", target_kind, target);
    }
    // Stall/crash carry no magnitude; drop shows p, backpressure the clamp.
    if (type == FaultType::SampleDrop) {
      std::snprintf(buf, sizeof(buf), "%s %s p=%g @ [%g, %g) us", to_string(type), who, magnitude,
                    start_us, end_us());
    } else if (type == FaultType::PipeBackpressure) {
      std::snprintf(buf, sizeof(buf), "%s %s cap=%g @ [%g, %g) us", to_string(type), who,
                    magnitude, start_us, end_us());
    } else {
      std::snprintf(buf, sizeof(buf), "%s %s @ [%g, %g) us", to_string(type), who, start_us,
                    end_us());
    }
    out = buf;
  }
  if (cascade_p > 0.0) {
    std::snprintf(buf, sizeof(buf), " +cascade(p=%g, x%g, %d hop(s))", cascade_p, cascade_factor,
                  cascade_hops);
    out += buf;
  }
  if (stochastic()) out += " [stochastic window]";
  return out;
}

FaultPlan FaultPlan::parse(const std::string& specs) {
  FaultPlan plan;
  plan.faults = util::parse_clauses<FaultSpec>("FaultPlan", "fault", specs, parse_spec_impl);
  return plan;
}

void FaultPlan::validate(std::int32_t daemon_count, std::int32_t nodes,
                         SimTime sim_duration_us, std::int32_t pipe_capacity) const {
  for (const FaultSpec& f : faults) {
    const std::string what = f.describe();
    // Stochastic windows are drawn (and clamped) at resolve time; only
    // fixed values can be range-checked here.
    if (f.start_dist == nullptr) {
      if (!(f.start_us >= 0.0)) {
        throw std::invalid_argument("FaultPlan: start must be >= 0: " + what);
      }
      if (!(f.start_us < sim_duration_us)) {
        throw std::invalid_argument("FaultPlan: window starts after sim end: " + what);
      }
    }
    if (f.duration_dist == nullptr && !(f.duration_us > 0.0)) {
      throw std::invalid_argument("FaultPlan: duration must be > 0: " + what);
    }
    switch (f.type) {
      case FaultType::DaemonStall:
      case FaultType::DaemonCrash:
      case FaultType::PipeBackpressure:
        if (daemon_count <= 0) {
          throw std::invalid_argument(
              "FaultPlan: daemon fault requires instrumentation enabled: " + what);
        }
        if (f.target >= daemon_count) {
          throw std::invalid_argument("FaultPlan: daemon index out of range: " + what);
        }
        break;
      case FaultType::SampleDrop:
        if (daemon_count <= 0) {
          throw std::invalid_argument(
              "FaultPlan: sample_drop requires instrumentation enabled: " + what);
        }
        if (f.target >= nodes) {
          throw std::invalid_argument("FaultPlan: node index out of range: " + what);
        }
        break;
      case FaultType::LinkSlowdown:
        break;
    }
    switch (f.type) {
      case FaultType::LinkSlowdown:
        if (!(f.magnitude >= 1.0)) {
          throw std::invalid_argument("FaultPlan: link_slow factor must be >= 1: " + what);
        }
        break;
      case FaultType::SampleDrop:
        if (!(f.magnitude > 0.0) || !(f.magnitude <= 1.0)) {
          throw std::invalid_argument("FaultPlan: sample_drop p must be in (0, 1]: " + what);
        }
        break;
      case FaultType::PipeBackpressure:
        if (!(f.magnitude >= 1.0) || !(f.magnitude < static_cast<double>(pipe_capacity))) {
          throw std::invalid_argument(
              "FaultPlan: pipe_backpressure capacity must be in [1, pipe_capacity): " + what);
        }
        if (f.magnitude != std::trunc(f.magnitude)) {
          throw std::invalid_argument("FaultPlan: pipe_backpressure capacity must be an integer: " +
                                      what);
        }
        break;
      case FaultType::DaemonStall:
      case FaultType::DaemonCrash:
        break;
    }
    if (f.cascade_p != 0.0) {
      if (f.type != FaultType::DaemonStall && f.type != FaultType::DaemonCrash) {
        throw std::invalid_argument(
            "FaultPlan: cascade requires daemon_stall or daemon_crash: " + what);
      }
      if (f.target < 0) {
        throw std::invalid_argument(
            "FaultPlan: cascade requires a concrete daemon target (not 'all'): " + what);
      }
      if (!(f.cascade_p > 0.0) || !(f.cascade_p <= 1.0)) {
        throw std::invalid_argument("FaultPlan: cascade p must be in (0, 1]: " + what);
      }
      if (!(f.cascade_delay_us > 0.0)) {
        throw std::invalid_argument("FaultPlan: cascade_delay must be > 0: " + what);
      }
      if (!(f.cascade_factor >= 1.0)) {
        throw std::invalid_argument("FaultPlan: cascade_factor must be >= 1: " + what);
      }
    }
  }
}

bool FaultPlan::any_stochastic() const noexcept {
  for (const FaultSpec& f : faults) {
    if (f.stochastic()) return true;
  }
  return false;
}

void FaultPlan::resolve(des::Pcg32& rng) {
  for (FaultSpec& f : faults) {
    if (f.start_dist != nullptr) {
      const auto sampler = stats::FrozenSampler::compile(f.start_dist);
      f.start_us = std::max(0.0, sampler(rng));
      f.start_dist = nullptr;
    }
    if (f.duration_dist != nullptr) {
      const auto sampler = stats::FrozenSampler::compile(f.duration_dist);
      f.duration_us = std::max(1.0, sampler(rng));
      f.duration_dist = nullptr;
    }
  }
}

des::RngStream& FaultGate::stream_for(std::int32_t node) {
  auto it = node_rngs_.find(node);
  if (it == node_rngs_.end()) {
    it = node_rngs_
             .emplace(node, des::RngStream(seed_, static_cast<std::uint64_t>(node),
                                           kFaultDropRngTag))
             .first;
  }
  return it->second;
}

bool FaultGate::should_drop(std::int32_t node) {
  bool drop = false;
  des::RngStream& rng = stream_for(node);
  for (const auto& [target, p] : windows_) {
    if ((target < 0 || target == node) && rng.next_double() < p) drop = true;
  }
  return drop;
}

}  // namespace paradyn::rocc
