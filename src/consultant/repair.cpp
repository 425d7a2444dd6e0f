#include "consultant/repair.hpp"

#include <cstdio>
#include <set>
#include <stdexcept>

#include "util/spec_grammar.hpp"
#include "util/suggest.hpp"

namespace paradyn::consultant {
namespace {

using util::SpecCtx;
using util::bad_spec;
using util::parse_number;
using util::parse_time_us;

const std::set<std::string>& known_actions() {
  static const std::set<std::string> names = {"restart_daemon", "reroute_link", "reset_pipe"};
  return names;
}

const std::set<std::string>& known_repair_keys() {
  static const std::set<std::string> names = {"timeout", "max_retries", "backoff", "jitter",
                                              "success_p", "penalty",     "threshold"};
  return names;
}

RepairSpec parse_spec_impl(const SpecCtx& c) {
  const std::string& spec = c.spec;
  const auto colon = spec.find(':');
  const std::string action_name = spec.substr(0, colon);

  RepairSpec r;
  if (action_name == "restart_daemon") {
    r.action = RepairAction::RestartDaemon;
  } else if (action_name == "reroute_link") {
    r.action = RepairAction::RerouteLink;
  } else if (action_name == "reset_pipe") {
    r.action = RepairAction::ResetPipe;
  } else {
    bad_spec(c, 0,
             "unknown repair action: " + action_name +
                 util::did_you_mean(action_name, known_actions()));
  }

  const std::size_t keys_at = colon == std::string::npos ? spec.size() : colon + 1;
  util::scan_keys(c, keys_at, [&](const std::string& key, const std::string& value,
                                  std::size_t kv_pos, std::size_t value_pos) {
    if (key == "timeout") {
      r.timeout_us = parse_time_us(c, value_pos, value);
      if (!(r.timeout_us > 0.0)) bad_spec(c, value_pos, "timeout must be > 0");
    } else if (key == "max_retries") {
      r.max_retries = util::parse_count(c, value_pos, value);
    } else if (key == "backoff") {
      // "exp:BASE" or "fixed:BASE".
      const auto sep = value.find(':');
      if (sep == std::string::npos) bad_spec(c, value_pos, "expected exp:BASE or fixed:BASE");
      const std::string kind = value.substr(0, sep);
      if (kind == "exp" || kind == "exponential") {
        r.backoff = BackoffKind::Exponential;
      } else if (kind == "fixed") {
        r.backoff = BackoffKind::Fixed;
      } else {
        bad_spec(c, value_pos,
                 "unknown backoff kind: " + kind + util::did_you_mean(kind, {"exp", "fixed"}));
      }
      r.backoff_base_us = parse_time_us(c, value_pos + sep + 1, value.substr(sep + 1));
      if (!(r.backoff_base_us >= 0.0)) {
        bad_spec(c, value_pos + sep + 1, "backoff base must be >= 0");
      }
    } else if (key == "jitter") {
      r.jitter = parse_number(c, value_pos, value);
      if (!(r.jitter >= 0.0 && r.jitter <= 1.0)) bad_spec(c, value_pos, "jitter must be in [0, 1]");
    } else if (key == "success_p") {
      r.success_p = parse_number(c, value_pos, value);
      if (!(r.success_p >= 0.0 && r.success_p <= 1.0)) {
        bad_spec(c, value_pos, "success_p must be in [0, 1]");
      }
    } else if (key == "penalty") {
      if (r.action != RepairAction::RerouteLink) {
        bad_spec(c, kv_pos, "penalty only applies to reroute_link");
      }
      r.penalty = parse_number(c, value_pos, value);
      if (!(r.penalty >= 1.0)) bad_spec(c, value_pos, "penalty must be >= 1");
    } else if (key == "threshold") {
      if (r.action != RepairAction::RerouteLink) {
        bad_spec(c, kv_pos, "threshold only applies to reroute_link");
      }
      r.threshold = parse_number(c, value_pos, value);
      if (!(r.threshold >= 0.0)) bad_spec(c, value_pos, "threshold must be >= 0");
    } else {
      bad_spec(c, kv_pos, "unknown key: " + key + util::did_you_mean(key, known_repair_keys()));
    }
  });
  return r;
}

}  // namespace

const char* to_string(RepairAction a) noexcept {
  switch (a) {
    case RepairAction::RestartDaemon:
      return "restart_daemon";
    case RepairAction::RerouteLink:
      return "reroute_link";
    case RepairAction::ResetPipe:
      return "reset_pipe";
  }
  return "?";
}

bool RepairSpec::matches(rocc::FaultType t) const noexcept {
  switch (action) {
    case RepairAction::RestartDaemon:
      return t == rocc::FaultType::DaemonStall || t == rocc::FaultType::DaemonCrash;
    case RepairAction::RerouteLink:
      return t == rocc::FaultType::LinkSlowdown;
    case RepairAction::ResetPipe:
      return t == rocc::FaultType::PipeBackpressure;
  }
  return false;
}

std::string RepairSpec::describe() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s timeout=%gus retries=%d backoff=%s:%gus p=%g",
                to_string(action), timeout_us, max_retries,
                backoff == BackoffKind::Exponential ? "exp" : "fixed", backoff_base_us,
                success_p);
  std::string out = buf;
  if (action == RepairAction::RerouteLink) {
    std::snprintf(buf, sizeof(buf), " penalty=%g threshold=%g", penalty, threshold);
    out += buf;
  }
  return out;
}

RepairPolicy RepairPolicy::parse(const std::string& specs) {
  RepairPolicy policy;
  policy.actions =
      util::parse_clauses<RepairSpec>("RepairPolicy", "action", specs, parse_spec_impl);
  return policy;
}

void RepairPolicy::validate() const {
  for (const RepairSpec& r : actions) {
    const std::string what = r.describe();
    if (!(r.timeout_us > 0.0)) {
      throw std::invalid_argument("RepairPolicy: timeout must be > 0: " + what);
    }
    if (r.max_retries < 1) {
      throw std::invalid_argument("RepairPolicy: max_retries must be >= 1: " + what);
    }
    if (!(r.backoff_base_us >= 0.0)) {
      throw std::invalid_argument("RepairPolicy: backoff base must be >= 0: " + what);
    }
    if (!(r.jitter >= 0.0 && r.jitter <= 1.0)) {
      throw std::invalid_argument("RepairPolicy: jitter must be in [0, 1]: " + what);
    }
    if (!(r.success_p >= 0.0 && r.success_p <= 1.0)) {
      throw std::invalid_argument("RepairPolicy: success_p must be in [0, 1]: " + what);
    }
    if (!(r.penalty >= 1.0)) {
      throw std::invalid_argument("RepairPolicy: penalty must be >= 1: " + what);
    }
    if (!(r.threshold >= 0.0)) {
      throw std::invalid_argument("RepairPolicy: threshold must be >= 0: " + what);
    }
  }
}

const RepairSpec* RepairPolicy::match(const rocc::FaultSpec& f) const noexcept {
  for (const RepairSpec& r : actions) {
    if (!r.matches(f.type)) continue;
    if (r.action == RepairAction::RerouteLink && f.magnitude < r.threshold) continue;
    return &r;
  }
  return nullptr;
}

RepairEngine::RepairEngine(rocc::Simulation& sim, RepairPolicy policy)
    : sim_(sim),
      policy_(std::move(policy)),
      rng_(sim.config().seed, 0, rocc::kRepairRngTag) {
  const rocc::FaultPlan& plan = sim_.effective_fault_plan();
  matched_.reserve(plan.faults.size());
  for (const rocc::FaultSpec& f : plan.faults) matched_.push_back(policy_.match(f));
  records_.assign(plan.faults.size(), {});
}

void RepairEngine::on_detected(std::size_t fault_index, rocc::SimTime /*now*/) {
  if (fault_index >= records_.size()) return;
  const RepairSpec* spec = matched_[fault_index];
  Record& rec = records_[fault_index];
  if (spec == nullptr || rec.attempted) return;
  rec.attempted = true;
  // Attempt 1 starts now and occupies one timeout window before resolving.
  sim_.engine().schedule_after(spec->timeout_us,
                               [this, fault_index] { resolve_attempt(fault_index, 1); });
}

void RepairEngine::resolve_attempt(std::size_t fault_index, std::int32_t attempt) {
  const RepairSpec& spec = *matched_[fault_index];
  Record& rec = records_[fault_index];
  rec.attempts = static_cast<std::uint32_t>(attempt);
  const rocc::FaultSpec& fault = sim_.effective_fault_plan().faults[fault_index];
  const rocc::SimTime now = sim_.engine().now();
  if (now >= fault.end_us()) return;  // lifted naturally mid-repair
  // One Bernoulli draw per resolved attempt, always, so the repair stream's
  // consumption depends only on the schedule — not on float comparisons.
  const bool success = rng_.next_double() < spec.success_p;
  if (success) {
    if (!apply(fault_index)) return;  // effect already gone; nothing to repair
    rec.repaired = true;
    rec.time_to_repair_us = now - fault.start_us;
    return;
  }
  if (attempt >= spec.max_retries) {
    rec.gave_up = true;
    return;
  }
  double backoff = spec.backoff_base_us;
  if (spec.backoff == BackoffKind::Exponential) {
    for (std::int32_t k = 1; k < attempt; ++k) backoff *= 2.0;
  }
  if (spec.jitter > 0.0) backoff *= 1.0 + spec.jitter * rng_.next_double();
  rec.backoff_us += backoff;
  sim_.engine().schedule_after(backoff + spec.timeout_us, [this, fault_index, attempt] {
    resolve_attempt(fault_index, attempt + 1);
  });
}

bool RepairEngine::apply(std::size_t fault_index) {
  const RepairSpec& spec = *matched_[fault_index];
  switch (spec.action) {
    case RepairAction::RestartDaemon:
      return sim_.repair_restart_daemon(fault_index);
    case RepairAction::RerouteLink:
      return sim_.repair_reroute_link(fault_index, spec.penalty);
    case RepairAction::ResetPipe:
      return sim_.repair_reset_pipe(fault_index);
  }
  return false;
}

void RepairEngine::finalize(std::vector<rocc::FaultOutcome>& outcomes) const {
  const std::size_t n = std::min(outcomes.size(), records_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Record& rec = records_[i];
    outcomes[i].repair_attempted = rec.attempted;
    outcomes[i].repair_attempts = rec.attempts;
    outcomes[i].repaired = rec.repaired;
    outcomes[i].gave_up = rec.gave_up;
    outcomes[i].time_to_repair_us = rec.time_to_repair_us;
    outcomes[i].repair_backoff_us = rec.backoff_us;
  }
}

}  // namespace paradyn::consultant
