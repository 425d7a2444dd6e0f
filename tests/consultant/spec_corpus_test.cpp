// Mutation corpus for the --fault and --repair grammars: every truncation of
// the CI specs, seeded byte mutations of them, and non-finite or overflowing
// numbers in every value slot.  Each input must either parse and validate
// with finite fields, or fail with std::invalid_argument whose message
// names its grammar — never another exception, a crash or a hang.  Every
// accepted fault plan must also build and run a short simulation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "consultant/repair.hpp"
#include "des/random.hpp"
#include "rocc/faults.hpp"
#include "rocc/simulation.hpp"

namespace paradyn::consultant {
namespace {

// The CI pdes-determinism job's --fault and --repair payloads.
const std::string kCiFault =
    "daemon_stall:daemon=0,start=1s,dur=500ms;link_slow:start=2s,dur=1s,factor=4";
const std::string kCiRepair =
    "restart_daemon:timeout=100ms,max_retries=3,backoff=exp:50ms;"
    "reroute_link:timeout=100ms,max_retries=2,backoff=exp:50ms,penalty=1.5";
// Every other fault type, key and window form, inside a 0.5 s run, so the
// value-slot sweep and the mutations reach every key and most mutants run.
const std::string kEveryFaultKey =
    "daemon_crash:daemon=1,start=exp:100ms,dur=uniform:50ms:200ms,cascade=0.5,"
    "cascade_delay=20ms,cascade_hops=2,cascade_factor=3;"
    "sample_drop:node=all,start=0,dur=lognormal:100ms:20ms,p=0.5;"
    "pipe_backpressure:daemon=2,start=100us,duration=weibull:2:100ms,capacity=2;"
    "link_slow:start=300ms,dur=100ms,factor=2";
const std::string kEveryRepairKey =
    "reroute_link:timeout=1s,max_retries=2,backoff=fixed:10ms,jitter=0.1,success_p=0.9,"
    "penalty=2,threshold=1;reset_pipe:timeout=5ms";

const char* const kBadNumbers[] = {"nan", "inf", "-inf", "1e400"};

rocc::SystemConfig now4() {
  rocc::SystemConfig c = rocc::SystemConfig::now(4);
  c.duration_us = 0.5e6;
  return c;
}

bool starts_with(const std::string& s, const char* prefix) { return s.rfind(prefix, 0) == 0; }

bool finite_fields(const rocc::FaultSpec& f) {
  return std::isfinite(f.start_us) && std::isfinite(f.duration_us) &&
         std::isfinite(f.magnitude) && std::isfinite(f.cascade_p) &&
         std::isfinite(f.cascade_delay_us) && std::isfinite(f.cascade_factor);
}

bool finite_fields(const RepairSpec& r) {
  return std::isfinite(r.timeout_us) && std::isfinite(r.backoff_base_us) &&
         std::isfinite(r.jitter) && std::isfinite(r.success_p) && std::isfinite(r.penalty) &&
         std::isfinite(r.threshold);
}

std::vector<std::string> truncations(const std::string& spec) {
  std::vector<std::string> out;
  for (std::size_t n = 0; n <= spec.size(); ++n) out.push_back(spec.substr(0, n));
  return out;
}

/// `count` mutants of `spec`, each one to three random byte edits (replace,
/// insert or delete); half of the new bytes come from the grammar's own
/// alphabet, half are arbitrary.
std::vector<std::string> mutants(const std::string& spec, std::uint64_t seed, int count) {
  static const std::string alphabet = "0123456789.-+eE:;,=_ asmunifxp";
  des::RngStream rng(seed, 0, 0);
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_double() * static_cast<double>(n));
  };
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    std::string m = spec;
    const std::size_t edits = 1 + below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      const char byte = below(2) == 0 ? alphabet[below(alphabet.size())]
                                      : static_cast<char>(below(256));
      const std::size_t at = below(m.size() + 1);
      switch (below(3)) {
        case 0:
          if (at < m.size()) m[at] = byte;
          break;
        case 1:
          m.insert(at, 1, byte);
          break;
        default:
          if (at < m.size()) m.erase(at, 1);
          break;
      }
    }
    out.push_back(m);
  }
  return out;
}

/// `spec` with each bad number in each value slot: every whole value after
/// '=', and every run of digits and dots inside one.
std::vector<std::string> bad_value_slots(const std::string& spec) {
  std::vector<std::string> out;
  for (const char* bad : kBadNumbers) {
    for (std::size_t eq = spec.find('='); eq != std::string::npos; eq = spec.find('=', eq + 1)) {
      const std::size_t end = spec.find_first_of(",;", eq);
      const std::size_t stop = end == std::string::npos ? spec.size() : end;
      out.push_back(spec.substr(0, eq + 1) + bad + spec.substr(stop));
      for (std::size_t at = eq + 1; at < stop;) {
        if (std::string("0123456789.").find(spec[at]) == std::string::npos) {
          ++at;
          continue;
        }
        std::size_t run = at;
        while (run < stop && std::string("0123456789.").find(spec[run]) != std::string::npos) {
          ++run;
        }
        out.push_back(spec.substr(0, at) + bad + spec.substr(run));
        at = run;
      }
    }
  }
  return out;
}

std::vector<std::string> corpus(const std::string& base, const std::string& extra,
                                std::uint64_t seed) {
  std::vector<std::string> out;
  for (const std::string& spec : {base, extra}) {
    for (auto& s : truncations(spec)) out.push_back(std::move(s));
    for (auto& s : mutants(spec, seed++, 3000)) out.push_back(std::move(s));
    for (auto& s : bad_value_slots(spec)) out.push_back(std::move(s));
  }
  return out;
}

TEST(SpecCorpus, FaultPlansParseAndRunOrFailWithAMessage) {
  std::set<std::string> ran;
  std::size_t rejected = 0;
  for (const std::string& input : corpus(kCiFault, kEveryFaultKey, 101)) {
    rocc::SystemConfig config = now4();
    try {
      config.faults = rocc::FaultPlan::parse(input);
      config.validate();
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(starts_with(e.what(), "FaultPlan:")) << input << " -> " << e.what();
      ++rejected;
      continue;
    }
    bool finite = true;
    for (const rocc::FaultSpec& f : config.faults.faults) finite = finite && finite_fields(f);
    EXPECT_TRUE(finite) << "accepted a non-finite number: " << input;
    if (!finite || !ran.insert(input).second) continue;
    rocc::Simulation sim(config);
    const rocc::SimulationResult r = sim.run();
    EXPECT_GE(r.fault_outcomes.size(), config.faults.faults.size()) << input;
    EXPECT_LE(r.samples_delivered + r.samples_dropped, r.samples_generated) << input;
  }
  // Both outcomes must be exercised for the corpus to mean anything.
  EXPECT_GT(ran.size(), 40u);
  EXPECT_GT(rejected, 1000u);
}

TEST(SpecCorpus, RepairPoliciesParseOrFailWithAMessage) {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const std::string& input : corpus(kCiRepair, kEveryRepairKey, 201)) {
    RepairPolicy policy;
    try {
      policy = RepairPolicy::parse(input);
      policy.validate();
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(starts_with(e.what(), "RepairPolicy:")) << input << " -> " << e.what();
      ++rejected;
      continue;
    }
    ++accepted;
    for (const RepairSpec& r : policy.actions) {
      EXPECT_TRUE(finite_fields(r)) << "accepted a non-finite number: " << input;
    }
  }
  EXPECT_GT(accepted, 50u);
  EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace paradyn::consultant
