#include "rocc/config.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace paradyn::rocc {
namespace {

TEST(SystemConfig, PaperDefaultsMatchTable2) {
  const auto c = SystemConfig::paper_defaults();
  EXPECT_NEAR(c.app.cpu_burst->mean(), 2213.0, 1e-6);
  EXPECT_NEAR(c.app.cpu_burst->stddev(), 3034.0, 1e-6);
  EXPECT_NEAR(c.app.net_burst->mean(), 223.0, 1e-9);
  // Collect + forward must reassemble Table 2's 267 us per-sample demand.
  EXPECT_NEAR(c.pd.collect_cpu->mean() + c.pd.forward_cpu->mean(), 267.0, 1e-9);
  EXPECT_NEAR(c.pd.net_occupancy->mean(), 71.0, 1e-9);
  EXPECT_NEAR(c.main_cpu->mean(), 3208.0, 1e-6);
  EXPECT_NEAR(c.background.pvmd_interarrival->mean(), 6485.0, 1e-9);
  EXPECT_NEAR(c.background.other_cpu_interarrival->mean(), 31485.0, 1e-9);
  EXPECT_DOUBLE_EQ(c.cpu_quantum_us, 10'000.0);
}

TEST(SystemConfig, BuildersSetArchitectureSpecifics) {
  const auto now = SystemConfig::now(8);
  EXPECT_EQ(now.arch, Architecture::Now);
  EXPECT_EQ(now.nodes, 8);
  EXPECT_EQ(now.cpus_per_node, 1);
  EXPECT_EQ(now.contention, NetworkContention::ContentionFree);

  const auto smp = SystemConfig::smp(16, 32, 2);
  EXPECT_EQ(smp.arch, Architecture::Smp);
  EXPECT_EQ(smp.nodes, 1);
  EXPECT_EQ(smp.cpus_per_node, 16);
  EXPECT_EQ(smp.app_processes_per_node, 32);
  EXPECT_EQ(smp.daemons, 2);
  EXPECT_EQ(smp.contention, NetworkContention::SharedSingleServer);

  const auto mpp = SystemConfig::mpp(256, ForwardingTopology::BinaryTree);
  EXPECT_EQ(mpp.arch, Architecture::Mpp);
  EXPECT_EQ(mpp.topology, ForwardingTopology::BinaryTree);
}

TEST(SystemConfig, PolicyDerivedFromBatchSize) {
  auto c = SystemConfig::now(2);
  c.batch_size = 1;
  EXPECT_EQ(c.policy(), SchedulingPolicy::CollectAndForward);
  c.batch_size = 32;
  EXPECT_EQ(c.policy(), SchedulingPolicy::BatchAndForward);
}

TEST(SystemConfig, ValidateAcceptsBuilders) {
  EXPECT_NO_THROW(SystemConfig::now(8).validate());
  EXPECT_NO_THROW(SystemConfig::smp(16, 32, 4).validate());
  EXPECT_NO_THROW(SystemConfig::mpp(64, ForwardingTopology::BinaryTree).validate());
}

TEST(SystemConfig, ValidateRejectsBadKnobs) {
  auto c = SystemConfig::now(8);
  c.nodes = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = SystemConfig::now(8);
  c.sampling_period_us = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = SystemConfig::now(8);
  c.batch_size = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = SystemConfig::now(8);
  c.pipe_capacity = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = SystemConfig::now(8);
  c.duration_us = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = SystemConfig::now(8);
  c.barrier_period_us = -1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SystemConfig, TimeFieldsMustBeFinite) {
  // NaN passes every ordered test, and an infinite duration never ends.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<const char*, std::function<void(SystemConfig&)>>> cases{
      {"duration_us", [&](SystemConfig& c) { c.duration_us = inf; }},
      {"warmup_us", [&](SystemConfig& c) { c.warmup_us = nan; }},
      {"barrier_period_us", [&](SystemConfig& c) { c.barrier_period_us = nan; }},
      {"barrier_period_us", [&](SystemConfig& c) { c.barrier_period_us = inf; }},
      {"uplink_latency_us", [&](SystemConfig& c) { c.uplink_latency_us = nan; }},
      {"sampling_period_us", [&](SystemConfig& c) { c.sampling_period_us = inf; }},
      {"cpu_quantum_us", [&](SystemConfig& c) { c.cpu_quantum_us = inf; }},
  };
  for (const auto& [field, set] : cases) {
    auto c = SystemConfig::now(8);
    set(c);
    try {
      c.validate();
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  }
}

TEST(SystemConfig, RegulatorNeedsTheIs) {
  // Without the IS nothing is sampled, so a regulator would report a
  // period and a throttle factor that nothing regulated.
  for (const auto& [scope, flag] : {std::pair{RegulatorScope::Global, "--adaptive-budget"},
                                    std::pair{RegulatorScope::PerDaemon, "--adaptive-sampling"}}) {
    auto c = SystemConfig::now(4);
    c.regulator.scope = scope;
    EXPECT_NO_THROW(c.validate());
    c.instrumentation_enabled = false;
    try {
      c.validate();
      ADD_FAILURE() << flag << " accepted without the IS";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(flag), std::string::npos) << what;
      EXPECT_NE(what.find("--uninstrumented"), std::string::npos) << what;
    }
  }
}

TEST(SystemConfig, TreeForwardingIsMppOnly) {
  auto c = SystemConfig::now(8);
  c.topology = ForwardingTopology::BinaryTree;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SystemConfig, MultipleDaemonsAreSmpOnly) {
  auto c = SystemConfig::now(8);
  c.daemons = 2;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  EXPECT_NO_THROW(SystemConfig::smp(8, 8, 4).validate());
}

TEST(SystemConfig, MissingDistributionsRejected) {
  auto c = SystemConfig::now(8);
  c.app.cpu_burst = nullptr;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = SystemConfig::now(8);
  c.pd.forward_cpu = nullptr;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  // ... unless instrumentation is off entirely.
  c.instrumentation_enabled = false;
  EXPECT_NO_THROW(c.validate());

  c = SystemConfig::now(8);
  c.background.pvmd_cpu_length = nullptr;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.background.enabled = false;
  EXPECT_NO_THROW(c.validate());
}

TEST(Types, ToStringCoverage) {
  EXPECT_STREQ(to_string(Architecture::Now), "NOW");
  EXPECT_STREQ(to_string(Architecture::Smp), "SMP");
  EXPECT_STREQ(to_string(Architecture::Mpp), "MPP");
  EXPECT_STREQ(to_string(SchedulingPolicy::CollectAndForward), "CF");
  EXPECT_STREQ(to_string(SchedulingPolicy::BatchAndForward), "BF");
  EXPECT_STREQ(to_string(ForwardingTopology::Direct), "direct");
  EXPECT_STREQ(to_string(ForwardingTopology::BinaryTree), "tree");
}

}  // namespace
}  // namespace paradyn::rocc
