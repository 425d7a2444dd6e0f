#include "model_flags.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace paradyn::tools {
namespace {

CliArgs parse(std::vector<const char*> argv, std::string_view default_seconds = "10") {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()), argv.data(),
                 model_flags(default_seconds, {kMetricsTickMs}));
}

TEST(ModelConfig, SharedFlagsBuildTheConfig) {
  const auto c = model_config(parse({"--arch", "mpp", "--nodes", "16", "--topology", "tree",
                                     "--sampling-ms", "5", "--batch", "8", "--seed", "7",
                                     "--shards", "4", "--uplink-ms", "0.5"}));
  EXPECT_EQ(c.arch, rocc::Architecture::Mpp);
  EXPECT_EQ(c.nodes, 16);
  EXPECT_EQ(c.topology, rocc::ForwardingTopology::BinaryTree);
  EXPECT_EQ(c.sampling_period_us, 5'000.0);
  EXPECT_EQ(c.batch_size, 8);
  EXPECT_EQ(c.duration_us, 10e6);
  EXPECT_EQ(c.seed, 7u);
  EXPECT_EQ(c.shards, 4);
  EXPECT_EQ(c.uplink_latency_us, 500.0);

  const auto smp = model_config(parse({"--arch=smp", "--nodes=8", "--daemons=2"}, "5"));
  EXPECT_EQ(smp.app_processes_per_node, 8);  // SMP apps default to the CPU count
  EXPECT_EQ(smp.daemons, 2);
  EXPECT_EQ(smp.duration_us, 5e6);
}

TEST(ModelConfig, CountsOutsideInt32Fail) {
  // An out-of-range count must fail, not wrap into the int32 field
  // (4294967298 would run 2 nodes, -4294967295 CF(1)).
  EXPECT_THROW((void)parse({"--nodes", "4294967298"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"--batch=-4294967295"}), std::invalid_argument);
  EXPECT_THROW((void)model_config(parse({"--arch", "vax"})), std::invalid_argument);
}

TEST(ModelConfig, UnknownArchAndTopologySuggestTheNearest) {
  // --topology tre ran direct forwarding, byte-identical to --topology direct.
  const auto message = [](std::vector<const char*> argv) {
    try {
      (void)model_config(parse(std::move(argv)));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message({"--arch", "mpp", "--topology", "tre"}),
            "unknown --topology: tre (did you mean tree?)");
  EXPECT_EQ(message({"--topology", "drect"}), "unknown --topology: drect (did you mean direct?)");
  EXPECT_EQ(message({"--topology", "ring"}), "unknown --topology: ring");
  EXPECT_EQ(message({"--arch", "foo"}), "unknown --arch: foo (did you mean now?)");
  EXPECT_EQ(message({"--arch", "mppp"}), "unknown --arch: mppp (did you mean mpp?)");
}

TEST(ModelConfig, RowDefaultsAreTheAbsentReads) {
  // Every default lives in its row; --apps alone is computed where it is
  // read: 1 per node, and on SMP one app per CPU.
  const auto now = model_config(parse({}));
  EXPECT_EQ(now.arch, rocc::Architecture::Now);
  EXPECT_EQ(now.nodes, 8);
  EXPECT_EQ(now.app_processes_per_node, 1);
  EXPECT_EQ(now.sampling_period_us, 40'000.0);
  EXPECT_EQ(now.batch_size, 1);
  EXPECT_EQ(now.duration_us, 10e6);
  EXPECT_EQ(now.seed, 1u);
  EXPECT_EQ(now.shards, 0);
  EXPECT_EQ(now.uplink_latency_us, 0.0);
  const auto args = parse({});
  EXPECT_EQ(args.get_long("reps"), 1);
  EXPECT_EQ(args.get_long("jobs"), 0);
  EXPECT_EQ(model_config(parse({"--arch", "smp"})).app_processes_per_node, 8);
  EXPECT_EQ(model_config(parse({"--arch", "smp", "--apps", "3"})).app_processes_per_node, 3);
  EXPECT_EQ(model_config(parse({"--arch", "mpp"})).topology, rocc::ForwardingTopology::Direct);
}

TEST(ModelConfig, RunFlagsRejectOutOfRangeAtParseTime) {
  // --reps 0 --help used to print the help; --jobs -1 is no thread count.
  for (const auto& argv : {std::vector<const char*>{"--reps", "0"},
                           std::vector<const char*>{"--jobs=-1"},
                           std::vector<const char*>{"--jobs", "2147483648"},
                           std::vector<const char*>{"--seconds", "abc"}}) {
    EXPECT_THROW((void)parse(argv), std::invalid_argument) << argv.front();
  }
  EXPECT_EQ(parse({"--jobs", "2147483647"}).get_long("jobs"), kCountMax);
}

TEST(MetricsTick, PositiveFiniteAndAtMostAMillionRows) {
  constexpr double kTwoSecondsUs = 2e6;
  EXPECT_DOUBLE_EQ(metrics_tick_us(parse({}), kTwoSecondsUs), 100'000.0);
  EXPECT_DOUBLE_EQ(metrics_tick_us(parse({"--metrics-tick-ms", "0.0025"}), kTwoSecondsUs), 2.5);
  // 0.002 ms over 2 s is a row at t = 0 plus 1,000,000 ticks; 1e-9 ms is a
  // 1 ps probe period that ran until killed.
  for (const char* bad : {"0", "-1", "nan", "inf", "0.002", "1e-9"}) {
    try {
      (void)metrics_tick_us(parse({"--metrics-tick-ms", bad}), kTwoSecondsUs);
      ADD_FAILURE() << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--metrics-tick-ms"), std::string::npos) << e.what();
    }
  }
}

TEST(SweepValues, EachEntryParsesWhole) {
  EXPECT_EQ(parse_values("sampling-ms", "1,2.5,,40"), (std::vector<double>{1, 2.5, 40}));
  EXPECT_EQ(parse_values("batch", "1,8,32"), (std::vector<double>{1, 8, 32}));
  for (const char* bad : {"1,2x", "abc", "1,nan", "inf", ","}) {
    EXPECT_THROW((void)parse_values("sampling-ms", bad), std::invalid_argument) << bad;
  }
}

TEST(SweepValues, IntegerAxesRejectFractionsAndOverflow) {
  for (const char* axis : {"batch", "nodes", "apps", "daemons", "pipe"}) {
    EXPECT_THROW((void)parse_values(axis, "2.7"), std::invalid_argument) << axis;
    EXPECT_THROW((void)parse_values(axis, "4294967298"), std::invalid_argument) << axis;
  }
  EXPECT_EQ(parse_values("barrier-ms", "2.7"), (std::vector<double>{2.7}));
}

TEST(SweepValues, AxisSetsItsField) {
  auto now = rocc::SystemConfig::now(4);
  apply_axis(now, "nodes", 16);
  apply_axis(now, "pipe", 8);
  apply_axis(now, "barrier-ms", 50);
  EXPECT_EQ(now.nodes, 16);
  EXPECT_EQ(now.pipe_capacity, 8);
  EXPECT_EQ(now.barrier_period_us, 50'000.0);
  auto smp = rocc::SystemConfig::smp(8, 8, 1);
  apply_axis(smp, "nodes", 16);  // the SMP machine's CPU count
  EXPECT_EQ(smp.cpus_per_node, 16);
  EXPECT_THROW(apply_axis(now, "colour", 1), std::invalid_argument);
}

rocc::FaultOutcome outcome(bool detected, bool repaired) {
  rocc::FaultOutcome o;
  o.injected = true;
  o.detected = detected;
  if (detected) o.detection_latency_us = 2'000.0;
  o.repair_attempted = repaired;
  if (repaired) {
    o.repaired = true;
    o.repair_attempts = 2;
    o.time_to_repair_us = 6'000.0;
    o.repair_backoff_us = 1'000.0;
  }
  return o;
}

TEST(FaultTally, CountsAndMeans) {
  FaultTally t;
  t.add(outcome(true, true));
  t.add(outcome(true, false));  // detected only
  t.add(outcome(false, true));  // repaired only
  t.add(outcome(false, false));
  EXPECT_EQ(t.rows, 4u);
  EXPECT_EQ(t.detected, 2u);
  EXPECT_EQ(t.repaired, 2u);
  EXPECT_EQ(t.attempted, 2u);
  EXPECT_EQ(t.recovered, 0u);
  EXPECT_EQ(t.gave_up, 0u);
  EXPECT_EQ(t.frac(t.detected), 0.5);
  EXPECT_EQ(t.frac(t.repaired), 0.5);
  EXPECT_EQ(FaultTally::mean_ms(t.detection_us, t.detected), 2.0);
  EXPECT_EQ(FaultTally::mean_ms(t.repair_us, t.repaired), 6.0);
  EXPECT_EQ(FaultTally::mean_ms(t.backoff_us, t.attempted, 0.0), 1.0);
  EXPECT_EQ(t.attempts, 4.0);
  // Nothing to average: the caller's sentinel, and 0 without rows.
  EXPECT_EQ(FaultTally::mean_ms(t.recovery_us, t.recovered), -1.0);
  EXPECT_EQ(FaultTally{}.frac(0), 0.0);

  FaultTally sum;
  sum += t;
  sum += t;
  EXPECT_EQ(sum.rows, 8u);
  EXPECT_EQ(FaultTally::mean_ms(sum.detection_us, sum.detected), 2.0);
}

}  // namespace
}  // namespace paradyn::tools
