#include "trace/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "stats/summary.hpp"

namespace paradyn::trace {
namespace {

TEST(Generator, Deterministic) {
  const auto model = Sp2TraceModel::paper_pvmbt(1e6);
  const auto a = generate_trace(model, 2, 42);
  const auto b = generate_trace(model, 2, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].timestamp_us, b[i].timestamp_us);
    EXPECT_DOUBLE_EQ(a[i].duration_us, b[i].duration_us);
    EXPECT_EQ(a[i].pid, b[i].pid);
  }
}

TEST(Generator, SeedChangesTrace) {
  const auto model = Sp2TraceModel::paper_pvmbt(1e6);
  const auto a = generate_trace(model, 1, 1);
  const auto b = generate_trace(model, 1, 2);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  // Same structure, different draws.
  bool any_diff = false;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i].duration_us != b[i].duration_us) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generator, RecordsSortedAndWithinDuration) {
  const auto model = Sp2TraceModel::paper_pvmbt(2e6);
  const auto records = generate_trace(model, 3, 7);
  ASSERT_FALSE(records.empty());
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].timestamp_us, records[i].timestamp_us);
  }
  for (const auto& r : records) {
    EXPECT_GE(r.timestamp_us, 0.0);
    EXPECT_LT(r.timestamp_us, 2e6);
    EXPECT_GT(r.duration_us, 0.0);
    EXPECT_GE(r.node, 0);
    EXPECT_LT(r.node, 3);
  }
}

TEST(Generator, AllFiveProcessClassesPresent) {
  const auto model = Sp2TraceModel::paper_pvmbt(20e6);
  const auto records = generate_trace(model, 1, 11);
  std::set<ProcessClass> seen;
  for (const auto& r : records) seen.insert(r.pclass);
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kNumProcessClasses));
}

TEST(Generator, MainParadynOnlyOnNodeZero) {
  const auto model = Sp2TraceModel::paper_pvmbt(5e6);
  const auto records = generate_trace(model, 4, 13);
  for (const auto& r : records) {
    if (r.pclass == ProcessClass::MainParadyn) {
      EXPECT_EQ(r.node, 0);
    }
  }
}

TEST(Generator, ApplicationStatisticsMatchTable1) {
  // Application CPU occupancy should have mean ~2213 us (Table 1).
  const auto model = Sp2TraceModel::paper_pvmbt(50e6);
  const auto records = generate_trace(model, 1, 21);
  stats::SummaryStats cpu;
  stats::SummaryStats net;
  for (const auto& r : records) {
    if (r.pclass != ProcessClass::Application) continue;
    (r.resource == ResourceKind::Cpu ? cpu : net).add(r.duration_us);
  }
  ASSERT_GT(cpu.count(), 1000u);
  EXPECT_NEAR(cpu.mean(), 2213.0, 2213.0 * 0.1);
  EXPECT_NEAR(net.mean(), 223.0, 223.0 * 0.1);
}

TEST(Generator, AlternatingProcessInterleavesCpuAndNetwork) {
  const auto model = Sp2TraceModel::paper_pvmbt(2e6);
  const auto records = generate_trace(model, 1, 5);
  ResourceKind expected = ResourceKind::Cpu;
  for (const auto& r : records) {
    if (r.pclass != ProcessClass::Application) continue;
    EXPECT_EQ(r.resource, expected);
    expected = (expected == ResourceKind::Cpu) ? ResourceKind::Network : ResourceKind::Cpu;
  }
}

TEST(Generator, Validation) {
  const auto model = Sp2TraceModel::paper_pvmbt(1e6);
  EXPECT_THROW((void)generate_trace(model, 0, 1), std::invalid_argument);
  auto bad = model;
  bad.duration_us = 0.0;
  EXPECT_THROW((void)generate_trace(bad, 1, 1), std::invalid_argument);
  // tracegen --seconds inf (or 1e400, which strtod reads as inf) appended
  // records until allocation failed.
  for (const double d : {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    bad.duration_us = d;
    EXPECT_THROW((void)generate_trace(bad, 1, 1), std::invalid_argument) << d;
  }
}

TEST(Generator, RejectsAModelAboveTheRecordCap) {
  // tracegen --seconds 1e7 asked for ~1.3e10 records (~1,270 per
  // node-second), all held in memory.
  const auto huge = Sp2TraceModel::paper_pvmbt(1e13);
  try {
    (void)generate_trace(huge, 1, 1);
    FAIL() << "a 1e7 s trace was generated";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("about 1.26e+10 records"), std::string::npos) << message;
    EXPECT_NE(message.find(std::to_string(kMaxTraceRecords)), std::string::npos) << message;
  }
  // The estimate scales with the node count: 7,000 s is ~8.9e6 records on
  // one node but ~3.4e7 on four.  The longest trace any bench or example
  // generates (100 s on one node, ~127,000 records) stays far below it.
  EXPECT_THROW((void)generate_trace(Sp2TraceModel::paper_pvmbt(7e9), 4, 1),
               std::invalid_argument);
  EXPECT_GT(kMaxTraceRecords, 100u * 127'000u);
}

}  // namespace
}  // namespace paradyn::trace
