#include "testbed/experiment.hpp"

#include <gtest/gtest.h>

#include <string>

#include "testbed/cpu_timer.hpp"

namespace paradyn::testbed {
namespace {

TestbedConfig quick(const std::string& workload, int batch) {
  TestbedConfig c;
  c.workload = workload;
  c.duration_sec = 0.25;
  c.sampling_period_ms = 5.0;
  c.metrics_per_sample = 20;
  c.batch_size = batch;
  return c;
}

TEST(CpuTimer, MeasuresSpinning) {
  const double before = thread_cpu_seconds();
  volatile double sink = 0.0;
  for (int i = 0; i < 2'000'000; ++i) sink = sink + i * 0.5;
  const double after = thread_cpu_seconds();
  EXPECT_GT(after, before);
  const long long a = monotonic_ns();
  const long long b = monotonic_ns();
  EXPECT_GE(b, a);
}

TEST(TestbedConfig, Validation) {
  EXPECT_NO_THROW(quick("bt", 1).validate());
  auto c = quick("lu", 1);
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = quick("bt", 0);
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = quick("bt", 1);
  c.duration_sec = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = quick("bt", 1);
  c.sampling_period_ms = -1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = quick("bt", 1);
  c.metrics_per_sample = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = quick("bt", 1);
  c.app_threads = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Testbed, NoSampleLossEndToEnd) {
  const auto r = run_testbed(quick("bt", 1));
  EXPECT_GT(r.samples_sent, 0u);
  EXPECT_EQ(r.samples_received, r.samples_sent);
  EXPECT_GT(r.app_chunks, 0u);
}

TEST(Testbed, PartialBatchFlushedAtShutdown) {
  // A batch size that cannot divide the sample stream exactly still loses
  // nothing: the daemon flushes the partial batch on EOF.
  auto c = quick("is", 7);
  const auto r = run_testbed(c);
  EXPECT_EQ(r.samples_received, r.samples_sent);
}

TEST(Testbed, CfIssuesOneForwardPerSample) {
  const auto r = run_testbed(quick("bt", 1));
  EXPECT_EQ(r.forward_syscalls, r.samples_sent);
}

TEST(Testbed, BfAmortizesForwardSyscalls) {
  auto c = quick("bt", 32);
  const auto r = run_testbed(c);
  EXPECT_GT(r.forward_syscalls, 0u);
  // ceil(sent/32) forwarding calls (partial flush at the end).
  const auto expected = (r.samples_sent + 31) / 32;
  EXPECT_NEAR(static_cast<double>(r.forward_syscalls), static_cast<double>(expected), 2.0);
}

TEST(Testbed, CollectorReadsOncePerForward) {
  // The daemon -> collector channel carries messages, so the collector's
  // receive count follows the forward count under both policies, however
  // the kernel schedules the threads.  No clock enters the assertion.
  for (const int batch : {1, 32}) {
    SCOPED_TRACE(batch);
    const auto r = run_testbed(quick("bt", batch));
    EXPECT_GT(r.forward_syscalls, 0u);
    EXPECT_EQ(r.collector_reads, r.forward_syscalls);
    EXPECT_EQ(r.samples_received, r.samples_sent);
  }
}

TEST(Testbed, BfReducesDaemonAndCollectorCpu) {
  // The paper's measured result (Figure 30): >60% Pd overhead reduction
  // and ~80% main-process reduction.  Thread CPU clocks are noisy at this
  // scale, so assert a conservative reduction.
  auto cf = quick("bt", 1);
  auto bf = quick("bt", 32);
  cf.duration_sec = bf.duration_sec = 0.6;
  cf.sampling_period_ms = bf.sampling_period_ms = 2.0;
  const auto rcf = run_testbed(cf);
  const auto rbf = run_testbed(bf);
  EXPECT_LT(rbf.daemon_cpu_sec, 0.8 * rcf.daemon_cpu_sec);
  EXPECT_LT(rbf.collector_cpu_sec, 0.6 * rcf.collector_cpu_sec);
}

TEST(Testbed, LatencyRecordedPerSample) {
  const auto r = run_testbed(quick("is", 4));
  EXPECT_EQ(r.latency_ms.count(), r.samples_received);
  EXPECT_GT(r.latency_ms.min(), 0.0);
}

TEST(Testbed, BfLatencyIncludesBatchingWait) {
  // In the real system (unlike the simulator's residence-time metric) BF
  // latency includes the wait for the batch to fill.
  auto cf = quick("bt", 1);
  auto bf = quick("bt", 64);
  const auto rcf = run_testbed(cf);
  const auto rbf = run_testbed(bf);
  EXPECT_GT(rbf.latency_ms.mean(), rcf.latency_ms.mean());
}

TEST(Testbed, NormalizedPercentagesConsistent) {
  const auto r = run_testbed(quick("bt", 1));
  EXPECT_GT(r.total_cpu_sec(), 0.0);
  EXPECT_GE(r.normalized_daemon_pct(), 0.0);
  EXPECT_LE(r.normalized_daemon_pct() + r.normalized_collector_pct(), 100.0);
}

TEST(Testbed, MultipleAppThreads) {
  auto c = quick("is", 8);
  c.app_threads = 3;
  c.duration_sec = 0.3;
  const auto r = run_testbed(c);
  EXPECT_EQ(r.samples_received, r.samples_sent);
  EXPECT_GT(r.samples_sent, 0u);
}

TEST(Testbed, MultipleDaemonsNoSampleLoss) {
  // Figure 29's one-Pd-per-node topology: 4 apps over 2 daemons, all
  // funneling into one collector.
  auto c = quick("is", 8);
  c.app_threads = 4;
  c.daemon_threads = 2;
  c.duration_sec = 0.3;
  const auto r = run_testbed(c);
  EXPECT_EQ(r.samples_received, r.samples_sent);
  EXPECT_GT(r.daemon_cpu_sec, 0.0);
}

TEST(Testbed, DaemonCountValidation) {
  auto c = quick("bt", 1);
  c.daemon_threads = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.daemon_threads = 2;  // > app_threads (1)
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

// The workload is a std::string, not a const char*: GoogleTest prints a
// pointer parameter by address, which would put an ASLR-dependent value in
// the test's listed name.
class WorkloadPolicyMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(WorkloadPolicyMatrix, RunsCleanlyWithoutLoss) {
  const auto& [workload, batch] = GetParam();
  const auto r = run_testbed(quick(workload, batch));
  EXPECT_EQ(r.samples_received, r.samples_sent);
  EXPECT_GT(r.daemon_cpu_sec, 0.0);
  EXPECT_GT(r.app_cpu_sec, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllCells, WorkloadPolicyMatrix,
                         ::testing::Combine(::testing::Values(std::string("bt"),
                                                              std::string("is")),
                                            ::testing::Values(1, 16, 128)),
                         [](const auto& info) {
                           return std::get<0>(info.param) + "_batch" +
                                  std::to_string(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace paradyn::testbed
