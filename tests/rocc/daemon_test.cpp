// Unit tests of ParadynDaemon against hand-built resources (no full
// Simulation): deterministic costs expose the exact collect/forward/merge
// accounting.
#include "rocc/daemon.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "des/engine.hpp"
#include "rocc/main_paradyn.hpp"

namespace paradyn::rocc {
namespace {

/// Fixture with one node CPU, a contention-free network, deterministic Pd
/// costs (collect 10, forward 20, net 5, merge 7), and a main process.
class DaemonFixture : public ::testing::Test {
 protected:
  DaemonFixture() {
    config_ = SystemConfig::now(1);
    config_.pd.collect_cpu = std::make_shared<stats::Deterministic>(10.0);
    config_.pd.forward_cpu = std::make_shared<stats::Deterministic>(20.0);
    config_.pd.net_occupancy = std::make_shared<stats::Deterministic>(5.0);
    config_.pd.merge_cpu = std::make_shared<stats::Deterministic>(7.0);
    config_.main_cpu = std::make_shared<stats::Deterministic>(1.0);
    config_.sampling_period_us = 1'000.0;

    cpu_ = std::make_unique<CpuResource>(engine_, 1, 10'000.0);
    net_ = std::make_unique<NetworkResource>(engine_, NetworkContention::ContentionFree);
    main_ = std::make_unique<MainParadyn>(engine_, config_, *cpu_, metrics_,
                                          des::RngStream(1, 0));
  }

  ParadynDaemon make_daemon(std::int32_t batch) {
    config_.batch_size = batch;
    return ParadynDaemon(engine_, config_, *cpu_, *net_, metrics_, des::RngStream(1, 2), 0);
  }

  Sample sample(double t = 0.0) { return Sample{t, 0, 0, 0.5, 0.1}; }

  /// Forward straight to the main process, inside the event that cleared
  /// the network (what Simulation's sink does at zero uplink latency).
  void forward_to_main(ParadynDaemon& daemon) {
    daemon.set_forward_sink([main = main_.get()](Batch batch) { main->receive(batch); });
  }

  SystemConfig config_;
  des::Engine engine_;
  MetricsCollector metrics_;
  std::unique_ptr<CpuResource> cpu_;
  std::unique_ptr<NetworkResource> net_;
  std::unique_ptr<MainParadyn> main_;
};

TEST_F(DaemonFixture, RequiresDestination) {
  auto daemon = make_daemon(1);
  EXPECT_THROW(daemon.start(), std::logic_error);
}

TEST_F(DaemonFixture, CfForwardsEachSampleIndividually) {
  auto daemon = make_daemon(1);
  Pipe pipe(16);
  daemon.attach_pipe(pipe);
  forward_to_main(daemon);
  daemon.start();

  for (int i = 0; i < 5; ++i) ASSERT_TRUE(pipe.try_put(sample()));
  (void)engine_.run();

  EXPECT_EQ(daemon.samples_collected(), 5u);
  EXPECT_EQ(daemon.batches_forwarded(), 5u);
  EXPECT_EQ(main_->batches_received(), 5u);
  EXPECT_EQ(main_->samples_received(), 5u);
  // Deterministic Pd CPU: 5 * (collect 10 + forward 20) = 150.
  EXPECT_DOUBLE_EQ(cpu_->busy_time(ProcessClass::ParadynDaemon), 150.0);
  // Network: 5 forwards x 5 = 25.
  EXPECT_DOUBLE_EQ(net_->busy_time(ProcessClass::ParadynDaemon), 25.0);
}

TEST_F(DaemonFixture, BfAmortizesForwardCost) {
  auto daemon = make_daemon(5);
  Pipe pipe(16);
  daemon.attach_pipe(pipe);
  forward_to_main(daemon);
  daemon.start();

  for (int i = 0; i < 10; ++i) ASSERT_TRUE(pipe.try_put(sample()));
  (void)engine_.run();

  EXPECT_EQ(daemon.samples_collected(), 10u);
  EXPECT_EQ(daemon.batches_forwarded(), 2u);
  EXPECT_EQ(main_->samples_received(), 10u);
  // 10 collects + 2 forwards: 10*10 + 2*20 = 140.
  EXPECT_DOUBLE_EQ(cpu_->busy_time(ProcessClass::ParadynDaemon), 140.0);
  EXPECT_DOUBLE_EQ(net_->busy_time(ProcessClass::ParadynDaemon), 10.0);
}

TEST_F(DaemonFixture, PartialBatchWaitsForMoreSamples) {
  auto daemon = make_daemon(4);
  Pipe pipe(16);
  daemon.attach_pipe(pipe);
  forward_to_main(daemon);
  daemon.start();

  for (int i = 0; i < 3; ++i) ASSERT_TRUE(pipe.try_put(sample()));
  (void)engine_.run();
  EXPECT_EQ(daemon.batches_forwarded(), 0u);  // 3 < 4: no forward yet
  EXPECT_EQ(daemon.samples_collected(), 3u);

  ASSERT_TRUE(pipe.try_put(sample()));
  (void)engine_.run();
  EXPECT_EQ(daemon.batches_forwarded(), 1u);
  EXPECT_EQ(main_->samples_received(), 4u);
}

TEST_F(DaemonFixture, LatencyExcludesBatchingWait) {
  // Two samples put far apart; the batch (size 2) forwards when the second
  // arrives.  Latency is measured from the forward start, not from the
  // first sample's generation.
  auto daemon = make_daemon(2);
  Pipe pipe(16);
  daemon.attach_pipe(pipe);
  forward_to_main(daemon);
  daemon.start();

  ASSERT_TRUE(pipe.try_put(sample(0.0)));
  (void)engine_.schedule_at(100'000.0, [&] { ASSERT_TRUE(pipe.try_put(sample(100'000.0))); });
  (void)engine_.run();

  ASSERT_EQ(metrics_.latency_us.count(), 2u);
  // Forward path: forward CPU 20 + net 5 = 25 (uncontended).
  EXPECT_DOUBLE_EQ(metrics_.latency_us.mean(), 25.0);
  EXPECT_LT(metrics_.latency_us.max(), 1'000.0);  // nowhere near the 100 ms gap
}

TEST_F(DaemonFixture, RoundRobinAcrossPipes) {
  auto daemon = make_daemon(1);
  Pipe pipe_a(4);
  Pipe pipe_b(4);
  daemon.attach_pipe(pipe_a);
  daemon.attach_pipe(pipe_b);
  forward_to_main(daemon);
  daemon.start();

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pipe_a.try_put(sample()));
    ASSERT_TRUE(pipe_b.try_put(sample()));
  }
  (void)engine_.run();
  EXPECT_EQ(daemon.samples_collected(), 6u);
  EXPECT_TRUE(pipe_a.empty());
  EXPECT_TRUE(pipe_b.empty());
}

TEST_F(DaemonFixture, TreeParentMergesChildBatches) {
  auto parent = make_daemon(1);
  Pipe parent_pipe(8);
  parent.attach_pipe(parent_pipe);
  forward_to_main(parent);
  parent.start();

  // A child batch arrives; it must NOT be forwarded standalone — it rides
  // the parent's next local forwarding unit.
  Batch child;
  child.forward_started_at = 0.0;
  child.origin_node = 1;
  child.samples = {sample(), sample()};
  parent.receive_from_child(child);
  // Run short of the flush timer (one sampling period = 1000).
  (void)engine_.run_until(500.0);
  EXPECT_EQ(parent.batches_merged(), 1u);
  EXPECT_EQ(parent.batches_forwarded(), 0u);
  EXPECT_DOUBLE_EQ(cpu_->busy_time(ProcessClass::ParadynDaemon), 7.0);  // merge only

  // A local sample arrives: the forwarded unit carries 1 + 2 samples.
  ASSERT_TRUE(parent_pipe.try_put(sample(500.0)));
  (void)engine_.run_until(900.0);
  EXPECT_EQ(parent.batches_forwarded(), 1u);
  EXPECT_EQ(main_->batches_received(), 1u);
  EXPECT_EQ(main_->samples_received(), 3u);
}

TEST_F(DaemonFixture, FlushTimerBoundsMergedContentAge) {
  // No local samples ever arrive: the flush timer (one sampling period)
  // must still push the merged child content upward.
  auto parent = make_daemon(64);
  Pipe parent_pipe(8);
  parent.attach_pipe(parent_pipe);
  forward_to_main(parent);
  parent.start();

  Batch child;
  child.forward_started_at = 0.0;
  child.origin_node = 1;
  child.samples = {sample()};
  parent.receive_from_child(child);
  (void)engine_.run();

  EXPECT_EQ(parent.batches_forwarded(), 1u);
  EXPECT_EQ(main_->samples_received(), 1u);
  // Delivered at ~merge(7) ... flush(+1000) + forward(20) + net(5).
  EXPECT_LE(engine_.now(), 1'100.0);
  EXPECT_GE(engine_.now(), 1'000.0);
}

}  // namespace
}  // namespace paradyn::rocc
