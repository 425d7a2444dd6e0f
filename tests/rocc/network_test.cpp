#include "rocc/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "des/engine.hpp"

namespace paradyn::rocc {
namespace {

TEST(NetworkResource, SharedServerSerializesRequests) {
  des::Engine e;
  NetworkResource net(e, NetworkContention::SharedSingleServer);
  std::vector<des::SimTime> done;
  net.submit({100.0, ProcessClass::Application, -1, [&] { done.push_back(e.now()); }});
  net.submit({50.0, ProcessClass::ParadynDaemon, -1, [&] { done.push_back(e.now()); }});
  (void)e.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 100.0);
  EXPECT_DOUBLE_EQ(done[1], 150.0);  // queued behind the first
}

TEST(NetworkResource, ContentionFreeRunsConcurrently) {
  des::Engine e;
  NetworkResource net(e, NetworkContention::ContentionFree);
  std::vector<des::SimTime> done;
  net.submit({100.0, ProcessClass::Application, -1, [&] { done.push_back(e.now()); }});
  net.submit({50.0, ProcessClass::ParadynDaemon, -1, [&] { done.push_back(e.now()); }});
  (void)e.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 50.0);   // pure delay: shorter finishes first
  EXPECT_DOUBLE_EQ(done[1], 100.0);
}

TEST(NetworkResource, BusyTimePerClass) {
  des::Engine e;
  NetworkResource net(e, NetworkContention::SharedSingleServer);
  net.submit({100.0, ProcessClass::Application, -1, nullptr});
  net.submit({50.0, ProcessClass::ParadynDaemon, -1, nullptr});
  net.submit({25.0, ProcessClass::ParadynDaemon, -1, nullptr});
  (void)e.run();
  EXPECT_DOUBLE_EQ(net.busy_time(ProcessClass::Application), 100.0);
  EXPECT_DOUBLE_EQ(net.busy_time(ProcessClass::ParadynDaemon), 75.0);
  EXPECT_DOUBLE_EQ(net.busy_time_total(), 175.0);
}

TEST(NetworkResource, FifoOrderPreserved) {
  des::Engine e;
  NetworkResource net(e, NetworkContention::SharedSingleServer);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    net.submit({10.0, ProcessClass::Application, -1, [&order, i] { order.push_back(i); }});
  }
  (void)e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(NetworkResource, ZeroDurationAllowed) {
  des::Engine e;
  NetworkResource net(e, NetworkContention::SharedSingleServer);
  bool done = false;
  net.submit({0.0, ProcessClass::Application, -1, [&] { done = true; }});
  (void)e.run();
  EXPECT_TRUE(done);
}

TEST(NetworkResource, NegativeDurationThrows) {
  des::Engine e;
  NetworkResource net(e, NetworkContention::SharedSingleServer);
  EXPECT_THROW(net.submit({-5.0, ProcessClass::Application, -1, nullptr}), std::invalid_argument);
}

TEST(NetworkResource, BacklogTracksSharedQueue) {
  des::Engine e;
  NetworkResource net(e, NetworkContention::SharedSingleServer);
  net.submit({10.0, ProcessClass::Application, -1, nullptr});
  net.submit({10.0, ProcessClass::Application, -1, nullptr});
  net.submit({10.0, ProcessClass::Application, -1, nullptr});
  EXPECT_EQ(net.backlog(), 3u);
  (void)e.run();
  EXPECT_EQ(net.backlog(), 0u);
}

TEST(NetworkResource, SubmitFromCompletionCallback) {
  // A daemon submits its next send from inside the previous completion.
  des::Engine e;
  NetworkResource net(e, NetworkContention::SharedSingleServer);
  des::SimTime second_done = -1.0;
  auto first_done = [&] {
    net.submit({20.0, ProcessClass::ParadynDaemon, -1, [&] { second_done = e.now(); }});
  };
  net.submit({10.0, ProcessClass::ParadynDaemon, -1, [&first_done] { first_done(); }});
  (void)e.run();
  EXPECT_DOUBLE_EQ(second_done, 30.0);
}

}  // namespace
}  // namespace paradyn::rocc
