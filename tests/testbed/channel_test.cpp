#include "testbed/channel.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

namespace paradyn::testbed {
namespace {

WireSample make(int id, double value) {
  WireSample s;
  s.generated_ns = 123456789;
  s.app_id = id;
  s.metric_id = id * 2;
  s.value = value;
  return s;
}

/// One sample in one write(2), as the CF policy sends it.
void write_one(SampleChannel& ch, const WireSample& s) { ch.write_batch({&s, 1}); }

/// The next sample of a byte-stream channel; nullopt on EOF.
std::optional<WireSample> read_one(SampleChannel& ch) {
  const auto got = ch.read_some(1);
  if (got.empty()) return std::nullopt;
  return got.front();
}

TEST(SampleChannel, SingleSampleRoundTrip) {
  SampleChannel ch;
  write_one(ch, make(7, 3.25));
  const auto got = read_one(ch);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->app_id, 7);
  EXPECT_EQ(got->metric_id, 14);
  EXPECT_DOUBLE_EQ(got->value, 3.25);
  EXPECT_EQ(got->generated_ns, 123456789);
}

TEST(SampleChannel, BatchRoundTrip) {
  SampleChannel ch;
  std::vector<WireSample> batch;
  for (int i = 0; i < 20; ++i) batch.push_back(make(i, i * 0.5));
  ch.write_batch(batch);
  for (int i = 0; i < 20; ++i) {
    const auto got = read_one(ch);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->app_id, i);
    EXPECT_DOUBLE_EQ(got->value, i * 0.5);
  }
}

TEST(SampleChannel, ReadSomeDrainsInBulk) {
  SampleChannel ch;
  std::vector<WireSample> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(make(i, i));
  ch.write_batch(batch);
  const auto first = ch.read_some(6);
  ASSERT_EQ(first.size(), 6u);
  const auto rest = ch.read_some(64);
  ASSERT_EQ(rest.size(), 4u);
  EXPECT_EQ(rest[0].app_id, 6);
  EXPECT_EQ(rest[3].app_id, 9);
}

TEST(SampleChannel, EofAfterCloseWrite) {
  SampleChannel ch;
  write_one(ch, make(1, 1.0));
  ch.close_write();
  EXPECT_TRUE(read_one(ch).has_value());
  EXPECT_FALSE(read_one(ch).has_value());       // EOF
  EXPECT_TRUE(ch.read_some(16).empty());            // still EOF
}

TEST(SampleChannel, EmptyBatchIsNoop) {
  SampleChannel ch;
  ch.write_batch({});
  ch.close_write();
  EXPECT_FALSE(read_one(ch).has_value());
}

TEST(SampleChannel, CrossThreadTransfer) {
  SampleChannel ch;
  constexpr int kCount = 20000;  // > pipe capacity: exercises backpressure
  std::thread writer([&] {
    for (int i = 0; i < kCount; ++i) write_one(ch, make(i & 0xFFFF, i));
    ch.close_write();
  });
  int received = 0;
  long long last_value = -1;
  while (true) {
    const auto samples = ch.read_some(128);
    if (samples.empty()) break;
    for (const auto& s : samples) {
      EXPECT_EQ(static_cast<long long>(s.value), last_value + 1);
      last_value = static_cast<long long>(s.value);
      ++received;
    }
  }
  writer.join();
  EXPECT_EQ(received, kCount);
}

TEST(SampleChannel, MoveTransfersOwnership) {
  SampleChannel a;
  write_one(a, make(5, 5.0));
  SampleChannel b(std::move(a));
  const auto got = read_one(b);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->app_id, 5);
}

TEST(SampleChannel, PacketReadReturnsOneWrite) {
  // Three writes queued before the first read: a byte stream would hand
  // all six samples to one read, a packet channel hands back one write each.
  SampleChannel ch(SampleChannel::Framing::kPacket);
  const std::vector<WireSample> pair{make(0, 0.0), make(1, 1.0)};
  const std::vector<WireSample> triple{make(3, 3.0), make(4, 4.0), make(5, 5.0)};
  ch.write_batch(pair);
  write_one(ch, make(2, 2.0));
  ch.write_batch(triple);
  ch.close_write();
  const std::size_t max = SampleChannel::min_packet_read();
  const auto first = ch.read_some(max);
  const auto second = ch.read_some(max);
  const auto third = ch.read_some(max);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 1u);
  ASSERT_EQ(third.size(), 3u);
  EXPECT_EQ(first[1].app_id, 1);
  EXPECT_EQ(second[0].app_id, 2);
  EXPECT_EQ(third[2].app_id, 5);
  EXPECT_TRUE(ch.read_some(max).empty());  // EOF
}

TEST(SampleChannel, PacketBatchOverPipeBufArrivesWhole) {
  // 200 samples (4,800 bytes) exceed one packet: the kernel splits the
  // write, and the carry-over rejoins the record cut between packets.
  SampleChannel ch(SampleChannel::Framing::kPacket);
  std::vector<WireSample> batch;
  for (int i = 0; i < 200; ++i) batch.push_back(make(i, i * 0.25));
  ch.write_batch(batch);
  ch.close_write();
  std::vector<WireSample> got;
  while (true) {
    const auto samples = ch.read_some(SampleChannel::min_packet_read());
    if (samples.empty()) break;
    got.insert(got.end(), samples.begin(), samples.end());
  }
  ASSERT_EQ(got.size(), batch.size());
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].app_id, i);
    EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(i)].value, i * 0.25);
  }
}

TEST(SampleChannel, ShortPacketReadThrows) {
  // A read(2) shorter than the packet discards the packet's rest.
  SampleChannel ch(SampleChannel::Framing::kPacket);
  write_one(ch, make(1, 1.0));
  EXPECT_THROW((void)ch.read_some(100), std::invalid_argument);
  EXPECT_THROW((void)ch.read_some(SampleChannel::min_packet_read() - 1),
               std::invalid_argument);
  EXPECT_GE(SampleChannel::min_packet_read() * sizeof(WireSample),
            static_cast<std::size_t>(PIPE_BUF));
  const auto got = ch.read_some(SampleChannel::min_packet_read());
  ASSERT_EQ(got.size(), 1u);  // the refused read consumed nothing
  EXPECT_EQ(got[0].app_id, 1);
}

TEST(SampleChannel, CloseIsIdempotent) {
  SampleChannel ch;
  ch.close_write();
  ch.close_write();
  ch.close_read();
  ch.close_read();
}

}  // namespace
}  // namespace paradyn::testbed
