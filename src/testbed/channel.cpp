#include "testbed/channel.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace paradyn::testbed {

SampleChannel::SampleChannel(Framing framing) : framing_(framing) {
  int fds[2];
  if (::pipe2(fds, framing == Framing::kPacket ? O_DIRECT : 0) != 0) {
    throw std::system_error(errno, std::generic_category(), "pipe2");
  }
  read_fd_ = fds[0];
  write_fd_ = fds[1];
}

SampleChannel::SampleChannel(SampleChannel&& other) noexcept
    : read_fd_(std::exchange(other.read_fd_, -1)),
      write_fd_(std::exchange(other.write_fd_, -1)),
      framing_(other.framing_),
      rx_partial_(std::move(other.rx_partial_)) {}

std::size_t SampleChannel::min_packet_read() {
  // pipe(2) promises that PIPE_BUF bytes hold any packet, but Linux fills
  // one page per packet, so take the page where it is larger.
  static const std::size_t bytes =
      std::max<std::size_t>(PIPE_BUF, static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)));
  return (bytes + sizeof(WireSample) - 1) / sizeof(WireSample);
}

SampleChannel::~SampleChannel() {
  close_write();
  close_read();
}

void SampleChannel::close_write() {
  if (write_fd_ != -1) {
    ::close(write_fd_);
    write_fd_ = -1;
  }
}

void SampleChannel::close_read() {
  if (read_fd_ != -1) {
    ::close(read_fd_);
    read_fd_ = -1;
  }
}

void SampleChannel::write_all(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(write_fd_, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "write");
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

void SampleChannel::write_batch(std::span<const WireSample> batch) {
  if (batch.empty()) return;
  write_all(batch.data(), batch.size_bytes());
}

std::vector<WireSample> SampleChannel::read_some(std::size_t max) {
  if (framing_ == Framing::kPacket && max < min_packet_read()) {
    throw std::invalid_argument(
        "SampleChannel::read_some: a packet read must hold a whole packet");
  }
  if (max == 0) return {};
  std::vector<WireSample> out;
  std::vector<unsigned char> buffer(rx_partial_);
  rx_partial_.clear();
  buffer.resize(buffer.size() + max * sizeof(WireSample));

  const std::size_t preloaded = buffer.size() - max * sizeof(WireSample);
  ssize_t n = 0;
  while (true) {
    n = ::read(read_fd_, buffer.data() + preloaded, max * sizeof(WireSample));
    if (n >= 0) break;
    if (errno != EINTR) {
      throw std::system_error(errno, std::generic_category(), "read");
    }
  }
  const std::size_t have = preloaded + static_cast<std::size_t>(n);
  if (have == 0) return {};  // EOF with no carry-over

  const std::size_t whole = have / sizeof(WireSample);
  out.resize(whole);
  std::memcpy(out.data(), buffer.data(), whole * sizeof(WireSample));
  const std::size_t rest = have - whole * sizeof(WireSample);
  rx_partial_.assign(buffer.data() + whole * sizeof(WireSample),
                     buffer.data() + whole * sizeof(WireSample) + rest);
  if (whole == 0 && n > 0) return read_some(max);  // only a fragment arrived
  return out;
}

}  // namespace paradyn::testbed
