// RAII POSIX pipe carrying fixed-size instrumentation samples.
//
// This is the real counterpart of the simulator's Pipe: the kernel buffer
// between an instrumented application and its Paradyn daemon, and between
// the daemon and the collector.  Writes block when the pipe is full (the
// backpressure the paper observes at small sampling periods); reads block
// until data or EOF.
//
// A channel has one of two framings, chosen at construction:
//   * byte stream (pipe(2)): writes merge in the kernel buffer and a read
//     takes whatever is queued.  App -> daemon channels use it, since the
//     daemon drains its pipes in bulk as the real Pd does.
//   * packet (pipe2(O_DIRECT)): each write(2) is one message and each
//     read(2) returns at most one, so the reader pays one receive per
//     forward wherever the kernel runs it.  Daemon -> collector channels use
//     it: CF sends one message per sample, BF one per batch.
// Packet mode has two limits:
//   * the kernel cuts a write larger than a packet (PIPE_BUF bytes, or a
//     page where pages are larger: over 170 samples on 4 KiB pages) into
//     several packets, and read_some's carry-over rejoins the record split
//     between them;
//   * packets do not merge, so the default 64 KiB pipe holds 16 of them
//     however small they are, and a CF writer blocks after 16 unread
//     forwards.  That is the backpressure of a finite message channel.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace paradyn::testbed {

/// One instrumentation sample on the wire (fixed 24-byte record).
struct WireSample {
  std::int64_t generated_ns = 0;  ///< monotonic_ns() at generation time.
  std::int32_t app_id = 0;
  std::int32_t metric_id = 0;
  double value = 0.0;
};
static_assert(sizeof(WireSample) == 24, "wire format must be stable");

/// A unidirectional sample channel over a pipe(2).
class SampleChannel {
 public:
  enum class Framing { kByteStream, kPacket };

  /// Creates the pipe; throws std::system_error on failure.
  explicit SampleChannel(Framing framing = Framing::kByteStream);
  ~SampleChannel();

  SampleChannel(const SampleChannel&) = delete;
  SampleChannel& operator=(const SampleChannel&) = delete;
  SampleChannel(SampleChannel&& other) noexcept;
  SampleChannel& operator=(SampleChannel&&) = delete;

  /// Write a whole batch with a single write(2) system call — one sample
  /// under CF, the BF policy's amortization under BF.
  void write_batch(std::span<const WireSample> batch);

  /// Blocking read of up to `max` samples in one read(2) call; empty on
  /// EOF.  On a packet channel one call returns one packet, and `max` must
  /// be at least min_packet_read(): a shorter read(2) would discard the rest
  /// of the packet, so it throws std::invalid_argument instead.
  [[nodiscard]] std::vector<WireSample> read_some(std::size_t max);

  /// Smallest `max` that read_some accepts on a packet channel: room for
  /// the largest packet the kernel makes (171 samples on 4 KiB pages).
  [[nodiscard]] static std::size_t min_packet_read();

  /// Close the write end (EOF for the reader).  Idempotent.
  void close_write();
  /// Close the read end.  Idempotent.
  void close_read();

  [[nodiscard]] int read_fd() const noexcept { return read_fd_; }
  [[nodiscard]] int write_fd() const noexcept { return write_fd_; }

 private:
  void write_all(const void* data, std::size_t len);

  int read_fd_ = -1;
  int write_fd_ = -1;
  Framing framing_ = Framing::kByteStream;
  std::vector<unsigned char> rx_partial_;  ///< carry-over for short reads
};

}  // namespace paradyn::testbed
