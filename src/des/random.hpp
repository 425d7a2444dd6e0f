// Deterministic, stream-splittable random number generation.
//
// Every stochastic entity in the ROCC model (each application process, each
// Paradyn daemon, each background-load generator, on every node, in every
// replication) owns its own named RNG stream.  Streams are derived from a
// global seed with SplitMix64 so that results are bit-reproducible across
// platforms and independent of the order in which entities draw numbers.
#pragma once

#include <cstdint>

namespace paradyn::des {

/// SplitMix64: tiny, high-quality 64-bit mixer.  Used both as a standalone
/// generator and as the seed-derivation function for Pcg32 streams.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  [[nodiscard]] std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Mix an arbitrary label into a seed.  Used to derive per-entity streams:
/// derive_seed(global, node_id, role_tag).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t a,
                                        std::uint64_t b = 0) noexcept;

/// PCG32 (XSH-RR): small, fast, statistically solid generator with 2^64
/// period and 2^63 selectable streams.
class Pcg32 {
 public:
  Pcg32() noexcept : Pcg32(0x853C49E6748FEA9BULL, 0xDA3E39CB94B95BDBULL) {}

  Pcg32(std::uint64_t seed, std::uint64_t stream) noexcept {
    state_ = 0;
    inc_ = (stream << 1U) | 1U;
    (void)next_u32();
    state_ += seed;
    (void)next_u32();
  }

  /// Next 32 uniformly distributed bits.
  [[nodiscard]] std::uint32_t next_u32() noexcept {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted = static_cast<std::uint32_t>(((old >> 18U) ^ old) >> 27U);
    const auto rot = static_cast<std::uint32_t>(old >> 59U);
    return (xorshifted >> rot) | (xorshifted << ((32U - rot) & 31U));
  }

  /// Next 64 uniformly distributed bits.
  [[nodiscard]] std::uint64_t next_u64() noexcept {
    return (static_cast<std::uint64_t>(next_u32()) << 32U) | next_u32();
  }

  /// Uniform double in [0, 1) with 53 random bits.
  [[nodiscard]] double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11U) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1] — safe as input to log() in inverse-CDF
  /// sampling (never returns 0).
  [[nodiscard]] double next_open_double() noexcept { return 1.0 - next_double(); }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// A named, reproducible random stream: the generator handed to model
/// entities.  Alias of Pcg32 plus a factory that encodes (seed, entity ids).
class RngStream : public Pcg32 {
 public:
  RngStream() noexcept = default;

  /// Create a stream for entity (a, b) — e.g. (node index, role tag) —
  /// under a global seed.  Different (a, b) pairs yield statistically
  /// independent streams.
  RngStream(std::uint64_t global_seed, std::uint64_t a, std::uint64_t b = 0) noexcept
      : Pcg32(derive_seed(global_seed, a, b), derive_seed(global_seed, b + 1, a + 1)) {}
};

}  // namespace paradyn::des
