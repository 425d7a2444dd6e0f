#include "des/random.hpp"

namespace paradyn::des {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t a, std::uint64_t b) noexcept {
  SplitMix64 mix(base ^ (a * 0x9E3779B97F4A7C15ULL) ^ (b * 0xC2B2AE3D27D4EB4FULL));
  (void)mix.next();
  return mix.next();
}

}  // namespace paradyn::des
