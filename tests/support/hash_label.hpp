// Named RNG streams for tests: a string label hashed to a stream tag.
//
// distributions_test derives one stream per distribution family as
// RngStream(seed, hash_label(family name)), so this hash must stay as it
// is, or those streams change their seeds.
#pragma once

#include <cstdint>
#include <string_view>

namespace paradyn::des {

/// Hash a string label to a 64-bit tag (FNV-1a), so streams can be named.
[[nodiscard]] inline std::uint64_t hash_label(std::string_view label) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace paradyn::des
