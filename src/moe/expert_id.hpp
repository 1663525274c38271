#pragma once

/// \file expert_id.hpp
/// Strongly-typed (layer, expert) key used by the cache, the schedulers and
/// the prefetcher. Trivially copyable and hashable; its ordering (layer, then
/// expert) is the candidate order the cache hands its replacement policies.

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace hybrimoe::moe {

struct ExpertId {
  std::uint16_t layer = 0;
  std::uint16_t expert = 0;

  friend constexpr auto operator<=>(const ExpertId&, const ExpertId&) = default;

  /// Packs the id as `layer << 16 | expert`: an order-preserving 32-bit key
  /// and a perfect hash, but not a dense index. Each layer spans 65,536
  /// codes however many experts it has; flat per-expert state indexes by
  /// (layer, expert) instead (cache/expert_table.hpp).
  [[nodiscard]] constexpr std::uint32_t encode() const noexcept {
    return (static_cast<std::uint32_t>(layer) << 16) | expert;
  }
  [[nodiscard]] static constexpr ExpertId decode(std::uint32_t code) noexcept {
    return ExpertId{static_cast<std::uint16_t>(code >> 16),
                    static_cast<std::uint16_t>(code & 0xFFFF)};
  }

  [[nodiscard]] std::string to_string() const {
    std::string s = "L";
    s += std::to_string(layer);
    s += "/E";
    s += std::to_string(expert);
    return s;
  }
};

}  // namespace hybrimoe::moe

template <>
struct std::hash<hybrimoe::moe::ExpertId> {
  [[nodiscard]] std::size_t operator()(const hybrimoe::moe::ExpertId& id) const noexcept {
    // encode() is already a perfect hash for realistic model sizes.
    return std::hash<std::uint32_t>{}(id.encode());
  }
};
