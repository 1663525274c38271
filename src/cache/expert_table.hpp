#pragma once

/// \file expert_table.hpp
/// Flat per-(layer, expert) state for the cache and its policies. Both
/// containers keep one vector per layer, indexed by expert and grown on first
/// write, so a lookup is two bounds checks and a load: no hashing. Ids the
/// table has never seen read as the default value, which is what the
/// policies' "missing entry reads 0" rule needs. Ids may be sparse (layer
/// 200, expert 4000): only the rows and columns up to the largest id touched
/// are allocated.

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "moe/expert_id.hpp"

namespace hybrimoe::cache {

/// One value of type T per expert id; unwritten entries read as T{}.
template <typename T>
class ExpertTable {
 public:
  [[nodiscard]] T get(moe::ExpertId id) const noexcept {
    if (id.layer >= rows_.size()) return T{};
    const std::vector<T>& row = rows_[id.layer];
    return id.expert < row.size() ? row[id.expert] : T{};
  }

  /// Writable entry, growing the table to reach it.
  T& at(moe::ExpertId id) { return row(id.layer, id.expert + std::size_t{1})[id.expert]; }

  /// Reset an entry to T{} without growing the table.
  void clear(moe::ExpertId id) noexcept {
    if (id.layer < rows_.size() && id.expert < rows_[id.layer].size())
      rows_[id.layer][id.expert] = T{};
  }

  /// The first `n` entries of `layer`, growing the table to hold them.
  std::span<T> row(std::uint16_t layer, std::size_t n) {
    if (layer >= rows_.size()) rows_.resize(std::size_t{layer} + 1);
    std::vector<T>& r = rows_[layer];
    if (r.size() < n) r.resize(n);
    return std::span<T>(r).first(n);
  }

 private:
  std::vector<std::vector<T>> rows_;
};

/// A set of expert ids: one bit per expert in 64-bit words, one word vector
/// per layer. for_each_word, then for_each_bit, walk the members in ascending
/// ExpertId order (layer, then expert): the order the replacement policies
/// see their candidates in.
class ExpertBitset {
 public:
  /// The word of its layer that holds `id`'s bit, and the bit within it.
  [[nodiscard]] static std::size_t word_index(moe::ExpertId id) noexcept {
    return id.expert / kWordBits;
  }
  [[nodiscard]] static std::uint64_t mask(moe::ExpertId id) noexcept {
    return std::uint64_t{1} << (id.expert % kWordBits);
  }

  [[nodiscard]] bool contains(moe::ExpertId id) const noexcept {
    return (word(id.layer, word_index(id)) & mask(id)) != 0;
  }

  /// Word `w` of `layer`'s bits (0 outside the grown range).
  [[nodiscard]] std::uint64_t word(std::size_t layer, std::size_t w) const noexcept {
    if (layer >= words_.size()) return 0;
    const std::vector<std::uint64_t>& row = words_[layer];
    return w < row.size() ? row[w] : 0;
  }

  /// Adds `id`; true when it was not a member.
  bool insert(moe::ExpertId id) {
    if (id.layer >= words_.size()) words_.resize(std::size_t{id.layer} + 1);
    std::vector<std::uint64_t>& row = words_[id.layer];
    const std::size_t w = word_index(id);
    if (w >= row.size()) row.resize(w + 1);
    const bool added = (row[w] & mask(id)) == 0;
    row[w] |= mask(id);
    return added;
  }

  /// Removes `id`; true when it was a member.
  bool erase(moe::ExpertId id) noexcept {
    if (!contains(id)) return false;
    words_[id.layer][word_index(id)] &= ~mask(id);
    return true;
  }

  /// Calls `visit(layer, w, bits)` for every word of the grown range, in
  /// ascending (layer, w) order.
  template <typename Visit>
  void for_each_word(Visit&& visit) const {
    for (std::size_t layer = 0; layer < words_.size(); ++layer)
      for (std::size_t w = 0; w < words_[layer].size(); ++w)
        visit(layer, w, words_[layer][w]);
  }

  /// The ids whose bits are set in word `w` of `layer`, ascending.
  template <typename Visit>
  static void for_each_bit(std::size_t layer, std::size_t w, std::uint64_t bits,
                           Visit&& visit) {
    for (; bits != 0; bits &= bits - 1) {
      const auto expert = w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
      visit(moe::ExpertId{static_cast<std::uint16_t>(layer),
                          static_cast<std::uint16_t>(expert)});
    }
  }

 private:
  static constexpr std::size_t kWordBits = 64;

  std::vector<std::vector<std::uint64_t>> words_;
};

}  // namespace hybrimoe::cache
