// Flat open-addressing table over fixed-width path masks.
//
// The kernel engine keeps asking one question: "has this set of paths
// been seen before?"  A set is a bitmask over the candidate paths, all
// masks of one engine have the same word count, and the caller often
// knows the hash already: the sliced accumulator keeps each lane group's
// committed-set hash current as rows commit.  So the table takes the
// hash from the caller, and it stores each key once in an insertion-
// ordered arena, so an entry's id is its insertion index.  A probe
// compares a 32-bit tag and then the full mask.  A hash collision
// therefore costs one extra compare, never a wrong answer.  Growth
// re-slots entries by their stored hash, so keys never move or rehash.
//
// mask_hash() is a sum of per-word hashes.  Setting one bit changes one
// summand, so mask_hash_with_bit() updates a hash in O(1).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace rnt::core {

/// Hash contribution of word `index` holding `bits`: a splitmix64
/// finalizer over the word salted by its position, and 0 for an empty
/// word, so a mask's hash only depends on its nonzero words.
inline std::uint64_t mask_word_hash(std::size_t index, std::uint64_t bits) {
  if (bits == 0) return 0;
  std::uint64_t z =
      bits + (static_cast<std::uint64_t>(index) + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Hash of a mask computed from scratch: the sum of its word hashes.
inline std::uint64_t mask_hash(std::span<const std::uint64_t> mask) {
  std::uint64_t hash = 0;
  for (std::size_t w = 0; w < mask.size(); ++w) {
    hash += mask_word_hash(w, mask[w]);
  }
  return hash;
}

/// mask_hash() of `mask` with bit `bit` set, given `hash` =
/// mask_hash(mask).  O(1): only the summand of the bit's word changes.
inline std::uint64_t mask_hash_with_bit(std::uint64_t hash,
                                        std::span<const std::uint64_t> mask,
                                        std::size_t bit) {
  const std::size_t w = bit / 64;
  const std::uint64_t old = mask[w];
  return hash - mask_word_hash(w, old) +
         mask_word_hash(w, old | (std::uint64_t{1} << (bit % 64)));
}

/// Set of fixed-width masks with dense ids (insertion order).  Callers
/// keep per-entry values in vectors indexed by id.  Not thread-safe.
class MaskTable {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// A table of masks `words` 64-bit words wide.
  explicit MaskTable(std::size_t words = 1) : words_(words) {}

  std::size_t words() const { return words_; }
  std::size_t size() const { return hashes_.size(); }

  /// Id of `mask` (words() wide, with hash `hash`), or npos if absent.
  std::size_t find(std::span<const std::uint64_t> mask,
                   std::uint64_t hash) const {
    if (slots_.empty()) return npos;
    const std::size_t slot = probe(mask, hash);
    return slots_[slot] == 0 ? npos : id_of(slots_[slot]);
  }

  /// Id of `mask`, inserting it when absent; `second` says whether it
  /// was inserted (the new id is then size() - 1).  `mask` must not view
  /// this table's own keys, which the insertion may reallocate.
  std::pair<std::size_t, bool> insert(std::span<const std::uint64_t> mask,
                                      std::uint64_t hash) {
    if (2 * (size() + 1) > slots_.size()) grow();
    const std::size_t slot = probe(mask, hash);
    if (slots_[slot] != 0) return {id_of(slots_[slot]), false};
    const std::size_t id = size();
    slots_[slot] = slot_word(hash, id);
    keys_.insert(keys_.end(), mask.begin(), mask.end());
    hashes_.push_back(hash);
    return {id, true};
  }

  /// The stored mask and hash of entry `id`.
  std::span<const std::uint64_t> key(std::size_t id) const {
    return {keys_.data() + id * words_, words_};
  }
  std::uint64_t hash(std::size_t id) const { return hashes_[id]; }

 private:
  // A slot holds the hash's high 32 bits (the tag) over id + 1; 0 marks
  // an empty slot.  The slot index comes from the hash's low bits.
  static std::uint64_t slot_word(std::uint64_t hash, std::size_t id) {
    return (hash & 0xffffffff00000000ULL) | (static_cast<std::uint64_t>(id) + 1);
  }
  static std::size_t id_of(std::uint64_t slot) {
    return static_cast<std::size_t>(slot & 0xffffffffULL) - 1;
  }

  /// Linear probe from the hash's home slot: the slot holding `mask`, or
  /// the empty slot where it would go.  Needs a non-empty slot array.
  std::size_t probe(std::span<const std::uint64_t> mask,
                    std::uint64_t hash) const {
    const std::size_t last = slots_.size() - 1;
    const std::uint64_t tag = hash >> 32;
    for (std::size_t i = static_cast<std::size_t>(hash) & last;;
         i = (i + 1) & last) {
      const std::uint64_t s = slots_[i];
      if (s == 0) return i;
      if ((s >> 32) == tag) {
        const auto stored = key(id_of(s));
        if (std::equal(stored.begin(), stored.end(), mask.begin())) return i;
      }
    }
  }

  /// Doubles the slot array (at least 16 slots) and re-slots every entry
  /// by its stored hash.  Keys and ids stay where they are.
  void grow() {
    const std::size_t capacity = std::max<std::size_t>(16, 2 * slots_.size());
    slots_.assign(capacity, 0);
    const std::size_t last = capacity - 1;
    for (std::size_t id = 0; id < size(); ++id) {
      std::size_t i = static_cast<std::size_t>(hashes_[id]) & last;
      while (slots_[i] != 0) i = (i + 1) & last;
      slots_[i] = slot_word(hashes_[id], id);
    }
  }

  std::size_t words_;
  std::vector<std::uint64_t> keys_;    ///< Entry id * words_ onward.
  std::vector<std::uint64_t> hashes_;  ///< Per entry id.
  std::vector<std::uint64_t> slots_;   ///< Power-of-two slot array.
};

}  // namespace rnt::core
