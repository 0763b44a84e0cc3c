// Workload inputs. Every item the program under test sees is generated
// here from the run's seed; the top four bits of an item's value name its
// class, so a check can tell a planted difference from a base item or a
// writer's transient item.
#pragma once

#include <cstdint>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "core/symbol.hpp"

namespace perfbench {

using Item = ribltx::U64Symbol;

enum ItemClass : std::uint64_t {
  kClassBase = 0,    ///< the set both ends share
  kClassExtra = 1,   ///< planted: one side only, for one session
  kClassWriter = 2,  ///< replica-pull's open-loop writer
};

inline std::uint64_t item_value(const Item& x) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, x.data.data(), sizeof v);  // from_u64 is little-endian
  return v;
}

inline Item make_item(ItemClass cls, std::uint64_t random) noexcept {
  return Item::from_u64((static_cast<std::uint64_t>(cls) << 60) |
                        (random >> 4));
}

inline ItemClass item_class(const Item& x) noexcept {
  return static_cast<ItemClass>(item_value(x) >> 60);
}

struct ItemHash {
  std::size_t operator()(const Item& x) const noexcept {
    return ribltx::mix64(item_value(x));
  }
};

using ItemSet = std::unordered_set<Item, ItemHash>;

/// `n` distinct base-class items drawn from `seed`.
inline std::vector<Item> make_base_set(std::uint64_t seed, std::size_t n) {
  std::vector<Item> out;
  out.reserve(n);
  ItemSet seen;
  seen.reserve(n);
  for (std::uint64_t i = 0; out.size() < n; ++i) {
    const Item x = make_item(kClassBase, ribltx::derive_seed(seed, i));
    if (seen.insert(x).second) out.push_back(x);
  }
  return out;
}

/// Set-ups per run; the run reports their median as setup_s.
inline constexpr int kSetupRepetitions = 7;

/// The seed set-up `rep` of a run builds its inputs from. The last set-up,
/// the one measured, uses the run's seed; the earlier ones draw their own,
/// so the median set-up time spans several inputs, not one.
inline std::uint64_t setup_seed(std::uint64_t seed, int rep) {
  return rep + 1 == kSetupRepetitions
             ? seed
             : ribltx::derive_seed(seed, 1000 + static_cast<std::uint64_t>(rep));
}

}  // namespace perfbench
