// Shared test helpers: deterministic generation of set pairs (A, B) with a
// prescribed overlap and difference split, a seeded property-test runner,
// and CHECK/REQUIRE spellings of the assertion macros.
//
// The assertion macros themselves come from <gtest/gtest.h>, which resolves
// to the in-tree framework (tests/framework/gtest/gtest.h) by default or to
// real GoogleTest under -DRIBLT_USE_SYSTEM_GTEST=ON.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "core/symbol.hpp"
#include "net/uring.hpp"

// Terse aliases for tests written in CHECK/REQUIRE style: CHECK* failures
// are recorded and the test continues; REQUIRE* failures abort the
// enclosing function.
#define CHECK(cond) EXPECT_TRUE(cond)
#define CHECK_EQ(a, b) EXPECT_EQ(a, b)
#define CHECK_NE(a, b) EXPECT_NE(a, b)
#define REQUIRE(cond) ASSERT_TRUE(cond)
#define REQUIRE_EQ(a, b) ASSERT_EQ(a, b)
#define REQUIRE_NE(a, b) ASSERT_NE(a, b)

namespace ribltx::testing {

/// Seeded property-test runner: evaluates `property` on `cases` independent
/// RNG streams derived from `base_seed`. A property returns true when it
/// holds. On falsification the failure report carries the case index and
/// the exact seed, so the counterexample replays as
/// `SplitMix64 rng(seed)` in a debugger.
template <typename Fn>
void for_all(const char* name, std::size_t cases, std::uint64_t base_seed,
             Fn&& property) {
  for (std::size_t i = 0; i < cases; ++i) {
    const std::uint64_t seed = derive_seed(base_seed, i);
    SplitMix64 rng(seed);
    if (!property(rng)) {
      ADD_FAILURE() << "property \"" << name << "\" falsified at case " << i
                    << " of " << cases << " (replay: SplitMix64 rng(" << seed
                    << "ull))";
      return;  // first counterexample is enough
    }
  }
}

/// A reconciliation workload: shared items plus items exclusive to each side.
template <Symbol T>
struct SetPair {
  std::vector<T> a;             ///< Alice's full set (shared + only_a)
  std::vector<T> b;             ///< Bob's full set (shared + only_b)
  std::vector<T> only_a;        ///< A \ B
  std::vector<T> only_b;        ///< B \ A
};

/// Builds |shared| common items, |only_a| items exclusive to Alice and
/// |only_b| exclusive to Bob, all distinct, deterministically from `seed`.
template <Symbol T>
[[nodiscard]] SetPair<T> make_set_pair(std::size_t shared, std::size_t only_a,
                                       std::size_t only_b,
                                       std::uint64_t seed) {
  SetPair<T> out;
  out.a.reserve(shared + only_a);
  out.b.reserve(shared + only_b);
  out.only_a.reserve(only_a);
  out.only_b.reserve(only_b);

  // Unique u64 tags -> full-entropy symbols. Tag uniqueness guarantees
  // symbol distinctness (ByteSymbol::random is injective-in-practice per
  // seed; we key each symbol off a distinct counter).
  std::uint64_t counter = 0;
  const auto fresh = [&]() {
    return T::random(derive_seed(seed, counter++));
  };

  for (std::size_t i = 0; i < shared; ++i) {
    const T s = fresh();
    out.a.push_back(s);
    out.b.push_back(s);
  }
  for (std::size_t i = 0; i < only_a; ++i) {
    const T s = fresh();
    out.a.push_back(s);
    out.only_a.push_back(s);
  }
  for (std::size_t i = 0; i < only_b; ++i) {
    const T s = fresh();
    out.b.push_back(s);
    out.only_b.push_back(s);
  }
  return out;
}

/// Collision-resistant fingerprint of a symbol for set comparisons; the
/// single source of the key so key_set() and per-test fingerprints agree.
template <Symbol T>
[[nodiscard]] std::uint64_t symbol_key(const T& s) {
  return siphash24(SipKey{0x1234, 0x5678}, s.bytes());
}

/// Hash-set view of symbols for O(1) membership checks in assertions.
template <Symbol T>
[[nodiscard]] std::unordered_set<std::uint64_t> key_set(
    const std::vector<T>& items) {
  std::unordered_set<std::uint64_t> out;
  out.reserve(items.size());
  for (const T& s : items) {
    out.insert(symbol_key(s));
  }
  return out;
}

/// Gate for tests of the io_uring server: true when it can run. Such a
/// test self-skips (early return, not failure) when the build has io_uring
/// but the kernel or seccomp profile rules the ring out; the in-tree
/// framework has no skip verdict, so this prints the reason and the test
/// passes vacuously. In an epoll-only build (RIBLT_ENABLE_URING=OFF or no
/// UAPI header) UringServer aliases SocketServer, so the test runs as an
/// extra epoll pass instead of skipping.
inline bool uring_or_skip(const char* test) {
#if defined(RIBLT_HAS_IO_URING)
  if (net::uring_available()) return true;
  std::printf("  [skip] %s: io_uring unavailable (%s)\n", test,
              net::uring_caps().reason);
  return false;
#else
  (void)test;
  return true;
#endif
}

}  // namespace ribltx::testing
