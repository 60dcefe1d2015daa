// Wire-taint fixture for the serde archives in src/e2sm/: a list count read
// off the wire is tainted until a relational guard against the payload left
// clears it. Golden findings (expected.txt): the unguarded archive's
// reserve() argument and loop bound. The guarded archive must stay silent.
#pragma once

#include <cstddef>
#include <vector>

namespace flexric {

struct CountReader {
  std::size_t length();
  std::size_t bits_remaining();
};

struct UnguardedDec {
  template <typename T>
  void vec(std::vector<T>& v) {
    auto n = r_.length();
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.emplace_back();
  }
  CountReader r_;
};

struct GuardedDec {
  template <typename T>
  void vec(std::vector<T>& v) {
    auto n = r_.length();
    if (n > r_.bits_remaining() / 8) return;  // count vs payload left
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.emplace_back();
  }
  CountReader r_;
};

}  // namespace flexric
