// Reference oracle for codec::bwtdetail::suffix_array: prefix doubling.
//
// Each round sorts all suffixes by the rank pair (rank of the first k
// bytes, rank of the next k) with std::sort and re-ranks, doubling k until
// every rank is distinct — O(n log^2 n) and obviously correct.  The codec
// builds the same array by SA-IS induced sorting in O(n); all suffixes
// are distinct, so the array is unique and the two must agree entry for
// entry.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "codec/codec.hpp"

namespace avf::codec::testing {

/// Suffix array of `data` plus an implicit smallest sentinel, by prefix
/// doubling: data.size() + 1 entries, the sentinel suffix first.
inline std::vector<std::uint32_t> suffix_array_prefix_doubling(
    BytesView data) {
  // Ranks use -1 for the sentinel suffix and -2 for "past the end".
  std::size_t n = data.size() + 1;
  std::vector<std::uint32_t> sa(n);
  std::vector<std::int32_t> rank(n), tmp(n);
  std::iota(sa.begin(), sa.end(), 0u);
  for (std::size_t i = 0; i + 1 < n; ++i) rank[i] = data[i];
  rank[n - 1] = -1;

  for (std::size_t k = 1;; k *= 2) {
    auto key = [&](std::uint32_t i) {
      std::int32_t second = (i + k < n) ? rank[i + k] : -2;
      return std::pair<std::int32_t, std::int32_t>(rank[i], second);
    };
    std::sort(sa.begin(), sa.end(), [&](std::uint32_t a, std::uint32_t b) {
      return key(a) < key(b);
    });
    tmp[sa[0]] = 0;
    for (std::size_t i = 1; i < n; ++i) {
      tmp[sa[i]] = tmp[sa[i - 1]] + (key(sa[i - 1]) < key(sa[i]) ? 1 : 0);
    }
    rank = tmp;
    if (rank[sa[n - 1]] == static_cast<std::int32_t>(n) - 1) break;
  }
  return sa;
}

}  // namespace avf::codec::testing
