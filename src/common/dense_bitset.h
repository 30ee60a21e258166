// DenseBitset: a growable set of small non-negative integers (host ids,
// probe positions) kept as bits.
//
// It iterates in ascending order, exactly like the std::set it replaces, so
// code that sends one message per member sends them in the same order.
// Clear() keeps the words, so a set that is reused from one transaction to
// the next stops allocating once it has held its largest member.

#ifndef WVOTE_SRC_COMMON_DENSE_BITSET_H_
#define WVOTE_SRC_COMMON_DENSE_BITSET_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/common/check.h"

namespace wvote {

template <typename T>
class DenseBitset {
 public:
  void Insert(T value) {
    const size_t i = Index(value);
    if (i / 64 >= words_.size()) {
      words_.resize(i / 64 + 1, 0);
    }
    words_[i / 64] |= uint64_t{1} << (i % 64);
  }

  bool Contains(T value) const {
    const size_t i = Index(value);
    return i / 64 < words_.size() && (words_[i / 64] >> (i % 64) & 1) != 0;
  }

  void Clear() { std::fill(words_.begin(), words_.end(), 0); }

  // Calls `fn(member)` for every member, in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<T>(w * 64 + static_cast<size_t>(std::countr_zero(bits))));
      }
    }
  }

 private:
  static size_t Index(T value) {
    if constexpr (std::is_signed_v<T>) {
      WVOTE_CHECK_MSG(value >= 0, "DenseBitset holds non-negative values only");
    }
    return static_cast<size_t>(value);
  }

  std::vector<uint64_t> words_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_COMMON_DENSE_BITSET_H_
