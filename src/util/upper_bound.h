// Branch-free upper bound over a sorted array of doubles.
//
// upper_bound_index(first, n, value) is the index std::upper_bound(first,
// first + n, value) returns: the first position whose element compares
// greater than `value`, n when none does, with the same comparison
// (value < element), so equal runs, NaN and signed zeros land where they
// land there. Each halving step is a conditional add the compiler emits as
// a conditional move, so a search costs its log2(n) dependent loads and no
// mispredicted branch whatever the value; std::upper_bound's
// data-dependent branch mispredicts about half its steps on a random draw.
#pragma once

#include <cstddef>

namespace sorn {

inline std::size_t upper_bound_index(const double* first, std::size_t n,
                                     double value) {
  if (n == 0) return 0;
  // Every element before `base` compares not greater than `value`, and
  // the answer lies in [base, base + n].
  const double* base = first;
  while (n > 1) {
    const std::size_t half = n / 2;
    base += value < base[half] ? 0 : half;
    n -= half;
  }
  return static_cast<std::size_t>(base - first) + (value < *base ? 0 : 1);
}

}  // namespace sorn
