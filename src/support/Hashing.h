//===- support/Hashing.h - Hash combinators -------------------------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small hash-combining utilities used by the hash-consed term arena and the
/// uninterpreted-function sample tables.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SUPPORT_HASHING_H
#define HOTG_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <functional>

namespace hotg {

/// Mixes \p Value into \p Seed (boost::hash_combine-style, 64-bit constants).
inline void hashCombine(size_t &Seed, size_t Value) {
  Seed ^= Value + 0x9e3779b97f4a7c15ULL + (Seed << 12) + (Seed >> 4);
}

/// Hashes a range of integer-convertible values into one size_t.
template <typename Range> size_t hashRange(const Range &Values) {
  size_t Seed = 0xcbf29ce484222325ULL;
  for (const auto &V : Values)
    hashCombine(Seed, std::hash<std::decay_t<decltype(V)>>{}(V));
  return Seed;
}

} // namespace hotg

#endif // HOTG_SUPPORT_HASHING_H
