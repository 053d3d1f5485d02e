// Software prefetch, the one wrapper around the compiler builtin.
//
// A fan-out walk and the streaming plane's read-back know the tables they
// will touch several steps ahead, and each of those lookups is a cold miss
// (DESIGN.md §4 "Prefetch pipeline"). Issuing a prefetch a stage early lets
// the misses overlap instead of running in series.
#pragma once

namespace elmo::util {

// Hints the CPU to load the cache line holding `address` for reading and to
// keep it in every cache level. A hint only: it never faults (any address,
// null included, is allowed), changes no result, and compiles to nothing
// where the builtin is missing.
inline void prefetch(const void* address) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/3);
#else
  (void)address;
#endif
}

}  // namespace elmo::util
