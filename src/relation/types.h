// Fundamental value types of the ROLAP layer.
//
// Dimension attributes are dense 32-bit codes (a real deployment would map
// dictionary-encoded dimension values to these codes; the paper's synthetic
// workloads generate codes directly). The measure is a 64-bit integer and
// the cube's one aggregate is SUM over it (DESIGN.md §5).
#pragma once

#include <cstdint>

namespace sncube {

using Key = std::uint32_t;      // one dimension attribute value
using Measure = std::int64_t;   // the aggregated fact measure

// Throws SncubeInputError naming both operands; out of line so the checked
// add below stays a single flag test in the scan loops.
[[noreturn]] void ThrowSumOverflow(Measure a, Measure b);

// The cube's aggregate: SUM, the one every stored view holds (COUNT is SUM
// over a measure column of all-ones, which is how the data generators encode
// it). A partial sum that leaves int64 is a typed input error, never a
// wrapped value.
inline Measure CombineMeasure(Measure a, Measure b) {
  Measure sum;
  if (__builtin_add_overflow(a, b, &sum)) [[unlikely]] {
    ThrowSumOverflow(a, b);
  }
  return sum;
}

}  // namespace sncube
