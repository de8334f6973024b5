// CSV import/export so examples can exchange data with relational tooling —
// the paper's motivation for ROLAP is integration with relational databases,
// and a view written as CSV loads straight into one.
#pragma once

#include <charconv>
#include <iosfwd>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "relation/relation.h"

namespace sncube {

// Writes `rel` as CSV with a header row: the given column names plus the
// measure column name (default "measure"). names.size() must equal width.
void WriteCsv(std::ostream& os, const Relation& rel,
              const std::vector<std::string>& names,
              const std::string& measure_name = "measure");

// Reads CSV produced by WriteCsv (header skipped, last column = measure).
// Returns a relation whose width is the header's column count minus one.
// Each non-empty row must hold exactly that many cells, each one whole
// decimal integer: keys in [0, 2^32), the measure an int64 ('\r' line ends
// are fine). Anything else throws SncubeInputError naming line and column.
Relation ReadCsv(std::istream& is);
// The same, and sets `names` to the header's key column names, in column
// order (the measure column's name is not among them).
Relation ReadCsv(std::istream& is, std::vector<std::string>& names);

// Parses the whole of `text` as an integer T in `base` into `value`:
// from_chars takes no sign on unsigned types and no blanks, and reports
// values outside T's range. False when `text` is anything but one such
// number.
template <typename T>
bool ParseWhole(std::string_view text, T& value, int base = 10) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
  return ec == std::errc() && ptr == end;
}

}  // namespace sncube
