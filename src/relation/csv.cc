#include "relation/csv.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <ranges>
#include <string_view>

#include "common/status.h"

namespace sncube {
namespace {

[[noreturn]] void Reject(std::size_t line, std::size_t column,
                         const std::string& problem) {
  throw SncubeInputError("CSV line " + std::to_string(line) + ", column " +
                         std::to_string(column) + ": " + problem);
}

// The whole of `cell` as a T, or a rejection naming line and column.
template <typename T>
T ParseCell(std::string_view cell, std::size_t line, std::size_t column) {
  T value{};
  if (!ParseWhole(cell, value)) {
    Reject(line, column,
           "\"" + std::string(cell) + "\" is not an integer in [" +
               std::to_string(std::numeric_limits<T>::min()) + ", " +
               std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return value;
}

}  // namespace

void WriteCsv(std::ostream& os, const Relation& rel,
              const std::vector<std::string>& names,
              const std::string& measure_name) {
  SNCUBE_CHECK(static_cast<int>(names.size()) == rel.width());
  for (const auto& n : names) os << n << ',';
  os << measure_name << '\n';
  for (std::size_t row = 0; row < rel.size(); ++row) {
    for (Key k : rel.RowKeys(row)) os << k << ',';
    os << rel.measure(row) << '\n';
  }
}

Relation ReadCsv(std::istream& is) {
  std::vector<std::string> names;
  return ReadCsv(is, names);
}

Relation ReadCsv(std::istream& is, std::vector<std::string>& names) {
  std::string line;
  if (!std::getline(is, line)) Reject(1, 1, "missing header");
  std::string_view header(line);
  if (header.ends_with('\r')) header.remove_suffix(1);
  names.clear();
  for (std::size_t start = 0;;) {
    const std::size_t comma = header.find(',', start);
    names.emplace_back(header.substr(start, comma - start));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  names.pop_back();  // the measure column
  const std::size_t cells_per_row = names.size() + 1;
  Relation rel(static_cast<int>(cells_per_row) - 1);
  std::vector<Key> keys(cells_per_row - 1);
  std::vector<std::string_view> cells;
  for (std::size_t line_no = 2; std::getline(is, line); ++line_no) {
    std::string_view row(line);
    if (row.ends_with('\r')) row.remove_suffix(1);
    if (row.empty()) continue;
    cells.clear();
    for (const auto cell : std::views::split(row, ',')) {
      cells.emplace_back(cell.begin(), cell.end());
    }
    if (cells.size() != cells_per_row) {
      Reject(line_no, std::min(cells.size(), cells_per_row) + 1,
             std::to_string(cells.size()) + " cells, expected " +
                 std::to_string(cells_per_row));
    }
    for (std::size_t c = 0; c < keys.size(); ++c) {
      keys[c] = ParseCell<Key>(cells[c], line_no, c + 1);
    }
    rel.Append(keys, ParseCell<Measure>(cells.back(), line_no, cells_per_row));
  }
  return rel;
}

}  // namespace sncube
