#include "serve/query_key.h"

#include <algorithm>
#include <cstdint>

namespace sncube {

namespace {

void AppendU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

}  // namespace

std::string CanonicalQueryKey(const Query& q) {
  // Normalize the filter list: order is irrelevant to the answer, and a
  // repeated (dim, value) pair is a no-op.
  std::vector<DimFilter> filters = q.filters;
  std::sort(filters.begin(), filters.end(),
            [](const DimFilter& a, const DimFilter& b) {
              if (a.dim != b.dim) return a.dim < b.dim;
              return a.value < b.value;
            });
  filters.erase(std::unique(filters.begin(), filters.end(),
                            [](const DimFilter& a, const DimFilter& b) {
                              return a.dim == b.dim && a.value == b.value;
                            }),
                filters.end());

  std::string key;
  key.reserve(4 * (5 + 2 * filters.size()));
  AppendU32(key, q.group_by.mask());
  AppendU32(key, static_cast<std::uint32_t>(q.top_k));
  // from_view changes which rows a SHARD-LOCAL answer covers (a slice of
  // view V and a slice of view W aggregate different row subsets), so it is
  // part of the key. The presence flag keeps "pinned to the empty view"
  // (mask 0) distinct from "not pinned".
  AppendU32(key, q.from_view.has_value() ? 1u : 0u);
  AppendU32(key, q.from_view.has_value() ? q.from_view->mask() : 0u);
  AppendU32(key, static_cast<std::uint32_t>(filters.size()));
  for (const auto& f : filters) {
    AppendU32(key, static_cast<std::uint32_t>(f.dim));
    AppendU32(key, f.value);
  }
  return key;
}

std::uint64_t QueryKeyHash(const std::string& key) {
  // FNV-1a: stable across platforms, unlike std::hash<std::string>.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace sncube
