#include "relation/schema.h"

#include <algorithm>
#include <numeric>

#include "common/status.h"

namespace sncube {

Schema::Schema(std::vector<std::uint32_t> cardinalities,
               std::vector<std::string> names) {
  SNCUBE_CHECK(!cardinalities.empty());
  for (auto c : cardinalities) SNCUBE_CHECK_MSG(c >= 1, "zero cardinality");
  const int d = static_cast<int>(cardinalities.size());
  if (names.empty()) {
    names.reserve(d);
    for (int i = 0; i < d; ++i) names.push_back("D" + std::to_string(i));
  }
  SNCUBE_CHECK(static_cast<int>(names.size()) == d);

  // Stable-sort dimension indices by decreasing cardinality, then apply the
  // permutation to both vectors.
  perm_.resize(d);
  std::iota(perm_.begin(), perm_.end(), 0);
  std::stable_sort(perm_.begin(), perm_.end(), [&](int a, int b) {
    return cardinalities[a] > cardinalities[b];
  });
  cards_.reserve(d);
  names_.reserve(d);
  for (int i : perm_) {
    cards_.push_back(cardinalities[i]);
    names_.push_back(std::move(names[i]));
  }
}

}  // namespace sncube
