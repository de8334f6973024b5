#include "data/generator.h"

#include <algorithm>

#include "common/status.h"

namespace sncube {
namespace {

// (cardinality, alpha) pairs in the schema's decreasing-cardinality order,
// so the generated columns line up with Schema's sort.
std::vector<std::pair<std::uint32_t, double>> SortedDims(
    const DatasetSpec& spec) {
  SNCUBE_CHECK(spec.alphas.empty() ||
               spec.alphas.size() == spec.cardinalities.size());
  const Schema schema = spec.MakeSchema();
  std::vector<std::pair<std::uint32_t, double>> dims;
  for (int i : schema.permutation()) {
    dims.emplace_back(spec.cardinalities[i],
                      spec.alphas.empty() ? 0.0 : spec.alphas[i]);
  }
  return dims;
}

}  // namespace

DatasetSpec DatasetSpec::PaperDefault(std::int64_t rows) {
  DatasetSpec spec;
  spec.rows = rows;
  spec.cardinalities = {256, 128, 64, 32, 16, 8, 6, 6};
  return spec;
}

Schema DatasetSpec::MakeSchema() const {
  return Schema(cardinalities);
}

Relation GenerateSlice(const DatasetSpec& spec, int p, int rank) {
  SNCUBE_CHECK(p >= 1 && rank >= 0 && rank < p);
  const auto dims = SortedDims(spec);
  const int d = static_cast<int>(dims.size());

  std::vector<ZipfSampler> samplers;
  samplers.reserve(dims.size());
  for (const auto& [card, alpha] : dims) samplers.emplace_back(card, alpha);

  // Even row split: first (rows % p) ranks get one extra row.
  const std::int64_t base = spec.rows / p;
  const std::int64_t extra = spec.rows % p;
  const std::int64_t begin = rank * base + std::min<std::int64_t>(rank, extra);
  const std::int64_t count = base + (rank < extra ? 1 : 0);

  Relation rel(d);
  rel.Reserve(static_cast<std::size_t>(count));
  std::vector<Key> keys(static_cast<std::size_t>(d));
  for (std::int64_t r = begin; r < begin + count; ++r) {
    // Per-row generator keyed on (seed, row) so any slice of any p-way
    // split reproduces exactly the same rows.
    Rng rng(spec.seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(r + 1)));
    for (int c = 0; c < d; ++c) {
      keys[static_cast<std::size_t>(c)] = samplers[static_cast<std::size_t>(c)].Sample(rng);
    }
    rel.Append(keys, 1);
  }
  return rel;
}

Relation GenerateDataset(const DatasetSpec& spec) {
  return GenerateSlice(spec, 1, 0);
}

}  // namespace sncube
