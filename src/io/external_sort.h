// External-memory sort (Vitter [22]): run formation + k-way merge.
//
// This is the "external memory sort" local-disk primitive of the paper's
// machine model (Section 2). The sorter stages data through a RunStore (RAM
// or real temp files), charges every block transfer to the processor's
// DiskModel, and achieves the textbook O((n/B)·log_{m/B}(n/B)) transfer
// bound: one pass to form memory-sized sorted runs, then (m/B)-way merge
// passes until one run remains.
#pragma once

#include <cstddef>
#include <span>

#include "io/disk.h"
#include "io/run_store.h"
#include "relation/relation.h"

namespace sncube {

struct ExternalSortStats {
  std::size_t runs_formed = 0;
  int merge_passes = 0;
  bool in_memory = false;  // true when the input fit in working memory
};

// Sorts `input` by column order `cols` (stable). Block transfers are charged
// to `disk`. When `store` is null a MemoryRunStore is used. `stats`, when
// non-null, receives what the sorter did.
Relation ExternalSort(const Relation& input, std::span<const int> cols,
                      DiskModel& disk, RunStore* store = nullptr,
                      ExternalSortStats* stats = nullptr);

}  // namespace sncube
