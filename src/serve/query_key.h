// Canonical serialization of a Query — the cache key of the serving layer.
//
// Two queries that request the same answer must map to the same byte string,
// so the serialization normalizes everything the engine's semantics ignore:
// filters are sorted by (dim, value), and duplicate filters collapse. The
// key covers every field that can change the answer: group-by mask, filter
// set, top_k, and the from_view pin (which changes what a shard-local answer
// covers). It is a compact binary string (not human-readable) sized for
// hash-map keys, not for transport.
#pragma once

#include <string>

#include "query/engine.h"

namespace sncube {

// Canonical byte-string key for `q`. Equal answers ⇒ equal keys for any two
// queries that differ only in filter order or repeated filters.
std::string CanonicalQueryKey(const Query& q);

// Stable 64-bit hash of a canonical key (FNV-1a); used to pick cache shards
// so that shard assignment is identical across runs and platforms.
std::uint64_t QueryKeyHash(const std::string& key);

}  // namespace sncube
