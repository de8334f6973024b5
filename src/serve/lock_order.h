// The serving tier's global lock hierarchy, as a chain of layer anchors.
//
// The serve stack has four lock layers. Request flow touches them strictly
// top-down, so the only acquisition order that can never deadlock is:
//
//   router policy      RetryBudget::mu_, LoadShedder::mu_   (route decision)
//     ↓ health         ShardHealth::mu_                     (breaker check)
//       ↓ shard-set    ShardSet::mu_                        (epoch resolve)
//         ↓ server     CubeServer::mu_                      (queue admission)
//           ↓ cache    ResultCache::Shard::mu               (answer lookup)
//
// Each `k*Layer` anchor below is a Mutex that exists only to carry
// SNCUBE_ACQUIRED_AFTER edges — nothing ever locks one. Real mutexes are
// annotated ACQUIRED_AFTER(their own layer anchor) and ACQUIRED_BEFORE(the
// next layer's anchor), which places every real lock between two anchors and
// makes the whole cross-class ordering transitive without any class having
// to name another class's private member.
//
// Enforcement is doubled up:
//   * clang -Wthread-safety-beta (CI lint build, and the
//     tests/negative_compile lock_order fixtures) rejects an inverted
//     acquisition at compile time;
//   * tools/lint/sncheck.py parses these declarations textually and
//     fails its lock-order rule on any observed acquired-while-held edge
//     that contradicts the declared chain — including on gcc-only hosts
//     where the clang attributes expand to nothing.
//
// Today no serve code path nests two of these locks at all (the analyzer's
// global graph has zero cross-layer edges); the hierarchy pins that freedom
// down so a future nested acquisition must either follow the documented
// order or fail two machines.
#pragma once

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace sncube {

inline Mutex kRouterLayer;
inline Mutex kHealthLayer SNCUBE_ACQUIRED_AFTER(kRouterLayer);
inline Mutex kShardSetLayer SNCUBE_ACQUIRED_AFTER(kHealthLayer);
inline Mutex kServerLayer SNCUBE_ACQUIRED_AFTER(kShardSetLayer);
inline Mutex kCacheLayer SNCUBE_ACQUIRED_AFTER(kServerLayer);

}  // namespace sncube
