// Bridges the serving layer's counters into the unified MetricsRegistry.
//
// CubeServer keeps its hot-path metrics in purpose-built lock-free
// structures (atomic counters, an obs::Histogram); this adapter copies one
// point-in-time snapshot of them into a registry under the DESIGN.md §10
// names (serve.accepted, serve.cache.hits, serve.latency_us, ...), so a
// serve run reports through the same sink as a build run. Counters in the
// registry accumulate — absorb once per server lifetime (at shutdown), not
// periodically, unless accumulation is what you want.
// The resilient router reports the same way under serve.router.* —
// per-outcome counts (ok/failed/timed_out/shed/unavailable), retry/hedge/
// budget activity, per-shard breaker transitions, and split ok/error
// latency histograms — so one registry dump shows both what the shard
// servers did and what the failure policy above them decided.
#pragma once

#include "obs/metrics_registry.h"
#include "serve/router.h"
#include "serve/server.h"

namespace sncube {

void AbsorbServerStats(obs::MetricsRegistry& registry,
                       const CubeServer& server);

void AbsorbRouterStats(obs::MetricsRegistry& registry, const Router& router);

}  // namespace sncube
