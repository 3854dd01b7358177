// Bridges: bind the repo's pre-existing stat structs into a
// MetricsRegistry as named, typed, read-through metrics.
//
// EngineStats, Router::Stats, the pool/GC/network structs and the layers'
// counters predate the registry; their hot-path call sites stay exactly as
// they are (relaxed StatCounter bumps, plain uint64 fields mutated by the
// owner thread). A bridge registers one read-through metric per field, so
// collection-time consumers — report(), the Prometheus exporter, the
// catalog test — see every number in the system under one naming scheme:
//
//   pa_engine_*    EngineStats incl. the drop-reason taxonomy
//   pa_router_*    Router::Stats incl. the drop-reason taxonomy
//   sim_gc_*       GcModel::Stats
//   pa_pool_*      MessagePool::Stats
//   buf_*          BufStats (process-global zero-copy accounting)
//   sim_network_*  SimNetwork::Stats
//   pa_stack_*     per-layer window/bottom/NAK counters
//
// Lifetime: bridges capture a pointer to the bound struct — the struct must
// outlive the registry. report() builds throwaway registries around borrowed
// structs, renders, and discards them, which is always safe.
//
// Binding two objects of the same type into one registry requires distinct
// prefixes (names are deduplicated; the first registration wins).
#pragma once

#include <string>

#include "buf/pool.h"
#include "horus/engine.h"
#include "horus/stack.h"
#include "obs/metrics.h"
#include "pa/router.h"
#include "sim/gc_model.h"
#include "sim/network.h"

namespace pa::obs {

void bind_engine_stats(MetricsRegistry& reg, const EngineStats& s,
                       const std::string& prefix = "pa_engine");
void bind_router_stats(MetricsRegistry& reg, const Router::Stats& s,
                       const std::string& prefix = "pa_router");
void bind_gc_stats(MetricsRegistry& reg, const GcModel::Stats& s,
                   const std::string& prefix = "sim_gc");
void bind_pool_stats(MetricsRegistry& reg, const MessagePool::Stats& s,
                     const std::string& prefix = "pa_pool");
/// The process-global zero-copy accounting (buf/chunk.h BufStats): ingest /
/// data-plane / flatten copy counters plus chunk allocation traffic.
void bind_buf_stats(MetricsRegistry& reg, const BufStats& s = buf_stats(),
                    const std::string& prefix = "buf");
void bind_network_stats(MetricsRegistry& reg, const SimNetwork::Stats& s,
                        const std::string& prefix = "sim_network");
/// Window / bottom / NAK layer counters for every layer in the stack.
/// Multiple instances of one kind get a numeric suffix (window, window2…).
void bind_stack_stats(MetricsRegistry& reg, const Stack& s,
                      const std::string& prefix = "pa_stack");

/// Turn a human label ("stale cookie epoch") into a metric-name segment
/// ("stale_cookie_epoch").
std::string metric_slug(const std::string& label);

}  // namespace pa::obs
