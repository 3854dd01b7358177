// Binding stat structs into a MetricsRegistry as named, typed, read-through
// metrics.
//
// Every bound stat struct declares its fields once, as an X-macro list
// (util/stat_fields.h) whose rows carry each field's metric name, unit and
// help. One generic binder walks that list; hot-path call sites stay plain
// field bumps. Collection-time consumers — report(), the Prometheus
// exporter, the catalog test — see every number under one naming scheme:
//
//   pa_engine_*    EngineStats incl. the drop-reason taxonomy
//   pa_router_*    Router::Stats incl. the drop-reason taxonomy
//   sim_gc_*       GcModel::Stats
//   pa_pool_*      MessagePool::Stats
//   buf_*          BufStats (process-global zero-copy accounting)
//   sim_network_*  SimNetwork::Stats
//   pa_stack_*     per-layer counters (Layer::bind_stats)
//   group_*        GroupView::Stats + McastGroup::Stats (McastGroup::bind_stats)
//   health_*       HealthPlane::Stats (HealthPlane::bind_stats)
//   resil_*        OverloadGovernor::Stats (OverloadGovernor::bind_stats)
//
// Lifetime: bindings capture a reference to the bound struct — the struct
// must outlive the registry. report() builds throwaway registries around
// borrowed structs, renders, and discards them, which is always safe.
//
// Binding two objects of the same type into one registry requires distinct
// prefixes: a name binds once, and a second binding under it throws.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "obs/metrics.h"
#include "pa/drop_reason.h"

namespace pa {
class Stack;
}

namespace pa::obs {

/// Read one stat field: a plain integer, or one of BufStats' counters,
/// which keep an atomic type only for wallbench's .load() reads
/// (buf/chunk.h).
template <class T>
double stat_value(const T& field) {
  if constexpr (requires { field.load(); }) {
    return static_cast<double>(field.load());
  } else {
    return static_cast<double>(field);
  }
}

/// Register one read-through metric: a counter when `name` ends in
/// `_total`, a gauge otherwise.
void bind_stat(MetricsRegistry& reg, const std::string& name,
               const std::string& help, const std::string& unit,
               std::function<double()> read);

/// One `<prefix>_drop_<reason>_total` counter per DropReason.
void bind_drops(MetricsRegistry& reg, const std::string& prefix,
                const DropCounters& d);

/// Bind every field of a stat struct declared with PA_STAT_FIELDS as
/// `<prefix>_<metric>`, plus its drop taxonomy if it has one.
template <class S>
void bind_stats(MetricsRegistry& reg, const S& s,
                const std::string& prefix = S::kMetricPrefix) {
  s.for_each_stat([&](const auto& field, const char* metric,
                      const char* unit, const char* help) {
    bind_stat(reg, prefix + "_" + metric, help, unit,
              [&field] { return stat_value(field); });
  });
  if constexpr (requires { s.drops; }) bind_drops(reg, prefix, s.drops);
}

/// Every layer's counters: each layer binds itself (Layer::bind_stats)
/// under `<prefix>_<name>`; repeats of one name get a numeric suffix
/// (window, window2…).
void bind_stack_stats(MetricsRegistry& reg, const Stack& s,
                      const std::string& prefix = "pa_stack");

/// Turn a human label ("stale cookie epoch") into a metric-name segment
/// ("stale_cookie_epoch").
std::string metric_slug(const std::string& label);

}  // namespace pa::obs
