// Stat structs declared once.
//
// A stat struct lists its fields as one X-macro, one row per field:
//
//   X(type, field, "metric", "unit", "help")
//
// `metric` is the exported name after the binder's prefix: a name ending in
// `_total` binds a counter, any other a gauge. `unit` is "" or the base unit
// ("bytes", "ns"); `help` is the one-line description. PA_STAT_FIELDS expands
// the list into the struct's members and into for_each_stat(), which the one
// generic binder (obs::bind_stats in obs/bridge.h) walks — so a stat's name
// and help sit next to its declaration and nowhere else.
#pragma once

#define PA_STAT_MEMBER_(type, field, metric, unit, help) type field{};
#define PA_STAT_VISIT_(type, field, metric, unit, help) \
  f(field, metric, unit, help);

/// Inside a struct body: one member per row of LIST, plus
/// `for_each_stat(f)`, which calls f(field, metric, unit, help) per row.
#define PA_STAT_FIELDS(LIST)         \
  LIST(PA_STAT_MEMBER_)              \
  template <class F>                 \
  void for_each_stat(F&& f) const {  \
    LIST(PA_STAT_VISIT_)             \
  }
