#include "obs/bridge.h"

#include <cctype>
#include <map>
#include <utility>

#include "horus/stack.h"

namespace pa::obs {

void bind_stat(MetricsRegistry& reg, const std::string& name,
               const std::string& help, const std::string& unit,
               std::function<double()> read) {
  if (name.ends_with("_total")) {
    reg.counter_fn(name, help, unit, std::move(read));
  } else {
    reg.gauge_fn(name, help, unit, std::move(read));
  }
}

void bind_drops(MetricsRegistry& reg, const std::string& prefix,
                const DropCounters& d) {
  for (std::size_t i = 0; i < kNumDropReasons; ++i) {
    const auto r = static_cast<DropReason>(i);
    const std::uint64_t& c = d.counts[i];
    bind_stat(reg,
              prefix + "_drop_" + metric_slug(drop_reason_name(r)) + "_total",
              std::string("frames dropped: ") + drop_reason_name(r), "",
              [&c] { return stat_value(c); });
  }
}

void bind_stack_stats(MetricsRegistry& reg, const Stack& s,
                      const std::string& prefix) {
  std::map<std::string, std::size_t> seen;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const Layer& l = s.layer(i);
    const std::string name = metric_slug(std::string(l.name()));
    std::string p = prefix + "_" + name;
    if (const std::size_t n = ++seen[name]; n > 1) p += std::to_string(n);
    l.bind_stats(reg, p);
  }
}

std::string metric_slug(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char ch : label) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      out.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(ch))));
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

}  // namespace pa::obs
