// Turning a traced phase into per-layer rows: span-tree self times, and
// counter deltas from obs::Metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/report.hpp"

namespace perfbench {

struct SpanTime {
  double incl_s = 0.0;  ///< summed span durations
  double self_s = 0.0;  ///< minus the time child spans cover
  std::uint64_t count = 0;
};

/// Inclusive and self time per "category/name" label. A span's children
/// are the spans recorded on the same thread that start inside it; its
/// self time is its duration minus the union of its children.
std::map<std::string, SpanTime> span_tree_times(
    const std::vector<dct::obs::ReportEvent>& events);

/// Records every label's inclusive and self time per operation per
/// rank into r.info ("incl_ms.<label>", "self_ms.<label>") for the
/// traced-run report.
void add_span_info(const std::map<std::string, SpanTime>& times,
                   double ops, double ranks, Result& r);

/// Inclusive ms of one label per operation per rank; negative when the
/// label never occurred (the layer was not exercised).
double label_ms(const std::map<std::string, SpanTime>& times,
                const std::string& label, double ops, double ranks);

/// Current value of every obs counter, by name.
std::map<std::string, double> counter_values();

/// after[name] - before[name] (0 for names missing from either).
double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name);

}  // namespace perfbench
