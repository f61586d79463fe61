#include "trace_rows.hpp"

#include <algorithm>
#include <utility>

#include "obs/counters.hpp"

namespace perfbench {

std::map<std::string, SpanTime> span_tree_times(
    const std::vector<dct::obs::ReportEvent>& events) {
  using dct::obs::ReportEvent;
  std::map<std::pair<int, int>, std::vector<const ReportEvent*>> by_thread;
  for (const auto& e : events) {
    if (e.kind == ReportEvent::Kind::kSpan) {
      by_thread[{e.rank, e.tid}].push_back(&e);
    }
  }
  std::map<std::string, SpanTime> out;
  for (auto& [key, spans] : by_thread) {
    // Parents sort before the children they enclose.
    std::sort(spans.begin(), spans.end(),
              [](const ReportEvent* a, const ReportEvent* b) {
                return a->ts_us != b->ts_us ? a->ts_us < b->ts_us
                                            : a->dur_us > b->dur_us;
              });
    struct Open {
      const ReportEvent* span;
      double end_us;
      double child_us;  ///< covered by direct children
    };
    std::vector<Open> stack;
    const auto close = [&out](const Open& o) {
      SpanTime& t = out[o.span->cat + "/" + o.span->name];
      t.incl_s += o.span->dur_us * 1e-6;
      t.self_s += std::max(0.0, o.span->dur_us - o.child_us) * 1e-6;
      ++t.count;
    };
    for (const ReportEvent* s : spans) {
      while (!stack.empty() && stack.back().end_us <= s->ts_us) {
        close(stack.back());
        stack.pop_back();
      }
      const double end = s->ts_us + s->dur_us;
      if (!stack.empty()) {
        // Direct children of one parent never overlap on one thread, so
        // the clipped sum is their union.
        stack.back().child_us +=
            std::min(end, stack.back().end_us) - s->ts_us;
      }
      stack.push_back({s, end, 0.0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return out;
}

void add_span_info(const std::map<std::string, SpanTime>& times, double ops,
                   double ranks, Result& r) {
  const double per = 1e3 / (ops * ranks);
  for (const auto& [label, t] : times) {
    r.info["incl_ms." + label] = t.incl_s * per;
    r.info["self_ms." + label] = t.self_s * per;
  }
}

double label_ms(const std::map<std::string, SpanTime>& times,
                const std::string& label, double ops, double ranks) {
  const auto it = times.find(label);
  if (it == times.end() || it->second.count == 0) return -1.0;
  return it->second.incl_s * 1e3 / (ops * ranks);
}

std::map<std::string, double> counter_values() {
  std::map<std::string, double> out;
  for (const auto& c : dct::obs::Metrics::snapshot().counters) {
    out[c.name] = static_cast<double>(c.value);
  }
  return out;
}

double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  if (a == after.end()) return 0.0;
  return a->second - (b == before.end() ? 0.0 : b->second);
}

}  // namespace perfbench
