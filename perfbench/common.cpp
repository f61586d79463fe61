#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

namespace {

constexpr std::size_t kMaxFailureMessages = 20;

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

// Non-finite values have no JSON spelling; null makes run.py fail the run.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ",";
    out += number(xs[i]);
  }
  return out + "]";
}

template <typename V, typename F>
std::string object(const std::map<std::string, V>& m, F value) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ",";
    first = false;
    out += quote(k) + ":" + value(v);
  }
  return out + "}";
}

}  // namespace

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < kMaxFailureMessages) failures.push_back(what);
}

std::string to_json(const Result& r) {
  std::ostringstream os;
  os << "{\"workload\":" << quote(r.workload)
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    os << (i > 0 ? "," : "") << quote(r.failures[i]);
  }
  os << "],\"rounds\":[";
  for (std::size_t i = 0; i < r.rounds.size(); ++i) {
    const Round& rd = r.rounds[i];
    os << (i > 0 ? "," : "") << "{\"items\":" << number(rd.items)
       << ",\"wall_s\":" << number(rd.wall_s)
       << ",\"op_ms\":" << array(rd.op_ms) << "}";
  }
  os << "],\"setup_s\":" << array(r.setup_s)
     << ",\"peak_rss_mb\":" << number(peak_rss_mb())
     << ",\"traced_items_per_s\":" << number(r.traced_items_per_s)
     << ",\"info\":" << object(r.info, number)
     << ",\"labels\":" << object(r.labels, quote)
     << ",\"layers\":" << object(r.layers, number) << "}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
