#include "rlc/obs/exporter.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

namespace rlc::obs {

namespace {

bool valid_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool valid_rest(char c) { return valid_start(c) || (c >= '0' && c <= '9'); }

/// Sanitized names from distinct registry names may collide ("a.b" and
/// "a-b" both map to "a_b"); the tracker hands out numeric suffixes so the
/// exposition never emits two series under one name.
class NameTracker {
 public:
  std::string unique(const std::string& raw) {
    std::string base = Exporter::sanitize_metric_name(raw);
    std::string candidate = base;
    int suffix = 2;
    while (!used_.insert(candidate).second) {
      candidate = base + "_" + std::to_string(suffix++);
    }
    return candidate;
  }

 private:
  std::unordered_set<std::string> used_;
};

void append_type(std::string& out, const std::string& name,
                 const char* kind) {
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += kind;
  out += '\n';
}

void append_int_sample(std::string& out, const std::string& name,
                       long long value) {
  out += name;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

void append_bucket(std::string& out, const std::string& name,
                   const std::string& le, std::uint64_t cum) {
  out += name;
  out += "_bucket{le=\"";
  out += Exporter::escape_label_value(le);
  out += "\"} ";
  out += std::to_string(static_cast<unsigned long long>(cum));
  out += '\n';
}

}  // namespace

std::string Exporter::sanitize_metric_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) out += valid_rest(c) ? c : '_';
  if (out.empty() || !valid_start(out.front())) out.insert(out.begin(), '_');
  return out;
}

std::string Exporter::escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string Exporter::prometheus(const MetricsSnapshot& snap) {
  std::string out;
  NameTracker names;
  for (const auto& [raw, value] : snap.counters) {
    const std::string name = names.unique(raw);
    append_type(out, name, "counter");
    append_int_sample(out, name, static_cast<long long>(value));
  }
  for (const auto& [raw, value] : snap.gauges) {
    const std::string name = names.unique(raw);
    append_type(out, name, "gauge");
    append_int_sample(out, name, static_cast<long long>(value));
  }
  for (const auto& h : snap.histograms) {
    const std::string name = names.unique(h.name);
    append_type(out, name, "histogram");
    const int interior = static_cast<int>(h.bins.size()) - 2;
    const auto edges = HistogramSnapshot::bin_edges(h.lo, h.hi, interior);
    // Cumulative buckets: the underflow bin (values < lo, incl. NaN) counts
    // under every finite edge; the overflow bin only under +Inf, where the
    // total is h.count by construction.
    std::uint64_t cum = 0;
    for (int i = 0; i <= interior; ++i) {
      cum += h.bins[static_cast<std::size_t>(i)];
      append_bucket(out, name, io::render_number(edges[static_cast<std::size_t>(i)]), cum);
    }
    append_bucket(out, name, "+Inf", h.count);
    out += name;
    out += "_sum ";
    io::append_number(out, h.sum);
    out += '\n';
    out += name;
    out += "_count ";
    out += std::to_string(static_cast<unsigned long long>(h.count));
    out += '\n';
  }
  return out;
}

io::Json Exporter::json(const MetricsSnapshot& snap) { return snap.to_json(); }

std::string Exporter::text(const MetricsSnapshot& snap) {
  std::string out;
  char buf[256];
  std::size_t width = 0;
  for (const auto& c : snap.counters) width = std::max(width, c.first.size());
  for (const auto& g : snap.gauges) width = std::max(width, g.first.size());
  for (const auto& h : snap.histograms) width = std::max(width, h.name.size());
  const int w = static_cast<int>(width);
  for (const auto& [name, value] : snap.counters) {
    std::snprintf(buf, sizeof buf, "counter    %-*s  %lld\n", w, name.c_str(),
                  static_cast<long long>(value));
    out += buf;
  }
  for (const auto& [name, value] : snap.gauges) {
    std::snprintf(buf, sizeof buf, "gauge      %-*s  %lld\n", w, name.c_str(),
                  static_cast<long long>(value));
    out += buf;
  }
  for (const auto& h : snap.histograms) {
    std::snprintf(buf, sizeof buf,
                  "histogram  %-*s  count %llu | mean %.3g | p50 %.3g | "
                  "p90 %.3g | p99 %.3g | max %.3g\n",
                  w, h.name.c_str(), static_cast<unsigned long long>(h.count),
                  h.mean(), h.quantile(0.5), h.quantile(0.9), h.quantile(0.99),
                  h.max);
    out += buf;
  }
  return out;
}

MetricsSnapshot Exporter::filter(const MetricsSnapshot& snap,
                                 const std::string& prefix) {
  MetricsSnapshot out;
  const auto keep = [&prefix](const std::string& name) {
    return name.compare(0, prefix.size(), prefix) == 0;
  };
  for (const auto& c : snap.counters) {
    if (keep(c.first)) out.counters.push_back(c);
  }
  for (const auto& g : snap.gauges) {
    if (keep(g.first)) out.gauges.push_back(g);
  }
  for (const auto& h : snap.histograms) {
    if (keep(h.name)) out.histograms.push_back(h);
  }
  return out;
}

}  // namespace rlc::obs
