#include "rlc/scenario/result.hpp"

#include "rlc/base/simd.hpp"
#include "rlc/base/version.hpp"
#include "rlc/obs/exporter.hpp"

#include <cstdio>
#include <stdexcept>

namespace rlc::scenario {

Table& Table::row(std::vector<Value> cells) {
  if (cells.size() != columns.size()) {
    throw std::invalid_argument(
        "rlc::scenario: table \"" + title + "\" expects " +
        std::to_string(columns.size()) + " cells per row, got " +
        std::to_string(cells.size()));
  }
  rows.push_back(std::move(cells));
  return *this;
}

io::Json Table::to_json() const {
  io::JsonArray cols;
  for (const auto& c : columns) cols.push(c);
  io::JsonArray rows_j;
  for (const auto& r : rows) {
    io::JsonArray row_j;
    for (const auto& cell : r) {
      if (cell.kind == Value::kText) {
        row_j.push(cell.text);
      } else {
        row_j.push(cell.number);
      }
    }
    rows_j.push(row_j);
  }
  io::Json j;
  j.set("title", title);
  j.set("columns", cols);
  j.set("rows", rows_j);
  return j;
}

io::Json Observability::to_json() const {
  io::Json spans_j;
  for (const auto& s : spans) {
    io::Json sj;
    sj.set("count", static_cast<long long>(s.count));
    sj.set("total_ns", static_cast<long long>(s.total_ns));
    sj.set("top_level_ns", static_cast<long long>(s.top_level_ns));
    spans_j.set(s.name, sj);
  }
  io::Json j;
  j.set("tracing", tracing);
  j.set("dropped_spans", static_cast<long long>(dropped_spans));
  j.set("metrics", metrics.to_json());
  j.set("spans", spans_j);
  return j;
}

io::Json CouplingInfo::to_json() const {
  io::Json j;
  j.set("n_conductors", n_conductors);
  j.set("cc", cc);
  j.set("km", km);
  j.set("peak_noise", peak_noise);
  j.set("noise_width", noise_width);
  return j;
}

io::Json ScenarioResult::to_json() const {
  io::Json j;
  j.set("schema", kSchemaVersion);
  j.set("version", rlc::version());
  j.set("bench", name);
  j.set("title", title);
  j.set("quick", spec.quick);
  j.set("threads", threads);
  j.set("simd", rlc::simd::active_level_name());
  j.set("wall_seconds", wall_seconds);
  j.set("spec", spec.to_json());
  j.set("observability", observability.to_json());

  // schema 7: what this run's metrics delta costs to scrape.  Series is
  // the number of sample lines (non-comment, non-empty) a Prometheus
  // endpoint would expose for exactly these metrics.
  {
    const std::string prom = obs::Exporter::prometheus(observability.metrics);
    long long series = 0;
    std::size_t at = 0;
    while (at < prom.size()) {
      const std::size_t nl = prom.find('\n', at);
      const std::size_t end = nl == std::string::npos ? prom.size() : nl;
      if (end > at && prom[at] != '#') ++series;
      if (nl == std::string::npos) break;
      at = nl + 1;
    }
    io::Json tel;
    tel.set("prometheus_series", series);
    tel.set("prometheus_bytes", static_cast<long long>(prom.size()));
    tel.set("trace_ring_capacity",
            static_cast<long long>(obs::Tracer::global().ring_capacity()));
    tel.set("dropped_spans",
            static_cast<long long>(observability.dropped_spans));
    j.set("telemetry", tel);
  }

  if (coupling.n_conductors > 0) j.set("coupling", coupling.to_json());

  io::JsonArray tables_j;
  for (const auto& t : tables) tables_j.push(t.to_json());
  j.set("tables", tables_j);

  io::Json metrics_j;
  for (const auto& m : metrics) metrics_j.set(m.name, m.value);
  j.set("metrics", metrics_j);

  io::JsonArray notes_j;
  for (const auto& n : notes) notes_j.push(n);
  j.set("notes", notes_j);

  if (!error.empty()) j.set("error", error);
  return j;
}

std::string ScenarioResult::numeric_fingerprint() const {
  std::string out;
  char buf[40];
  const auto add = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.17g;", v);
    out += buf;
  };
  for (const auto& t : tables) {
    out += t.title;
    out += '|';
    for (const auto& r : t.rows) {
      for (const auto& cell : r) {
        if (cell.kind == Value::kText) {
          out += cell.text;
          out += ';';
        } else {
          add(cell.number);
        }
      }
    }
  }
  for (const auto& m : metrics) {
    out += m.name;
    out += '=';
    add(m.value);
  }
  return out;
}

}  // namespace rlc::scenario
