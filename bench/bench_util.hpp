#pragma once

/// Presentation-only helpers for the rlc_run driver: banners, rules, and
/// the renderer that turns a rlc::scenario::ScenarioResult into the human
/// tables the figure benches used to print.  Everything computational lives
/// in src/scenario (specs, sweep grids, scenario bodies) and src/io (JSON);
/// this header owns no experiment definitions.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "rlc/scenario/result.hpp"

namespace bench {

inline void banner(const std::string& id, const std::string& title) {
  std::printf("\n================================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================================\n");
}

inline void note(const std::string& text) { std::printf("%s\n", text.c_str()); }

inline void rule() {
  std::printf("--------------------------------------------------------------------------------\n");
}

/// Render one cell to text (%.6g for numbers, verbatim for labels).
inline std::string cell_text(const rlc::scenario::Value& v) {
  if (v.kind == rlc::scenario::Value::kText) return v.text;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v.number);
  return buf;
}

/// Print a ScenarioResult table with per-column widths sized to fit the
/// header and every cell.
inline void print_table(const rlc::scenario::Table& t) {
  if (!t.title.empty()) std::printf("%s\n", t.title.c_str());
  std::vector<std::size_t> width(t.columns.size());
  std::vector<std::vector<std::string>> cells;
  for (std::size_t c = 0; c < t.columns.size(); ++c) {
    width[c] = t.columns[c].size();
  }
  cells.reserve(t.rows.size());
  for (const auto& row : t.rows) {
    std::vector<std::string> r;
    r.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      r.push_back(cell_text(row[c]));
      width[c] = std::max(width[c], r.back().size());
    }
    cells.push_back(std::move(r));
  }
  for (std::size_t c = 0; c < t.columns.size(); ++c) {
    std::printf("%s%*s", c ? "  " : "", static_cast<int>(width[c]),
                t.columns[c].c_str());
  }
  std::printf("\n");
  rule();
  for (const auto& r : cells) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      std::printf("%s%*s", c ? "  " : "", static_cast<int>(width[c]),
                  r[c].c_str());
    }
    std::printf("\n");
  }
}

/// Render a full scenario result: banner, tables, metrics, notes, and the
/// threads / wall-time footer.
inline void print_result(const rlc::scenario::ScenarioResult& res) {
  std::string id = res.name;
  std::transform(id.begin(), id.end(), id.begin(),
                 [](unsigned char ch) { return std::toupper(ch); });
  banner(id, res.title);
  if (!res.error.empty()) {
    std::printf("ERROR: %s\n", res.error.c_str());
    return;
  }
  for (const auto& t : res.tables) {
    std::printf("\n");
    print_table(t);
  }
  if (!res.metrics.empty()) {
    std::printf("\n");
    for (const auto& m : res.metrics) {
      std::printf("  %s = %.6g\n", m.name.c_str(), m.value);
    }
  }
  if (!res.notes.empty()) std::printf("\n");
  for (const auto& n : res.notes) note(n);
  rule();
  std::printf("[%s] threads %d | wall %.3f s%s\n", res.name.c_str(),
              res.threads, res.wall_seconds, res.spec.quick ? " | quick" : "");
}

}  // namespace bench
