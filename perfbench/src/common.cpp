#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "rlc/obs/metrics.hpp"

namespace pb {

const std::vector<std::string>& Input::section(const std::string& name) const {
  static const std::vector<std::string> kEmpty;
  const auto it = sections.find(name);
  return it == sections.end() ? kEmpty : it->second;
}

long Input::meta_int(const std::string& key) const {
  return std::stol(meta.at(key));
}

Input read_input(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read input " + path);
  Input inp;
  std::string line, current;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '@') {
      current = line.substr(1);
      inp.sections[current];
      continue;
    }
    if (current == "meta") {
      const auto eq = line.find('=');
      if (eq == std::string::npos) throw std::runtime_error("bad meta " + line);
      inp.meta[line.substr(0, eq)] = line.substr(eq + 1);
    } else {
      inp.sections[current].push_back(line);
    }
  }
  return inp;
}

void signal_ready() {
  std::fputs("READY\n", stdout);
  std::fflush(stdout);
}

Samples::Samples(std::size_t capacity) : buf_(capacity, 0.0f) {}

void Samples::add(double us) {
  if (skip_ > 0) {
    --skip_;
    return;
  }
  if (n_ == buf_.size()) {
    for (std::size_t i = 0; i < n_ / 2; ++i) buf_[i] = buf_[2 * i];
    n_ /= 2;
    stride_ *= 2;
  }
  buf_[n_++] = static_cast<float>(us);
  skip_ = stride_ - 1;
}

std::map<std::string, double> Samples::quantiles() const {
  std::vector<float> v(buf_.begin(), buf_.begin() + n_);
  std::sort(v.begin(), v.end());
  std::map<std::string, double> q;
  if (v.empty()) return q;
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double w = rank - static_cast<double>(lo);
    char key[16];
    std::snprintf(key, sizeof key, "%g", p);
    q[key] = v[lo] + w * (static_cast<double>(v[hi]) - v[lo]);
  }
  return q;
}

Windows::Windows(long ops_per_window) : size_(static_cast<std::size_t>(ops_per_window)) {
  if (ops_per_window < 1) throw std::invalid_argument("a window holds at least one op");
  lat_us_.reserve(size_);
}

void Windows::add(Clock::time_point start, double us) {
  if (lat_us_.empty()) start_ = start;
  lat_us_.push_back(us);
  if (lat_us_.size() < size_) return;
  seconds_.push_back(std::chrono::duration<double>(Clock::now() - start_).count());
  const auto mid = lat_us_.begin() + static_cast<std::ptrdiff_t>(size_ / 2);
  std::nth_element(lat_us_.begin(), mid, lat_us_.end());
  double median = *mid;
  if (size_ % 2 == 0) median = 0.5 * (median + *std::max_element(lat_us_.begin(), mid));
  medians_us_.push_back(median);
  lat_us_.clear();
}

int SpanLog::intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<int>(it - names_.begin());
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

int SpanLog::begin(const std::string& name, int parent, long rid,
                   bool replay) {
  spans_.push_back({intern(name), now_ns(), 0, parent, rid, replay});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int span) { spans_[static_cast<std::size_t>(span)].end = now_ns(); }

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const Span& s : spans_) {
    std::fprintf(f, "[\"%s\",%lld,%lld,%d,%ld,%d]\n",
                 names_[static_cast<std::size_t>(s.name)].c_str(),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.parent, s.rid,
                 s.replay ? 1 : 0);
  }
  return std::fclose(f) == 0;
}

Counts registry_counts() {
  const rlc::obs::MetricsSnapshot snap =
      rlc::obs::Registry::global().snapshot();
  Counts c;
  for (const auto& [name, value] : snap.counters) {
    c[name] = static_cast<double>(value);
  }
  double records = 0.0;
  for (const auto& h : snap.histograms) records += static_cast<double>(h.count);
  c["obs.histogram_records"] = records;
  return c;
}

Counts minus(const Counts& b, const Counts& a) {
  Counts d;
  for (const auto& [k, v] : b) {
    const auto it = a.find(k);
    d[k] = v - (it == a.end() ? 0.0 : it->second);
  }
  return d;
}

void accumulate(Counts& into, const Counts& add) {
  for (const auto& [k, v] : add) into[k] += v;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

void Report::fail(const std::string& why) {
  ++failed;
  if (notes.size() < 20) notes.push_back(why);
  std::cerr << "perfbench: check failed: " << why << "\n";
}

void Report::phase(const std::string& key, const PhaseResult& p) {
  rlc::io::Json j;
  j.set("ops", static_cast<long long>(p.ops));
  j.set("failed", static_cast<long long>(p.failed));
  j.set("wall_s", p.wall_s);
  j.set("ops_per_s", p.ops_per_s());
  doc.set(key, j);
}

void Report::latency(const Samples& s, const Windows& w) {
  rlc::io::Json q;
  for (const auto& [p, v] : s.quantiles()) q.set(p, v);
  rlc::io::Json j;
  j.set("samples", static_cast<long long>(s.size()));
  j.set("quantiles_us", q);
  doc.set("latency", j);
  rlc::io::JsonArray secs, medians;
  for (const double v : w.seconds()) secs.push(v);
  for (const double v : w.medians_us()) medians.push(v);
  rlc::io::Json win;
  win.set("ops", static_cast<long long>(w.ops_per_window()));
  win.set("seconds", secs);
  win.set("median_us", medians);
  doc.set("windows", win);
}

void Report::counts(const Counts& c, long ops) {
  rlc::io::Json j;
  for (const auto& [k, v] : c) j.set(k, ops > 0 ? v / ops : 0.0);
  doc.set("counts_per_op", j);
  doc.set("count_ops", static_cast<long long>(ops));
}

bool Report::write(const std::string& path) {
  doc.set("attempted", static_cast<long long>(attempted));
  doc.set("failed", static_cast<long long>(failed));
  rlc::io::JsonArray n;
  for (const std::string& s : notes) n.push(s);
  doc.set("notes", n);
  return rlc::io::write_json_file(path, doc);
}

}  // namespace pb
