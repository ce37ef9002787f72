#pragma once

// Shared pieces of the benchmark driver: the command line, the generated
// input file, the closed-loop timed phase, latency samples with a fixed
// memory footprint, the in-memory span log of the traced run, registry
// counter deltas, and the result document.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "rlc/io/json.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Driver modes.  kSetup stops after set-up (run.py times several set-ups
/// per run); kRun is the untraced timed run; kTraced adds the counting,
/// untraced and traced phases; kCounts runs only the counting phase, so a
/// second process can confirm the deterministic counts repeat.
enum class Mode { kSetup, kRun, kTraced, kCounts };

struct Args {
  std::string workload;
  std::string input;
  std::string out;
  std::string spans;
  Mode mode = Mode::kRun;
  double seconds = 10.0;
};

/// The generated input: named sections of lines ("@name" starts a section).
struct Input {
  std::map<std::string, std::vector<std::string>> sections;
  std::map<std::string, std::string> meta;  ///< "@meta" lines of key=value

  const std::vector<std::string>& section(const std::string& name) const;
  long meta_int(const std::string& key) const;
};

Input read_input(const std::string& path);

/// Tells run.py that set-up is over: everything before this line is set-up.
void signal_ready();

/// Latency samples in microseconds.  The buffer is allocated and touched
/// before timing starts, so peak RSS does not grow with the op count; past
/// its capacity every other sample is dropped and recording halves its
/// rate, which keeps an even subsample of the whole phase.
class Samples {
 public:
  explicit Samples(std::size_t capacity = std::size_t{1} << 20);
  void add(double us);
  std::size_t size() const { return n_; }
  /// Linear interpolation between order statistics; p in [0, 100].
  std::map<std::string, double> quantiles() const;

 private:
  std::vector<float> buf_;
  std::size_t n_ = 0;
  std::size_t stride_ = 1;
  std::size_t skip_ = 0;
};

/// Per-window figures of a timed phase.  A window is a whole number of the
/// workload's blocks, a few tenths of a second long; for each one this
/// keeps its wall time and the median latency of its ops.  run.py reports
/// the throughput and the median latency that nine windows in ten meet
/// (see README.md, "Noise on this host").
class Windows {
 public:
  explicit Windows(long ops_per_window);
  /// Records one op that started at `start` and took `us`; call in op order.
  void add(Clock::time_point start, double us);
  long ops_per_window() const { return static_cast<long>(size_); }
  const std::vector<double>& seconds() const { return seconds_; }
  const std::vector<double>& medians_us() const { return medians_us_; }

 private:
  std::size_t size_;
  std::vector<double> lat_us_;
  Clock::time_point start_{};
  std::vector<double> seconds_;
  std::vector<double> medians_us_;
};

/// One closed-loop phase: one operation in flight, run until `seconds` have
/// passed, stopping only at a multiple of `block` ops (the generator gives
/// every block the workload's exact mix; the untraced phase passes its
/// window, a whole number of blocks) or when the inputs run out.
struct PhaseResult {
  long ops = 0;
  long failed = 0;
  double wall_s = 0.0;
  double ops_per_s() const { return wall_s > 0 ? ops / wall_s : 0.0; }
};

template <class Op>
PhaseResult timed_loop(double seconds, long block, long max_ops, Op&& op) {
  PhaseResult r;
  const auto t0 = Clock::now();
  const auto stop = t0 + std::chrono::duration<double>(seconds);
  while (r.ops < max_ops) {
    if (!op(r.ops)) ++r.failed;
    ++r.ops;
    if (r.ops % block == 0 && Clock::now() >= stop) break;
  }
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return r;
}

/// In-memory span log of the traced run: name, start, end, parent span and
/// request id.  `replay` marks a span that re-ran an inner layer's public
/// entry point on the same inputs after the real call; its parent's self
/// time is attributed by subtracting the replay's duration.
class SpanLog {
 public:
  int begin(const std::string& name, int parent, long rid, bool replay);
  void end(int span);
  /// Writes one JSON array per line: [name, start_ns, end_ns, parent, rid,
  /// replay]; returns false on I/O failure.
  bool write(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    int name;
    std::int64_t start;
    std::int64_t end;
    int parent;
    long rid;
    bool replay;
  };
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  int intern(const std::string& name);
};

/// Times `f` inside a span of `log` (no-op bookkeeping when log is null).
template <class F>
auto in_span(SpanLog* log, const std::string& name, int parent, long rid,
             bool replay, int* id, F&& f) {
  const int s = log ? log->begin(name, parent, rid, replay) : -1;
  if (id) *id = s;
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    if (log) log->end(s);
  } else {
    auto v = f();
    if (log) log->end(s);
    return v;
  }
}

/// Registry counters plus the summed count of every histogram, read from
/// one obs registry snapshot.
using Counts = std::map<std::string, double>;
Counts registry_counts();
/// b - a, key by key (keys missing from a count as 0).
Counts minus(const Counts& b, const Counts& a);
void accumulate(Counts& into, const Counts& add);

/// Peak resident set of this process [MB].
double peak_rss_mb();

/// Result document written to --out.  Workloads record peak_rss_mb right
/// after the timed phase, before the correctness gate allocates.
struct Report {
  rlc::io::Json doc;
  std::vector<std::string> notes;
  long failed = 0;
  long attempted = 0;

  void fail(const std::string& why);
  void phase(const std::string& key, const PhaseResult& p);
  void latency(const Samples& s, const Windows& w);
  void counts(const Counts& c, long ops);
  bool write(const std::string& path);
};

int run_query_workload(const Args& args, bool hot);
int run_mna_workload(const Args& args, bool ring);

}  // namespace pb
