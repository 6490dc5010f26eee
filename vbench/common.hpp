// Shared pieces of the repository benchmark (see README.md): run options,
// the result every workload fills in, order statistics, and the
// benchmark-side span recorder used by traced runs.
//
// The benchmark measures the VIProf layers from outside: it times calls
// into their public functions and reads the telemetry they already export.
// Nothing here reaches into src/.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "hw/event.hpp"
#include "support/telemetry.hpp"
#include "support/traced_mutex.hpp"

namespace vbench {

/// The events every report renders (what viprof_report prints).
inline const std::vector<viprof::hw::EventKind> kReportEvents = {
    viprof::hw::EventKind::kGlobalPowerEvents, viprof::hw::EventKind::kBsqCacheReference};

/// A query answer that failed: empty, or the server's `error: ...`.
inline bool is_error(const std::string& reply) {
  return reply.empty() || reply.rfind("error", 0) == 0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured phase
  bool trace = false;     // per-layer run: spans, stage timers, staged replays
  std::string out_dir;    // where traced runs write their Chrome traces
  std::size_t nproc = 1;  // thread budget for the whole process
};

/// Host clock shared with the server's own spans (support::monotonic_ns),
/// so benchmark and server traces line up after viprof_stat trace-merge.
inline std::uint64_t now_ns() { return viprof::support::monotonic_ns(); }

inline double ms_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 if empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t at =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return v[at];
}

inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// One end-to-end timing series: every sample as measured and scaled to
/// the reference host speed (see HostSpeed). A time is multiplied by the
/// scale; a rate is divided by it.
struct Timings {
  std::vector<double> raw, scaled;

  void add_time(double value, double scale) {
    raw.push_back(value);
    scaled.push_back(value * scale);
  }
  void add_rate(double value, double scale) {
    raw.push_back(value);
    scaled.push_back(value / scale);
  }
  std::size_t size() const { return raw.size(); }
  bool empty() const { return raw.empty(); }
};

/// What one workload run reports. `e2e` holds the end-to-end metrics (the
/// untraced run's result); `layer` the per-layer metrics (the traced
/// run's). Every failed operation bumps `failed`; every failed correctness
/// check also clears `correct`.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> unscaled;  // e2e timings before the host-speed scale
  std::map<std::string, Metric> layer;
  std::vector<std::string> notes;  // human-readable lines (bases of ratios)

  void set(const std::string& name, double value, const std::string& unit) {
    e2e[name] = Metric{value, unit};
  }
  /// An end-to-end timing: the q-quantile of the scaled samples, times
  /// `factor` (a unit change); the unscaled quantile is kept beside it.
  void set_timing(const std::string& name, const Timings& t, double q, double factor,
                  const std::string& unit) {
    e2e[name] = Metric{percentile(t.scaled, q) * factor, unit};
    unscaled[name] = Metric{percentile(t.raw, q) * factor, unit};
  }
  void set_layer(const std::string& name, double value, const std::string& unit) {
    layer[name] = Metric{value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// A failed correctness check: the run's outputs cannot be trusted.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
  /// Counts one operation outcome toward error_rate.
  void count(std::uint64_t attempted_ops, std::uint64_t failed_ops) {
    attempted += attempted_ops;
    failed += failed_ops;
  }
};

/// printf-style formatting of numbers; every argument is passed as a double.
template <typename... Numbers>
std::string fmt(const char* format, Numbers... values) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, static_cast<double>(values)...);
  return buf;
}

/// Benchmark-side spans of a traced run: name, start, end, the span that
/// caused it, and one id per batch or query. Kept in memory, written once
/// at the end as Chrome-trace JSON in the server's format, so the file
/// merges with the server's `trace` verb output through
/// `viprof_stat trace-merge`. Disabled recorders drop everything.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  std::uint64_t next_id() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++last_id_;
  }

  void add(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
           std::uint64_t id, std::uint64_t parent = 0) {
    if (!enabled_) return;
    const std::uint32_t tid = viprof::support::this_thread_ordinal();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, begin_ns, end_ns, id, parent, tid});
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  std::string to_chrome_json() const;

 private:
  struct Span {
    const char* name;
    std::uint64_t begin_ns, end_ns, id, parent;
    std::uint32_t tid;
  };

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t last_id_ = 0;
};

/// Rounds that start in the first kWarmShare of the measured phase only
/// warm up, and so does the first round always: they fill caches, grow the
/// allocator's heap (the first rounds fault in fresh pages, which shows as
/// multi-millisecond stalls in the query tail) and wake the pools. Their
/// numbers are not reported.
constexpr double kWarmShare = 0.15;

inline bool warming(std::size_t round, double elapsed_s, double budget_s) {
  return round == 0 || elapsed_s < kWarmShare * budget_s;
}

/// Set-up is timed `reps` times per run, spread evenly over the measured
/// phase, so that its median sees the same drift of the host's speed as
/// every other metric. True when the next sample is due.
inline bool setup_due(std::size_t taken, std::size_t reps, double elapsed_s,
                      double budget_s) {
  return taken < reps &&
         elapsed_s >= budget_s * static_cast<double>(taken) / static_cast<double>(reps);
}

/// Host-speed correction for the end-to-end times. On a shared virtual
/// machine two things outside the program move its wall times from run to
/// run: the speed of memory-bound code drifts by 20-80% over seconds to
/// minutes with the other tenants' cache and memory traffic (ALU-bound code
/// keeps its speed), and the hypervisor takes 1-15% of the busy vCPU time
/// back (steal). So every timed round is bracketed by two marks. A mark
/// times a fixed reference kernel (random read-modify-write over an 8 MiB
/// table; it calls no VIProf code, so no change to the program moves it)
/// and reads the VM's busy and steal ticks from /proc/stat. A time measured
/// in the round is multiplied by
///   kReferenceMs / (mean of the two kernel times) * (1 - stolen share),
/// the stolen share being steal / (busy + steal) over the round: it is
/// reported at the speed the host has when the kernel takes kReferenceMs,
/// without the time the VM did not run. Throughputs are divided by the
/// same scale. Marks are taken while the program is idle between rounds.
class HostSpeed {
 public:
  /// The kernel's time on a quiet 4-vCPU Xeon host (2 MiB L2 per core).
  static constexpr double kReferenceMs = 0.6;

  struct Mark {
    double kernel_ms = 0;
    std::uint64_t busy_ticks = 0, steal_ticks = 0;
  };

  HostSpeed() : table_(kWords, 1) { probe(); }

  /// Times the kernel and reads the VM's CPU tick counters (0 where
  /// /proc/stat cannot be read, which leaves the steal term at 1).
  Mark mark();

  /// Marks now and returns the scale for the work since `before`, the mark
  /// taken when that work started. Every scale is kept.
  double scale_since(const Mark& before) {
    const Mark after = mark();
    const double busy = static_cast<double>(after.busy_ticks - before.busy_ticks);
    const double steal = static_cast<double>(after.steal_ticks - before.steal_ticks);
    const double stolen = busy + steal > 0 ? steal / (busy + steal) : 0.0;
    const double s =
        kReferenceMs / ((before.kernel_ms + after.kernel_ms) / 2.0) * (1.0 - stolen);
    scales_.push_back(s);
    return s;
  }

  /// Median scale applied so far (1 when none was).
  double median_scale() const { return scales_.empty() ? 1.0 : percentile(scales_, 0.5); }

 private:
  /// The fastest of three runs of the kernel, in ms (the minimum drops a
  /// run the scheduler preempted).
  double probe();

  static constexpr std::size_t kWords = std::size_t{1} << 20;  // 8 MiB of uint64
  static constexpr int kSteps = 100'000;
  std::vector<std::uint64_t> table_;
  std::vector<double> scales_;
  std::uint64_t sink_ = 0;
};

/// Sum of a histogram's recorded values in a snapshot (0 when absent).
inline double hist_sum(const viprof::support::TelemetrySnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

inline double hist_p99(const viprof::support::TelemetrySnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.p99;
}

/// Writes `text` to `path`; false on I/O failure.
bool write_file(const std::string& path, const std::string& text);

/// Peak resident set of this process so far, in MiB (getrusage ru_maxrss).
double peak_rss_mb();

// One entry point per workload.
Result run_capture(const Options& opt, Spans& spans);
Result run_ingest(const Options& opt, Spans& spans);
Result run_history(const Options& opt, Spans& spans);

}  // namespace vbench
