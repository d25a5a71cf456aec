// Shared plumbing of the perfbench binary: run options, the metric
// report every workload fills, guarded percentiles, in-memory spans and
// process memory.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for image files and span dumps (inside the
  /// checkout; run.py creates it).
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints. `e2e` and `layer` hold the metrics the JSON line
/// carries (BENCHMARK.json's end_to_end resp. per_layer lists); `details`
/// are human-readable lines printed above it: per-workload names of the
/// same measurements, sample counts, percentile choices, span summaries.
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> details;

  void fail(const std::string& why) {
    correct = false;
    if (errors.size() < 8) errors.push_back(why);
  }
  void add_e2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void add_layer(const std::string& name, double value,
                 const std::string& unit) {
    layer.push_back({name, value, unit});
  }
  void detail(const std::string& line) { details.push_back(line); }
};

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Percentile q (0..1) of `samples` by nearest rank, or nullopt when
/// fewer than `min_beyond` samples lie beyond it — a tail the sample
/// cannot support is refused, not printed. Sorts `samples` in place.
inline std::optional<double> percentile(std::vector<double>& samples, double q,
                                        std::size_t min_beyond = 10) {
  if (samples.empty()) return std::nullopt;
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  if (q > 0.5 && n - 1 - rank < min_beyond) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return samples[rank];
}

inline double median(std::vector<double> samples) {
  return percentile(samples, 0.5).value_or(0.0);
}

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

/// Formats "name = value unit" with full precision.
std::string fmt_metric(const std::string& name, double value,
                       const std::string& unit);

// --- Spans -----------------------------------------------------------------

/// One timed interval around a call into a layer. `parent` is the id of
/// the enclosing span (0 = none); `request` groups the spans of one
/// client request; `thread` is the benchmark's own thread index.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Single-writer span buffer: each thread (client, drain worker via the
/// backend decorator, sim worker) appends to its own log, and the run
/// merges them once it has joined every thread.
class SpanLog {
 public:
  std::uint64_t record(const char* name, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t parent = 0,
                       std::uint64_t request = 0, std::uint32_t thread = 0) {
    const std::uint64_t id = next_id().fetch_add(1, std::memory_order_relaxed);
    spans_.push_back({id, parent, request, thread, name, start_ns, end_ns});
    return id;
  }
  /// Reserves an id for a parent span whose end is not known yet.
  static std::uint64_t reserve_id() {
    return next_id().fetch_add(1, std::memory_order_relaxed);
  }
  void record_with_id(std::uint64_t id, const char* name,
                      std::uint64_t start_ns, std::uint64_t end_ns,
                      std::uint64_t parent = 0, std::uint64_t request = 0,
                      std::uint32_t thread = 0) {
    spans_.push_back({id, parent, request, thread, name, start_ns, end_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span>& spans() { return spans_; }

 private:
  static std::atomic<std::uint64_t>& next_id() {
    static std::atomic<std::uint64_t> id{1};
    return id;
  }
  std::vector<Span> spans_;
};

/// Writes every span to `path` (CSV) and appends a per-name summary —
/// count, total and self time (duration minus the time of child spans)
/// — to the report's detail lines.
void dump_spans(const std::vector<Span>& spans, const std::string& path,
                RunReport& report);

}  // namespace perfbench
