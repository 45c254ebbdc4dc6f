// Shared machinery of the perfbench program: arguments, order statistics,
// the in-memory span tracer, the closed-loop job runner and the result
// block every workload fills in.
//
// Every timing here is taken outside the library, at its public seams; the
// library itself is built unmodified from ../src.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench/work";
  std::string trace_out = ".bench_build/perfbench/traces";
};

/// Set-up steps that cannot fail on the benchmark's own inputs; a failure
/// is a defect, reported on stderr, and ends the run with exit code 1.
void CheckOk(const least::Status& status, const char* what);

/// Derives an independent, reproducible seed for input stream `stream`.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);

// ------------------------------------------------------------------ spans ---

struct SpanRecord {
  const char* name = "";
  int64_t parent = -1;  ///< index of the enclosing span on the same thread
  int64_t job = -1;     ///< job the span worked for; -1 when unknown
  Clock::time_point start;
  Clock::time_point end;
};

/// Keeps every span in memory; `WriteJsonl` writes them out at the end.
/// Parents are tracked per thread, so a span opened while another is open
/// on the same thread becomes its child. Spans are recorded only while
/// `enabled()`.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  int64_t Open(const char* name, int64_t job);
  void Close(int64_t id);

  std::vector<SpanRecord> Snapshot() const;
  bool WriteJsonl(const std::string& path) const;

 private:
  const Clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span; a no-op when `tracer` is null or disabled at construction.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int64_t job = -1)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Open(name, job) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Per-name totals over a set of spans. Self time is a span's duration
/// minus the durations of its children (children nest on one thread).
struct SpanTotals {
  int64_t calls = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::vector<std::pair<std::string, SpanTotals>> AggregateSpans(
    const std::vector<SpanRecord>& spans);
/// Totals for one name (zeros when absent).
SpanTotals Totals(const std::vector<std::pair<std::string, SpanTotals>>& agg,
                  const std::string& name);
/// Spans per job for one name, for the exact-count checks.
std::vector<int64_t> CallsPerJob(const std::vector<SpanRecord>& spans,
                                 const std::string& name, int64_t jobs);

// ----------------------------------------------------------------- result ---

/// What a workload reports. `metrics` become the last stdout line.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;  ///< free-form lines printed before

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Error(const std::string& message) { errors.push_back(message); }
  /// Records an error when `values` (one per pass or job) are not all equal.
  void ExpectSame(const std::string& what, const std::vector<int64_t>& values);
};

// ------------------------------------------------------------------- loop ---

/// A closed loop of `clients` callers cycling through a fixed job list: job
/// `seq` runs list entry `seq % list_size`. Warm-up jobs (the last
/// `warmup_jobs` entries, so the first timed job starts from the state every
/// later pass starts from) run first and are discarded. A window is
/// `list_size` consecutive jobs, so every window does the same work; its
/// jobs are shared among the callers, each of which takes the next job as
/// soon as its last one returns. The loop stops when `seconds` have elapsed
/// and at least `min_windows` windows have run; a partial last window counts
/// for latency but not for throughput. In a traced run, odd windows run with
/// the tracer on and even windows with it off (the decorators stay
/// installed), so traced and untraced work interleave over the same period
/// of the machine's load; no request is in flight when the tracer switches.
struct JobLoop {
  std::vector<double> latency_ms;           ///< untraced jobs only
  std::vector<double> untraced_window_jps;  ///< list_size / window seconds
  std::vector<double> traced_window_jps;
  int windows = 0;         ///< complete windows, traced and untraced
  int64_t timed_jobs = 0;  ///< including a partial last window
  int64_t attempted = 0;   ///< warm-up and timed jobs
  int64_t failed = 0;      ///< of `attempted`, jobs failing a check
};

struct LoopOptions {
  int list_size = 1;
  int clients = 1;
  int warmup_jobs = 1;
  int min_windows = 2;
  double seconds = 10;
};

/// `run_job(client, entry, seq)` runs list entry `entry` on caller `client`
/// and returns false when it fails its correctness check; `seq` is the timed
/// job's sequence number (spans carry it as their job id), -1 for warm-up.
/// Callers run on their own threads when `clients` > 1.
JobLoop RunLoop(const LoopOptions& options, Tracer* tracer,
                const std::function<bool(int, int, int64_t)>& run_job);

/// Whether job `seq` ran in a traced window.
inline bool TracedJob(int64_t seq, int list_size, bool tracing) {
  return tracing && (seq / list_size) % 2 == 1;
}

/// Jobs per second over complete windows: total jobs over total time.
double WindowThroughput(const std::vector<double>& window_jps);
/// Adds the untraced latency/throughput metrics every workload reports and
/// the tail-percentile notes.
void ReportLatency(const std::vector<double>& latency_ms,
                   const std::vector<double>& window_jps, Outcome* out);
/// Adds trace.overhead_pct from interleaved traced/untraced throughput.
void ReportOverhead(const std::vector<double>& untraced_jps,
                    const std::vector<double>& traced_jps, Outcome* out);

/// Builds a workload's state at least `kSetupRepeats` times and until
/// `kSetupSeconds` have been spent (at most `kSetupMaxRepeats` times),
/// keeping the last one, and appends each build's seconds to `seconds`.
/// Each earlier state is destroyed before the next is built, outside the
/// timing. Workloads build before the timed loop and again after it, and
/// report the median of both as setup_s, so that it samples the machine at
/// both ends of the run rather than only at its start. Builds with a
/// `tracer` record their spans (data.prepare).
inline constexpr int kSetupRepeats = 3;
inline constexpr int kSetupMaxRepeats = 20;
inline constexpr double kSetupSeconds = 0.75;
template <typename State, typename Make>
void TimedSetup(const Make& make, std::unique_ptr<State>* keep, Tracer* tracer,
                std::vector<double>* seconds) {
  int repeats = 0;
  double total = 0;
  if (tracer != nullptr) tracer->set_enabled(true);
  while (repeats < kSetupRepeats ||
         (total < kSetupSeconds && repeats < kSetupMaxRepeats)) {
    keep->reset();
    const Clock::time_point t0 = Clock::now();
    *keep = make();
    seconds->push_back(SecondsSince(t0));
    total += seconds->back();
    ++repeats;
  }
  if (tracer != nullptr) tracer->set_enabled(false);
}

}  // namespace perfbench
