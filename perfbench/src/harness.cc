#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

namespace perfbench {

void CheckOk(const least::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream): nearby seeds give unrelated streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
               0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  // Kept below 2^31 so a seed survives any JSON number round trip.
  return z & 0x7FFFFFFFull;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ------------------------------------------------------------------ spans ---

namespace {
thread_local int64_t tls_open_span = -1;
thread_local int64_t tls_job = -1;
}  // namespace

int64_t Tracer::Open(const char* name, int64_t job) {
  SpanRecord record;
  record.name = name;
  record.parent = tls_open_span;
  record.job = job >= 0 ? job : tls_job;
  record.start = Clock::now();
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back(record);
  }
  tls_open_span = id;
  if (job >= 0) tls_job = job;
  return id;
}

void Tracer::Close(int64_t id) {
  const Clock::time_point end = Clock::now();
  int64_t parent = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord& record = spans_[static_cast<size_t>(id)];
    record.end = end;
    parent = record.parent;
  }
  tls_open_span = parent;
  if (parent < 0) tls_job = -1;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  const std::vector<SpanRecord> spans = Snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,\"job\":%lld,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 i, s.name, static_cast<long long>(s.parent),
                 static_cast<long long>(s.job),
                 MsBetween(origin_, s.start) * 1e3,
                 MsBetween(origin_, s.end) * 1e3);
  }
  return std::fclose(f) == 0;
}

std::vector<std::pair<std::string, SpanTotals>> AggregateSpans(
    const std::vector<SpanRecord>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] += MsBetween(s.start, s.end);
    }
  }
  std::map<std::string, SpanTotals> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double ms = MsBetween(spans[i].start, spans[i].end);
    SpanTotals& t = by_name[spans[i].name];
    ++t.calls;
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
  }
  return {by_name.begin(), by_name.end()};
}

SpanTotals Totals(const std::vector<std::pair<std::string, SpanTotals>>& agg,
                  const std::string& name) {
  for (const auto& [n, t] : agg) {
    if (n == name) return t;
  }
  return {};
}

std::vector<int64_t> CallsPerJob(const std::vector<SpanRecord>& spans,
                                 const std::string& name, int64_t jobs) {
  std::vector<int64_t> calls(static_cast<size_t>(std::max<int64_t>(jobs, 0)),
                             0);
  for (const SpanRecord& s : spans) {
    if (s.job >= 0 && s.job < jobs && name == s.name) {
      ++calls[static_cast<size_t>(s.job)];
    }
  }
  return calls;
}

// ----------------------------------------------------------------- result ---

void Outcome::ExpectSame(const std::string& what,
                         const std::vector<int64_t>& values) {
  for (size_t i = 1; i < values.size(); ++i) {
    if (values[i] != values[0]) {
      Error(what + " is not exact: " + std::to_string(values[0]) + " then " +
            std::to_string(values[i]));
      return;
    }
  }
}

// ------------------------------------------------------------------- loop ---

namespace {

// Runs jobs [first, end) on `clients` callers; caller 0 runs on the calling
// thread. Each caller takes the next job when its last one returns and stops
// early once `stop()` holds. `done(seq, ok, ms)` is called under a lock.
void RunJobs(int clients, int64_t first, int64_t end,
             const std::function<bool()>& stop,
             const std::function<bool(int, int64_t)>& job,
             const std::function<void(int64_t, bool, double)>& done) {
  std::atomic<int64_t> next{first};
  std::mutex mu;
  const auto caller = [&](int client) {
    while (!stop()) {
      const int64_t seq = next.fetch_add(1);
      if (seq >= end) break;
      const Clock::time_point t0 = Clock::now();
      const bool ok = job(client, seq);
      const double ms = MsBetween(t0, Clock::now());
      std::lock_guard<std::mutex> lock(mu);
      done(seq, ok, ms);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(caller, c);
  caller(0);
  for (std::thread& t : threads) t.join();
}

}  // namespace

JobLoop RunLoop(const LoopOptions& options, Tracer* tracer,
                const std::function<bool(int, int, int64_t)>& run_job) {
  const int list = options.list_size;
  JobLoop loop;
  if (tracer != nullptr) tracer->set_enabled(false);
  RunJobs(
      options.clients, 0, options.warmup_jobs, [] { return false; },
      [&](int client, int64_t k) {
        return run_job(client, list - options.warmup_jobs + static_cast<int>(k),
                       -1);
      },
      [&](int64_t, bool ok, double) {
        ++loop.attempted;
        if (!ok) ++loop.failed;
      });

  const Clock::time_point start = Clock::now();
  const auto time_up = [&] {
    return loop.windows >= options.min_windows &&
           SecondsSince(start) >= options.seconds;
  };
  for (int64_t w = 0; !time_up(); ++w) {
    const bool traced = TracedJob(w * list, list, tracer != nullptr);
    if (tracer != nullptr) tracer->set_enabled(traced);
    int64_t jobs = 0;
    const Clock::time_point window_start = Clock::now();
    RunJobs(
        options.clients, w * list, (w + 1) * list, time_up,
        [&](int client, int64_t seq) {
          return run_job(client, static_cast<int>(seq % list), seq);
        },
        [&](int64_t, bool ok, double ms) {
          ++jobs;
          ++loop.attempted;
          if (!ok) ++loop.failed;
          if (!traced) loop.latency_ms.push_back(ms);
        });
    loop.timed_jobs += jobs;
    if (jobs < list) break;  // a partial window: its throughput is not kept
    (traced ? loop.traced_window_jps : loop.untraced_window_jps)
        .push_back(list / SecondsSince(window_start));
    ++loop.windows;
  }
  if (tracer != nullptr) tracer->set_enabled(false);
  return loop;
}

double WindowThroughput(const std::vector<double>& window_jps) {
  // Every window holds the same number of jobs, so the harmonic mean of the
  // windows' rates is total jobs over total time.
  double seconds_per_job = 0;
  for (const double jps : window_jps) seconds_per_job += 1.0 / jps;
  return window_jps.empty() ? 0.0 : window_jps.size() / seconds_per_job;
}

void ReportLatency(const std::vector<double>& latency_ms,
                   const std::vector<double>& window_jps, Outcome* out) {
  const size_t n = latency_ms.size();
  out->Metric("jobs_per_s", WindowThroughput(window_jps), "1/s");
  out->Metric("latency_p50_ms", Median(latency_ms), "ms");
  char line[256];
  std::snprintf(line, sizeof(line),
                "latency: %zu samples, p50 %.3f ms; throughput windows: %zu",
                n, Median(latency_ms), window_jps.size());
  out->notes.push_back(line);
  // The highest of these percentiles with at least ten samples beyond it.
  for (const double q : {0.99, 0.9, 0.75}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) {
      std::snprintf(line, sizeof(line),
                    "latency tail: p%g %.3f ms (%zu samples beyond)",
                    q * 100.0, Quantile(latency_ms, q),
                    static_cast<size_t>(static_cast<double>(n) * (1.0 - q)));
      out->notes.push_back(line);
      break;
    }
  }
}

void ReportOverhead(const std::vector<double>& untraced_jps,
                    const std::vector<double>& traced_jps, Outcome* out) {
  const double traced = WindowThroughput(traced_jps);
  const double untraced = WindowThroughput(untraced_jps);
  out->Metric("trace.overhead_pct",
              traced > 0 ? (untraced / traced - 1.0) * 100.0 : 0.0, "%");
}

}  // namespace perfbench
