// shard_stream: LEAST-SP on row-range shards streamed through a
// DatasetCache whose budget holds a quarter of a dataset, so every
// mini-batch gather reloads, re-parses and re-verifies shards. Each
// dataset is fitted twice in a row: from a sharded CsvDataSource (local),
// then through HttpDataSource from a loopback FleetService origin
// (remote). Every fit must be bit-identical to the in-RAM fit of the same
// data made at setup.

#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/data_source.h"
#include "core/least_sparse.h"
#include "data/benchmark_data.h"
#include "decorators.h"
#include "metrics/structure_metrics.h"
#include "net/fleet_service.h"
#include "net/http_data_source.h"
#include "net/http_server.h"
#include "runtime/fleet_scheduler.h"
#include "runtime/job_journal.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using least::DatasetCache;
using least::DataSource;
using least::LearnOptions;

constexpr int kDatasets = 5;
constexpr int kList = 2 * kDatasets;  // entry 2i: local fit, 2i+1: remote
constexpr int kRows = 1500;
constexpr int kCols = 16;
constexpr int kShardRows = 89;  // 17 row-range shards
constexpr size_t kBudget = size_t{kRows} * kCols * sizeof(double) / 4;

LearnOptions ShardOptions() {
  LearnOptions opt;
  opt.lambda1 = 0.05;
  opt.learning_rate = 0.05;
  opt.max_outer_iterations = 3;  // fixed work per fit, as in sparse_fit
  opt.max_inner_iterations = 20;
  opt.batch_size = 200;
  opt.init_density = 0.0;  // the full candidate pattern below
  opt.tolerance = 1e-8;
  return opt;
}

std::vector<std::pair<int, int>> FullPattern() {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < kCols; ++i) {
    for (int j = 0; j < kCols; ++j) {
      if (i != j) edges.push_back({i, j});
    }
  }
  return edges;
}

// A FleetService serving /data from `data_root` behind a real HttpServer.
// Each remote source keeps one keep-alive connection, and the server holds
// a thread per open connection, so it gets one thread per dataset (only
// one is busy at a time).
struct Origin {
  Origin(const std::string& data_root, Tracer* tracer)
      : pool(1), scheduler(&pool, {}) {
    scheduler.set_journal(&journal);
    least::FleetServiceOptions options;
    options.data_root = data_root;
    service = std::make_unique<least::FleetService>(&scheduler, &journal,
                                                    options);
    least::HttpHandler handler = service->AsHandler();
    if (tracer != nullptr) handler = TimedHandler(std::move(handler), tracer);
    least::HttpServerOptions server_options;
    server_options.num_threads = kDatasets + 1;
    server = std::make_unique<least::HttpServer>(std::move(handler),
                                                 server_options);
    CheckOk(server->Start(), "origin start");
  }
  ~Origin() {
    scheduler.CancelAll();
    scheduler.Wait();
    server->Stop();
  }
  Origin(const Origin&) = delete;
  Origin& operator=(const Origin&) = delete;

  least::ThreadPool pool;
  least::FleetScheduler scheduler;
  least::JobJournal journal;
  std::unique_ptr<least::FleetService> service;
  std::unique_ptr<least::HttpServer> server;
};

struct ShardState {
  ~ShardState() {
    sources.clear();
    origin.reset();
    std::filesystem::remove_all(dir);
  }

  std::string dir;
  std::vector<least::DenseMatrix> w_true;
  std::vector<least::SparseLearnResult> reference;  ///< in-RAM fits
  std::unique_ptr<DatasetCache> cache;  ///< shared by all sources
  std::unique_ptr<Origin> origin;
  std::vector<const least::HttpDataSource*> remote;  ///< per dataset
  std::vector<std::shared_ptr<const DataSource>> sources;  ///< per entry
};

std::unique_ptr<ShardState> MakeShardState(const Args& args, Tracer* tracer) {
  auto state = std::make_unique<ShardState>();
  state->dir = args.work_dir + "/" + args.workload;
  std::filesystem::remove_all(state->dir);
  std::filesystem::create_directories(state->dir);
  state->cache = std::make_unique<DatasetCache>(kBudget);
  state->origin = std::make_unique<Origin>(state->dir, tracer);

  least::LeastSparseLearner learner(ShardOptions());
  learner.set_candidate_edges(FullPattern());
  for (int i = 0; i < kDatasets; ++i) {
    least::BenchmarkConfig cfg;
    cfg.d = kCols;
    cfg.n = kRows;
    cfg.seed = SubSeed(args.seed, static_cast<uint64_t>(i));
    least::BenchmarkInstance instance = least::MakeBenchmarkInstance(cfg);
    const std::string ref = "shard" + std::to_string(i) + ".csv";
    const std::string path = state->dir + "/" + ref;
    CheckOk(least::WriteMatrixCsv(path, instance.x), "csv write");

    least::SparseLearnResult reference =
        learner.Fit(least::OwningDenseDataSource(instance.x));
    if (!FitStatusOk(reference.status)) {
      CheckOk(reference.status, "in-RAM reference fit");
    }
    state->reference.push_back(std::move(reference));
    state->w_true.push_back(std::move(instance.w_true));

    least::CsvSourceOptions local;
    local.has_header = false;
    local.cache = state->cache.get();
    local.shard_rows = kShardRows;
    state->sources.push_back(
        Traced(std::make_shared<least::CsvDataSource>(path, local), tracer));

    least::HttpSourceOptions remote;
    remote.has_header = false;
    remote.cache = state->cache.get();
    remote.shard_rows = kShardRows;
    const std::string url = "http://127.0.0.1:" +
                            std::to_string(state->origin->server->port()) +
                            "/data/" + ref;
    least::Result<std::shared_ptr<const DataSource>> made =
        least::MakeHttpSource(url, std::move(remote));
    CheckOk(made.status(), "remote source");
    state->remote.push_back(
        dynamic_cast<const least::HttpDataSource*>(made.value().get()));
    if (state->remote.back() == nullptr) {
      CheckOk(least::Status::Internal("not an HttpDataSource"),
              "remote source");
    }
    state->sources.push_back(Traced(std::move(made).value(), tracer));
  }
  for (const auto& source : state->sources) {
    CheckOk(source->Prepare(), "prepare");  // local scan / manifest fetch
  }
  return state;
}

// Public counters read around each fit; their per-fit deltas must repeat
// exactly for a list entry. The fetch.* counters exist for remote sources.
constexpr const char* kCounterNames[] = {
    "cache.hits",    "cache.misses",   "cache.loads",
    "cache.evictions", "cache.refusals", "fetch.count",
    "fetch.attempts", "fetch.retries",  "fetch.connections"};
constexpr size_t kCacheCounters = 5;
using Counters = std::array<int64_t, std::size(kCounterNames)>;

Counters ReadCounters(const DatasetCache& cache,
                      const least::HttpDataSource* remote) {
  const DatasetCache::Stats c = cache.stats();
  const least::HttpConnectionPool::Stats t =
      remote != nullptr ? remote->transport_stats()
                        : least::HttpConnectionPool::Stats{};
  return {c.hits,    c.misses,   c.loads,   c.evictions,
          c.refusals, t.fetches, t.attempts, t.retries,
          t.connections_created};
}

}  // namespace

Outcome RunShardStream(const Args& args, Tracer* tracer) {
  Outcome out;
  std::unique_ptr<ShardState> state;
  const auto make = [&] { return MakeShardState(args, tracer); };
  std::vector<double> setup_s;
  TimedSetup(make, &state, tracer, &setup_s);

  least::LeastSparseLearner learner(ShardOptions());
  learner.set_candidate_edges(FullPattern());
  std::vector<Counters> deltas;  // per timed job
  std::vector<double> local_ms, remote_ms;  // untraced fits
  int64_t traced_remote_fits = 0;
  const JobLoop loop = RunLoop(
      {.list_size = kList, .seconds = args.seconds}, tracer,
      [&](int, int e, int64_t seq) {
        const int i = e / 2;
        const bool remote = e % 2 == 1;
        const least::HttpDataSource* transport =
            remote ? state->remote[i] : nullptr;
        const Counters before = ReadCounters(*state->cache, transport);
        const Clock::time_point t0 = Clock::now();
        least::SparseLearnResult r;
        {
          Span span(tracer, "fit", seq);
          r = learner.Fit(*state->sources[e]);
        }
        const double ms = MsBetween(t0, Clock::now());
        if (seq >= 0) {
          Counters d = ReadCounters(*state->cache, transport);
          for (size_t k = 0; k < d.size(); ++k) d[k] -= before[k];
          deltas.push_back(d);
          if (!TracedJob(seq, kList, tracer != nullptr)) {
            (remote ? remote_ms : local_ms).push_back(ms);
          } else if (remote) {
            ++traced_remote_fits;
          }
        }
        const least::SparseLearnResult& ref = state->reference[i];
        return r.status.code() == ref.status.code() &&
               r.inner_iterations == ref.inner_iterations &&
               r.outer_iterations == ref.outer_iterations &&
               BitEqual(r.raw_weights, ref.raw_weights) &&
               BitEqual(r.weights, ref.weights);
      });

  out.attempted = loop.attempted;
  out.failed = loop.failed;
  const DatasetCache::Stats final_cache = state->cache->stats();
  if (final_cache.peak_resident_bytes > kBudget) {
    out.Error("DatasetCache peak " +
              std::to_string(final_cache.peak_resident_bytes) +
              " bytes exceeds its budget of " + std::to_string(kBudget));
  }

  // Each counter's per-fit delta must be identical for a list entry in
  // every timed job. Reported: cache.* per fit, fetch.* per remote fit.
  std::vector<double> mean(std::size(kCounterNames), 0.0);
  for (size_t k = 0; k < mean.size(); ++k) {
    const bool fetch = k >= kCacheCounters;
    for (int e = 0; e < kList; ++e) {
      std::vector<int64_t> values;
      for (size_t seq = e; seq < deltas.size(); seq += kList) {
        values.push_back(deltas[seq][k]);
      }
      out.ExpectSame(std::string(kCounterNames[k]) + " of list entry " +
                         std::to_string(e),
                     values);
      mean[k] += static_cast<double>(values.at(0)) /
                 (fetch ? kDatasets : kList);
    }
    out.Metric(kCounterNames[k], mean[k], "count");
  }
  const double lookups = mean[0] + mean[1];  // hits + misses
  out.Metric("cache.hit_ratio", lookups > 0 ? mean[0] / lookups : 0, "ratio");
  const double attempts = mean[6];
  out.Metric("fetch.useful_ratio", attempts > 0 ? mean[5] / attempts : 0,
             "ratio");

  // Every fit matched its reference (checked above), so accuracy and
  // iteration counts are the references'.
  double inner_mean = 0, outer_mean = 0, f1 = 0, shd = 0;
  for (int i = 0; i < kDatasets; ++i) {
    const least::SparseLearnResult& ref = state->reference[i];
    inner_mean += static_cast<double>(ref.inner_iterations) / kDatasets;
    outer_mean += static_cast<double>(ref.outer_iterations) / kDatasets;
    const least::StructureMetrics m =
        least::EvaluateStructure(state->w_true[i], ref.weights.ToDense());
    f1 += m.f1 / kDatasets;
    shd += static_cast<double>(m.shd) / kDatasets;
  }
  // A job is one fit; latency_p50_ms is the local-shard fit, and the remote
  // fit is in jobs_per_s (every window holds both) and in this note.
  ReportLatency(local_ms, loop.untraced_window_jps, &out);
  char note[160];
  std::snprintf(note, sizeof(note),
                "remote fit: %zu samples, p50 %.3f ms (local fit p50 %.3f ms)",
                remote_ms.size(), Median(remote_ms), Median(local_ms));
  out.notes.push_back(note);
  out.Metric("peak_resident_bytes",
             static_cast<double>(final_cache.peak_resident_bytes), "bytes");
  out.Metric("f1", f1, "ratio");
  out.Metric("shd", shd, "edges");
  out.Metric("learner.inner_iters", inner_mean, "count");
  out.Metric("learner.outer_iters", outer_mean, "count");
  if (tracer != nullptr) {
    const std::vector<SpanRecord> spans = tracer->Snapshot();
    ReportFitLayers(spans, kList, loop.timed_jobs, inner_mean, &out);
    const SpanTotals range = Totals(AggregateSpans(spans), "origin.range");
    const int64_t remote_fits = std::max<int64_t>(traced_remote_fits, 1);
    out.Metric("origin.range.calls",
               static_cast<double>(range.calls) / remote_fits, "count");
    out.Metric("origin.range.ms",
               range.calls > 0 ? range.total_ms / range.calls : 0, "ms");
    ReportOverhead(loop.untraced_window_jps, loop.traced_window_jps, &out);
  }
  TimedSetup(make, &state, nullptr, &setup_s);
  out.Metric("setup_s", Median(setup_s), "s");
  return out;
}

}  // namespace perfbench
