// service_jobs: the REST front end under a closed loop of two callers.
//
// Each client thread keeps one keep-alive connection and repeats: POST
// /jobs (a small least-dense job on one of 48 CSV datasets, with an
// explicit per-job seed), follow GET /changes (the long-poll feed) until
// the job settles, then GET /models/<id>. Each job is one outer round of a
// few inner steps on a 200 x 10 dataset, a fraction of a millisecond, so
// HTTP parsing, routing, JSON, scheduler queueing and model serialization
// dominate. Every model must equal the in-process RunAlgorithm model for
// the same options and seed; only the wall-clock `seconds` field is
// canonicalized before comparing.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/data_source.h"
#include "data/benchmark_data.h"
#include "decorators.h"
#include "io/model_serializer.h"
#include "metrics/structure_metrics.h"
#include "net/fleet_service.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "runtime/fleet_scheduler.h"
#include "runtime/job_journal.h"
#include "runtime/learner_factory.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using least::HttpClient;
using least::HttpClientResponse;
using least::JsonValue;
using least::LearnOptions;

constexpr int kDatasets = 48;
constexpr int kList = kDatasets;  // one job per dataset, each its own seed
constexpr int kD = 10;
constexpr int kN = 200;
constexpr int kClients = 2;

// The C++ twin of kOptionsJson: each decimal there parses to exactly the
// double written here, so HTTP jobs run with bit-identical options.
// Every job does the same work: one outer round (the tolerance is loose
// enough that the first round always meets it; a job that did not would
// fail the set-up's reference fit) of exactly kInnerSteps steps
// (inner_rtol = 0).
constexpr int kInnerSteps = 8;
LearnOptions JobOptions(uint64_t seed) {
  LearnOptions opt;
  opt.max_outer_iterations = 1;
  opt.max_inner_iterations = kInnerSteps;
  opt.inner_rtol = 0.0;
  opt.tolerance = 1e6;
  opt.lambda1 = 0.05;
  opt.learning_rate = 0.2;
  opt.seed = seed;
  return opt;
}
const std::string kOptionsJson =
    "\"max_outer_iterations\":1,\"max_inner_iterations\":" +
    std::to_string(kInnerSteps) +
    ",\"inner_rtol\":0,\"tolerance\":1e6,\"lambda1\":0.05,"
    "\"learning_rate\":0.2";

std::string DatasetRef(int k) { return "svc" + std::to_string(k) + ".csv"; }

// Zeroes the fit's wall-clock `seconds` stamp and re-serializes; every
// other byte must match the in-process reference already.
std::string CanonicalModel(const std::string& blob) {
  least::Result<least::ModelArtifact> artifact = least::DeserializeModel(blob);
  if (!artifact.ok()) return std::string();
  least::ModelArtifact canonical = std::move(artifact).value();
  canonical.seconds = 0.0;
  return least::SerializeModel(canonical);
}

bool Terminal(const std::string& state) {
  return state == "succeeded" || state == "failed" || state == "cancelled" ||
         state == "rejected";
}

struct ServiceState {
  ServiceState() : pool(1), scheduler(&pool, MakeFleetOptions()) {}
  ~ServiceState() {
    scheduler.CancelAll();
    scheduler.Wait();
    journal.Close();
    if (server != nullptr) server->Stop();
    std::filesystem::remove_all(dir);
  }
  ServiceState(const ServiceState&) = delete;
  ServiceState& operator=(const ServiceState&) = delete;

  static least::FleetOptions MakeFleetOptions() {
    least::FleetOptions options;
    options.reseed_jobs = false;  // seeds come with the jobs
    return options;
  }

  std::string dir;
  std::vector<least::DenseMatrix> w_true;    ///< per dataset
  std::vector<std::string> bodies;           ///< POST /jobs body per entry
  std::vector<std::string> reference;        ///< canonical model per entry
  std::vector<least::FitOutcome> outcomes;   ///< reference fits per entry
  least::ThreadPool pool;
  least::FleetScheduler scheduler;
  least::JobJournal journal;
  std::unique_ptr<least::FleetService> service;
  std::unique_ptr<least::HttpServer> server;
};

std::unique_ptr<ServiceState> MakeServiceState(const Args& args,
                                               Tracer* tracer) {
  auto state = std::make_unique<ServiceState>();
  state->dir = args.work_dir + "/" + args.workload;
  std::filesystem::remove_all(state->dir);
  std::filesystem::create_directories(state->dir);
  least::GlobalDatasetCache().Clear();

  for (int k = 0; k < kDatasets; ++k) {
    least::BenchmarkConfig cfg;
    cfg.graph_type = k % 2 == 0 ? least::GraphType::kErdosRenyi
                                : least::GraphType::kScaleFree;
    cfg.d = kD;
    cfg.n = kN;
    cfg.seed = SubSeed(args.seed, static_cast<uint64_t>(k));
    least::BenchmarkInstance instance = least::MakeBenchmarkInstance(cfg);
    CheckOk(least::WriteMatrixCsv(state->dir + "/" + DatasetRef(k),
                                  instance.x),
            "csv write");
    state->w_true.push_back(std::move(instance.w_true));
  }

  // Reference models, in-process, on a private cache.
  least::DatasetCache reference_cache;
  for (int i = 0; i < kList; ++i) {
    const uint64_t job_seed = SubSeed(args.seed, 1000 + i);
    const std::string name = "job" + std::to_string(i);
    const std::string ref = DatasetRef(i % kDatasets);
    state->bodies.push_back(
        "{\"name\":\"" + name +
        "\",\"algorithm\":\"least-dense\",\"dataset\":{\"csv\":\"" + ref +
        "\",\"has_header\":false},\"options\":{" + kOptionsJson +
        ",\"seed\":" + std::to_string(job_seed) + "}}");

    least::CsvSourceOptions csv;
    csv.has_header = false;
    csv.cache = &reference_cache;
    const std::shared_ptr<least::DataSource> source =
        least::MakeCsvSource(state->dir + "/" + ref, csv);
    CheckOk(source->Prepare(), "reference prepare");
    const LearnOptions options = JobOptions(job_seed);
    least::FitOutcome outcome =
        least::RunAlgorithm(least::Algorithm::kLeastDense, *source, options);
    CheckOk(outcome.status, "reference fit");
    least::ModelArtifact artifact = least::ModelArtifact::FromOutcome(
        name, least::Algorithm::kLeastDense, options, outcome);
    artifact.train_state = nullptr;
    artifact.dataset = source->spec();
    artifact.seconds = 0.0;
    state->reference.push_back(least::SerializeModel(artifact));
    state->outcomes.push_back(std::move(outcome));
  }

  state->scheduler.set_journal(&state->journal);
  least::FleetServiceOptions service_options;
  service_options.data_root = state->dir;
  state->service = std::make_unique<least::FleetService>(
      &state->scheduler, &state->journal, service_options);
  least::HttpHandler handler = state->service->AsHandler();
  if (tracer != nullptr) handler = TimedHandler(std::move(handler), tracer);
  least::HttpServerOptions server_options;
  server_options.num_threads = kClients;  // one per keep-alive connection
  state->server =
      std::make_unique<least::HttpServer>(std::move(handler), server_options);
  CheckOk(state->server->Start(), "service start");
  return state;
}

// What one caller saw for one job.
struct CallRecord {
  bool ok = false;
  double latency_ms = 0;  ///< POST /jobs sent to model bytes received
  double queue_ms = 0;
  double run_ms = 0;
  Clock::time_point received;  ///< when the model bytes arrived
};

class Caller {
 public:
  Caller(int port, const ServiceState& state, Tracer* tracer)
      : client_("127.0.0.1", port), state_(state), tracer_(tracer) {}

  // Runs list entry `i`; `job` labels its spans. Latency runs from
  // sending POST /jobs to receiving the model bytes.
  CallRecord Run(int i, int64_t job) {
    CallRecord rec;
    const Clock::time_point t0 = Clock::now();
    Span job_span(tracer_, "job", job);
    rec.ok = Attempt(i, &rec);
    rec.latency_ms = MsBetween(t0, rec.received);
    return rec;
  }

  HttpClient::Stats stats() const { return client_.stats(); }

 private:
  // False on any transport error, non-2xx reply, non-succeeded job or a
  // model that differs from the reference.
  bool Attempt(int i, CallRecord* rec) {
    least::Result<HttpClientResponse> submit = Call("client.submit", [&] {
      return client_.Post("/jobs", state_.bodies[i]);
    });
    if (!submit.ok() || submit.value().status != 202) return false;
    least::Result<JsonValue> doc = least::ParseJson(submit.value().body);
    int64_t job_id = -1;
    if (!doc.ok() || doc.value().Find("job_id") == nullptr ||
        !doc.value().Find("job_id")->IntegerValue(&job_id)) {
      return false;
    }
    std::string state;
    while (state.empty()) {
      least::Result<HttpClientResponse> poll = Call("client.changes", [&] {
        return client_.Get("/changes?since=" + std::to_string(since_) +
                           "&timeout_ms=5000");
      });
      if (!poll.ok() || poll.value().status != 200) return false;
      least::Result<JsonValue> feed = least::ParseJson(poll.value().body);
      if (!feed.ok()) return false;
      const JsonValue* events = feed.value().Find("events");
      const JsonValue* head = feed.value().Find("head");
      int64_t head_seq = 0;
      if (events == nullptr || head == nullptr ||
          !head->IntegerValue(&head_seq)) {
        return false;
      }
      for (const JsonValue& event : events->items()) {
        const JsonValue* id = event.Find("job_id");
        const JsonValue* s = event.Find("state");
        int64_t event_job = -1;
        if (id == nullptr || s == nullptr || !id->IntegerValue(&event_job)) {
          return false;
        }
        if (event_job == job_id && Terminal(s->as_string())) {
          const JsonValue* queue_ms = event.Find("queue_ms");
          const JsonValue* run_ms = event.Find("run_ms");
          if (queue_ms == nullptr || run_ms == nullptr) return false;
          state = s->as_string();
          rec->queue_ms = queue_ms->as_number();
          rec->run_ms = run_ms->as_number();
        }
      }
      since_ = static_cast<uint64_t>(head_seq);
      const JsonValue* closed = feed.value().Find("closed");
      if (state.empty() && (closed == nullptr || closed->as_bool())) {
        return false;
      }
    }
    if (state != "succeeded") return false;
    least::Result<HttpClientResponse> model = Call("client.model", [&] {
      return client_.Get("/models/" + std::to_string(job_id));
    });
    if (!model.ok() || model.value().status != 200) return false;
    rec->received = Clock::now();
    return CanonicalModel(model.value().body) == state_.reference[i];
  }

  template <typename F>
  least::Result<HttpClientResponse> Call(const char* span_name, F request) {
    Span span(tracer_, span_name);
    return request();
  }

  HttpClient client_;
  const ServiceState& state_;
  Tracer* tracer_;
  uint64_t since_ = 0;  ///< changes-feed cursor
};

}  // namespace

Outcome RunServiceJobs(const Args& args, Tracer* tracer) {
  Outcome out;
  std::unique_ptr<ServiceState> state;
  const auto make = [&] { return MakeServiceState(args, tracer); };
  std::vector<double> setup_s;
  TimedSetup(make, &state, tracer, &setup_s);

  std::vector<std::unique_ptr<Caller>> callers;
  for (int c = 0; c < kClients; ++c) {
    callers.push_back(
        std::make_unique<Caller>(state->server->port(), *state, tracer));
  }

  // Warm-up: one pass over the list, so every dataset is in the cache and
  // every connection open before the timed loop; discarded but checked.
  int64_t failed = 0;
  for (int i = 0; i < kList; ++i) {
    if (!callers[i % kClients]->Run(i, -1).ok) ++failed;
  }

  const least::DatasetCache::Stats cache0 = least::GlobalDatasetCache().stats();
  std::mutex mu;
  std::vector<double> latency_ms, queue_ms, run_ms;
  const JobLoop loop = RunLoop(
      {.list_size = kList, .clients = kClients, .warmup_jobs = 0,
       .seconds = args.seconds},
      tracer, [&](int client, int i, int64_t seq) {
        const CallRecord rec = callers[client]->Run(i, seq);
        if (rec.ok) {
          std::lock_guard<std::mutex> lock(mu);
          queue_ms.push_back(rec.queue_ms);
          run_ms.push_back(rec.run_ms);
          if (!TracedJob(seq, kList, tracer != nullptr)) {
            latency_ms.push_back(rec.latency_ms);
          }
        }
        return rec.ok;
      });
  const least::DatasetCache::Stats cache1 = least::GlobalDatasetCache().stats();

  out.attempted = loop.attempted + kList;
  out.failed = loop.failed + failed;
  const int64_t timed_jobs = loop.timed_jobs;
  if (cache1.peak_resident_bytes > cache1.byte_budget) {
    out.Error("DatasetCache peak exceeds its budget");
  }

  double f1 = 0, shd = 0, inner = 0, outer = 0, model_bytes = 0;
  std::vector<double> fit_ms;
  for (int i = 0; i < kList; ++i) {
    const least::FitOutcome& o = state->outcomes[i];
    const least::StructureMetrics m =
        least::EvaluateStructure(state->w_true[i % kDatasets], o.weights);
    f1 += m.f1;
    shd += static_cast<double>(m.shd);
    inner += static_cast<double>(o.inner_iterations);
    outer += static_cast<double>(o.outer_iterations);
    model_bytes += static_cast<double>(state->reference[i].size());
    fit_ms.push_back(o.seconds * 1e3);
  }
  f1 /= kList;
  shd /= kList;
  inner /= kList;
  outer /= kList;
  model_bytes /= kList;

  ReportLatency(latency_ms, loop.untraced_window_jps, &out);
  // The learner's part of a job: the same fit made in-process at set-up.
  char note[160];
  std::snprintf(note, sizeof(note),
                "learner: in-process fit p50 %.3f ms, %.1f%% of the job "
                "latency p50",
                Median(fit_ms), 100.0 * Median(fit_ms) / Median(latency_ms));
  out.notes.push_back(note);
  out.Metric("peak_resident_bytes",
             static_cast<double>(cache1.peak_resident_bytes), "bytes");
  out.Metric("f1", f1, "ratio");
  out.Metric("shd", shd, "edges");
  out.Metric("learner.inner_iters", inner, "count");
  out.Metric("learner.outer_iters", outer, "count");
  out.Metric("model.bytes", model_bytes, "bytes");

  const double jobs = static_cast<double>(timed_jobs);
  const int64_t hits = cache1.hits - cache0.hits;
  const int64_t misses = cache1.misses - cache0.misses;
  out.Metric("cache.hits", hits / jobs, "count");
  out.Metric("cache.misses", misses / jobs, "count");
  out.Metric("cache.loads", (cache1.loads - cache0.loads) / jobs, "count");
  out.Metric("cache.evictions", (cache1.evictions - cache0.evictions) / jobs,
             "count");
  out.Metric("cache.refusals", (cache1.refusals - cache0.refusals) / jobs,
             "count");
  out.Metric("cache.hit_ratio",
             hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                               : 0.0,
             "ratio");
  // Every dataset is resident after the warm-up: a timed miss or load
  // means the cache lost an entry it had room for.
  if (misses != 0 || cache1.loads != cache0.loads) {
    out.Error("DatasetCache missed after warm-up: " + std::to_string(misses) +
              " misses");
  }

  out.Metric("sched.queue_ms", Median(queue_ms), "ms");
  out.Metric("sched.run_ms", Median(run_ms), "ms");
  out.Metric("sched.queue_depth_high_water",
             static_cast<double>(state->scheduler.Report().queue_depth_high_water),
             "count");
  int64_t connects = 0, send_attempts = 0;
  for (const auto& caller : callers) {
    connects += caller->stats().connects;
    send_attempts += caller->stats().send_attempts;
  }
  out.Metric("http.connects", static_cast<double>(connects), "count");
  out.Metric("http.send_attempts",
             static_cast<double>(send_attempts) /
                 static_cast<double>(out.attempted),
             "count");

  if (tracer != nullptr) {
    const auto agg = AggregateSpans(tracer->Snapshot());
    const double traced_jobs =
        static_cast<double>(std::max<int64_t>(Totals(agg, "job").calls, 1));
    double handler_ms = 0, client_ms = 0;
    int64_t requests = 0;
    for (const char* route : {"submit", "changes", "model"}) {
      const SpanTotals server = Totals(agg, std::string("service.") + route);
      const SpanTotals client = Totals(agg, std::string("client.") + route);
      out.Metric(std::string("service.") + route + ".ms",
                 server.calls > 0 ? server.total_ms / server.calls : 0, "ms");
      out.Metric(std::string("service.") + route + ".calls",
                 static_cast<double>(server.calls) / traced_jobs, "count");
      handler_ms += server.total_ms;
      client_ms += client.total_ms;
      requests += client.calls;
    }
    out.Metric("http.wire_ms",
               requests > 0 ? (client_ms - handler_ms) / requests : 0, "ms");
    ReportOverhead(loop.untraced_window_jps, loop.traced_window_jps, &out);
  }
  callers.clear();  // their connections close before the server stops
  TimedSetup(make, &state, nullptr, &setup_s);
  out.Metric("setup_s", Median(setup_s), "s");
  return out;
}

}  // namespace perfbench
