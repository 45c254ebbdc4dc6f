// End-to-end loopback tests for the REST front end (net/http_server.h +
// net/fleet_service.h): a job submitted as JSON over a real TCP connection,
// followed through the long-poll changes feed, must produce model checkpoint
// bytes bit-identical to the same job run directly through FleetScheduler —
// at scheduler pool sizes 1 and 4, extending the fleet determinism contract
// through the HTTP path. Also covers the route table's error mapping (404 /
// 405 / 400 / 409) and the metrics endpoint.

#include "net/fleet_service.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>

#include "core/data_source.h"
#include "data/benchmark_data.h"
#include "io/model_serializer.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "runtime/fleet_scheduler.h"
#include "runtime/job_journal.h"
#include "runtime/thread_pool.h"
#include "util/failpoint.h"

namespace least {
namespace {

constexpr uint64_t kFleetSeed = 77;

LearnOptions FastOptions() {
  LearnOptions opt;
  opt.max_outer_iterations = 30;
  opt.max_inner_iterations = 150;
  opt.tolerance = 1e-4;
  opt.track_exact_h = true;
  opt.terminate_on_h = true;
  opt.lambda1 = 0.05;
  opt.learning_rate = 0.03;
  return opt;
}

// The JSON options equivalent of FastOptions(): every decimal here parses
// (strtod) to the exact double the C++ literals above produce, so the HTTP
// job runs with bitwise-identical options.
const char kFastOptionsJson[] =
    "{\"max_outer_iterations\":30,\"max_inner_iterations\":150,"
    "\"tolerance\":1e-4,\"track_exact_h\":true,\"terminate_on_h\":true,"
    "\"lambda1\":0.05,\"learning_rate\":0.03}";

// Writes the shared benchmark dataset CSV into `dir`; returns its path.
std::string WriteDataset(const std::string& dir) {
  BenchmarkConfig cfg;
  cfg.d = 6;
  cfg.n = 120;
  cfg.seed = 5;
  const std::string path = dir + "/net_service_data.csv";
  EXPECT_TRUE(WriteMatrixCsv(path, MakeBenchmarkInstance(cfg).x).ok());
  return path;
}

// Zeroes the one legitimately run-dependent field of a model blob — the
// fit's wall-clock `seconds` stamp — and re-serializes. Every other byte
// (weights, options, seed, dataset spec, candidate edges) must already be
// bit-identical between the HTTP and direct paths; comparing canonicalized
// blobs asserts exactly that while also round-tripping the HTTP-delivered
// bytes through the deserializer.
std::string CanonicalModelBytes(const std::string& blob) {
  Result<ModelArtifact> artifact = DeserializeModel(blob);
  EXPECT_TRUE(artifact.ok()) << artifact.status().ToString();
  if (!artifact.ok()) return std::string();
  ModelArtifact canonical = std::move(artifact).value();
  canonical.seconds = 0.0;
  return SerializeModel(canonical);
}

// Reference path: the same job, enqueued in-process on the same fleet seed.
std::string DirectModelBytes(const std::string& csv_path, int pool_size) {
  ThreadPool pool(pool_size);
  FleetOptions options;
  options.seed = kFleetSeed;
  FleetScheduler scheduler(&pool, options);
  LearnJob job;
  job.name = "http-job";
  job.algorithm = Algorithm::kLeastDense;
  CsvSourceOptions csv;
  csv.has_header = false;
  job.data = MakeCsvSource(csv_path, csv);
  job.options = FastOptions();
  const int64_t id = scheduler.Enqueue(std::move(job));
  scheduler.Wait();
  Result<std::string> bytes = scheduler.SerializedModel(id);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? CanonicalModelBytes(bytes.value()) : std::string();
}

// One running REST stack (pool + scheduler + journal + service + server).
struct Stack {
  explicit Stack(const std::string& data_root, int pool_size,
                 FleetOptions fleet_options = MakeFleetOptions())
      : pool(pool_size), scheduler(&pool, fleet_options) {
    scheduler.set_journal(&journal);
    FleetServiceOptions service_options;
    service_options.data_root = data_root;
    service = std::make_unique<FleetService>(&scheduler, &journal,
                                             service_options);
    HttpServerOptions server_options;
    server_options.num_threads = 2;
    server = std::make_unique<HttpServer>(service->AsHandler(),
                                          server_options);
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  ~Stack() {
    scheduler.CancelAll();
    scheduler.Wait();
    server->Stop();
  }

  static FleetOptions MakeFleetOptions() {
    FleetOptions options;
    options.seed = kFleetSeed;
    return options;
  }

  ThreadPool pool;
  FleetScheduler scheduler;
  JobJournal journal;
  std::unique_ptr<FleetService> service;
  std::unique_ptr<HttpServer> server;
};

// Polls GET /changes until `job_id` reaches a terminal state; returns that
// state's name ("" on timeout). Follows the documented protocol: advance
// `since` to the returned head each round.
std::string FollowUntilSettled(HttpClient& client, int64_t job_id,
                               int max_rounds = 200) {
  uint64_t since = 0;
  for (int round = 0; round < max_rounds; ++round) {
    Result<HttpClientResponse> poll =
        client.Get("/changes?since=" + std::to_string(since) +
                   "&timeout_ms=2000");
    if (!poll.ok()) {
      ADD_FAILURE() << poll.status().ToString();
      return "";
    }
    EXPECT_EQ(poll.value().status, 200);
    Result<JsonValue> doc = ParseJson(poll.value().body);
    if (!doc.ok()) {
      ADD_FAILURE() << doc.status().ToString();
      return "";
    }
    for (const JsonValue& event : doc.value().Find("events")->items()) {
      int64_t event_job = -1;
      event.Find("job_id")->IntegerValue(&event_job);
      const std::string& state = event.Find("state")->as_string();
      if (event_job == job_id &&
          (state == "succeeded" || state == "failed" ||
           state == "cancelled")) {
        return state;
      }
    }
    int64_t head = 0;
    doc.value().Find("head")->IntegerValue(&head);
    since = static_cast<uint64_t>(head);
    if (doc.value().Find("closed")->as_bool()) break;
  }
  return "";
}

std::string SubmitBody() {
  return std::string("{\"name\":\"http-job\",\"algorithm\":\"least-dense\","
                     "\"dataset\":{\"csv\":\"net_service_data.csv\","
                     "\"has_header\":false},\"options\":") +
         kFastOptionsJson + "}";
}

// The tentpole acceptance test: HTTP-path model bytes are bit-identical to
// the direct scheduler path, at pool sizes 1 and 4.
TEST(NetService, HttpModelBytesBitIdenticalToDirectRun) {
  const std::string dir = testing::TempDir();
  WriteDataset(dir);
  const std::string reference =
      DirectModelBytes(dir + "/net_service_data.csv", /*pool_size=*/1);
  ASSERT_FALSE(reference.empty());

  for (const int pool_size : {1, 4}) {
    SCOPED_TRACE("pool_size=" + std::to_string(pool_size));
    Stack stack(dir, pool_size);
    HttpClient client("127.0.0.1", stack.server->port());

    Result<HttpClientResponse> submit = client.Post("/jobs", SubmitBody());
    ASSERT_TRUE(submit.ok()) << submit.status().ToString();
    ASSERT_EQ(submit.value().status, 202) << submit.value().body;
    Result<JsonValue> submitted = ParseJson(submit.value().body);
    ASSERT_TRUE(submitted.ok());
    int64_t job_id = -1;
    ASSERT_TRUE(
        submitted.value().Find("job_id")->IntegerValue(&job_id));
    EXPECT_EQ(job_id, 0);

    EXPECT_EQ(FollowUntilSettled(client, job_id), "succeeded");

    Result<HttpClientResponse> status =
        client.Get("/jobs/" + std::to_string(job_id));
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    ASSERT_EQ(status.value().status, 200);
    Result<JsonValue> view = ParseJson(status.value().body);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view.value().Find("state")->as_string(), "succeeded");
    EXPECT_TRUE(view.value().Find("has_model")->as_bool());
    int64_t edges = -1;
    EXPECT_TRUE(view.value().Find("edges")->IntegerValue(&edges));
    EXPECT_GE(edges, 0);

    Result<HttpClientResponse> model =
        client.Get("/models/" + std::to_string(job_id));
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_EQ(model.value().status, 200);
    EXPECT_EQ(model.value().Header("content-type"),
              "application/octet-stream");
    EXPECT_EQ(CanonicalModelBytes(model.value().body), reference);  // bitwise
  }
}

TEST(NetService, FleetReportAndMetricsEndpoints) {
  const std::string dir = testing::TempDir();
  WriteDataset(dir);
  Stack stack(dir, /*pool_size=*/2);
  HttpClient client("127.0.0.1", stack.server->port());

  Result<HttpClientResponse> submit = client.Post("/jobs", SubmitBody());
  ASSERT_TRUE(submit.ok());
  ASSERT_EQ(submit.value().status, 202);
  EXPECT_EQ(FollowUntilSettled(client, 0), "succeeded");

  Result<HttpClientResponse> report = client.Get("/jobs");
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().status, 200);
  Result<JsonValue> doc = ParseJson(report.value().body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  int64_t total = 0, succeeded = 0;
  ASSERT_TRUE(doc.value().Find("total_jobs")->IntegerValue(&total));
  ASSERT_TRUE(doc.value().Find("succeeded")->IntegerValue(&succeeded));
  EXPECT_EQ(total, 1);
  EXPECT_EQ(succeeded, 1);
  ASSERT_NE(doc.value().Find("p99_latency_ms"), nullptr);
  ASSERT_NE(doc.value().Find("p999_latency_ms"), nullptr);

  Result<HttpClientResponse> metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics.value().status, 200);
  Result<JsonValue> snapshot = ParseJson(metrics.value().body);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_TRUE(snapshot.value().is_object());

  Result<HttpClientResponse> index = client.Get("/");
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index.value().status, 200);
  Result<JsonValue> info = ParseJson(index.value().body);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().Find("service")->as_string(), "least-fleet");
}

TEST(NetService, RouteAndValidationErrors) {
  const std::string dir = testing::TempDir();
  Stack stack(dir, /*pool_size=*/1);
  HttpClient client("127.0.0.1", stack.server->port());

  const auto expect_status = [&](Result<HttpClientResponse> response,
                                 int want, const char* label) {
    ASSERT_TRUE(response.ok()) << label << ": "
                               << response.status().ToString();
    EXPECT_EQ(response.value().status, want)
        << label << ": " << response.value().body;
  };

  expect_status(client.Get("/nope"), 404, "unknown route");
  expect_status(client.Get("/jobs/999"), 404, "unknown job id");
  expect_status(client.Get("/jobs/abc"), 400, "non-numeric job id");
  expect_status(client.Get("/models/999"), 404, "unknown model id");
  expect_status(client.Request("PUT", "/jobs", "{}", "application/json"),
                405, "bad method");
  expect_status(client.Post("/jobs", "{"), 400, "truncated json");
  expect_status(client.Post("/jobs", "{\"algorithm\":\"least-dense\"}"),
                400, "missing dataset");
  expect_status(
      client.Post("/jobs",
                  "{\"algorithm\":\"nope\",\"dataset\":{\"csv\":\"x\"}}"),
      400, "unknown algorithm");
  expect_status(
      client.Post("/jobs", "{\"algorithm\":\"least-dense\","
                           "\"dataset\":{\"csv\":\"/etc/passwd\"}}"),
      400, "absolute dataset path");
  expect_status(
      client.Post("/jobs", "{\"algorithm\":\"least-dense\","
                           "\"dataset\":{\"csv\":\"../escape.csv\"}}"),
      400, "dataset path escape");
  expect_status(
      client.Post("/jobs", "{\"algorithm\":\"least-dense\","
                           "\"dataset\":{\"csv\":\"x.csv\"},"
                           "\"options\":{\"lamda1\":0.1}}"),
      400, "misspelled option");
  expect_status(client.RawRequest("BOGUS\r\n\r\n"), 400,
                "malformed request line");
}

// POST /jobs carries the scheduling fields through to the scheduler: the
// 202 body reports queue position + policy, GET /jobs/<id> echoes
// priority/deadline, and malformed scheduling fields are precise 400s.
TEST(NetService, SubmissionCarriesSchedulingFields) {
  const std::string dir = testing::TempDir();
  WriteDataset(dir);
  FleetOptions fleet_options = Stack::MakeFleetOptions();
  fleet_options.policy = SchedPolicy::kPriority;
  Stack stack(dir, /*pool_size=*/1, fleet_options);
  HttpClient client("127.0.0.1", stack.server->port());

  // Gate the single worker so the job stays queued while we inspect it.
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  stack.pool.Schedule([&started, gate]() {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();

  std::string body = SubmitBody();
  body.insert(body.size() - 1, ",\"priority\":3,\"deadline_ms\":5000");
  Result<HttpClientResponse> submit = client.Post("/jobs", body);
  ASSERT_TRUE(submit.ok()) << submit.status().ToString();
  ASSERT_EQ(submit.value().status, 202) << submit.value().body;
  Result<JsonValue> accepted = ParseJson(submit.value().body);
  ASSERT_TRUE(accepted.ok());
  int64_t position = -1;
  EXPECT_TRUE(
      accepted.value().Find("queue_position")->IntegerValue(&position));
  EXPECT_EQ(position, 0);
  EXPECT_EQ(accepted.value().Find("policy")->as_string(), "priority");

  Result<HttpClientResponse> status = client.Get("/jobs/0");
  ASSERT_TRUE(status.ok());
  ASSERT_EQ(status.value().status, 200);
  Result<JsonValue> view = ParseJson(status.value().body);
  ASSERT_TRUE(view.ok());
  int64_t priority = 0, deadline = 0, queue_position = -2;
  EXPECT_TRUE(view.value().Find("priority")->IntegerValue(&priority));
  EXPECT_TRUE(view.value().Find("deadline_ms")->IntegerValue(&deadline));
  EXPECT_TRUE(
      view.value().Find("queue_position")->IntegerValue(&queue_position));
  EXPECT_EQ(priority, 3);
  EXPECT_EQ(deadline, 5000);
  EXPECT_EQ(queue_position, 0);
  EXPECT_EQ(view.value().Find("policy")->as_string(), "priority");

  // Malformed scheduling fields are 400s, and field strictness still holds.
  const auto expect_400 = [&](const std::string& extra, const char* label) {
    std::string bad = SubmitBody();
    bad.insert(bad.size() - 1, extra);
    Result<HttpClientResponse> response = client.Post("/jobs", bad);
    ASSERT_TRUE(response.ok()) << label;
    EXPECT_EQ(response.value().status, 400)
        << label << ": " << response.value().body;
  };
  expect_400(",\"priority\":\"high\"", "non-integer priority");
  expect_400(",\"deadline_ms\":-5", "negative deadline");
  expect_400(",\"prioritee\":1", "misspelled scheduling field");

  release.set_value();
  EXPECT_EQ(FollowUntilSettled(client, 0), "succeeded");
  // Once claimed, the queue position is gone from the status view.
  Result<HttpClientResponse> settled = client.Get("/jobs/0");
  ASSERT_TRUE(settled.ok());
  Result<JsonValue> settled_view = ParseJson(settled.value().body);
  ASSERT_TRUE(settled_view.ok());
  int64_t settled_position = 0;
  EXPECT_TRUE(settled_view.value()
                  .Find("queue_position")
                  ->IntegerValue(&settled_position));
  EXPECT_EQ(settled_position, -1);
}

// Bounded admission over HTTP: a full queue answers 429 with a Retry-After
// hint, the journal records the shed submission (job_id = -1), and the
// fleet report counts it — while admitted jobs are untouched.
TEST(NetService, FullQueueAnswers429WithRetryAfter) {
  const std::string dir = testing::TempDir();
  WriteDataset(dir);
  FleetOptions fleet_options = Stack::MakeFleetOptions();
  fleet_options.max_queued = 1;
  Stack stack(dir, /*pool_size=*/1, fleet_options);
  HttpClient client("127.0.0.1", stack.server->port());

  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  stack.pool.Schedule([&started, gate]() {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();

  Result<HttpClientResponse> admitted = client.Post("/jobs", SubmitBody());
  ASSERT_TRUE(admitted.ok());
  ASSERT_EQ(admitted.value().status, 202) << admitted.value().body;

  Result<HttpClientResponse> shed = client.Post("/jobs", SubmitBody());
  ASSERT_TRUE(shed.ok());
  ASSERT_EQ(shed.value().status, 429) << shed.value().body;
  const std::string retry_after(shed.value().Header("retry-after"));
  ASSERT_FALSE(retry_after.empty());
  const long retry_seconds = std::strtol(retry_after.c_str(), nullptr, 10);
  EXPECT_GE(retry_seconds, 1);
  EXPECT_LE(retry_seconds, 60);
  Result<JsonValue> shed_doc = ParseJson(shed.value().body);
  ASSERT_TRUE(shed_doc.ok());
  EXPECT_EQ(shed_doc.value().Find("state")->as_string(), "rejected");
  int64_t hint = 0;
  EXPECT_TRUE(
      shed_doc.value().Find("retry_after_seconds")->IntegerValue(&hint));
  EXPECT_EQ(hint, retry_seconds);

  // The journal records the rejection with job_id = -1 (a rejected
  // submission never becomes a job).
  Result<HttpClientResponse> changes =
      client.Get("/changes?since=0&timeout_ms=100");
  ASSERT_TRUE(changes.ok());
  Result<JsonValue> feed = ParseJson(changes.value().body);
  ASSERT_TRUE(feed.ok());
  bool saw_rejection = false;
  for (const JsonValue& event : feed.value().Find("events")->items()) {
    int64_t event_job = 0;
    event.Find("job_id")->IntegerValue(&event_job);
    if (event.Find("state")->as_string() == "rejected") {
      EXPECT_EQ(event_job, -1);
      saw_rejection = true;
    }
  }
  EXPECT_TRUE(saw_rejection);

  release.set_value();
  EXPECT_EQ(FollowUntilSettled(client, 0), "succeeded");
  Result<HttpClientResponse> report = client.Get("/jobs");
  ASSERT_TRUE(report.ok());
  Result<JsonValue> report_doc = ParseJson(report.value().body);
  ASSERT_TRUE(report_doc.ok());
  int64_t total = 0, rejects = 0;
  EXPECT_TRUE(report_doc.value().Find("total_jobs")->IntegerValue(&total));
  EXPECT_TRUE(report_doc.value()
                  .Find("admission_rejects")
                  ->IntegerValue(&rejects));
  EXPECT_EQ(total, 1);
  EXPECT_EQ(rejects, 1);
}

// GET /models/<id> before the job settles is 409; after cancellation it is
// 409 with the terminal state; DELETE /jobs/<id> cancels.
TEST(NetService, ModelLifecycleErrors) {
  const std::string dir = testing::TempDir();
  WriteDataset(dir);
  Stack stack(dir, /*pool_size=*/1);
  HttpClient client("127.0.0.1", stack.server->port());

  // Job 0 holds the only worker in its claim for 1.5 s, so job 1 is
  // provably still queued (never started, never settled) while the checks
  // below run, however fast it would fit.
  ScopedFailpoints hold("sched.claim=delay:1500@1");
  ASSERT_TRUE(hold.status().ok()) << hold.status().ToString();
  Result<HttpClientResponse> blocker = client.Post(
      "/jobs",
      "{\"name\":\"blocker\",\"algorithm\":\"least-dense\","
      "\"dataset\":{\"csv\":\"net_service_data.csv\","
      "\"has_header\":false},\"options\":{\"max_outer_iterations\":1}}");
  ASSERT_TRUE(blocker.ok());
  ASSERT_EQ(blocker.value().status, 202);

  const std::string slow_body =
      "{\"name\":\"slow\",\"algorithm\":\"least-dense\","
      "\"dataset\":{\"csv\":\"net_service_data.csv\",\"has_header\":false},"
      "\"options\":{\"max_outer_iterations\":100000,"
      "\"max_inner_iterations\":500,\"tolerance\":0}}";
  Result<HttpClientResponse> submit = client.Post("/jobs", slow_body);
  ASSERT_TRUE(submit.ok());
  ASSERT_EQ(submit.value().status, 202);

  Result<HttpClientResponse> early = client.Get("/models/1");
  ASSERT_TRUE(early.ok());
  EXPECT_EQ(early.value().status, 409);

  Result<HttpClientResponse> cancel = client.Delete("/jobs/1");
  ASSERT_TRUE(cancel.ok());
  EXPECT_EQ(cancel.value().status, 200);

  EXPECT_EQ(FollowUntilSettled(client, 1), "cancelled");

  Result<HttpClientResponse> after = client.Get("/models/1");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().status, 409);
  EXPECT_NE(after.value().body.find("cancelled"), std::string::npos);
}

}  // namespace
}  // namespace least
