#include "net/fleet_service.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "core/data_source.h"
#include "net/http_data_source.h"
#include "obs/metrics.h"
#include "runtime/fleet_scheduler.h"
#include "runtime/job_journal.h"
#include "util/failpoint.h"

namespace least {
namespace {

/// Splits "/jobs/3/cancel" into {"jobs", "3", "cancel"}.
std::vector<std::string_view> Segments(std::string_view path) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (start < path.size()) {
    if (path[start] == '/') {
      ++start;
      continue;
    }
    size_t end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    out.push_back(path.substr(start, end - start));
    start = end;
  }
  return out;
}

/// Strict decimal id ("0".."9223372036854775807"); false on anything else.
bool ParseId(std::string_view text, int64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  int64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  *out = value;
  return true;
}

bool ParseU64(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// A dataset ref must stay under data_root: relative, no `..` segments.
bool SafeRelativePath(std::string_view path) {
  if (path.empty() || path.front() == '/') return false;
  if (path.find('\0') != std::string_view::npos) return false;
  for (std::string_view segment : Segments(path)) {
    if (segment == "..") return false;
  }
  return true;
}

/// Closes a file descriptor on scope exit (ignores -1).
struct FdCloser {
  int fd;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

/// Reads bytes [lo, lo + count) of the open file `fd` into `*out`, so the
/// `/data` route holds only the extent a request asked for. False on an I/O
/// error or a short read (the file shrank since it was measured).
bool ReadExtent(int fd, uint64_t lo, uint64_t count, std::string* out) {
  out->resize(static_cast<size_t>(count));
  uint64_t done = 0;
  while (done < count) {
    const ssize_t n = ::pread(fd, out->data() + done,
                              static_cast<size_t>(count - done),
                              static_cast<off_t>(lo + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<uint64_t>(n);
  }
  return true;
}

/// One byte extent requested via `Range:`.
enum class RangeKind {
  kNone,           ///< no (or ignorable/malformed) Range header → 200 full
  kSatisfiable,    ///< [lo, hi] within the file → 206
  kUnsatisfiable,  ///< cannot overlap the file → 416
};

/// Parses a single-extent `bytes=lo-hi` / `bytes=lo-` / `bytes=-n` Range
/// value against a file of `size` bytes. Per RFC 9110 a malformed or
/// multi-extent Range header is *ignored* (the whole file is served with
/// 200) — only a well-formed extent that cannot overlap the file is 416.
RangeKind ParseByteRange(std::string_view value, uint64_t size, uint64_t* lo,
                         uint64_t* hi) {
  constexpr std::string_view kPrefix = "bytes=";
  if (value.substr(0, kPrefix.size()) != kPrefix) return RangeKind::kNone;
  std::string_view spec = value.substr(kPrefix.size());
  if (spec.find(',') != std::string_view::npos) return RangeKind::kNone;
  const size_t dash = spec.find('-');
  if (dash == std::string_view::npos) return RangeKind::kNone;
  const std::string_view first = spec.substr(0, dash);
  const std::string_view last = spec.substr(dash + 1);
  if (first.empty()) {
    // Suffix form "-n": the final n bytes.
    uint64_t n = 0;
    if (!ParseU64(last, &n)) return RangeKind::kNone;
    if (n == 0 || size == 0) return RangeKind::kUnsatisfiable;
    *lo = n >= size ? 0 : size - n;
    *hi = size - 1;
    return RangeKind::kSatisfiable;
  }
  if (!ParseU64(first, lo)) return RangeKind::kNone;
  if (last.empty()) {
    *hi = size == 0 ? 0 : size - 1;
  } else {
    if (!ParseU64(last, hi) || *hi < *lo) return RangeKind::kNone;
  }
  if (*lo >= size) return RangeKind::kUnsatisfiable;
  *hi = std::min(*hi, size - 1);
  return RangeKind::kSatisfiable;
}

/// u64 values (hashes, byte extents) travel as decimal strings: JSON
/// numbers are doubles and lose precision past 2^53.
JsonValue JsonU64(uint64_t value) {
  return JsonValue::String(std::to_string(value));
}

JsonValue LatencyToJson(const LatencyStats& stats) {
  JsonValue v = JsonValue::Object();
  v.Set("jobs", JsonValue::Number(static_cast<double>(stats.jobs)));
  v.Set("mean_ms", JsonValue::Number(stats.mean_ms));
  v.Set("p50_ms", JsonValue::Number(stats.p50_ms));
  v.Set("p99_ms", JsonValue::Number(stats.p99_ms));
  v.Set("max_ms", JsonValue::Number(stats.max_ms));
  return v;
}

/// Maps an internal error Status to an HTTP response. `kUnavailable` — the
/// transient class the scheduler retries — becomes 503 with a `Retry-After`
/// hint so well-behaved clients back off and resubmit instead of treating a
/// flaky moment as a permanent failure.
HttpResponse ErrorFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      return HttpResponse::Error(400, status.message());
    case StatusCode::kOutOfRange:
      return HttpResponse::Error(404, status.message());
    case StatusCode::kUnavailable: {
      HttpResponse response = HttpResponse::Error(503, status.message());
      response.headers.emplace_back("Retry-After", "1");
      return response;
    }
    default:
      return HttpResponse::Error(500, status.message());
  }
}

JsonValue ReportToJson(const FleetReport& report) {
  JsonValue v = JsonValue::Object();
  v.Set("total_jobs", JsonValue::Number(static_cast<double>(
                          report.total_jobs)));
  v.Set("pending", JsonValue::Number(static_cast<double>(report.pending)));
  v.Set("running", JsonValue::Number(static_cast<double>(report.running)));
  v.Set("succeeded",
        JsonValue::Number(static_cast<double>(report.succeeded)));
  v.Set("failed", JsonValue::Number(static_cast<double>(report.failed)));
  v.Set("cancelled",
        JsonValue::Number(static_cast<double>(report.cancelled)));
  v.Set("retries", JsonValue::Number(static_cast<double>(report.retries)));
  v.Set("retries_transient",
        JsonValue::Number(static_cast<double>(report.transient_retries)));
  v.Set("wall_seconds", JsonValue::Number(report.wall_seconds));
  v.Set("throughput_jobs_per_sec",
        JsonValue::Number(report.throughput_jobs_per_sec));
  v.Set("mean_latency_ms", JsonValue::Number(report.mean_latency_ms));
  v.Set("p50_latency_ms", JsonValue::Number(report.p50_latency_ms));
  v.Set("p90_latency_ms", JsonValue::Number(report.p90_latency_ms));
  v.Set("p99_latency_ms", JsonValue::Number(report.p99_latency_ms));
  v.Set("p999_latency_ms", JsonValue::Number(report.p999_latency_ms));
  v.Set("max_latency_ms", JsonValue::Number(report.max_latency_ms));
  v.Set("succeeded_first_try", LatencyToJson(report.succeeded_first_try));
  v.Set("succeeded_retried", LatencyToJson(report.succeeded_retried));
  v.Set("queue_depth_high_water",
        JsonValue::Number(static_cast<double>(report.queue_depth_high_water)));
  v.Set("admission_rejects",
        JsonValue::Number(static_cast<double>(report.admission_rejects)));
  JsonValue classes = JsonValue::Array();
  for (const FleetReport::PriorityClassStats& cls : report.priority_classes) {
    JsonValue entry = JsonValue::Object();
    entry.Set("priority", JsonValue::Number(cls.priority));
    entry.Set("latency", LatencyToJson(cls.latency));
    classes.Append(std::move(entry));
  }
  v.Set("priority_classes", std::move(classes));
  return v;
}

JsonValue JobStatusToJson(const JobStatusView& view) {
  JsonValue v = JsonValue::Object();
  v.Set("job_id", JsonValue::Number(static_cast<double>(view.job_id)));
  v.Set("name", JsonValue::String(view.name));
  v.Set("algorithm",
        JsonValue::String(std::string(AlgorithmName(view.algorithm))));
  v.Set("state", JsonValue::String(std::string(JobStateName(view.state))));
  v.Set("status_code",
        JsonValue::String(std::string(StatusCodeToString(view.status_code))));
  v.Set("status_message", JsonValue::String(view.status_message));
  v.Set("attempts", JsonValue::Number(view.attempts));
  // Seeds are full uint64s; a JSON number would silently round past 2^53.
  v.Set("seed", JsonValue::String(std::to_string(view.seed)));
  v.Set("queue_ms", JsonValue::Number(view.queue_ms));
  v.Set("run_ms", JsonValue::Number(view.run_ms));
  v.Set("edges", JsonValue::Number(static_cast<double>(view.edges)));
  v.Set("has_model", JsonValue::Bool(view.has_model));
  v.Set("priority", JsonValue::Number(view.priority));
  v.Set("deadline_ms",
        JsonValue::Number(static_cast<double>(view.deadline_ms)));
  v.Set("queue_position",
        JsonValue::Number(static_cast<double>(view.queue_position)));
  v.Set("policy", JsonValue::String(std::string(SchedPolicyName(view.policy))));
  return v;
}

JsonValue EventToJson(const JobEvent& event) {
  JsonValue v = JsonValue::Object();
  v.Set("seq", JsonValue::Number(static_cast<double>(event.seq)));
  v.Set("job_id", JsonValue::Number(static_cast<double>(event.job_id)));
  v.Set("name", JsonValue::String(event.name));
  v.Set("state", JsonValue::String(std::string(JobStateName(event.state))));
  v.Set("status_code",
        JsonValue::String(std::string(StatusCodeToString(event.status_code))));
  v.Set("attempts", JsonValue::Number(event.attempts));
  v.Set("queue_ms", JsonValue::Number(event.queue_ms));
  v.Set("run_ms", JsonValue::Number(event.run_ms));
  return v;
}

Status FieldError(std::string_view field, std::string_view want) {
  return Status::InvalidArgument("field \"" + std::string(field) + "\": " +
                                 std::string(want));
}

/// Applies one "options" member onto `options`; unknown keys are errors so
/// a typo ("lamda1") fails loudly instead of silently learning garbage.
Status ApplyOption(std::string_view key, const JsonValue& value,
                   LearnOptions* options) {
  const auto set_int = [&](int* out) {
    int64_t i = 0;
    if (!value.IntegerValue(&i) || i < INT32_MIN || i > INT32_MAX) {
      return FieldError(key, "expected an integer");
    }
    *out = static_cast<int>(i);
    return Status::Ok();
  };
  const auto set_double = [&](double* out) {
    if (!value.is_number()) return FieldError(key, "expected a number");
    *out = value.as_number();
    return Status::Ok();
  };
  const auto set_bool = [&](bool* out) {
    if (!value.is_bool()) return FieldError(key, "expected a boolean");
    *out = value.as_bool();
    return Status::Ok();
  };

  if (key == "k") return set_int(&options->k);
  if (key == "alpha") return set_double(&options->alpha);
  if (key == "lambda1") return set_double(&options->lambda1);
  if (key == "learning_rate") return set_double(&options->learning_rate);
  if (key == "lr_decay") return set_double(&options->lr_decay);
  if (key == "batch_size") return set_int(&options->batch_size);
  if (key == "rho_init") return set_double(&options->rho_init);
  if (key == "eta_init") return set_double(&options->eta_init);
  if (key == "rho_growth") return set_double(&options->rho_growth);
  if (key == "rho_progress_ratio") {
    return set_double(&options->rho_progress_ratio);
  }
  if (key == "rho_max") return set_double(&options->rho_max);
  if (key == "max_outer_iterations") {
    return set_int(&options->max_outer_iterations);
  }
  if (key == "max_inner_iterations") {
    return set_int(&options->max_inner_iterations);
  }
  if (key == "tolerance") return set_double(&options->tolerance);
  if (key == "inner_rtol") return set_double(&options->inner_rtol);
  if (key == "inner_check_every") return set_int(&options->inner_check_every);
  if (key == "filter_threshold") {
    return set_double(&options->filter_threshold);
  }
  if (key == "threshold_warmup_rounds") {
    return set_int(&options->threshold_warmup_rounds);
  }
  if (key == "prune_threshold") return set_double(&options->prune_threshold);
  if (key == "init_density") return set_double(&options->init_density);
  if (key == "seed") {
    int64_t i = 0;
    if (!value.IntegerValue(&i) || i < 0) {
      return FieldError(key, "expected a non-negative integer");
    }
    options->seed = static_cast<uint64_t>(i);
    return Status::Ok();
  }
  if (key == "verbose") return set_bool(&options->verbose);
  if (key == "track_exact_h") return set_bool(&options->track_exact_h);
  if (key == "terminate_on_h") return set_bool(&options->terminate_on_h);
  if (key == "track_estimated_h") {
    return set_bool(&options->track_estimated_h);
  }
  return FieldError(key, "unknown option");
}

}  // namespace

FleetService::FleetService(FleetScheduler* scheduler, JobJournal* journal,
                           FleetServiceOptions options)
    : scheduler_(scheduler),
      journal_(journal),
      options_(std::move(options)) {}

void FleetService::BeginDrain() {
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (draining_) return;
    draining_ = true;
  }
  journal_->Close();
  drain_cv_.notify_all();
}

bool FleetService::draining() const {
  std::lock_guard<std::mutex> lock(drain_mu_);
  return draining_;
}

void FleetService::WaitForShutdownRequest() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] { return draining_; });
}

Status FleetService::JobFromJson(const JsonValue& doc, LearnJob* job) const {
  if (!doc.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  bool saw_algorithm = false, saw_dataset = false;
  for (const auto& [key, value] : doc.members()) {
    if (key == "name") {
      if (!value.is_string()) return FieldError(key, "expected a string");
      job->name = value.as_string();
    } else if (key == "algorithm") {
      if (!value.is_string()) return FieldError(key, "expected a string");
      Result<Algorithm> algorithm = ParseAlgorithm(value.as_string());
      if (!algorithm.ok()) return algorithm.status();
      job->algorithm = algorithm.value();
      saw_algorithm = true;
    } else if (key == "dataset") {
      if (!value.is_object()) {
        return FieldError(key, "expected an object with a \"csv\" path");
      }
      std::string csv_path;
      CsvSourceOptions csv;
      for (const auto& [dkey, dvalue] : value.members()) {
        if (dkey == "csv") {
          if (!dvalue.is_string()) {
            return FieldError("dataset.csv", "expected a string path");
          }
          csv_path = dvalue.as_string();
        } else if (dkey == "has_header") {
          if (!dvalue.is_bool()) {
            return FieldError("dataset.has_header", "expected a boolean");
          }
          csv.has_header = dvalue.as_bool();
        } else if (dkey == "name") {
          if (!dvalue.is_string()) {
            return FieldError("dataset.name", "expected a string");
          }
          csv.name = dvalue.as_string();
        } else if (dkey == "shard_rows") {
          int64_t rows = 0;
          if (!dvalue.IntegerValue(&rows) || rows < 0 || rows > INT32_MAX) {
            return FieldError("dataset.shard_rows",
                              "expected a non-negative integer");
          }
          csv.shard_rows = static_cast<int>(rows);
        } else {
          return FieldError("dataset." + dkey, "unknown dataset field");
        }
      }
      if (csv_path.empty()) {
        return FieldError("dataset.csv", "required");
      }
      if (csv_path.rfind("http://", 0) == 0) {
        // A remote origin: the ref *is* the URL. Shards stream over
        // `Range:` GETs (possibly from this server's own /data route)
        // instead of resolving under data_root.
        HttpSourceOptions remote;
        remote.has_header = csv.has_header;
        remote.name = csv.name;
        if (csv.shard_rows > 0) remote.shard_rows = csv.shard_rows;
        Result<std::shared_ptr<const DataSource>> source =
            MakeHttpSource(csv_path, std::move(remote));
        if (!source.ok()) {
          return FieldError("dataset.csv", source.status().message());
        }
        job->data = std::move(source).value();
      } else {
        if (!SafeRelativePath(csv_path)) {
          return FieldError("dataset.csv",
                            "must be a relative path without \"..\"");
        }
        job->data = MakeCsvSource(options_.data_root + "/" + csv_path,
                                  std::move(csv));
      }
      saw_dataset = true;
    } else if (key == "options") {
      if (!value.is_object()) return FieldError(key, "expected an object");
      for (const auto& [okey, ovalue] : value.members()) {
        LEAST_RETURN_IF_ERROR(ApplyOption(okey, ovalue, &job->options));
      }
    } else if (key == "candidate_edges") {
      if (!value.is_array()) {
        return FieldError(key, "expected an array of [parent, child] pairs");
      }
      for (const JsonValue& pair : value.items()) {
        int64_t a = 0, b = 0;
        if (!pair.is_array() || pair.items().size() != 2 ||
            !pair.items()[0].IntegerValue(&a) ||
            !pair.items()[1].IntegerValue(&b) || a < 0 || b < 0 ||
            a > INT32_MAX || b > INT32_MAX) {
          return FieldError(key,
                           "each entry must be two non-negative integers");
        }
        job->candidate_edges.emplace_back(static_cast<int>(a),
                                          static_cast<int>(b));
      }
    } else if (key == "max_attempts") {
      int64_t attempts = 0;
      if (!value.IntegerValue(&attempts) || attempts < 0 ||
          attempts > 1000) {
        return FieldError(key, "expected an integer in [0, 1000]");
      }
      job->max_attempts = static_cast<int>(attempts);
    } else if (key == "priority") {
      int64_t priority = 0;
      if (!value.IntegerValue(&priority) || priority < -1000000 ||
          priority > 1000000) {
        return FieldError(key, "expected an integer in [-1000000, 1000000]");
      }
      job->priority = static_cast<int>(priority);
    } else if (key == "deadline_ms") {
      int64_t deadline = 0;
      if (!value.IntegerValue(&deadline) || deadline < 0) {
        return FieldError(key, "expected a non-negative integer");
      }
      job->deadline_ms = deadline;
    } else {
      return FieldError(key, "unknown field");
    }
  }
  if (!saw_algorithm) return FieldError("algorithm", "required");
  if (!saw_dataset) return FieldError("dataset", "required");
  return Status::Ok();
}

HttpResponse FleetService::HandleSubmitJob(const HttpRequest& request) {
  if (draining()) {
    return HttpResponse::Error(503, "server is draining");
  }
  Result<JsonValue> doc = ParseJson(request.body, options_.json_limits);
  if (!doc.ok()) return HttpResponse::Error(400, doc.status().message());
  LearnJob job;
  if (Status status = JobFromJson(doc.value(), &job); !status.ok()) {
    return HttpResponse::Error(400, status.message());
  }
  Result<int64_t> admitted = scheduler_->TryEnqueue(std::move(job));
  if (!admitted.ok()) {
    if (admitted.status().code() != StatusCode::kResourceExhausted) {
      return ErrorFromStatus(admitted.status());
    }
    // Load shed: 429 with a Retry-After hint sized from the fleet's own
    // mean job latency — "after roughly one queue's worth of settles" —
    // clamped to [1, 60] s so a cold fleet still gives a usable hint.
    const FleetReport report = scheduler_->Report();
    const double backlog = static_cast<double>(report.pending + 1);
    int64_t retry_after = static_cast<int64_t>(
        report.mean_latency_ms * backlog / 1000.0 + 1.0);
    retry_after = std::clamp<int64_t>(retry_after, 1, 60);
    JsonValue body = JsonValue::Object();
    body.Set("error", JsonValue::String(admitted.status().message()));
    body.Set("state",
             JsonValue::String(std::string(JobStateName(JobState::kRejected))));
    body.Set("retry_after_seconds",
             JsonValue::Number(static_cast<double>(retry_after)));
    HttpResponse response = HttpResponse::Json(429, body.Dump());
    response.headers.emplace_back("Retry-After", std::to_string(retry_after));
    return response;
  }
  const int64_t job_id = admitted.value();
  Result<JobStatusView> view = scheduler_->JobStatus(job_id);
  JsonValue body = JsonValue::Object();
  body.Set("job_id", JsonValue::Number(static_cast<double>(job_id)));
  if (view.ok()) {
    body.Set("name", JsonValue::String(view.value().name));
    body.Set("state", JsonValue::String(
                          std::string(JobStateName(view.value().state))));
    body.Set("queue_position",
             JsonValue::Number(
                 static_cast<double>(view.value().queue_position)));
    body.Set("policy", JsonValue::String(
                           std::string(SchedPolicyName(view.value().policy))));
  }
  return HttpResponse::Json(202, body.Dump());
}

HttpResponse FleetService::HandleFleetReport() const {
  return HttpResponse::Json(200, ReportToJson(scheduler_->Report()).Dump());
}

HttpResponse FleetService::HandleJobStatus(int64_t job_id) const {
  Result<JobStatusView> view = scheduler_->JobStatus(job_id);
  if (!view.ok()) return HttpResponse::Error(404, view.status().message());
  return HttpResponse::Json(200, JobStatusToJson(view.value()).Dump());
}

HttpResponse FleetService::HandleCancel(int64_t job_id) {
  Result<JobStatusView> view = scheduler_->JobStatus(job_id);
  if (!view.ok()) return HttpResponse::Error(404, view.status().message());
  const bool cancelled = scheduler_->Cancel(job_id);
  JsonValue body = JsonValue::Object();
  body.Set("job_id", JsonValue::Number(static_cast<double>(job_id)));
  body.Set("cancelled", JsonValue::Bool(cancelled));
  return HttpResponse::Json(200, body.Dump());
}

HttpResponse FleetService::HandleChanges(const HttpRequest& request) const {
  uint64_t since = 0;
  const std::string since_text = request.QueryParam("since", "0");
  if (!ParseU64(since_text, &since)) {
    return HttpResponse::Error(400, "query \"since\": expected an integer");
  }
  uint64_t timeout_ms = static_cast<uint64_t>(
      options_.default_poll_timeout_ms);
  const std::string timeout_text = request.QueryParam("timeout_ms");
  if (!timeout_text.empty() && !ParseU64(timeout_text, &timeout_ms)) {
    return HttpResponse::Error(400,
                               "query \"timeout_ms\": expected an integer");
  }
  timeout_ms = std::min<uint64_t>(
      timeout_ms, static_cast<uint64_t>(options_.max_poll_timeout_ms));

  const JournalPoll poll = journal_->WaitSince(
      since, std::chrono::milliseconds(static_cast<int64_t>(timeout_ms)));
  JsonValue body = JsonValue::Object();
  JsonValue events = JsonValue::Array();
  for (const JobEvent& event : poll.events) events.Append(EventToJson(event));
  body.Set("events", std::move(events));
  body.Set("head", JsonValue::Number(static_cast<double>(poll.head)));
  body.Set("first_retained_seq",
           JsonValue::Number(static_cast<double>(poll.first_retained_seq)));
  body.Set("closed", JsonValue::Bool(poll.closed));
  return HttpResponse::Json(200, body.Dump());
}

HttpResponse FleetService::HandleModel(int64_t job_id) const {
  Result<JobStatusView> view = scheduler_->JobStatus(job_id);
  if (!view.ok()) return HttpResponse::Error(404, view.status().message());
  const JobStatusView& status = view.value();
  if (status.state == JobState::kPending ||
      status.state == JobState::kRunning) {
    return HttpResponse::Error(409, "job has not settled yet");
  }
  if (status.state != JobState::kSucceeded) {
    return HttpResponse::Error(
        409, "job settled as " + std::string(JobStateName(status.state)) +
                 ": " + status.status_message);
  }
  if (!status.has_model) {
    return HttpResponse::Error(
        410, "model payload was released to the result sink");
  }
  Result<std::string> bytes = scheduler_->SerializedModel(job_id);
  if (!bytes.ok()) {
    return ErrorFromStatus(bytes.status());
  }
  HttpResponse response;
  response.status = 200;
  response.content_type = "application/octet-stream";
  response.body = std::move(bytes).value();
  response.headers.emplace_back("x-least-job-id", std::to_string(job_id));
  return response;
}

HttpResponse FleetService::HandleMetrics() const {
  return HttpResponse::Json(200,
                            MetricsRegistry::Global().Snapshot().ToJson());
}

HttpResponse FleetService::HandleShutdown() {
  BeginDrain();
  JsonValue body = JsonValue::Object();
  body.Set("draining", JsonValue::Bool(true));
  body.Set("settled",
           JsonValue::Number(static_cast<double>(scheduler_->num_settled())));
  body.Set("total_jobs",
           JsonValue::Number(static_cast<double>(scheduler_->num_jobs())));
  return HttpResponse::Json(202, body.Dump());
}

HttpResponse FleetService::HandleData(const HttpRequest& request) const {
  constexpr std::string_view kPrefix = "/data/";
  const std::string ref = request.path.substr(kPrefix.size());
  if (!SafeRelativePath(ref)) {
    return HttpResponse::Error(
        400, "dataset ref must be a relative path without '..'");
  }
  const std::string full = options_.data_root + "/" + ref;

  // Only a regular file is a dataset: a directory (or device, or FIFO —
  // hence O_NONBLOCK, which plain files ignore) under the root is a 404.
  const int fd = ::open(full.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  const FdCloser closer{fd};
  struct stat st {};
  if (fd < 0 || ::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    return HttpResponse::Error(404, "no such dataset: " + ref);
  }

  if (request.QueryParam("manifest", "") == "1") {
    int64_t shard_rows = 0;
    if (!ParseId(request.QueryParam("shard_rows", "256"), &shard_rows) ||
        shard_rows <= 0 || shard_rows > INT32_MAX) {
      return HttpResponse::Error(
          400, "shard_rows must be a positive decimal integer");
    }
    const bool has_header = request.QueryParam("has_header", "1") != "0";
    const Result<CsvShardScan> scan =
        ScanCsvIntoShards(full, has_header, static_cast<int>(shard_rows));
    if (!scan.ok()) {
      // A ref that does not resolve to a readable file is a 404, not a
      // server fault; a file that is not valid CSV is the client's 400.
      if (scan.status().code() == StatusCode::kIoError) {
        return HttpResponse::Error(404, "no such dataset: " + ref);
      }
      return ErrorFromStatus(scan.status());
    }
    const CsvShardScan& manifest = scan.value();
    JsonValue body = JsonValue::Object();
    body.Set("rows", JsonValue::Number(static_cast<double>(manifest.rows)));
    body.Set("cols", JsonValue::Number(static_cast<double>(manifest.cols)));
    // Echoed so the client can refuse a granularity mismatch.
    body.Set("shard_rows",
             JsonValue::Number(static_cast<double>(shard_rows)));
    body.Set("content_hash", JsonU64(manifest.content_hash));
    JsonValue shards = JsonValue::Array();
    for (const DatasetShard& shard : manifest.shards) {
      JsonValue s = JsonValue::Object();
      s.Set("row_begin",
            JsonValue::Number(static_cast<double>(shard.row_begin)));
      s.Set("row_end", JsonValue::Number(static_cast<double>(shard.row_end)));
      s.Set("byte_offset", JsonU64(shard.byte_offset));
      s.Set("byte_size", JsonU64(shard.byte_size));
      s.Set("content_hash", JsonU64(shard.content_hash));
      shards.Append(std::move(s));
    }
    body.Set("shards", std::move(shards));
    return HttpResponse::Json(200, body.Dump());
  }

  const uint64_t size = static_cast<uint64_t>(st.st_size);
  // A short read races a writer truncating the file: transient, and the
  // retry sees the new size.
  const auto short_read = [&ref] {
    return ErrorFromStatus(
        Status::Unavailable("dataset '" + ref + "' changed while being read"));
  };

  HttpResponse response;
  response.content_type = "text/csv";
  const std::string_view range = request.Header("range");
  if (!range.empty()) {
    // An injected fault here simulates an origin that cannot serve ranges
    // right now (transient 503) or refuses them (terminal), so the client's
    // retry classification is testable against the real route.
    if (FailpointsArmed()) {
      const Status fault = FailpointHit("service.data.range");
      if (!fault.ok()) return ErrorFromStatus(fault);
    }
    uint64_t lo = 0;
    uint64_t hi = 0;
    switch (ParseByteRange(range, size, &lo, &hi)) {
      case RangeKind::kNone:
        break;  // ignored → 200 with the whole file
      case RangeKind::kUnsatisfiable: {
        HttpResponse r = HttpResponse::Error(416, "range not satisfiable");
        r.headers.emplace_back("Content-Range",
                               "bytes */" + std::to_string(size));
        return r;
      }
      case RangeKind::kSatisfiable:
        if (!ReadExtent(fd, lo, hi - lo + 1, &response.body)) {
          return short_read();
        }
        response.status = 206;
        response.headers.emplace_back(
            "Content-Range", "bytes " + std::to_string(lo) + "-" +
                                 std::to_string(hi) + "/" +
                                 std::to_string(size));
        return response;
    }
  }
  if (!ReadExtent(fd, 0, size, &response.body)) {
    return short_read();
  }
  response.status = 200;
  return response;
}

HttpResponse FleetService::HandleIndex() const {
  JsonValue body = JsonValue::Object();
  body.Set("service", JsonValue::String("least-fleet"));
  JsonValue endpoints = JsonValue::Array();
  for (const char* e :
       {"POST /jobs", "GET /jobs", "GET /jobs/<id>", "POST /jobs/<id>/cancel",
        "DELETE /jobs/<id>", "GET /changes?since=<seq>", "GET /models/<id>",
        "GET /metrics", "GET /data/<ref>", "POST /admin/shutdown"}) {
    endpoints.Append(JsonValue::String(e));
  }
  body.Set("endpoints", std::move(endpoints));
  return HttpResponse::Json(200, body.Dump());
}

HttpResponse FleetService::Handle(const HttpRequest& request) {
  // Whole-service fault gate: an injected error here exercises the status →
  // HTTP mapping (notably kUnavailable → 503 + Retry-After) without needing
  // a backend that happens to be failing.
  if (FailpointsArmed()) {
    const Status fault = FailpointHit("service.handle");
    if (!fault.ok()) return ErrorFromStatus(fault);
  }
  const std::vector<std::string_view> segments = Segments(request.path);
  const std::string_view method = request.method;

  if (segments.empty()) {
    if (method == "GET") return HandleIndex();
    return HttpResponse::Error(405, "method not allowed on /");
  }

  if (segments[0] == "jobs") {
    if (segments.size() == 1) {
      if (method == "POST") return HandleSubmitJob(request);
      if (method == "GET") return HandleFleetReport();
      return HttpResponse::Error(405, "method not allowed on /jobs");
    }
    int64_t job_id = -1;
    if (!ParseId(segments[1], &job_id)) {
      return HttpResponse::Error(400, "job id must be a decimal integer");
    }
    if (segments.size() == 2) {
      if (method == "GET") return HandleJobStatus(job_id);
      if (method == "DELETE") return HandleCancel(job_id);
      return HttpResponse::Error(405, "method not allowed on /jobs/<id>");
    }
    if (segments.size() == 3 && segments[2] == "cancel") {
      if (method == "POST") return HandleCancel(job_id);
      return HttpResponse::Error(405, "use POST /jobs/<id>/cancel");
    }
    return HttpResponse::Error(404, "no such route under /jobs");
  }

  if (segments[0] == "changes" && segments.size() == 1) {
    if (method == "GET") return HandleChanges(request);
    return HttpResponse::Error(405, "method not allowed on /changes");
  }

  if (segments[0] == "models" && segments.size() == 2) {
    int64_t job_id = -1;
    if (!ParseId(segments[1], &job_id)) {
      return HttpResponse::Error(400, "job id must be a decimal integer");
    }
    if (method == "GET") return HandleModel(job_id);
    return HttpResponse::Error(405, "method not allowed on /models/<id>");
  }

  if (segments[0] == "metrics" && segments.size() == 1) {
    if (method == "GET") return HandleMetrics();
    return HttpResponse::Error(405, "method not allowed on /metrics");
  }

  if (segments[0] == "data" && segments.size() >= 2) {
    if (method == "GET") return HandleData(request);
    return HttpResponse::Error(405, "method not allowed on /data/<ref>");
  }

  if (segments[0] == "admin" && segments.size() == 2 &&
      segments[1] == "shutdown") {
    if (method == "POST") return HandleShutdown();
    return HttpResponse::Error(405, "use POST /admin/shutdown");
  }

  return HttpResponse::Error(404, "no such route: " + request.path);
}

}  // namespace least
