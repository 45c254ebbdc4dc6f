// Checks and per-layer reporting shared by the fit workloads (sparse_fit,
// shard_stream).

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

bool BitEqual(const least::CsrMatrix& a, const least::CsrMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.row_ptr() == b.row_ptr() && a.col_idx() == b.col_idx() &&
         a.nnz() == b.nnz() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(double)) == 0;
}

namespace {

double MeanSpanMs(const std::vector<SpanRecord>& spans,
                  const std::string& name) {
  const SpanTotals t = Totals(AggregateSpans(spans), name);
  return t.calls > 0 ? t.total_ms / static_cast<double>(t.calls) : 0.0;
}

}  // namespace

bool FitStatusOk(const least::Status& status) {
  return status.ok() || status.code() == least::StatusCode::kNotConverged;
}

void ReportFitLayers(const std::vector<SpanRecord>& spans, int list_size,
                     int64_t jobs, double inner_per_fit, Outcome* out) {
  const auto agg = AggregateSpans(spans);
  const SpanTotals fit = Totals(agg, "fit");
  const SpanTotals gather = Totals(agg, "data.gather");
  const double fits = static_cast<double>(std::max<int64_t>(fit.calls, 1));
  const auto share = [&](double ms) {
    return fit.total_ms > 0 ? ms / fit.total_ms : 0.0;
  };
  out->Metric("data.gather_calls", gather.calls / fits, "count");
  out->Metric("data.gather_ms", gather.total_ms / fits, "ms");
  out->Metric("data.gather_share", share(gather.total_ms), "ratio");
  const double self_ms = fit.self_ms / fits;
  out->Metric("learner.self_ms", self_ms, "ms");
  out->Metric("learner.ms_per_inner",
              inner_per_fit > 0 ? self_ms / inner_per_fit : 0.0, "ms");
  out->Metric("data.prepare_ms", MeanSpanMs(spans, "data.prepare"), "ms");

  const std::vector<int64_t> traced = CallsPerJob(spans, "fit", jobs);
  const std::vector<int64_t> per_job = CallsPerJob(spans, "data.gather", jobs);
  std::vector<std::vector<int64_t>> per_entry(list_size);
  for (int64_t seq = 0; seq < jobs; ++seq) {
    if (traced[seq] > 0) per_entry[seq % list_size].push_back(per_job[seq]);
  }
  for (int i = 0; i < list_size; ++i) {
    out->ExpectSame("data.gather calls of list entry " + std::to_string(i),
                    per_entry[i]);
  }
}

}  // namespace perfbench
