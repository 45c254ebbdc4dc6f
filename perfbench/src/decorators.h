// Timing decorators installed at the library's public seams in a traced
// run. Each forwards every call unchanged and records a span around it, so
// the library under test is the same code in traced and untraced runs.

#pragma once

#include <memory>
#include <span>
#include <string>

#include "core/data_source.h"
#include "harness.h"
#include "net/http_server.h"

namespace perfbench {

/// Wraps a data source; spans "data.prepare", "data.dense" (whole-matrix
/// access) and "data.gather" (mini-batch gathers).
class TimedDataSource final : public least::DataSource {
 public:
  TimedDataSource(std::shared_ptr<const least::DataSource> inner,
                  Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  least::Status Prepare() const override {
    Span span(tracer_, "data.prepare");
    return inner_->Prepare();
  }
  least::DatasetSpec spec() const override { return inner_->spec(); }
  int num_rows() const override { return inner_->num_rows(); }
  int num_cols() const override { return inner_->num_cols(); }
  least::Result<std::shared_ptr<const least::DenseMatrix>> Dense()
      const override {
    Span span(tracer_, "data.dense");
    return inner_->Dense();
  }
  least::Result<std::shared_ptr<const least::CsrMatrix>> Csr()
      const override {
    Span span(tracer_, "data.dense");
    return inner_->Csr();
  }
  least::Status GatherTransposed(std::span<const int> rows,
                                 least::DenseMatrix* out) const override {
    Span span(tracer_, "data.gather");
    return inner_->GatherTransposed(rows, out);
  }
  least::Status GatherTransposed(std::span<const int> rows,
                                 least::DenseMatrix* out,
                                 least::GatherScratch* scratch)
      const override {
    Span span(tracer_, "data.gather");
    return inner_->GatherTransposed(rows, out, scratch);
  }
  double CacheResidency() const override { return inner_->CacheResidency(); }

 private:
  std::shared_ptr<const least::DataSource> inner_;
  Tracer* tracer_;
};

/// `source` wrapped in a `TimedDataSource` when `tracer` is set.
inline std::shared_ptr<const least::DataSource> Traced(
    std::shared_ptr<const least::DataSource> source, Tracer* tracer) {
  if (tracer == nullptr) return source;
  return std::make_shared<TimedDataSource>(std::move(source), tracer);
}

/// Span name for one request to the fleet service's route table.
const char* RouteSpanName(const least::HttpRequest& request);

/// Wraps a service handler (e.g. `FleetService::AsHandler()`); one span per
/// request named by `RouteSpanName`.
least::HttpHandler TimedHandler(least::HttpHandler inner, Tracer* tracer);

}  // namespace perfbench
