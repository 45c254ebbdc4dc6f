// The benchmark's workloads. Each builds its inputs from `Args::seed`,
// runs a closed loop for `Args::seconds`, checks every model it produces
// and fills an `Outcome`. `tracer` is null in untraced runs; in a traced
// run the workload installs the decorators of decorators.h.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "linalg/csr_matrix.h"
#include "util/status.h"

namespace perfbench {

Outcome RunSparseFit(const Args& args, Tracer* tracer);
Outcome RunShardStream(const Args& args, Tracer* tracer);
Outcome RunServiceJobs(const Args& args, Tracer* tracer);

bool BitEqual(const least::CsrMatrix& a, const least::CsrMatrix& b);

/// A fit ended as the benchmark allows: converged, or stopped by its fixed
/// outer-round budget (kNotConverged).
bool FitStatusOk(const least::Status& status);

/// Per-fit layer metrics of the library workloads, from the "fit" spans of
/// the traced windows of a `RunLoop` of `jobs` timed jobs and their
/// children: data.gather_*, data.prepare_ms, learner.self_ms and
/// learner.ms_per_inner. Gathers per fit must repeat and are checked per
/// list entry.
void ReportFitLayers(const std::vector<SpanRecord>& spans, int list_size,
                     int64_t jobs, double inner_per_fit, Outcome* out);

}  // namespace perfbench
