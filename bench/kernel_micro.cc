/// \file kernel_micro.cc
/// \brief Kernel-layer microbenchmarks: gemm throughput, expm latency, and
/// learner step time.
///
/// Quantifies the kernel performance layer against its baselines:
///   - gemm: the cache-blocked, B-packing `MatmulInto` vs. the textbook ikj
///     `MatmulReferenceInto` (the "naive" column — the pre-layer kernel),
///     in GFLOP/s at d ∈ {50, 100, 300, 500}.
///   - expm: per-call latency with a reused `Workspace` (the learner hot
///     path) vs. call-local scratch (the pre-layer allocation pattern).
///   - learner step: milliseconds per inner optimization step for the dense
///     LEAST learner (spectral bound) and the NOTEARS baseline (expm).
///   - gather: the sparse learner's transposed mini-batch gather (B = 512
///     rows of an n = 4d in-RAM matrix) through `OwningDenseDataSource`
///     (tiled) vs. a bench-local column-at-a-time copy (the "naive" column
///     — the pre-tiling loop), in milliseconds per gather.
///
/// A machine-readable snapshot lands in `BENCH_kernels.json` (both columns,
/// so the ≥2x single-thread gemm acceptance bar at d = 300 is recorded).
///
///   LEAST_BENCH_SCALE=<double>   shrinks the size grid (smoke: 0.2)
///   LEAST_BENCH_FULL=1           shorthand for scale = 1

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "constraint/expm_trace.h"
#include "constraint/spectral_bound.h"
#include "core/continuous_learner.h"
#include "core/data_source.h"
#include "linalg/expm.h"
#include "linalg/workspace.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace {

using namespace least;

// Best-of-N timing: repeats `fn` until `min_seconds` of total work (at least
// `min_reps` reps) and returns the fastest single rep in seconds.
template <typename Fn>
double TimeBest(Fn&& fn, double min_seconds = 0.2, int min_reps = 3) {
  double best = 1e300;
  double total = 0.0;
  int reps = 0;
  while (total < min_seconds || reps < min_reps) {
    Stopwatch watch;
    fn();
    const double t = watch.Seconds();
    best = std::min(best, t);
    total += t;
    ++reps;
    if (reps > 10000) break;
  }
  return best;
}

struct GemmRow {
  int d;
  double naive_gflops;
  double blocked_gflops;
};

struct ExpmRow {
  int d;
  double alloc_ms;
  double workspace_ms;
};

struct StepRow {
  int d;
  double least_ms;
  double notears_ms;
};

struct GatherRow {
  int d;
  double naive_ms;
  double tiled_ms;
};

// The column-at-a-time transposed gather that `GatherFromDense` replaced:
// each store strides B·8 bytes through `out`.
void NaiveGather(const DenseMatrix& x, const std::vector<int>& rows,
                 DenseMatrix* out) {
  const int batch = static_cast<int>(rows.size());
  for (int b = 0; b < batch; ++b) {
    const double* src = x.row(rows[static_cast<size_t>(b)]);
    for (int v = 0; v < x.cols(); ++v) (*out)(v, b) = src[v];
  }
}

double LearnerStepMs(const DenseMatrix& x, bool notears, int steps) {
  LearnOptions opt;
  opt.max_outer_iterations = 1;
  opt.max_inner_iterations = steps;
  opt.inner_rtol = 0.0;  // never stop early: time exactly `steps` steps
  opt.inner_check_every = steps + 1;
  opt.batch_size = 0;  // full-batch Gram path
  opt.track_exact_h = false;
  opt.init_density = 0.1;
  std::unique_ptr<AcyclicityConstraint> c;
  if (notears) {
    c = std::make_unique<ExpmTraceConstraint>();
  } else {
    c = std::make_unique<SpectralBoundConstraint>();
  }
  ContinuousLearner learner(std::move(c), opt);
  Stopwatch watch;
  LearnResult result = learner.Fit(x);
  const double seconds = watch.Seconds();
  return 1000.0 * seconds /
         static_cast<double>(std::max<long long>(1, result.inner_iterations));
}

}  // namespace

int main() {
  const double scale = bench::Scale(1.0);
  bench::PrintBanner("kernel_micro: gemm / expm / learner step / gather",
                     scale);

  std::vector<int> dims;
  for (int d : {50, 100, 300, 500}) {
    const int scaled = std::max(8, static_cast<int>(d * scale));
    if (dims.empty() || dims.back() != scaled) dims.push_back(scaled);
  }

  Rng rng(20210414);

  // ---- gemm: naive vs blocked, single thread (no executor installed). ----
  std::vector<GemmRow> gemm_rows;
  for (int d : dims) {
    DenseMatrix a = DenseMatrix::RandomUniform(d, d, -1.0, 1.0, rng);
    DenseMatrix b = DenseMatrix::RandomUniform(d, d, -1.0, 1.0, rng);
    DenseMatrix out(d, d);
    const double flops = 2.0 * d * double(d) * d;
    const double t_naive = TimeBest([&] { MatmulReferenceInto(a, b, &out); });
    const double t_blocked = TimeBest([&] { MatmulInto(a, b, &out); });
    gemm_rows.push_back({d, flops / t_naive / 1e9, flops / t_blocked / 1e9});
  }

  TablePrinter gemm_table(
      {"d", "naive GFLOP/s", "blocked GFLOP/s", "speedup"});
  for (const GemmRow& r : gemm_rows) {
    gemm_table.AddRow({TablePrinter::Fmt(static_cast<long long>(r.d)),
                       TablePrinter::Fmt(r.naive_gflops, 2),
                       TablePrinter::Fmt(r.blocked_gflops, 2),
                       TablePrinter::Fmt(r.blocked_gflops / r.naive_gflops,
                                         2)});
  }
  std::printf("%s\n", gemm_table.ToString().c_str());

  // ---- expm: call-local scratch vs reused workspace. ----
  std::vector<ExpmRow> expm_rows;
  for (int d : dims) {
    // Norm ~1.5: exercises the Padé-13 scaling-and-squaring path the
    // optimizer sees on warm W (constraint h is evaluated on S = W ∘ W).
    DenseMatrix s = DenseMatrix::RandomUniform(d, d, 0.0, 3.0 / d, rng);
    DenseMatrix e;
    Workspace ws;
    const double t_alloc =
        TimeBest([&] { ExpmInto(s, &e, nullptr); }, 0.2, 2);
    const double t_ws = TimeBest([&] { ExpmInto(s, &e, &ws); }, 0.2, 2);
    expm_rows.push_back({d, 1000.0 * t_alloc, 1000.0 * t_ws});
  }

  TablePrinter expm_table({"d", "alloc ms", "workspace ms"});
  for (const ExpmRow& r : expm_rows) {
    expm_table.AddRow({TablePrinter::Fmt(static_cast<long long>(r.d)),
                       TablePrinter::Fmt(r.alloc_ms, 3),
                       TablePrinter::Fmt(r.workspace_ms, 3)});
  }
  std::printf("%s\n", expm_table.ToString().c_str());

  // ---- learner step time. ----
  std::vector<StepRow> step_rows;
  for (int d : dims) {
    const int n = 2 * d;
    DenseMatrix x = DenseMatrix::RandomUniform(n, d, -1.0, 1.0, rng);
    const int steps = std::max(3, 3000 / d);
    const double least_ms = LearnerStepMs(x, /*notears=*/false, steps);
    const int notears_steps = std::max(2, 600 / d);
    const double notears_ms = LearnerStepMs(x, /*notears=*/true,
                                            notears_steps);
    step_rows.push_back({d, least_ms, notears_ms});
  }

  TablePrinter step_table({"d", "least step ms", "notears step ms"});
  for (const StepRow& r : step_rows) {
    step_table.AddRow({TablePrinter::Fmt(static_cast<long long>(r.d)),
                       TablePrinter::Fmt(r.least_ms, 3),
                       TablePrinter::Fmt(r.notears_ms, 3)});
  }
  std::printf("%s\n", step_table.ToString().c_str());

  // ---- sparse-learner batch gather: naive vs tiled, single thread. ----
  constexpr int kGatherBatch = 512;
  std::vector<GatherRow> gather_rows;
  for (int d : dims) {
    const int n = 4 * d;
    const auto x = std::make_shared<const DenseMatrix>(
        DenseMatrix::RandomUniform(n, d, -1.0, 1.0, rng));
    OwningDenseDataSource source(x);
    std::vector<int> rows(kGatherBatch);
    for (int& r : rows) r = rng.UniformInt(n);
    DenseMatrix out(d, kGatherBatch);
    const double t_naive = TimeBest([&] { NaiveGather(*x, rows, &out); });
    const double t_tiled =
        TimeBest([&] { (void)source.GatherTransposed(rows, &out); });
    gather_rows.push_back({d, 1000.0 * t_naive, 1000.0 * t_tiled});
  }

  TablePrinter gather_table(
      {"d", "gather naive ms", "gather tiled ms", "speedup"});
  for (const GatherRow& r : gather_rows) {
    gather_table.AddRow({TablePrinter::Fmt(static_cast<long long>(r.d)),
                         TablePrinter::Fmt(r.naive_ms, 3),
                         TablePrinter::Fmt(r.tiled_ms, 3),
                         TablePrinter::Fmt(r.naive_ms / r.tiled_ms, 2)});
  }
  std::printf("%s\n", gather_table.ToString().c_str());

  // ---- Machine-readable snapshot. ----
  std::FILE* json = std::fopen("BENCH_kernels.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"scale\": %.3f,\n  \"gemm\": [\n", scale);
    for (size_t i = 0; i < gemm_rows.size(); ++i) {
      const GemmRow& r = gemm_rows[i];
      std::fprintf(json,
                   "    {\"d\": %d, \"naive_gflops\": %.3f, "
                   "\"blocked_gflops\": %.3f, \"speedup\": %.2f}%s\n",
                   r.d, r.naive_gflops, r.blocked_gflops,
                   r.blocked_gflops / r.naive_gflops,
                   i + 1 < gemm_rows.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"expm\": [\n");
    for (size_t i = 0; i < expm_rows.size(); ++i) {
      const ExpmRow& r = expm_rows[i];
      std::fprintf(json,
                   "    {\"d\": %d, \"alloc_ms\": %.3f, "
                   "\"workspace_ms\": %.3f}%s\n",
                   r.d, r.alloc_ms, r.workspace_ms,
                   i + 1 < expm_rows.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"learner_step\": [\n");
    for (size_t i = 0; i < step_rows.size(); ++i) {
      const StepRow& r = step_rows[i];
      std::fprintf(json,
                   "    {\"d\": %d, \"least_dense_ms\": %.3f, "
                   "\"notears_ms\": %.3f}%s\n",
                   r.d, r.least_ms, r.notears_ms,
                   i + 1 < step_rows.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"gather\": [\n");
    for (size_t i = 0; i < gather_rows.size(); ++i) {
      const GatherRow& r = gather_rows[i];
      std::fprintf(json,
                   "    {\"d\": %d, \"n\": %d, \"batch\": %d, "
                   "\"naive_ms\": %.3f, \"tiled_ms\": %.3f, "
                   "\"speedup\": %.2f}%s\n",
                   r.d, 4 * r.d, kGatherBatch, r.naive_ms, r.tiled_ms,
                   r.naive_ms / r.tiled_ms,
                   i + 1 < gather_rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("snapshot written to BENCH_kernels.json\n");
  }
  return 0;
}
