// sparse_fit: LEAST-SP called in-process on in-RAM data, one fit at a time
// on one thread.

#include <memory>
#include <utility>
#include <vector>

#include "core/data_source.h"
#include "core/least_sparse.h"
#include "data/benchmark_data.h"
#include "decorators.h"
#include "graph/dag.h"
#include "metrics/structure_metrics.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using least::BenchmarkConfig;
using least::BenchmarkInstance;
using least::DataSource;
using least::LearnOptions;

namespace {

// LEAST-SP at d = 1,000, n = 4,000, ER-2, mini-batches of B = 512 gathered
// from an in-RAM source. The candidate support is the true edges plus as
// many random decoys (the bench/fig5_scalability protocol at reduced d).
//
// Every fit gets the same budget of three outer rounds, so the work per fit
// does not depend on the seed. A fit that has not met the tolerance by then
// ends kNotConverged, which is a valid outcome here.

constexpr int kSparseD = 1000;
constexpr int kSparseN = 4000;

LearnOptions SparseOptions() {
  LearnOptions opt;
  opt.batch_size = 512;
  opt.filter_threshold = 0.02;
  opt.tolerance = 1e-8;
  opt.lambda1 = 0.05;
  opt.learning_rate = 0.03;
  opt.max_outer_iterations = 3;
  opt.max_inner_iterations = 60;
  opt.init_density = 1e-4;
  return opt;
}

struct SparseState {
  BenchmarkInstance instance;
  std::shared_ptr<const DataSource> source;
  std::vector<std::pair<int, int>> candidates;
};

std::unique_ptr<SparseState> MakeSparseState(uint64_t seed, Tracer* tracer) {
  auto state = std::make_unique<SparseState>();
  BenchmarkConfig cfg;
  cfg.d = kSparseD;
  cfg.n = kSparseN;
  cfg.seed = SubSeed(seed, 0);
  state->instance = least::MakeBenchmarkInstance(cfg);
  const least::DenseMatrix& w = state->instance.w_true;
  for (int i = 0; i < kSparseD; ++i) {
    for (int j = 0; j < kSparseD; ++j) {
      if (w(i, j) != 0.0) state->candidates.push_back({i, j});
    }
  }
  least::Rng rng(SubSeed(seed, 1));
  const size_t true_edges = state->candidates.size();
  for (size_t t = 0; t < true_edges; ++t) {
    const int i = rng.UniformInt(kSparseD);
    const int j = rng.UniformInt(kSparseD);
    if (i != j) state->candidates.push_back({i, j});
  }
  state->source = Traced(
      std::make_shared<least::OwningDenseDataSource>(state->instance.x),
      tracer);
  CheckOk(state->source->Prepare(), "prepare");
  return state;
}

}  // namespace

Outcome RunSparseFit(const Args& args, Tracer* tracer) {
  Outcome out;
  std::unique_ptr<SparseState> state;
  const auto make = [&] { return MakeSparseState(args.seed, tracer); };
  std::vector<double> setup_s;
  TimedSetup(make, &state, tracer, &setup_s);

  least::LeastSparseLearner learner(SparseOptions());
  learner.set_candidate_edges(state->candidates);

  // The first fit; every later fit must reproduce it bit for bit,
  // iteration counts included.
  std::unique_ptr<least::SparseLearnResult> first;
  least::StructureMetrics accuracy;
  const JobLoop loop = RunLoop(
      {.min_windows = 4, .seconds = args.seconds}, tracer,
      [&](int, int, int64_t seq) {
        least::SparseLearnResult r;
        {
          Span span(tracer, "fit", seq);
          r = learner.Fit(*state->source);
        }
        if (!FitStatusOk(r.status)) return false;
        if (first != nullptr) {
          return r.inner_iterations == first->inner_iterations &&
                 r.outer_iterations == first->outer_iterations &&
                 BitEqual(r.weights, first->weights);
        }
        const least::DenseMatrix w = r.weights.ToDense();
        accuracy = least::EvaluateStructure(state->instance.w_true, w);
        first = std::make_unique<least::SparseLearnResult>(std::move(r));
        return !first->status.ok() || least::IsDag(w);
      });

  out.attempted = loop.attempted;
  out.failed = loop.failed;
  ReportLatency(loop.latency_ms, loop.untraced_window_jps, &out);
  out.Metric("peak_resident_bytes",
             static_cast<double>(state->instance.x.size() * sizeof(double)),
             "bytes");
  out.Metric("f1", accuracy.f1, "ratio");
  out.Metric("shd", static_cast<double>(accuracy.shd), "edges");
  // `first` is null only when every fit failed, and the run with it.
  const double inner =
      first ? static_cast<double>(first->inner_iterations) : 0.0;
  out.Metric("learner.inner_iters", inner, "count");
  out.Metric("learner.outer_iters", first ? first->outer_iterations : 0,
             "count");
  if (tracer != nullptr) {
    ReportFitLayers(tracer->Snapshot(), 1, loop.timed_jobs, inner, &out);
    ReportOverhead(loop.untraced_window_jps, loop.traced_window_jps, &out);
  }
  TimedSetup(make, &state, nullptr, &setup_s);
  out.Metric("setup_s", Median(setup_s), "s");
  return out;
}

}  // namespace perfbench
