// Tests for core/least_sparse.h (LEAST-SP): pattern-restricted recovery,
// compaction behaviour, agreement with the dense learner, and scaling smoke.

#include "core/least_sparse.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/least.h"
#include "data/benchmark_data.h"
#include "graph/dag.h"
#include "metrics/structure_metrics.h"
#include "runtime/thread_pool.h"

namespace least {
namespace {

LearnOptions FastSparseOptions() {
  LearnOptions opt;
  opt.max_outer_iterations = 30;
  opt.max_inner_iterations = 200;
  opt.lambda1 = 0.05;
  opt.learning_rate = 0.03;
  opt.prune_threshold = 0.3;
  opt.filter_threshold = 0.05;
  opt.init_density = 0.0;  // tests provide explicit candidates
  opt.batch_size = 128;
  return opt;
}

// All ordered off-diagonal pairs as candidates: makes small problems fully
// learnable (a random ζ pattern on a tiny graph would be empty).
std::vector<std::pair<int, int>> AllPairs(int d) {
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j < d; ++j) {
      if (i != j) pairs.push_back({i, j});
    }
  }
  return pairs;
}

TEST(LeastSparse, RejectsEmptyData) {
  LeastSparseLearner learner(FastSparseOptions());
  DenseMatrix empty;
  OwningDenseDataSource src(empty);
  SparseLearnResult r = learner.Fit(src);
  EXPECT_FALSE(r.status.ok());
}

TEST(LeastSparse, RecoversChainWithFullCandidates) {
  DenseMatrix w_true(4, 4);
  w_true(0, 1) = 1.3;
  w_true(1, 2) = -1.2;
  w_true(2, 3) = 1.4;
  Rng rng(3);
  auto x = SampleLsem(w_true, 600, {}, rng);
  ASSERT_TRUE(x.ok());
  LeastSparseLearner learner(FastSparseOptions());
  learner.set_candidate_edges(AllPairs(4));
  SparseLearnResult r = FitLeastSparse(x.value(), FastSparseOptions());
  // FitLeastSparse has no candidates; do the real run via the learner:
  OwningDenseDataSource src(x.value());
  r = learner.Fit(src);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  StructureMetrics m = EvaluateStructure(w_true, r.weights.ToDense());
  EXPECT_GE(m.true_positive, 3);
  EXPECT_LE(m.shd, 1);
}

TEST(LeastSparse, CandidatePatternRestrictsSupport) {
  // Only a subset of pairs offered: learned edges must stay inside it.
  DenseMatrix w_true(5, 5);
  w_true(0, 1) = 1.5;
  w_true(2, 3) = 1.5;
  Rng rng(5);
  auto x = SampleLsem(w_true, 500, {}, rng);
  LeastSparseLearner learner(FastSparseOptions());
  std::vector<std::pair<int, int>> candidates = {{0, 1}, {2, 3}, {1, 4}};
  learner.set_candidate_edges(candidates);
  OwningDenseDataSource src(x.value());
  SparseLearnResult r = learner.Fit(src);
  DenseMatrix learned = r.weights.ToDense();
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      if (learned(i, j) == 0.0) continue;
      const bool offered =
          std::find(candidates.begin(), candidates.end(),
                    std::make_pair(i, j)) != candidates.end();
      EXPECT_TRUE(offered) << "edge (" << i << "," << j << ") not offered";
    }
  }
  EXPECT_GT(learned(0, 1), 0.5);
  EXPECT_GT(learned(2, 3), 0.5);
}

TEST(LeastSparse, LearnedGraphIsDag) {
  BenchmarkConfig cfg;
  cfg.d = 12;
  cfg.seed = 9;
  BenchmarkInstance inst = MakeBenchmarkInstance(cfg);
  LeastSparseLearner learner(FastSparseOptions());
  learner.set_candidate_edges(AllPairs(12));
  OwningDenseDataSource src(inst.x);
  SparseLearnResult r = learner.Fit(src);
  EXPECT_TRUE(IsDag(AdjacencyFromCsr(r.weights)));
}

TEST(LeastSparse, AgreesWithDenseLearnerOnSmallProblem) {
  DenseMatrix w_true(6, 6);
  w_true(0, 2) = 1.4;
  w_true(1, 2) = -1.1;
  w_true(2, 4) = 1.2;
  w_true(3, 5) = 1.6;
  Rng rng(7);
  auto x = SampleLsem(w_true, 800, {}, rng);
  LearnOptions opt = FastSparseOptions();
  opt.batch_size = 0;  // dense full-batch
  LearnResult dense = FitLeastDense(x.value(), opt);
  LeastSparseLearner learner(FastSparseOptions());
  learner.set_candidate_edges(AllPairs(6));
  OwningDenseDataSource src(x.value());
  SparseLearnResult sparse = learner.Fit(src);
  StructureMetrics md = EvaluateStructure(w_true, dense.weights);
  StructureMetrics ms = EvaluateStructure(w_true, sparse.weights.ToDense());
  // Both pipelines should solve this easy instance essentially perfectly.
  EXPECT_GE(md.true_positive, 4);
  EXPECT_GE(ms.true_positive, 4);
  EXPECT_LE(ms.shd, md.shd + 1);
}

TEST(LeastSparse, CompactionShrinksPattern) {
  BenchmarkConfig cfg;
  cfg.d = 15;
  cfg.seed = 13;
  BenchmarkInstance inst = MakeBenchmarkInstance(cfg);
  LearnOptions opt = FastSparseOptions();
  LeastSparseLearner learner(opt);
  learner.set_candidate_edges(AllPairs(15));
  OwningDenseDataSource src(inst.x);
  SparseLearnResult r = learner.Fit(src);
  ASSERT_GE(r.trace.size(), 1u);
  // The traced nnz after the final round is far below the 15*14 candidates.
  EXPECT_LT(r.trace.back().nnz, 15 * 14 / 2);
  // And the trace nnz never grows (thresholding + compaction only removes).
  for (size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i].nnz, r.trace[i - 1].nnz);
  }
}

TEST(LeastSparse, RandomDensityInitialization) {
  // With init_density > 0 and no candidates, the pattern is random; on a
  // larger graph it should pick up some of the signal.
  BenchmarkConfig cfg;
  cfg.d = 40;
  cfg.n = 400;
  cfg.seed = 15;
  BenchmarkInstance inst = MakeBenchmarkInstance(cfg);
  LearnOptions opt = FastSparseOptions();
  opt.init_density = 0.5;  // dense-ish random pattern
  LeastSparseLearner learner(opt);
  OwningDenseDataSource src(inst.x);
  SparseLearnResult r = learner.Fit(src);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  StructureMetrics m = EvaluateStructure(inst.w_true, r.weights.ToDense());
  EXPECT_GT(m.true_positive, 0);
}

TEST(LeastSparse, HutchinsonTraceTracking) {
  BenchmarkConfig cfg;
  cfg.d = 10;
  BenchmarkInstance inst = MakeBenchmarkInstance(cfg);
  LearnOptions opt = FastSparseOptions();
  opt.track_estimated_h = true;
  LeastSparseLearner learner(opt);
  learner.set_candidate_edges(AllPairs(10));
  OwningDenseDataSource src(inst.x);
  SparseLearnResult r = learner.Fit(src);
  ASSERT_FALSE(r.trace.empty());
  int populated = 0;
  for (const TracePoint& tp : r.trace) populated += tp.h_value >= -0.5;
  EXPECT_GT(populated, 0);
}

TEST(LeastSparse, CsrDataSourceEquivalentToDense) {
  DenseMatrix w_true(4, 4);
  w_true(0, 1) = 1.5;
  w_true(2, 3) = -1.3;
  Rng rng(17);
  auto x = SampleLsem(w_true, 400, {}, rng);
  CsrMatrix x_sparse = CsrMatrix::FromDense(x.value());
  LearnOptions opt = FastSparseOptions();
  LeastSparseLearner learner(opt);
  learner.set_candidate_edges(AllPairs(4));
  OwningDenseDataSource dense_src(x.value());
  OwningCsrDataSource sparse_src(x_sparse);
  SparseLearnResult rd = learner.Fit(dense_src);
  SparseLearnResult rs = learner.Fit(sparse_src);
  // Same seed, same batches, identical data: identical results.
  ASSERT_EQ(rd.weights.nnz(), rs.weights.nnz());
  for (int64_t e = 0; e < rd.weights.nnz(); ++e) {
    EXPECT_NEAR(rd.weights.values()[e], rs.weights.values()[e], 1e-12);
  }
}

TEST(LeastSparse, BitwiseIdenticalUnderParallelExecutor) {
  // The sparse learner's O(B·nnz) residual/gradient loops and the batch
  // gathers run on the pool when one is installed; the contract is bitwise
  // identity with the serial run. d = 100 with all-pairs candidates and
  // batch 128 clears kParallelMinFlops (~1.27M flops per inner step).
  BenchmarkConfig cfg;
  cfg.d = 100;
  cfg.n = 300;
  cfg.seed = 21;
  BenchmarkInstance inst = MakeBenchmarkInstance(cfg);
  LearnOptions opt = FastSparseOptions();
  opt.max_outer_iterations = 3;
  opt.max_inner_iterations = 15;
  LeastSparseLearner learner(opt);
  learner.set_candidate_edges(AllPairs(100));
  OwningDenseDataSource src(inst.x);

  ASSERT_EQ(GetParallelExecutor(), nullptr);
  const SparseLearnResult serial = learner.Fit(src);
  {
    ThreadPool pool(4);
    SetParallelExecutor(&pool);
    const SparseLearnResult parallel = learner.Fit(src);
    SetParallelExecutor(nullptr);
    ASSERT_EQ(serial.status.code(), parallel.status.code());
    ASSERT_TRUE(serial.raw_weights.SamePattern(parallel.raw_weights));
    EXPECT_EQ(serial.raw_weights.values(), parallel.raw_weights.values());
    ASSERT_TRUE(serial.weights.SamePattern(parallel.weights));
    EXPECT_EQ(serial.weights.values(), parallel.weights.values());
    EXPECT_EQ(serial.inner_iterations, parallel.inner_iterations);
  }
}

// Pins the exact bits of two small fits, so a change to the inner step's
// kernels (batch gather, residual init, gradient dots) that reorders a
// single floating-point operation fails here. B = 45 and 77 leave partial
// 32-column gather tiles; the all-pairs patterns start at nnz = 42·41 and
// 14·13 (both 2 mod 4), and compaction moves nnz through other residues, so
// the gradient's 4-edge lanes always end in a partial group. The hashes were
// produced by the straightforward loops these kernels replaced.
struct PinnedFit {
  uint64_t raw_weights_hash;
  uint64_t weights_hash;
  int64_t inner_iterations;
};

PinnedFit FitAndHash(const DataSource& source, const LearnOptions& opt,
                     int d) {
  LeastSparseLearner learner(opt);
  learner.set_candidate_edges(AllPairs(d));
  const SparseLearnResult r = learner.Fit(source);
  EXPECT_NE(r.status.code(), StatusCode::kInvalidArgument)
      << r.status.ToString();
  EXPECT_GT(r.raw_weights.nnz(), 0);
  return {HashCsrContent(r.raw_weights), HashCsrContent(r.weights),
          r.inner_iterations};
}

TEST(LeastSparse, PinnedBitsInRamDenseSource) {
  BenchmarkConfig cfg;
  cfg.d = 42;
  cfg.n = 300;
  cfg.seed = 31;
  const BenchmarkInstance inst = MakeBenchmarkInstance(cfg);
  LearnOptions opt = FastSparseOptions();
  opt.max_outer_iterations = 3;
  opt.max_inner_iterations = 20;
  opt.batch_size = 45;
  opt.seed = 7;
  OwningDenseDataSource src(inst.x);
  const PinnedFit fit = FitAndHash(src, opt, cfg.d);
  EXPECT_EQ(fit.raw_weights_hash, 0xF55E4790E4FDD8D2ull);
  EXPECT_EQ(fit.weights_hash, 0xC23CA45654FFD32Aull);
  EXPECT_EQ(fit.inner_iterations, 60);
}

TEST(LeastSparse, PinnedBitsShardedCsvSource) {
  BenchmarkConfig cfg;
  cfg.d = 14;
  cfg.n = 230;
  cfg.seed = 37;
  const BenchmarkInstance inst = MakeBenchmarkInstance(cfg);
  const std::string path = testing::TempDir() + "/least_sparse_pinned.csv";
  ASSERT_TRUE(WriteMatrixCsv(path, inst.x).ok());
  LearnOptions opt = FastSparseOptions();
  opt.max_outer_iterations = 3;
  opt.max_inner_iterations = 20;
  opt.batch_size = 77;
  opt.seed = 11;
  DatasetCache cache(size_t{4} * 50 * cfg.d * sizeof(double));
  CsvSourceOptions csv;
  csv.has_header = false;
  csv.cache = &cache;
  csv.shard_rows = 50;  // 5 shards, the last one partial
  CsvDataSource src(path, csv);
  const PinnedFit fit = FitAndHash(src, opt, cfg.d);
  EXPECT_EQ(fit.raw_weights_hash, 0x5A3ABC58B92EB3E5ull);
  EXPECT_EQ(fit.weights_hash, 0x84C488E9F16D8DA0ull);
  EXPECT_EQ(fit.inner_iterations, 60);
  std::remove(path.c_str());
}

TEST(LeastSparse, ScalesTo2000NodesQuickly) {
  // Smoke test for the large-sparse path: d = 2000, a sparse ER DAG, and a
  // candidate pattern of the true support plus noise. Must finish in
  // seconds and drive the bound to tolerance.
  const int d = 2000;
  Rng rng(19);
  DenseMatrix support = RandomDagSupport(GraphType::kErdosRenyi, d, 2.0, rng);
  DenseMatrix w_true = AssignEdgeWeights(support, rng);
  auto x = SampleLsem(w_true, 1000, {}, rng);
  ASSERT_TRUE(x.ok());

  std::vector<std::pair<int, int>> candidates;
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j < d; ++j) {
      if (w_true(i, j) != 0.0) candidates.push_back({i, j});
    }
  }
  // Decoys: 2x random extra pairs.
  for (size_t t = 0, want = 2 * candidates.size(); t < want; ++t) {
    int i = rng.UniformInt(d), j = rng.UniformInt(d);
    if (i != j) candidates.push_back({i, j});
  }
  LearnOptions opt = FastSparseOptions();
  opt.batch_size = 200;
  opt.max_outer_iterations = 20;
  LeastSparseLearner learner(opt);
  learner.set_candidate_edges(candidates);
  OwningDenseDataSource src(x.value());
  SparseLearnResult r = learner.Fit(src);
  EXPECT_LE(r.constraint_value, 1e-6);
  StructureMetrics m = EvaluateStructure(w_true, r.weights.ToDense());
  EXPECT_GT(m.tpr, 0.6);
  EXPECT_LT(m.fdr, 0.4);
}

}  // namespace
}  // namespace least
