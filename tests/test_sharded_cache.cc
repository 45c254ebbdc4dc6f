// Tests for the row-range-granular data plane: the chunked CsvDataSource
// and the shard-granular DatasetCache.
//
//  * property-style sweep: random shapes x shard sizes x cache budgets x
//    access orders — every gather is bit-identical to the in-RAM matrix,
//    peak resident bytes never exceed the budget, and evicted shards reload
//    bit-identically;
//  * single-flight: concurrent first-touch gathers across threads load each
//    shard exactly once;
//  * the acceptance bar: a CSV 4x its cache budget streams through
//    least-sparse with peak resident <= budget and a model bitwise
//    identical to the all-in-RAM run at 1, 2, and 8 threads;
//  * mutated files are refused shard by shard, and refused payloads release
//    their cache reservation;
//  * a sharded spec re-attaches through AttachDataset with per-shard hash
//    verification.
//
// The single-flight test exercises real concurrency; scripts/check.sh
// re-runs this binary under `--repeat until-fail:3`.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/data_source.h"
#include "core/least_sparse.h"
#include "data/benchmark_data.h"
#include "linalg/parallel.h"
#include "runtime/thread_pool.h"
#include "util/csv.h"
#include "util/rng.h"

namespace least {
namespace {

DenseMatrix TestMatrix(int n, int d, uint64_t seed) {
  Rng rng(seed);
  return DenseMatrix::RandomUniform(n, d, -2.0, 2.0, rng);
}

std::string WriteTestCsv(const std::string& name, const DenseMatrix& x) {
  const std::string path = testing::TempDir() + "/" + name;
  EXPECT_TRUE(WriteMatrixCsv(path, x).ok());
  return path;
}

CsvSourceOptions ShardedOptions(DatasetCache* cache, int shard_rows) {
  CsvSourceOptions opt;
  opt.has_header = false;
  opt.cache = cache;
  opt.shard_rows = shard_rows;
  return opt;
}

void ExpectBitIdentical(const DenseMatrix& a, const DenseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.size() * sizeof(double)),
            0);
}

void ExpectBitIdenticalCsr(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.nnz(), b.nnz());
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
  EXPECT_EQ(a.col_idx(), b.col_idx());
  EXPECT_EQ(a.values(), b.values());
}

TEST(ShardedCsvSource, PrepareFillsLayoutAndShardingIsInvisibleToSpec) {
  const DenseMatrix x = TestMatrix(53, 4, 11);  // 53 rows: last shard partial
  const std::string path = WriteTestCsv("least_shard_spec.csv", x);
  DatasetCache cache(1 << 20);
  CsvDataSource sharded(path, ShardedOptions(&cache, 10));
  ASSERT_TRUE(sharded.Prepare().ok());
  const DatasetSpec spec = sharded.spec();
  EXPECT_EQ(spec.rows, 53);
  EXPECT_EQ(spec.cols, 4);
  EXPECT_EQ(spec.shard_rows, 10);
  ASSERT_EQ(spec.shards.size(), 6u);  // 5 full + 1 partial
  int expect_begin = 0;
  uint64_t expect_offset = 0;
  for (const DatasetShard& shard : spec.shards) {
    EXPECT_EQ(shard.row_begin, expect_begin);
    EXPECT_LE(shard.row_end - shard.row_begin, 10);
    EXPECT_EQ(shard.byte_offset, expect_offset);  // no header, no blanks
    EXPECT_GT(shard.byte_size, 0u);
    EXPECT_NE(shard.content_hash, 0u);
    expect_begin = shard.row_end;
    expect_offset = shard.byte_offset + shard.byte_size;
  }
  EXPECT_EQ(expect_begin, 53);

  // The whole-dataset hash is layout-independent: identical to both the
  // unsharded source's and the in-RAM matrix's.
  EXPECT_EQ(spec.content_hash, HashDenseContent(x));
  DatasetCache other(1 << 20);
  CsvSourceOptions unsharded;
  unsharded.has_header = false;
  unsharded.cache = &other;
  CsvDataSource whole(path, unsharded);
  ASSERT_TRUE(whole.Prepare().ok());
  EXPECT_EQ(whole.spec().content_hash, spec.content_hash);

  // Dense materialization (the explicit opt-out of streaming) assembles
  // the identical matrix from shards.
  auto dense = sharded.Dense();
  ASSERT_TRUE(dense.ok());
  ExpectBitIdentical(*dense.value(), x);
  std::remove(path.c_str());
}

TEST(ShardedCsvSource, PropertySweepBudgetsOrdersAndReloadsBitIdentical) {
  // Random shard sizes x cache budgets x access orders. Invariants per
  // trial: (a) every gathered value is bit-identical to the in-RAM matrix,
  // across evictions and reloads; (b) peak resident bytes <= budget
  // whenever the budget admits one shard; (c) an under-budget dataset
  // forces evictions.
  Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 40 + rng.UniformInt(200);
    const int d = 2 + rng.UniformInt(6);
    const int shard_rows = 7 + rng.UniformInt(n);
    const int num_shards = (n + shard_rows - 1) / shard_rows;
    const size_t shard_bytes =
        static_cast<size_t>(std::min(shard_rows, n)) * d * sizeof(double);
    const int budget_shards = 1 + rng.UniformInt(3);
    const size_t budget = budget_shards * shard_bytes;
    SCOPED_TRACE("trial " + std::to_string(trial) + ": n=" +
                 std::to_string(n) + " d=" + std::to_string(d) +
                 " shard_rows=" + std::to_string(shard_rows) +
                 " budget_shards=" + std::to_string(budget_shards));

    const DenseMatrix x = TestMatrix(n, d, 100 + trial);
    const std::string path =
        WriteTestCsv("least_shard_sweep_" + std::to_string(trial) + ".csv", x);
    DatasetCache cache(budget);
    CsvDataSource src(path, ShardedOptions(&cache, shard_rows));
    ASSERT_TRUE(src.Prepare().ok());

    GatherScratch scratch;
    for (int pass = 0; pass < 6; ++pass) {
      const int batch = 1 + rng.UniformInt(2 * n);
      std::vector<int> rows(batch);
      for (int& r : rows) r = rng.UniformInt(n);
      if (pass == 3) cache.Clear();  // force a full reload mid-sweep
      DenseMatrix out(d, batch);
      ASSERT_TRUE(src.GatherTransposed(rows, &out, &scratch).ok());
      for (int b = 0; b < batch; ++b) {
        for (int v = 0; v < d; ++v) {
          ASSERT_EQ(out(v, b), x(rows[b], v))
              << "pass " << pass << " b=" << b << " v=" << v;
        }
      }
    }
    // Deterministic full-coverage pass: every shard is touched, so an
    // under-budget dataset must evict, and reloads stay bit-identical.
    {
      std::vector<int> rows(n);
      for (int i = 0; i < n; ++i) rows[i] = i;
      DenseMatrix out(d, n);
      ASSERT_TRUE(src.GatherTransposed(rows, &out, &scratch).ok());
      for (int b = 0; b < n; ++b) {
        for (int v = 0; v < d; ++v) ASSERT_EQ(out(v, b), x(b, v));
      }
    }
    const DatasetCache::Stats stats = cache.stats();
    EXPECT_LE(stats.peak_resident_bytes, budget);
    EXPECT_GE(stats.misses, num_shards);  // every shard loaded at least once
    if (budget_shards < num_shards) {
      EXPECT_GT(stats.evictions, 0);
    }
    std::remove(path.c_str());
  }
}

TEST(ShardedCsvSource, SingleFlightUnderConcurrentGathers) {
  // Eight threads first-touch every shard at once through one source. With
  // a budget that never evicts, per-key single-flight means each shard is
  // parsed exactly once — concurrent misses on the same shard wait instead
  // of duplicating the load (and the budget is never overshot by duplicate
  // payloads).
  constexpr int kRows = 240;
  constexpr int kCols = 6;
  constexpr int kShardRows = 20;  // 12 shards
  constexpr int kThreads = 8;
  const DenseMatrix x = TestMatrix(kRows, kCols, 77);
  const std::string path = WriteTestCsv("least_shard_flight.csv", x);
  DatasetCache cache(size_t{1} << 24);  // ample: no evictions, no reloads
  CsvDataSource src(path, ShardedOptions(&cache, kShardRows));
  ASSERT_TRUE(src.Prepare().ok());
  const int64_t misses_after_prepare = cache.stats().misses;

  std::vector<int> all_rows(kRows);
  for (int i = 0; i < kRows; ++i) all_rows[i] = i;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      GatherScratch scratch;
      for (int pass = 0; pass < 3; ++pass) {
        DenseMatrix out(kCols, kRows);
        if (!src.GatherTransposed(all_rows, &out, &scratch).ok()) {
          ++failures;
          return;
        }
        for (int b = 0; b < kRows; ++b) {
          for (int v = 0; v < kCols; ++v) {
            if (out(v, b) != x(b, v)) {
              ++failures;
              return;
            }
          }
        }
      }
      (void)t;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  const DatasetCache::Stats stats = cache.stats();
  // Prepare's scan does not populate the cache, so all 12 shard loads
  // happened under thread contention — exactly once each.
  EXPECT_EQ(stats.misses - misses_after_prepare, 12);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_GT(stats.hits, 0);
  std::remove(path.c_str());
}

TEST(ShardedCsvSource, OverBudgetLearnerBitIdenticalAtOneTwoEightThreads) {
  // The acceptance bar: a CSV dataset 4x the cache budget streams through
  // least-sparse with peak resident bytes <= budget, and the learned model
  // is bitwise identical to the all-in-RAM run at 1, 2, and 8 threads.
  constexpr int kRows = 1600;
  constexpr int kCols = 10;
  constexpr int kShardRows = 100;  // 16 shards of 8,000 bytes
  const size_t total_bytes = size_t{kRows} * kCols * sizeof(double);
  const size_t budget = total_bytes / 4;
  // Structured (linear-SEM) data so the sparse learner keeps real edges.
  BenchmarkConfig cfg;
  cfg.d = kCols;
  cfg.n = kRows;
  cfg.seed = 4242;
  const DenseMatrix x = MakeBenchmarkInstance(cfg).x;
  const std::string path = WriteTestCsv("least_shard_learn.csv", x);

  LearnOptions options;
  options.max_outer_iterations = 5;
  options.max_inner_iterations = 40;
  options.batch_size = 200;
  options.lambda1 = 0.05;
  options.learning_rate = 0.03;
  options.filter_threshold = 0.05;
  options.init_density = 0.0;  // explicit full candidate pattern below
  options.seed = 99;

  // All-in-RAM reference, serial.
  ASSERT_EQ(GetParallelExecutor(), nullptr);
  LeastSparseLearner learner(options);
  std::vector<std::pair<int, int>> candidates;
  for (int i = 0; i < kCols; ++i) {
    for (int j = 0; j < kCols; ++j) {
      if (i != j) candidates.push_back({i, j});
    }
  }
  learner.set_candidate_edges(candidates);
  OwningDenseDataSource ram(x, "in-ram");
  const SparseLearnResult reference = learner.Fit(ram);
  ASSERT_GT(reference.raw_weights.nnz(), 0);

  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DatasetCache cache(budget);
    CsvDataSource disk(path, ShardedOptions(&cache, kShardRows));
    ThreadPool pool(threads);
    SetParallelExecutor(&pool);
    const SparseLearnResult streamed = learner.Fit(disk);
    SetParallelExecutor(nullptr);
    ASSERT_EQ(streamed.status.code(), reference.status.code());
    ExpectBitIdenticalCsr(streamed.raw_weights, reference.raw_weights);
    ExpectBitIdenticalCsr(streamed.weights, reference.weights);
    const DatasetCache::Stats stats = cache.stats();
    EXPECT_LE(stats.peak_resident_bytes, budget);
    EXPECT_GT(stats.peak_resident_bytes, 0u);
    EXPECT_GT(stats.evictions, 0);  // 4x over budget cannot fit
  }
  std::remove(path.c_str());
}

TEST(ShardedCsvSource, ReusedScratchAlternatesVisitOrderSoSurvivorsHit) {
  // Under a k-shard budget an ascending full pass leaves the last k shards
  // resident. Visiting ascending again evicts each one just before it is
  // needed (0 hits); a reused scratch turns the second pass around, so it
  // starts on exactly those k survivors.
  const int n = 120, d = 4, shard_rows = 10, k = 3;
  const DenseMatrix x = TestMatrix(n, d, 77);
  const std::string path = WriteTestCsv("least_shard_visit_order.csv", x);
  DatasetCache cache(static_cast<size_t>(k) * shard_rows * d * sizeof(double));
  CsvDataSource src(path, ShardedOptions(&cache, shard_rows));
  ASSERT_TRUE(src.Prepare().ok());

  std::vector<int> rows(n);
  for (int i = 0; i < n; ++i) rows[i] = i;
  DenseMatrix in_ram(d, n);
  ASSERT_TRUE(MakeDenseSource(x)->GatherTransposed(rows, &in_ram).ok());

  GatherScratch scratch;
  DenseMatrix first(d, n), second(d, n);
  ASSERT_TRUE(src.GatherTransposed(rows, &first, &scratch).ok());
  const int64_t hits_before = cache.stats().hits;
  ASSERT_TRUE(src.GatherTransposed(rows, &second, &scratch).ok());
  EXPECT_EQ(cache.stats().hits - hits_before, k);
  ExpectBitIdentical(first, in_ram);
  ExpectBitIdentical(second, in_ram);
  std::remove(path.c_str());
}

TEST(ShardedCsvSource, GatherVisitOrderAlternatesOnlyWithReusedScratch) {
  const int n = 50, d = 2, shard_rows = 10, num_shards = 5;
  const DenseMatrix x = TestMatrix(n, d, 78);
  std::vector<int> visited;
  const auto acquire =
      [&](int s) -> Result<std::shared_ptr<const DenseMatrix>> {
    visited.push_back(s);
    auto shard = std::make_shared<DenseMatrix>(shard_rows, d);
    std::memcpy(shard->row(0), x.row(s * shard_rows),
                static_cast<size_t>(shard_rows) * d * sizeof(double));
    return std::shared_ptr<const DenseMatrix>(std::move(shard));
  };
  std::vector<int> rows(n);
  for (int i = 0; i < n; ++i) rows[i] = n - 1 - i;  // batch order is not
                                                    // shard order
  DenseMatrix in_ram(d, n);
  ASSERT_TRUE(MakeDenseSource(x)->GatherTransposed(rows, &in_ram).ok());
  const std::vector<int> ascending = {0, 1, 2, 3, 4};
  const std::vector<int> descending = {4, 3, 2, 1, 0};

  for (int call = 0; call < 2; ++call) {  // no scratch: always ascending
    visited.clear();
    DenseMatrix out(d, n);
    ASSERT_TRUE(GatherFromShards(rows, &out, nullptr, n, d, shard_rows,
                                 num_shards, acquire)
                    .ok());
    EXPECT_EQ(visited, ascending) << "call " << call;
    ExpectBitIdentical(out, in_ram);
  }
  GatherScratch scratch;
  for (int call = 0; call < 4; ++call) {  // reused scratch: alternates
    visited.clear();
    DenseMatrix out(d, n);
    ASSERT_TRUE(GatherFromShards(rows, &out, &scratch, n, d, shard_rows,
                                 num_shards, acquire)
                    .ok());
    EXPECT_EQ(visited, call % 2 == 0 ? ascending : descending)
        << "call " << call;
    ExpectBitIdentical(out, in_ram);
  }
}

TEST(ShardedCsvSource, MutatedFileRefusedShardByShardAndReservationReleased) {
  const DenseMatrix x = TestMatrix(60, 3, 41);
  const std::string path = WriteTestCsv("least_shard_mutate.csv", x);
  DatasetCache cache(1 << 20);
  CsvDataSource src(path, ShardedOptions(&cache, 20));
  ASSERT_TRUE(src.Prepare().ok());

  // Evict everything, then mutate the file: the next gather reloads a
  // shard, the per-shard hash refuses it, and the refused payload's cache
  // reservation is released on the error path.
  cache.Clear();
  WriteTestCsv("least_shard_mutate.csv", TestMatrix(60, 3, 42));
  GatherScratch scratch;
  std::vector<int> rows = {5, 25, 45};
  DenseMatrix out(3, 3);
  const Status s = src.GatherTransposed(rows, &out, &scratch);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.resident_bytes(), 0u) << "refused shard still charged";
  std::remove(path.c_str());
}

TEST(ShardedCsvSource, AttachedShardedSpecVerifiesPerShardHashes) {
  const DenseMatrix x = TestMatrix(48, 4, 51);
  const std::string path = WriteTestCsv("least_shard_attach.csv", x);
  DatasetSpec recorded;
  {
    DatasetCache cache(1 << 20);
    CsvDataSource src(path, ShardedOptions(&cache, 16));
    ASSERT_TRUE(src.Prepare().ok());
    recorded = src.spec();
  }
  ASSERT_EQ(recorded.shards.size(), 3u);

  // Re-attach from the recorded spec: chunked mode with the same layout.
  {
    DatasetCache cache(1 << 20);
    auto attached = AttachDataset(recorded, &cache);
    ASSERT_TRUE(attached.ok()) << attached.status().ToString();
    ASSERT_TRUE(attached.value()->Prepare().ok());
    EXPECT_EQ(attached.value()->spec().shard_rows, 16);
    DenseMatrix out(4, 2);
    std::vector<int> rows = {0, 47};
    ASSERT_TRUE(attached.value()->GatherTransposed(rows, &out).ok());
    EXPECT_EQ(out(2, 1), x(47, 2));
  }
  // A tampered per-shard hash is refused at Prepare.
  {
    DatasetSpec wrong = recorded;
    wrong.shards[1].content_hash ^= 1;
    DatasetCache cache(1 << 20);
    auto attached = AttachDataset(wrong, &cache);
    ASSERT_TRUE(attached.ok());  // lazy: the mismatch surfaces on load
    const Status s = attached.value()->Prepare();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
  // An inconsistent layout (shards without shard_rows) is rejected outright.
  {
    DatasetSpec wrong = recorded;
    wrong.shard_rows = 0;
    auto attached = AttachDataset(wrong);
    ASSERT_FALSE(attached.ok());
    EXPECT_EQ(attached.status().code(), StatusCode::kInvalidArgument);
  }
  // A stub spec (sharding intent recorded, table not yet scanned — the
  // shape an enqueue-time checkpoint stamps) attaches and scans fresh.
  {
    DatasetSpec stub = recorded;
    stub.shards.clear();
    stub.rows = 0;
    stub.cols = 0;
    stub.content_hash = 0;
    DatasetCache cache(1 << 20);
    auto attached = AttachDataset(stub, &cache);
    ASSERT_TRUE(attached.ok()) << attached.status().ToString();
    ASSERT_TRUE(attached.value()->Prepare().ok());
    EXPECT_EQ(attached.value()->spec().shards.size(), 3u);
    EXPECT_EQ(attached.value()->spec().content_hash, recorded.content_hash);
  }
  std::remove(path.c_str());
}

TEST(ShardedCsvSource, HeaderAndBlankLinesKeepExtentsExact) {
  // Headers and interior blank lines shift byte extents; the scan must
  // track them exactly so shard parses reproduce the whole-file parse.
  const DenseMatrix x = TestMatrix(25, 3, 61);
  const std::string path = testing::TempDir() + "/least_shard_header.csv";
  {
    std::ofstream out(path);
    out << "a,b,c\n\n";  // header + blank
    out.precision(17);
    for (int i = 0; i < 25; ++i) {
      out << x(i, 0) << "," << x(i, 1) << "," << x(i, 2) << "\n";
      if (i % 7 == 3) out << "\n";  // interior blanks
    }
  }
  DatasetCache cache(1 << 20);
  CsvSourceOptions opt;
  opt.has_header = true;
  opt.cache = &cache;
  opt.shard_rows = 8;
  CsvDataSource src(path, opt);
  ASSERT_TRUE(src.Prepare().ok()) << src.Prepare().ToString();
  ASSERT_EQ(src.spec().rows, 25);
  GatherScratch scratch;
  std::vector<int> rows(25);
  for (int i = 0; i < 25; ++i) rows[i] = 24 - i;
  DenseMatrix out(3, 25);
  ASSERT_TRUE(src.GatherTransposed(rows, &out, &scratch).ok());
  for (int b = 0; b < 25; ++b) {
    for (int v = 0; v < 3; ++v) ASSERT_EQ(out(v, b), x(rows[b], v));
  }
  std::remove(path.c_str());
}

// A 60 x 2 CSV of integer cells — row i is "i,(100 + i)" — with a header
// and blank lines after rows 9 and 29, so file lines and data rows differ.
// `bad_row`, when set, gets `bad_cell` in place of its second cell.
std::string LineNumberedCsv(int bad_row = -1,
                            const std::string& bad_cell = "") {
  std::string text = "a,b\n";
  for (int i = 0; i < 60; ++i) {
    text += std::to_string(i) + "," +
            (i == bad_row ? bad_cell : std::to_string(100 + i)) + "\n";
    if (i == 9 || i == 29) text += "\n";
  }
  return text;
}

TEST(ShardedCsvSource, ScanReportsBadCellsAtTheirFileLine) {
  // Row 47 sits on file line 51 (header + 47 rows + 2 blanks before it).
  // The sharded scan parses it inside a shard's extent; its message must
  // still name the file line, word for word what the unsharded parse says.
  const std::string path = testing::TempDir() + "/least_shard_lines.csv";
  for (const std::string cell : {"oops", "nan"}) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << LineNumberedCsv(47, cell);
    DatasetCache cache(1 << 20);
    CsvSourceOptions whole_opt;
    whole_opt.cache = &cache;
    const Status whole = CsvDataSource(path, whole_opt).Prepare();
    ASSERT_FALSE(whole.ok());
    EXPECT_NE(whole.message().find("at line 51 in"), std::string::npos)
        << whole.ToString();
    for (const int shard_rows : {1, 7, 20, 60}) {
      SCOPED_TRACE("cell=" + cell + " shard_rows=" +
                   std::to_string(shard_rows));
      CsvSourceOptions opt = ShardedOptions(&cache, shard_rows);
      opt.has_header = true;
      const Status sharded = CsvDataSource(path, opt).Prepare();
      ASSERT_FALSE(sharded.ok());
      EXPECT_EQ(sharded.code(), whole.code());
      EXPECT_EQ(sharded.message(), whole.message());
    }
  }
  std::remove(path.c_str());
}

TEST(ShardedCsvSource, ReloadNamesShardAndShardRelativeLine) {
  // A reload reads one extent and cannot know where it starts in the file,
  // so a bad cell found there is named by shard and shard-relative line,
  // never passed off as a file line. Row 45 is the 6th line of shard 2
  // (rows 40-59).
  const std::string path = testing::TempDir() + "/least_shard_reload.csv";
  std::ofstream(path, std::ios::binary | std::ios::trunc) << LineNumberedCsv();
  DatasetCache cache(1 << 20);
  CsvSourceOptions opt = ShardedOptions(&cache, 20);
  opt.has_header = true;
  CsvDataSource src(path, opt);
  ASSERT_TRUE(src.Prepare().ok());
  cache.Clear();
  // Same byte length, so the recorded extents still line up.
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << LineNumberedCsv(45, "x45");
  std::vector<int> rows = {45};
  DenseMatrix out(2, 1);
  const Status s = src.GatherTransposed(rows, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("'x45' at shard-relative line 6 of shard 2 in"),
            std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(ShardedCsvSource, UnparseableReloadRefusedWithCsvWordingInBothOrders) {
  // The file gains a leading line, so every recorded extent now starts
  // mid-line and no longer parses. Whichever shard the reload reaches first
  // — shard 0 ascending (fresh scratch), the last shard descending (a
  // scratch reused from the first gather) — the refusal names the CSV
  // dataset and that shard, as a remote reload names the origin.
  const int n = 60, d = 3, shard_rows = 20, last = n / shard_rows - 1;
  const std::string path = testing::TempDir() + "/least_shard_shifted.csv";
  for (const bool reuse_scratch : {false, true}) {
    SCOPED_TRACE(reuse_scratch ? "descending (reused scratch)"
                               : "ascending (fresh scratch)");
    ASSERT_TRUE(WriteMatrixCsv(path, TestMatrix(n, d, 23)).ok());
    DatasetCache cache(1 << 20);
    CsvDataSource src(path, ShardedOptions(&cache, shard_rows));
    ASSERT_TRUE(src.Prepare().ok());
    std::vector<int> rows(n);
    for (int i = 0; i < n; ++i) rows[i] = i;
    GatherScratch scratch;
    DenseMatrix out(d, n);
    ASSERT_TRUE(src.GatherTransposed(rows, &out, &scratch).ok());

    std::string content;
    {
      std::ifstream in(path, std::ios::binary);
      content.assign(std::istreambuf_iterator<char>(in), {});
    }
    std::ofstream(path, std::ios::binary | std::ios::trunc) << "0,0,0\n"
                                                             << content;
    cache.Clear();
    GatherScratch fresh;
    const Status refused = src.GatherTransposed(
        rows, &out, reuse_scratch ? &scratch : &fresh);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
    const std::string prefix = "CSV dataset '" + path + "' shard " +
                               std::to_string(reuse_scratch ? last : 0) + " ";
    EXPECT_EQ(refused.message().rfind(prefix, 0), 0u) << refused.ToString();
    EXPECT_NE(refused.message().find("(file changed)"), std::string::npos)
        << refused.ToString();
    EXPECT_EQ(cache.resident_bytes(), 0u) << "refused shard still charged";
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace least
