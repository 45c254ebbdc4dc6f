// Tests for core/data_source.h — the fleet data plane's owning dataset
// layer: self-describing specs with content hashes, the three access shapes
// (dense / CSR / transposed batches), the lazy CsvDataSource, and the
// byte-budgeted LRU DatasetCache (honest resident accounting, evictions,
// bit-identical reloads). Includes a truncation/corruption sweep over CSV
// bytes mirroring tests/test_serializer_fuzz.cc: malformed input must come
// back as a Status, never a crash.

#include "core/data_source.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

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

void ExpectBitIdentical(const DenseMatrix& a, const DenseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "entry " << i;
  }
}

std::string WriteTestCsv(const std::string& name, const DenseMatrix& x,
                         bool header = true) {
  const std::string path = testing::TempDir() + "/" + name;
  std::vector<std::string> cols;
  if (header) {
    for (int j = 0; j < x.cols(); ++j) cols.push_back("v" + std::to_string(j));
  }
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < x.rows(); ++i) {
    rows.emplace_back(x.row(i), x.row(i) + x.cols());
  }
  EXPECT_TRUE(WriteCsv(path, cols, rows).ok());
  return path;
}

// --- owning in-memory sources ---

TEST(OwningDenseSource, SpecAndAccessShapes) {
  const DenseMatrix x = TestMatrix(10, 4, 3);
  OwningDenseDataSource src(x, "unit-dense");
  ASSERT_TRUE(src.Prepare().ok());
  const DatasetSpec spec = src.spec();
  EXPECT_EQ(spec.kind, DatasetKind::kDense);
  EXPECT_EQ(spec.name, "unit-dense");
  EXPECT_EQ(spec.rows, 10);
  EXPECT_EQ(spec.cols, 4);
  EXPECT_EQ(spec.content_hash, HashDenseContent(x));
  EXPECT_NE(spec.content_hash, 0u);

  auto dense = src.Dense();
  ASSERT_TRUE(dense.ok());
  ExpectBitIdentical(*dense.value(), x);
  auto csr = src.Csr();
  ASSERT_TRUE(csr.ok());
  ExpectBitIdentical(csr.value()->ToDense(), x);

  DenseMatrix out(4, 3);
  std::vector<int> rows = {0, 9, 3};
  ASSERT_TRUE(src.GatherTransposed(rows, &out).ok());
  for (int b = 0; b < 3; ++b) {
    for (int v = 0; v < 4; ++v) EXPECT_EQ(out(v, b), x(rows[b], v));
  }
}

TEST(OwningDenseSource, HashDistinguishesContent) {
  EXPECT_NE(HashDenseContent(TestMatrix(6, 3, 1)),
            HashDenseContent(TestMatrix(6, 3, 2)));
  // Same values, different shape: still distinct.
  DenseMatrix a(2, 3), b(3, 2);
  EXPECT_NE(HashDenseContent(a), HashDenseContent(b));
}

TEST(OwningCsrSource, GatherMatchesDenseEquivalent) {
  const DenseMatrix x = TestMatrix(12, 5, 7);
  const CsrMatrix sparse = CsrMatrix::FromDense(x);
  OwningCsrDataSource csr_src(sparse, "unit-csr");
  OwningDenseDataSource dense_src(x);
  EXPECT_EQ(csr_src.spec().kind, DatasetKind::kCsr);
  EXPECT_EQ(csr_src.spec().content_hash, HashCsrContent(sparse));

  DenseMatrix a(5, 4), b(5, 4);
  std::vector<int> rows = {1, 1, 11, 6};
  ASSERT_TRUE(csr_src.GatherTransposed(rows, &a).ok());
  ASSERT_TRUE(dense_src.GatherTransposed(rows, &b).ok());
  ExpectBitIdentical(a, b);
}

TEST(DataSourceFactories, SharedOwnershipOutlivesEnqueueScope) {
  // The dangling-borrow hazard of the old adapters, fixed: the source keeps
  // the matrix alive after the original owner is gone.
  std::shared_ptr<DataSource> src;
  DenseMatrix copy;
  {
    DenseMatrix x = TestMatrix(8, 3, 11);
    copy = x;
    src = MakeDenseSource(std::move(x), "escapes");
  }
  auto dense = src->Dense();
  ASSERT_TRUE(dense.ok());
  ExpectBitIdentical(*dense.value(), copy);
}

// --- CsvDataSource ---

TEST(CsvSource, LazyLoadFillsSpec) {
  const DenseMatrix x = TestMatrix(20, 6, 13);
  const std::string path = WriteTestCsv("least_ds_lazy.csv", x);
  DatasetCache cache(1 << 20);
  CsvSourceOptions opt;
  opt.cache = &cache;
  CsvDataSource src(path, opt);

  // Before first touch: path known, shape/hash not.
  DatasetSpec spec = src.spec();
  EXPECT_EQ(spec.kind, DatasetKind::kCsv);
  EXPECT_EQ(spec.path, path);
  EXPECT_EQ(spec.rows, 0);
  EXPECT_EQ(cache.stats().misses, 0);

  ASSERT_TRUE(src.Prepare().ok());
  spec = src.spec();
  EXPECT_EQ(spec.rows, 20);
  EXPECT_EQ(spec.cols, 6);
  EXPECT_EQ(spec.content_hash, HashDenseContent(x));
  EXPECT_EQ(cache.stats().misses, 1);

  auto dense = src.Dense();
  ASSERT_TRUE(dense.ok());
  ExpectBitIdentical(*dense.value(), x);
  std::remove(path.c_str());
}

TEST(CsvSource, MissingFileIsIoErrorNotCrash) {
  DatasetCache cache;
  CsvSourceOptions opt;
  opt.cache = &cache;
  CsvDataSource src("/nonexistent/definitely/not/here.csv", opt);
  const Status s = src.Prepare();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(CsvSource, EmptyAndMalformedFilesAreInvalidArgument) {
  const std::string path = testing::TempDir() + "/least_ds_bad.csv";
  const std::vector<std::string> bad_payloads = {
      "",                 // empty file
      "\n\n",             // only blank lines
      "a,b\n",            // header only, no data rows
      "1,2\n3\n",         // ragged
      "1,2\n3,banana\n",  // non-numeric
      "1,2\n3,nan\n",     // non-finite
      "1,inf\n",          // non-finite
  };
  for (const std::string& payload : bad_payloads) {
    {
      std::ofstream out(path);
      out << payload;
    }
    DatasetCache cache;
    CsvSourceOptions opt;
    opt.has_header = true;
    opt.cache = &cache;
    CsvDataSource src(path, opt);
    const Status s = src.Prepare();
    ASSERT_FALSE(s.ok()) << "payload: " << payload;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << payload;
  }
  std::remove(path.c_str());
}

TEST(CsvSource, ExpectedShapeAndHashVerified) {
  const DenseMatrix x = TestMatrix(9, 3, 17);
  const std::string path = WriteTestCsv("least_ds_verify.csv", x);

  DatasetSpec recorded;
  {
    DatasetCache cache;
    CsvSourceOptions opt;
    opt.cache = &cache;
    CsvDataSource src(path, opt);
    ASSERT_TRUE(src.Prepare().ok());
    recorded = src.spec();
  }
  // Re-attach from the recorded spec: verification passes.
  {
    DatasetCache cache;
    auto attached = AttachDataset(recorded, &cache);
    ASSERT_TRUE(attached.ok());
    EXPECT_TRUE(attached.value()->Prepare().ok());
    EXPECT_EQ(attached.value()->num_rows(), 9);
  }
  // A tampered expectation is refused.
  {
    DatasetSpec wrong = recorded;
    wrong.content_hash ^= 1;
    DatasetCache cache;
    auto attached = AttachDataset(wrong, &cache);
    ASSERT_TRUE(attached.ok());  // lazy: the mismatch surfaces on load
    const Status s = attached.value()->Prepare();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
  {
    DatasetSpec wrong = recorded;
    wrong.rows = 999;
    DatasetCache cache;
    auto attached = AttachDataset(wrong, &cache);
    ASSERT_TRUE(attached.ok());
    EXPECT_FALSE(attached.value()->Prepare().ok());
  }
  std::remove(path.c_str());
}

TEST(CsvSource, MutatedFileRefusedOnReload) {
  const DenseMatrix x = TestMatrix(7, 2, 19);
  const std::string path = WriteTestCsv("least_ds_mutate.csv", x);
  DatasetCache cache;
  CsvSourceOptions opt;
  opt.cache = &cache;
  CsvDataSource src(path, opt);
  ASSERT_TRUE(src.Prepare().ok());

  // Evict, then mutate the file: the reload must refuse the changed bytes
  // instead of silently learning from different data.
  cache.Clear();
  WriteTestCsv("least_ds_mutate.csv", TestMatrix(7, 2, 20));
  DenseMatrix out(2, 1);
  std::vector<int> rows = {0};
  const Status s = src.GatherTransposed(rows, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CsvSource, HeaderOptionDoesNotShareCacheEntries) {
  // Same file, different parse options: the cache must not hand the
  // has_header=false source a payload parsed with a header (or vice
  // versa) — parse options are part of the cache key.
  const DenseMatrix x = TestMatrix(5, 3, 61);
  const std::string path = WriteTestCsv("least_ds_key.csv", x,
                                        /*header=*/true);
  DatasetCache cache;
  CsvSourceOptions with_header;
  with_header.has_header = true;
  with_header.cache = &cache;
  CsvSourceOptions headerless;
  headerless.has_header = false;
  headerless.cache = &cache;
  CsvDataSource a(path, with_header);
  CsvDataSource b(path, headerless);
  ASSERT_TRUE(a.Prepare().ok());
  // b parses the header line as data and fails (non-numeric names) —
  // crucially it did NOT get a's payload from the cache.
  const Status s = b.Prepare();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(a.num_rows(), 5);
  std::remove(path.c_str());
}

TEST(CsvSource, CacheHitOfForeignPayloadIsStillVerified) {
  // Another source populates the shared cache entry with mutated content;
  // the original source's next acquire is a cache *hit* but must still
  // refuse the changed bytes (verification is payload-identity-gated, not
  // load-gated).
  const DenseMatrix original = TestMatrix(6, 2, 67);
  const std::string path = WriteTestCsv("least_ds_foreign.csv", original,
                                        /*header=*/false);
  DatasetCache cache;
  CsvSourceOptions opt;
  opt.has_header = false;
  opt.cache = &cache;
  CsvDataSource victim(path, opt);
  ASSERT_TRUE(victim.Prepare().ok());

  // Evict, mutate the file, and let a fresh source (no expectations)
  // repopulate the same cache entry with the new content.
  cache.Clear();
  WriteTestCsv("least_ds_foreign.csv", TestMatrix(6, 2, 68),
               /*header=*/false);
  CsvDataSource intruder(path, opt);
  ASSERT_TRUE(intruder.Prepare().ok());

  // The victim now hits the cache — and must still notice the mutation.
  auto acquired = victim.Dense();
  ASSERT_FALSE(acquired.ok());
  EXPECT_EQ(acquired.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(AttachDataset, InMemoryKindsNeedResolver) {
  DatasetSpec spec;
  spec.kind = DatasetKind::kDense;
  spec.name = "ram-only";
  auto attached = AttachDataset(spec);
  ASSERT_FALSE(attached.ok());
  EXPECT_EQ(attached.status().code(), StatusCode::kInvalidArgument);
}

// --- DatasetCache ---

TEST(DatasetCacheTest, HitsMissesAndBitIdenticalReloadAfterEviction) {
  const DenseMatrix a = TestMatrix(16, 4, 23);  // 512 payload bytes
  const DenseMatrix b = TestMatrix(16, 4, 29);
  const DenseMatrix c = TestMatrix(16, 4, 31);
  const std::string pa = WriteTestCsv("least_cache_a.csv", a);
  const std::string pb = WriteTestCsv("least_cache_b.csv", b);
  const std::string pc = WriteTestCsv("least_cache_c.csv", c);
  const size_t bytes = 16 * 4 * sizeof(double);

  DatasetCache cache(2 * bytes);  // room for two datasets
  CsvSourceOptions opt;
  opt.cache = &cache;
  CsvDataSource sa(pa, opt), sb(pb, opt), sc(pc, opt);

  DenseMatrix first_a;
  {
    auto ha = sa.Dense();
    ASSERT_TRUE(ha.ok());
    first_a = *ha.value();
  }  // handle released: a stays cached but unpinned
  ASSERT_TRUE(sb.Dense().ok());
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_LE(cache.stats().resident_bytes, 2 * bytes);

  // Third load forces the LRU eviction of a.
  ASSERT_TRUE(sc.Dense().ok());
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_GE(cache.stats().evictions, 1);
  EXPECT_LE(cache.stats().resident_bytes, 2 * bytes);
  EXPECT_LE(cache.stats().peak_resident_bytes, 2 * bytes);

  // b is still cached: a hit. a was evicted: a fresh miss, bit-identical.
  ASSERT_TRUE(sb.Dense().ok());
  EXPECT_EQ(cache.stats().hits, 1);
  auto ra = sa.Dense();
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(cache.stats().misses, 4);
  ExpectBitIdentical(*ra.value(), first_a);

  std::remove(pa.c_str());
  std::remove(pb.c_str());
  std::remove(pc.c_str());
}

TEST(DatasetCacheTest, PinnedHandlesStayChargedAcrossEviction) {
  const DenseMatrix a = TestMatrix(8, 8, 37);
  const DenseMatrix b = TestMatrix(8, 8, 41);
  const std::string pa = WriteTestCsv("least_cache_pin_a.csv", a);
  const std::string pb = WriteTestCsv("least_cache_pin_b.csv", b);
  const size_t bytes = 8 * 8 * sizeof(double);

  DatasetCache cache(bytes);  // budget: exactly one dataset
  CsvSourceOptions opt;
  opt.cache = &cache;
  CsvDataSource sa(pa, opt), sb(pb, opt);

  auto ha = sa.Dense();
  ASSERT_TRUE(ha.ok());
  EXPECT_EQ(cache.resident_bytes(), bytes);

  // Loading b evicts a's cache reference, but the pinned handle keeps the
  // bytes alive — and the accounting says so honestly.
  auto hb = sb.Dense();
  ASSERT_TRUE(hb.ok());
  EXPECT_GE(cache.stats().evictions, 1);
  EXPECT_EQ(cache.resident_bytes(), 2 * bytes);

  ha.value().reset();  // release the pin: a's bytes free now
  EXPECT_EQ(cache.resident_bytes(), bytes);

  // A re-acquire of a is a miss again (the eviction was real).
  ASSERT_TRUE(sa.Dense().ok());
  EXPECT_EQ(cache.stats().misses, 3);

  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(DatasetCacheTest, FailedPrepareReleasesCacheReservation) {
  // The failure-path accounting fix: a payload that loads but fails
  // verification (here: a checkpointed expectation that doesn't match the
  // file) must not stay cached and charged until LRU pressure reaches it —
  // the reservation is released on the error path.
  const DenseMatrix x = TestMatrix(12, 4, 71);
  const std::string path = WriteTestCsv("least_cache_reserve.csv", x);
  DatasetCache cache(1 << 20);
  CsvSourceOptions wrong;
  wrong.cache = &cache;
  wrong.expected_hash = HashDenseContent(x) ^ 0xDEAD;  // stale checkpoint
  CsvDataSource refused(path, wrong);
  const Status s = refused.Prepare();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.resident_bytes(), 0u) << "refused payload still charged";
  EXPECT_GE(cache.stats().evictions, 1);

  // The dropped entry does not poison the key: a source with correct
  // expectations loads the same file fine afterwards.
  CsvSourceOptions right;
  right.cache = &cache;
  right.expected_hash = HashDenseContent(x);
  CsvDataSource accepted(path, right);
  EXPECT_TRUE(accepted.Prepare().ok());
  EXPECT_EQ(cache.resident_bytes(), x.size() * sizeof(double));
  std::remove(path.c_str());
}

TEST(DatasetCacheTest, ShrinkingBudgetEvicts) {
  const DenseMatrix a = TestMatrix(10, 10, 43);
  const std::string pa = WriteTestCsv("least_cache_shrink.csv", a);
  DatasetCache cache(1 << 20);
  CsvSourceOptions opt;
  opt.cache = &cache;
  CsvDataSource sa(pa, opt);
  ASSERT_TRUE(sa.Prepare().ok());
  EXPECT_GT(cache.resident_bytes(), 0u);
  cache.set_byte_budget(0);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  EXPECT_GE(cache.stats().evictions, 1);
  std::remove(pa.c_str());
}

TEST(DatasetCacheTest, StatsCountsExactlyThroughBudgetEvictReloadRefuse) {
  // The Stats() contract, pinned by exact counts through a full lifecycle:
  // two first-touch loads, an LRU eviction under budget pressure, a hit on
  // the survivor, a bit-identical reload of the victim, and a verification
  // refusal. `misses` counts lookups that found nothing usable; `loads`
  // counts loader successes (they diverge on the refused load's failure
  // path only in the refusal counter here, since the refused payload *did*
  // load before verification dropped it).
  const DenseMatrix a = TestMatrix(16, 4, 53);  // 512 payload bytes each
  const DenseMatrix b = TestMatrix(16, 4, 59);
  const std::string pa = WriteTestCsv("least_cache_stats_a.csv", a);
  const std::string pb = WriteTestCsv("least_cache_stats_b.csv", b);
  const size_t bytes = 16 * 4 * sizeof(double);

  DatasetCache cache(bytes);  // budget: exactly one dataset
  CsvSourceOptions opt;
  opt.cache = &cache;
  CsvDataSource sa(pa, opt), sb(pb, opt);

  // Load a (miss + load), then b (miss + load + eviction of a).
  ASSERT_TRUE(sa.Dense().ok());
  {
    DatasetCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits, 0);
    EXPECT_EQ(s.misses, 1);
    EXPECT_EQ(s.loads, 1);
    EXPECT_EQ(s.evictions, 0);
    EXPECT_EQ(s.refusals, 0);
    EXPECT_EQ(s.resident_bytes, bytes);
    EXPECT_EQ(s.peak_resident_bytes, bytes);
    EXPECT_EQ(s.entries, 1);
  }
  ASSERT_TRUE(sb.Dense().ok());
  {
    DatasetCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits, 0);
    EXPECT_EQ(s.misses, 2);
    EXPECT_EQ(s.loads, 2);
    EXPECT_EQ(s.evictions, 1);
    EXPECT_EQ(s.refusals, 0);
    EXPECT_EQ(s.resident_bytes, bytes);
    EXPECT_EQ(s.entries, 1);
  }

  // b is cached: a hit, nothing else moves.
  ASSERT_TRUE(sb.Dense().ok());
  {
    DatasetCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.misses, 2);
    EXPECT_EQ(s.loads, 2);
    EXPECT_EQ(s.evictions, 1);  // unchanged by the hit
  }

  // Reload the evicted a: miss + load + eviction of b, bit-identical data.
  auto ra = sa.Dense();
  ASSERT_TRUE(ra.ok());
  ExpectBitIdentical(*ra.value(), a);
  {
    DatasetCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.misses, 3);
    EXPECT_EQ(s.loads, 3);
    EXPECT_EQ(s.evictions, 2);
    EXPECT_EQ(s.refusals, 0);
  }
  ra.value().reset();

  // A stale-checkpoint expectation refuses b's payload after it loads: one
  // more miss + load, plus a refusal and the eviction of the refused bytes
  // (a's unpinned entry is evicted to admit b first).
  CsvSourceOptions stale;
  stale.cache = &cache;
  stale.expected_hash = HashDenseContent(b) ^ 0xBEEF;
  CsvDataSource refused(pb, stale);
  ASSERT_FALSE(refused.Prepare().ok());
  {
    DatasetCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.misses, 4);
    EXPECT_EQ(s.loads, 4);
    EXPECT_EQ(s.evictions, 4);  // a for admission + the refused b
    EXPECT_EQ(s.refusals, 1);
    EXPECT_EQ(s.resident_bytes, 0u);
    EXPECT_EQ(s.peak_resident_bytes, bytes);
    // Drop() ran while the refusing source still held its handle, so the
    // (unchargeable) entry record may linger until the key's next lookup.
    EXPECT_LE(s.entries, 1);
  }

  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

// --- corruption sweep (the serializer-fuzz pattern, applied to CSV) ---

TEST(CsvSource, TruncationAndCorruptionSweepNeverCrashes) {
  const DenseMatrix x = TestMatrix(6, 3, 47);
  const std::string ref_path = WriteTestCsv("least_ds_sweep_ref.csv", x);
  std::string payload;
  {
    std::ifstream in(ref_path);
    payload.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(payload.empty());
  const std::string path = testing::TempDir() + "/least_ds_sweep.csv";

  auto probe = [&](const std::string& bytes, const std::string& what) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    DatasetCache cache;
    CsvSourceOptions opt;
    opt.has_header = true;
    opt.cache = &cache;
    CsvDataSource src(path, opt);
    const Status s = src.Prepare();  // must never crash
    if (s.ok()) {
      // A mutation can still be a well-formed CSV; it must then describe a
      // coherent non-empty dataset.
      const DatasetSpec spec = src.spec();
      EXPECT_GT(spec.rows, 0) << what;
      EXPECT_GT(spec.cols, 0) << what;
    } else {
      EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument ||
                  s.code() == StatusCode::kIoError)
          << what << ": " << s.ToString();
    }
  };

  // Every truncation prefix.
  for (size_t cut = 0; cut < payload.size(); cut += 3) {
    probe(payload.substr(0, cut), "truncated to " + std::to_string(cut));
  }
  // Byte corruptions: bit flips and injected separators/terminators.
  for (size_t pos = 0; pos < payload.size(); pos += 2) {
    for (const char c : {char(payload[pos] ^ 0x11), ',', '\n', 'x', '\0'}) {
      std::string mutated = payload;
      mutated[pos] = c;
      probe(mutated, "byte " + std::to_string(pos));
    }
  }
  std::remove(ref_path.c_str());
  std::remove(path.c_str());
}

// --- parallel gather parity ---

TEST(DataSourceParallel, GatherIsBitwiseIdenticalUnderExecutor) {
  // Large enough to clear kParallelMinFlops so the executor actually
  // splits the batch.
  const DenseMatrix x = TestMatrix(800, 1600, 53);
  OwningDenseDataSource dense_src(x);
  OwningCsrDataSource csr_src(CsrMatrix::FromDense(x));

  std::vector<int> rows;
  Rng rng(59);
  for (int b = 0; b < 700; ++b) rows.push_back(rng.UniformInt(800));

  DenseMatrix serial_dense(1600, 700), serial_csr(1600, 700);
  ASSERT_EQ(GetParallelExecutor(), nullptr);
  ASSERT_TRUE(dense_src.GatherTransposed(rows, &serial_dense).ok());
  ASSERT_TRUE(csr_src.GatherTransposed(rows, &serial_csr).ok());
  {
    ThreadPool pool(4);
    SetParallelExecutor(&pool);
    DenseMatrix parallel_dense(1600, 700), parallel_csr(1600, 700);
    ASSERT_TRUE(dense_src.GatherTransposed(rows, &parallel_dense).ok());
    ASSERT_TRUE(csr_src.GatherTransposed(rows, &parallel_csr).ok());
    SetParallelExecutor(nullptr);
    ExpectBitIdentical(serial_dense, parallel_dense);
    ExpectBitIdentical(serial_csr, parallel_csr);
  }
}

// The column-at-a-time gather `GatherFromDense` used before it copied in
// tiles, kept verbatim (minus the executor split, which never changed what
// a column holds) as the bitwise golden.
void OldGatherFromDense(const DenseMatrix& x, std::span<const int> rows,
                        DenseMatrix* out) {
  const int batch = static_cast<int>(rows.size());
  const int d = x.cols();
  for (int64_t b = 0; b < batch; ++b) {
    const int r = rows[static_cast<size_t>(b)];
    const double* src = x.row(r);
    for (int v = 0; v < d; ++v) {
      (*out)(v, static_cast<int>(b)) = src[v];
    }
  }
}

TEST(DataSourceParallel, TiledGatherMatchesOldLoopAtEveryBatchWidth) {
  // Batch widths around the 32-column tile (one lane, a partial tile, one
  // exact tile, a tile plus one) and the benchmark's 512. Each width runs
  // at d = 13, which stays serial, and at a d that clears
  // kParallelMinFlops, so 2/4/8-thread pools cut the batch into chunks
  // whose edges fall inside tiles.
  for (const int batch : {1, 7, 31, 32, 33, 512}) {
    const int wide_d =
        static_cast<int>(kParallelMinFlops / batch) + 3;  // odd tail
    for (const int d : {13, batch > 1 ? wide_d : 13}) {
      SCOPED_TRACE("batch=" + std::to_string(batch) +
                   " d=" + std::to_string(d));
      const int n = 24;
      const DenseMatrix x = TestMatrix(n, d, 61 + batch);
      OwningDenseDataSource src(x);
      std::vector<int> rows;
      Rng rng(67 + batch);
      for (int b = 0; b < batch; ++b) rows.push_back(rng.UniformInt(n));
      DenseMatrix golden(d, batch);
      OldGatherFromDense(x, rows, &golden);

      ASSERT_EQ(GetParallelExecutor(), nullptr);
      DenseMatrix serial(d, batch);
      ASSERT_TRUE(src.GatherTransposed(rows, &serial).ok());
      ExpectBitIdentical(golden, serial);
      for (const int threads : {2, 4, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadPool pool(threads);
        SetParallelExecutor(&pool);
        DenseMatrix parallel(d, batch);
        const Status gathered = src.GatherTransposed(rows, &parallel);
        SetParallelExecutor(nullptr);
        ASSERT_TRUE(gathered.ok());
        ExpectBitIdentical(golden, parallel);
      }
    }
  }
}

}  // namespace
}  // namespace least
