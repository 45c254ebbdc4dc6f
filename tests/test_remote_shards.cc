// Property and acceptance tests for the remote data plane
// (net/http_data_source.h riding the FleetService /data route):
//
//  * the manifest protocol: Prepare() learns shape, whole-dataset hash, and
//    the shard table from `GET /data/<ref>?manifest=1...` and it matches a
//    local scan of the same file exactly;
//  * property-style sweep: random shard sizes x cache budgets x access
//    orders — every gather through HTTP Range requests is bit-identical to
//    the in-RAM matrix across evictions and reloads, peak resident bytes
//    never exceed the budget, and keep-alive reuse means a sequential
//    sweep rides one TCP connection;
//  * a mutated origin is refused shard by shard on reload (per-shard FNV
//    hash) and refused at Prepare when the manifest no longer matches a
//    checkpointed spec;
//  * the acceptance bar: a remote dataset 4x its cache budget streams
//    through least-sparse at thread-pool sizes 1 and 4 bit-identically to
//    the local all-in-RAM run — including after a mid-run kill and
//    ScanAndResume from the v5 checkpoint, which re-attaches the kRemote
//    spec through InstallHttpDataPlane()'s factory and streams the rest of
//    the fit from the origin.
//
// scripts/check.sh re-runs this binary under `--repeat until-fail:3` (it
// exercises real sockets and scheduler concurrency).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/data_source.h"
#include "core/least.h"
#include "data/benchmark_data.h"
#include "io/model_serializer.h"
#include "net/fleet_service.h"
#include "net/http_client.h"
#include "net/http_data_source.h"
#include "net/http_server.h"
#include "runtime/fleet_scheduler.h"
#include "runtime/job_journal.h"
#include "runtime/thread_pool.h"
#include "util/csv.h"
#include "util/rng.h"

namespace least {
namespace {

namespace fs = std::filesystem;

DenseMatrix TestMatrix(int n, int d, uint64_t seed) {
  Rng rng(seed);
  return DenseMatrix::RandomUniform(n, d, -2.0, 2.0, rng);
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// One live shard origin: a FleetService (for its /data route) behind a real
// HttpServer, serving files under `data_root`.
struct ShardOrigin {
  explicit ShardOrigin(std::string data_root_in)
      : data_root(std::move(data_root_in)), pool(1), scheduler(&pool, {}) {
    scheduler.set_journal(&journal);
    FleetServiceOptions options;
    options.data_root = data_root;
    service = std::make_unique<FleetService>(&scheduler, &journal, options);
    HttpServerOptions server_options;
    server_options.num_threads = 4;  // concurrent shard fetches at pool 4
    server = std::make_unique<HttpServer>(service->AsHandler(),
                                          server_options);
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  ~ShardOrigin() {
    scheduler.CancelAll();
    scheduler.Wait();
    server->Stop();
  }

  std::string Url(const std::string& ref) const {
    return "http://127.0.0.1:" + std::to_string(server->port()) + "/data/" +
           ref;
  }

  std::string WriteCsv(const std::string& ref, const DenseMatrix& x) const {
    const std::string path = data_root + "/" + ref;
    EXPECT_TRUE(WriteMatrixCsv(path, x).ok());
    return path;
  }

  std::string data_root;
  ThreadPool pool;
  FleetScheduler scheduler;
  JobJournal journal;
  std::unique_ptr<FleetService> service;
  std::unique_ptr<HttpServer> server;
};

HttpSourceOptions RemoteOptions(DatasetCache* cache, int shard_rows) {
  HttpSourceOptions options;
  options.has_header = false;
  options.cache = cache;
  options.shard_rows = shard_rows;
  return options;
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

TEST(RemoteShards, ManifestPrepareMatchesLocalScan) {
  const std::string dir = FreshDir("least_remote_manifest");
  ShardOrigin origin(dir);
  const DenseMatrix x = TestMatrix(53, 4, 11);
  const std::string path = origin.WriteCsv("m.csv", x);

  const Result<CsvShardScan> local = ScanCsvIntoShards(path, false, 20);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  DatasetCache cache(1 << 20);
  Result<std::shared_ptr<const DataSource>> made =
      MakeHttpSource(origin.Url("m.csv"), RemoteOptions(&cache, 20));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const std::shared_ptr<const DataSource>& src = made.value();
  ASSERT_TRUE(src->Prepare().ok());

  const DatasetSpec spec = src->spec();
  EXPECT_EQ(spec.kind, DatasetKind::kRemote);
  EXPECT_EQ(spec.path, origin.Url("m.csv"));
  EXPECT_EQ(spec.rows, local.value().rows);
  EXPECT_EQ(spec.cols, local.value().cols);
  EXPECT_EQ(spec.content_hash, local.value().content_hash);
  EXPECT_EQ(spec.shard_rows, 20);
  ASSERT_EQ(spec.shards.size(), local.value().shards.size());
  for (size_t i = 0; i < spec.shards.size(); ++i) {
    EXPECT_EQ(spec.shards[i].row_begin, local.value().shards[i].row_begin);
    EXPECT_EQ(spec.shards[i].row_end, local.value().shards[i].row_end);
    EXPECT_EQ(spec.shards[i].byte_offset,
              local.value().shards[i].byte_offset);
    EXPECT_EQ(spec.shards[i].byte_size, local.value().shards[i].byte_size);
    EXPECT_EQ(spec.shards[i].content_hash,
              local.value().shards[i].content_hash);
  }

  // Full materialization round-trips bit-identically over Range requests.
  Result<std::shared_ptr<const DenseMatrix>> dense = src->Dense();
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  ExpectBitIdentical(*dense.value(), x);

  // The local chunked source over the same file reports the same layout,
  // and the same gather sequence — a scratch reused across two full gathers
  // under a two-shard budget — makes the same cache traffic on either
  // backend: shard 2 evicts shard 0 on the ascending pass, the descending
  // pass hits shards 2 and 1 and reloads shard 0.
  const size_t budget = 2 * 20 * 4 * sizeof(double);
  DatasetCache local_cache(budget), remote_cache(budget);
  CsvSourceOptions local_options;
  local_options.has_header = false;
  local_options.cache = &local_cache;
  local_options.shard_rows = 20;
  const CsvDataSource local_src(path, local_options);
  Result<std::shared_ptr<const DataSource>> remote_made =
      MakeHttpSource(origin.Url("m.csv"), RemoteOptions(&remote_cache, 20));
  ASSERT_TRUE(remote_made.ok()) << remote_made.status().ToString();
  const DataSource& remote_src = *remote_made.value();
  ASSERT_TRUE(local_src.Prepare().ok());
  ASSERT_TRUE(remote_src.Prepare().ok());
  const DatasetSpec local_spec = local_src.spec();
  const DatasetSpec remote_spec = remote_src.spec();
  EXPECT_EQ(local_spec.content_hash, remote_spec.content_hash);
  ASSERT_EQ(local_spec.shards.size(), remote_spec.shards.size());
  for (size_t i = 0; i < local_spec.shards.size(); ++i) {
    EXPECT_EQ(local_spec.shards[i].row_begin, remote_spec.shards[i].row_begin);
    EXPECT_EQ(local_spec.shards[i].row_end, remote_spec.shards[i].row_end);
    EXPECT_EQ(local_spec.shards[i].content_hash,
              remote_spec.shards[i].content_hash);
  }
  std::vector<int> rows(53);
  for (int i = 0; i < 53; ++i) rows[i] = i;
  auto traffic = [&](const DataSource& s, const DatasetCache& cache) {
    const DatasetCache::Stats before = cache.stats();
    GatherScratch scratch;
    for (int pass = 0; pass < 2; ++pass) {
      DenseMatrix out(4, 53);
      EXPECT_TRUE(s.GatherTransposed(rows, &out, &scratch).ok());
    }
    const DatasetCache::Stats after = cache.stats();
    return std::vector<int64_t>{after.hits - before.hits,
                                after.misses - before.misses,
                                after.loads - before.loads,
                                after.evictions - before.evictions};
  };
  const std::vector<int64_t> local_traffic = traffic(local_src, local_cache);
  EXPECT_EQ(local_traffic, (std::vector<int64_t>{2, 4, 4, 2}));
  EXPECT_EQ(traffic(remote_src, remote_cache), local_traffic);
}

TEST(RemoteShards, PropertySweepBudgetsOrdersAndReloadsBitIdentical) {
  // Random shard sizes x cache budgets x access orders, all over real
  // HTTP. Invariants per trial: (a) every gathered value is bit-identical
  // to the in-RAM matrix, across evictions and Range-request reloads;
  // (b) peak resident bytes <= budget; (c) a sequential sweep reuses one
  // pooled keep-alive connection.
  const std::string dir = FreshDir("least_remote_sweep");
  ShardOrigin origin(dir);
  Rng rng(4071);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 40 + rng.UniformInt(160);
    const int d = 2 + rng.UniformInt(5);
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

    const DenseMatrix x = TestMatrix(n, d, 500 + trial);
    const std::string ref = "sweep_" + std::to_string(trial) + ".csv";
    origin.WriteCsv(ref, x);

    DatasetCache cache(budget);
    Result<std::shared_ptr<const DataSource>> made = MakeHttpSource(
        origin.Url(ref), RemoteOptions(&cache, shard_rows));
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    const auto* src =
        static_cast<const HttpDataSource*>(made.value().get());
    ASSERT_TRUE(src->Prepare().ok());

    GatherScratch scratch;
    for (int pass = 0; pass < 5; ++pass) {
      const int batch = 1 + rng.UniformInt(2 * n);
      std::vector<int> rows(batch);
      for (int& r : rows) r = rng.UniformInt(n);
      if (pass == 3) cache.Clear();  // force a full re-stream mid-sweep
      DenseMatrix out(d, batch);
      ASSERT_TRUE(src->GatherTransposed(rows, &out, &scratch).ok());
      for (int b = 0; b < batch; ++b) {
        for (int v = 0; v < d; ++v) {
          ASSERT_EQ(out(v, b), x(rows[b], v))
              << "pass " << pass << " b=" << b << " v=" << v;
        }
      }
    }
    // Deterministic full-coverage pass: every shard streams at least once.
    {
      std::vector<int> rows(n);
      for (int i = 0; i < n; ++i) rows[i] = i;
      DenseMatrix out(d, n);
      ASSERT_TRUE(src->GatherTransposed(rows, &out, &scratch).ok());
      for (int b = 0; b < n; ++b) {
        for (int v = 0; v < d; ++v) ASSERT_EQ(out(v, b), x(b, v));
      }
    }
    const DatasetCache::Stats stats = cache.stats();
    EXPECT_LE(stats.peak_resident_bytes, budget);
    EXPECT_GE(stats.misses, num_shards);  // every shard fetched at least once
    if (budget_shards < num_shards) EXPECT_GT(stats.evictions, 0);

    const HttpConnectionPool::Stats transport = src->transport_stats();
    // One fetch per cache miss plus the manifest; no retries on a healthy
    // origin; a single-threaded sweep never needs a second connection.
    EXPECT_GE(transport.fetches, stats.misses);
    EXPECT_EQ(transport.retries, 0);
    EXPECT_EQ(transport.connections_created, 1);
  }
}

TEST(RemoteShards, MutatedOriginRefusedOnReloadAndAtPrepare) {
  const std::string dir = FreshDir("least_remote_mutate");
  ShardOrigin origin(dir);
  const int n = 60, d = 3, shard_rows = 20;
  const DenseMatrix x = TestMatrix(n, d, 21);
  origin.WriteCsv("mut.csv", x);

  DatasetCache cache(1 << 20);
  Result<std::shared_ptr<const DataSource>> made =
      MakeHttpSource(origin.Url("mut.csv"), RemoteOptions(&cache, shard_rows));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const std::shared_ptr<const DataSource>& src = made.value();
  ASSERT_TRUE(src->Prepare().ok());
  const DatasetSpec before = src->spec();

  // First read succeeds and caches.
  GatherScratch scratch;
  std::vector<int> rows(n);
  for (int i = 0; i < n; ++i) rows[i] = i;
  DenseMatrix out(d, n);
  ASSERT_TRUE(src->GatherTransposed(rows, &out, &scratch).ok());

  // The origin mutates under us (same shape, different values).
  origin.WriteCsv("mut.csv", TestMatrix(n, d, 22));

  // Cached shards still serve (their bytes were verified at load); a
  // forced reload re-fetches from the mutated origin and is refused by the
  // recorded per-shard hash — precise kInvalidArgument, no crash, and the
  // refused payload does not stay cached.
  cache.Clear();
  DenseMatrix out2(d, n);
  const Status refused = src->GatherTransposed(rows, &out2, &scratch);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.ToString().find("origin changed"), std::string::npos);

  // Resume path: a source carrying the checkpointed expectations must
  // refuse the mutated origin at Prepare, before any shard streams.
  HttpSourceOptions expect = RemoteOptions(&cache, shard_rows);
  expect.expected_rows = before.rows;
  expect.expected_cols = before.cols;
  expect.expected_hash = before.content_hash;
  expect.expected_shards = before.shards;
  Result<std::shared_ptr<const DataSource>> resumed =
      MakeHttpSource(origin.Url("mut.csv"), expect);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  const Status prepare = resumed.value()->Prepare();
  ASSERT_FALSE(prepare.ok());
  EXPECT_EQ(prepare.code(), StatusCode::kInvalidArgument);
}

TEST(RemoteShards, UnparseableReloadRefusedWithRemoteWordingInBothOrders) {
  // The origin gains a leading line, so every recorded extent now starts
  // mid-line and no longer parses. Whichever shard the reload reaches first
  // — shard 0 ascending (fresh scratch), the last shard descending (a
  // scratch reused from the first gather) — the refusal names the remote
  // dataset and that shard, not a local file.
  const int n = 60, d = 3, shard_rows = 20, last = n / shard_rows - 1;
  for (const bool reuse_scratch : {false, true}) {
    SCOPED_TRACE(reuse_scratch ? "descending (reused scratch)"
                               : "ascending (fresh scratch)");
    const std::string dir = FreshDir("least_remote_unparseable");
    ShardOrigin origin(dir);
    const std::string path =
        origin.WriteCsv("shifted.csv", TestMatrix(n, d, 23));
    const std::string url = origin.Url("shifted.csv");
    DatasetCache cache(1 << 20);
    Result<std::shared_ptr<const DataSource>> made =
        MakeHttpSource(url, RemoteOptions(&cache, shard_rows));
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    const std::shared_ptr<const DataSource>& src = made.value();
    ASSERT_TRUE(src->Prepare().ok());
    std::vector<int> rows(n);
    for (int i = 0; i < n; ++i) rows[i] = i;
    GatherScratch scratch;
    DenseMatrix out(d, n);
    ASSERT_TRUE(src->GatherTransposed(rows, &out, &scratch).ok());

    std::string content;
    {
      std::ifstream in(path, std::ios::binary);
      content.assign(std::istreambuf_iterator<char>(in), {});
    }
    std::ofstream(path, std::ios::binary | std::ios::trunc) << "0,0,0\n"
                                                             << content;
    cache.Clear();
    GatherScratch fresh;
    const Status refused = src->GatherTransposed(
        rows, &out, reuse_scratch ? &scratch : &fresh);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
    const std::string prefix =
        "remote dataset '" + url + "' shard " +
        std::to_string(reuse_scratch ? last : 0) + " ";
    EXPECT_EQ(refused.message().rfind(prefix, 0), 0u) << refused.ToString();
    EXPECT_NE(refused.message().find("(origin changed)"), std::string::npos)
        << refused.ToString();
    EXPECT_EQ(cache.resident_bytes(), 0u) << "refused shard still charged";
  }
}

TEST(RemoteShards, UnparseableReloadNamesShardRelativeLine) {
  // A fetched extent is parsed without knowing where it starts in the
  // origin's file, so a bad cell found there is named by shard and
  // shard-relative line, never passed off as a file line. Row 45 of
  // "i,(100 + i)" rows is the 6th line of shard 2 (rows 40-59).
  auto text = [](const std::string& cell45) {
    std::string t;
    for (int i = 0; i < 60; ++i) {
      t += std::to_string(i) + "," +
           (i == 45 ? cell45 : std::to_string(100 + i)) + "\n";
    }
    return t;
  };
  const std::string dir = FreshDir("least_remote_reload_line");
  ShardOrigin origin(dir);
  const std::string path = dir + "/lines.csv";
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text("145");
  DatasetCache cache(1 << 20);
  Result<std::shared_ptr<const DataSource>> made =
      MakeHttpSource(origin.Url("lines.csv"), RemoteOptions(&cache, 20));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ASSERT_TRUE(made.value()->Prepare().ok());
  cache.Clear();
  // Same byte length, so the recorded extents still line up.
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text("x45");
  std::vector<int> rows = {45};
  DenseMatrix out(2, 1);
  const Status refused = made.value()->GatherTransposed(rows, &out);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(refused.message().rfind(
                "remote dataset '" + origin.Url("lines.csv") + "' shard 2 ",
                0),
            0u)
      << refused.ToString();
  EXPECT_NE(refused.message().find("at shard-relative line 6 of shard 2"),
            std::string::npos)
      << refused.ToString();
}

TEST(RemoteShards, OriginServesExactExtentsAndOnlyRegularFiles) {
  const std::string dir = FreshDir("least_remote_extents");
  ShardOrigin origin(dir);
  const std::string path = origin.WriteCsv("x.csv", TestMatrix(40, 3, 24));
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(content.size(), 200u);
  fs::create_directories(dir + "/sub");
  const std::string size = std::to_string(content.size());

  HttpClient client("127.0.0.1", origin.server->port());
  const auto get = [&](const std::string& target, const std::string& range) {
    std::vector<std::pair<std::string, std::string>> headers;
    if (!range.empty()) headers.emplace_back("Range", "bytes=" + range);
    Result<HttpClientResponse> r =
        client.Request("GET", target, "", "text/plain", headers);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : HttpClientResponse{};
  };

  // A mid-file extent comes back byte for byte, with its Content-Range.
  HttpClientResponse mid = get("/data/x.csv", "100-199");
  EXPECT_EQ(mid.status, 206);
  EXPECT_EQ(mid.body, content.substr(100, 100));
  EXPECT_EQ(mid.Header("content-range"), "bytes 100-199/" + size);
  // Open-ended and suffix forms clip to the file.
  EXPECT_EQ(get("/data/x.csv", "150-").body, content.substr(150));
  EXPECT_EQ(get("/data/x.csv", "-10").body,
            content.substr(content.size() - 10));
  // No Range (or an ignorable one): the whole file.
  HttpClientResponse whole = get("/data/x.csv", "");
  EXPECT_EQ(whole.status, 200);
  EXPECT_EQ(whole.body, content);
  EXPECT_EQ(get("/data/x.csv", "9-3,5-6").body, content);
  // Past the end: 416 naming the size.
  HttpClientResponse past = get("/data/x.csv", size + "-");
  EXPECT_EQ(past.status, 416);
  EXPECT_EQ(past.Header("content-range"), "bytes */" + size);

  // A directory is not a dataset, with or without a Range.
  EXPECT_EQ(get("/data/sub", "").status, 404);
  EXPECT_EQ(get("/data/sub", "0-9").status, 404);
  EXPECT_EQ(get("/data/sub/", "").status, 404);
  EXPECT_EQ(get("/data/sub?manifest=1&shard_rows=4&has_header=0", "").status,
            404);
  EXPECT_EQ(get("/data/missing.csv", "0-9").status, 404);
}

// An origin that answers every request with one scripted body — manifests
// the well-behaved FleetService /data route would never produce. The data
// plane must refuse them at Prepare, before a single shard byte streams.
struct ScriptedManifestOrigin {
  explicit ScriptedManifestOrigin(std::string body_in)
      : body(std::move(body_in)),
        server(
            [this](const HttpRequest&) {
              HttpResponse r;
              r.status = 200;
              r.body = body;
              return r;
            },
            HttpServerOptions{}) {
    EXPECT_TRUE(server.Start().ok());
  }

  std::string Url() const {
    return "http://127.0.0.1:" + std::to_string(server.port()) +
           "/data/x.csv";
  }

  std::string body;
  HttpServer server;
};

TEST(RemoteShards, UndersizedShardManifestRefusedAtPrepare) {
  // Twenty 2-row shards tile 40 rows contiguously and are internally
  // consistent, but violate the fixed stride row_begin == i * shard_rows
  // that Dense() (memcpy at row i * shard_rows) and the gather path
  // (bucket r / shard_rows) index by — trusting such a manifest would
  // write past the materialized matrix and read out of shard bounds.
  std::string shards;
  for (int i = 0; i < 20; ++i) {
    if (i > 0) shards += ",";
    shards += "{\"row_begin\":" + std::to_string(2 * i) +
              ",\"row_end\":" + std::to_string(2 * i + 2) +
              ",\"byte_offset\":\"" + std::to_string(10 * i) +
              "\",\"byte_size\":\"10\",\"content_hash\":\"1\"}";
  }
  ScriptedManifestOrigin origin(
      "{\"rows\":40,\"cols\":2,\"shard_rows\":20,\"content_hash\":\"1\","
      "\"shards\":[" +
      shards + "]}");
  DatasetCache cache(1 << 20);
  Result<std::shared_ptr<const DataSource>> made =
      MakeHttpSource(origin.Url(), RemoteOptions(&cache, 20));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const Status prepare = made.value()->Prepare();
  ASSERT_FALSE(prepare.ok());
  EXPECT_EQ(prepare.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(prepare.ToString().find("does not tile"), std::string::npos);
}

TEST(RemoteShards, WrappingByteExtentManifestRefusedAtPrepare) {
  // byte_offset + byte_size wraps uint64: accepted, it would poison the
  // Range header arithmetic and the 200-fallback slice in LoadShard.
  ScriptedManifestOrigin origin(
      "{\"rows\":20,\"cols\":2,\"shard_rows\":20,\"content_hash\":\"1\","
      "\"shards\":[{\"row_begin\":0,\"row_end\":20,"
      "\"byte_offset\":\"18446744073709551615\",\"byte_size\":\"2\","
      "\"content_hash\":\"1\"}]}");
  DatasetCache cache(1 << 20);
  Result<std::shared_ptr<const DataSource>> made =
      MakeHttpSource(origin.Url(), RemoteOptions(&cache, 20));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const Status prepare = made.value()->Prepare();
  ASSERT_FALSE(prepare.ok());
  EXPECT_EQ(prepare.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(prepare.ToString().find("overflow"), std::string::npos);
}

TEST(RemoteShards, MissingRefAndBadUrlFailPrecisely) {
  const std::string dir = FreshDir("least_remote_missing");
  ShardOrigin origin(dir);

  DatasetCache cache(1 << 20);
  Result<std::shared_ptr<const DataSource>> made =
      MakeHttpSource(origin.Url("nope.csv"), RemoteOptions(&cache, 16));
  ASSERT_TRUE(made.ok());
  const Status prepare = made.value()->Prepare();
  ASSERT_FALSE(prepare.ok());
  EXPECT_EQ(prepare.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(prepare.ToString().find("not found"), std::string::npos);

  EXPECT_FALSE(MakeHttpSource("https://127.0.0.1/x.csv", {}).ok());
  EXPECT_FALSE(MakeHttpSource("http://", {}).ok());
  EXPECT_FALSE(MakeHttpSource("http://localhost/x.csv", {}).ok());
  HttpSourceOptions unsharded;
  unsharded.shard_rows = 0;  // remote sources are always sharded
  EXPECT_FALSE(MakeHttpSource("http://127.0.0.1/x.csv", unsharded).ok());
}

TEST(RemoteShards, AcceptanceRemoteFitBitIdenticalWithKillAndResume) {
  // The acceptance bar: a remote dataset 4x its cache budget streams
  // through least-sparse bit-identically to the local all-in-RAM run at
  // thread-pool sizes 1 and 4, including after a mid-run kill and
  // ScanAndResume from the v5 checkpoint (the kRemote spec re-attaches
  // through the installed HTTP data plane and resumes streaming from the
  // origin).
  InstallHttpDataPlane();
  constexpr int kRows = 1500;
  constexpr int kCols = 8;
  constexpr int kShardRows = 125;  // 12 shards of 8,000 payload bytes
  const size_t total_bytes = size_t{kRows} * kCols * sizeof(double);
  const size_t budget = total_bytes / 4;

  const std::string data_dir = FreshDir("least_remote_accept_data");
  ShardOrigin origin(data_dir);
  BenchmarkConfig cfg;
  cfg.d = kCols;
  cfg.n = kRows;
  cfg.seed = 4242;  // structured SEM data: the learner has edges to find
  const DenseMatrix x = MakeBenchmarkInstance(cfg).x;
  origin.WriteCsv("accept.csv", x);
  const std::string url = origin.Url("accept.csv");

  LearnOptions options;
  options.lambda1 = 0.05;
  options.learning_rate = 0.03;
  options.max_outer_iterations = 14;
  options.max_inner_iterations = 60;
  options.batch_size = 200;
  options.filter_threshold = 0.05;
  options.init_density = 0.0;  // explicit full candidate pattern below
  options.tolerance = 0.0;     // deterministic full-budget run
  std::vector<std::pair<int, int>> candidates;
  for (int i = 0; i < kCols; ++i) {
    for (int j = 0; j < kCols; ++j) {
      if (i != j) candidates.push_back({i, j});
    }
  }

  // Local all-in-RAM reference fleet.
  CsrMatrix reference;
  {
    ThreadPool pool(2);
    FleetScheduler scheduler(&pool, {.seed = 77});
    LearnJob job;
    job.name = "remote-accept";
    job.algorithm = Algorithm::kLeastSparse;
    job.data = MakeDenseSource(x, job.name);
    job.options = options;
    job.candidate_edges = candidates;
    scheduler.Enqueue(std::move(job));
    scheduler.Wait();
    reference = scheduler.record(0).outcome.sparse_raw_weights;
    ASSERT_GT(reference.nnz(), 0);
  }

  auto make_remote_job = [&](DatasetCache* cache) {
    LearnJob job;
    job.name = "remote-accept";
    job.algorithm = Algorithm::kLeastSparse;
    Result<std::shared_ptr<const DataSource>> src =
        MakeHttpSource(url, RemoteOptions(cache, kShardRows));
    EXPECT_TRUE(src.ok()) << src.status().ToString();
    job.data = src.value();
    job.options = options;
    job.candidate_edges = candidates;
    return job;
  };

  for (const int pool_size : {1, 4}) {
    SCOPED_TRACE("pool_size=" + std::to_string(pool_size));

    // Uninterrupted remote fleet: bit-identical to the local reference.
    DatasetCache cache_a(budget);
    {
      ThreadPool pool(pool_size);
      FleetScheduler scheduler(&pool, {.seed = 77});
      scheduler.Enqueue(make_remote_job(&cache_a));
      scheduler.Wait();
      ExpectBitIdenticalCsr(scheduler.record(0).outcome.sparse_raw_weights,
                            reference);
    }
    EXPECT_LE(cache_a.stats().peak_resident_bytes, budget);
    EXPECT_GT(cache_a.stats().evictions, 0);  // 4x over budget must evict

    // Kill mid-run, then resume in a fresh scheduler from the checkpoint.
    const std::string ckpt_dir =
        FreshDir("least_remote_accept_ckpt_" + std::to_string(pool_size));
    DatasetCache cache_b(budget);
    {
      ThreadPool pool(pool_size);
      FleetOptions fleet;
      fleet.seed = 77;
      fleet.checkpoint_dir = ckpt_dir;
      fleet.checkpoint_every_outer = 2;
      FleetScheduler scheduler(&pool, fleet);
      const int64_t id = scheduler.Enqueue(make_remote_job(&cache_b));
      const std::string ckpt = FleetScheduler::CheckpointPath(ckpt_dir, id);
      for (;;) {
        Result<ModelArtifact> snap = LoadModel(ckpt);  // racing writes fail
        if (snap.ok() && snap.value().train_state != nullptr) break;
        if (scheduler.record(id).state != JobState::kPending &&
            scheduler.record(id).state != JobState::kRunning) {
          break;  // settled before a periodic checkpoint landed
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      scheduler.CancelAll();
      scheduler.Wait();
      ASSERT_EQ(scheduler.record(id).state, JobState::kCancelled)
          << "job settled before the kill; grow the iteration budget";
    }

    // The checkpoint is a v5 blob stamping the kRemote spec: origin URL +
    // the shard table (the resumed fleet's Range request plan).
    {
      const std::string ckpt = FleetScheduler::CheckpointPath(ckpt_dir, 0);
      std::ifstream in(ckpt, std::ios::binary);
      ASSERT_TRUE(in.good());
      char head[8] = {};
      in.read(head, sizeof head);
      uint32_t version = 0;
      std::memcpy(&version, head + 4, sizeof version);
      EXPECT_EQ(version, 5u);

      Result<ModelArtifact> ckpt_artifact = LoadModel(ckpt);
      ASSERT_TRUE(ckpt_artifact.ok()) << ckpt_artifact.status().ToString();
      ASSERT_TRUE(ckpt_artifact.value().dataset.has_value());
      const DatasetSpec& spec = *ckpt_artifact.value().dataset;
      EXPECT_EQ(spec.kind, DatasetKind::kRemote);
      EXPECT_EQ(spec.path, url);
      EXPECT_EQ(spec.shard_rows, kShardRows);
      EXPECT_EQ(spec.shards.size(), size_t{12});
      EXPECT_NE(ckpt_artifact.value().train_state, nullptr);
    }

    DatasetCache cache_c(budget);
    {
      ThreadPool pool(pool_size);
      FleetOptions fleet;
      fleet.seed = 77;
      fleet.reseed_jobs = false;  // recorded options are authoritative
      fleet.checkpoint_dir = ckpt_dir;
      fleet.checkpoint_every_outer = 2;
      fleet.dataset_cache = &cache_c;
      FleetScheduler scheduler(&pool, fleet);
      Result<ResumeScan> scan = scheduler.ScanAndResume(ckpt_dir);
      ASSERT_TRUE(scan.ok()) << scan.status().ToString();
      ASSERT_EQ(scan.value().failed, 0)
          << (scan.value().errors.empty() ? "" : scan.value().errors[0]);
      ASSERT_EQ(scan.value().resumed, 1);
      scheduler.Wait();
      ASSERT_EQ(scan.value().job_ids.size(), 1u);
      const JobRecord& record = scheduler.record(scan.value().job_ids[0]);
      // Killed mid-stream, resumed from the origin: still bit-identical.
      ExpectBitIdenticalCsr(record.outcome.sparse_raw_weights, reference);
    }
    EXPECT_LE(cache_c.stats().peak_resident_bytes, budget);

    fs::remove_all(ckpt_dir);
  }
  fs::remove_all(data_dir);
}

}  // namespace
}  // namespace least
