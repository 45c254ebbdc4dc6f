#include "core/data_source.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <utility>

#include "linalg/parallel.h"
#include "obs/metrics.h"
#include "obs/trace_log.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/fnv.h"

namespace least {

namespace {

/// Trace events carry the FNV-1a of the cache key instead of the key itself
/// (records are fixed-size); `lbtrace_dump` correlates hit/load/evict chains
/// by this hash.
uint64_t CacheKeyHash(const std::string& key) { return Fnv1a(key); }

/// Process-wide cache metrics, aggregated across every `DatasetCache`
/// instance (per-instance exact numbers live in `DatasetCache::stats`).
struct CacheMetrics {
  Counter& hits = MetricsRegistry::Global().counter("cache.hits");
  Counter& misses = MetricsRegistry::Global().counter("cache.misses");
  Counter& loads = MetricsRegistry::Global().counter("cache.loads");
  Counter& evictions = MetricsRegistry::Global().counter("cache.evictions");
  Counter& refusals = MetricsRegistry::Global().counter("cache.refusals");
  Gauge& resident = MetricsRegistry::Global().gauge("cache.resident_bytes");

  static CacheMetrics& Get() {
    static CacheMetrics* m = new CacheMetrics();  // never destroyed
    return *m;
  }
};

void GatherFromDense(const DenseMatrix& x, std::span<const int> rows,
                     DenseMatrix* out) {
  LEAST_CHECK(out != nullptr);
  const int batch = static_cast<int>(rows.size());
  const int d = x.cols();
  LEAST_CHECK(out->rows() == d && out->cols() == batch);
  const int64_t flops = static_cast<int64_t>(batch) * d;
  // Copies in tiles of up to kTile batch columns: for each v, kTile
  // contiguous doubles of out's row v from kTile source rows read in
  // lock-step. A column-at-a-time copy would stride B·8 bytes per store, a
  // new page (and the same L1 set) each time. Tiles start at the chunk's
  // first column, so the gather stays a pure output partition; every value
  // is copied verbatim, so tiling changes no bit.
  constexpr int kTile = 32;
  MaybeParallelForFlops(flops, 0, batch, /*grain=*/-1,
                        [&](int64_t b_lo, int64_t b_hi) {
    const double* src[kTile];
    for (int64_t t = b_lo; t < b_hi; t += kTile) {
      const int width = static_cast<int>(std::min<int64_t>(kTile, b_hi - t));
      for (int k = 0; k < width; ++k) {
        const int r = rows[static_cast<size_t>(t + k)];
        LEAST_DCHECK(r >= 0 && r < x.rows());
        src[k] = x.row(r);
      }
      for (int v = 0; v < d; ++v) {
        double* dst = out->row(v) + t;
        for (int k = 0; k < width; ++k) dst[k] = src[k][v];
      }
    }
  });
}

void GatherFromCsr(const CsrMatrix& x, std::span<const int> rows,
                   DenseMatrix* out) {
  LEAST_CHECK(out != nullptr);
  const int batch = static_cast<int>(rows.size());
  LEAST_CHECK(out->rows() == x.cols() && out->cols() == batch);
  out->Fill(0.0);
  const int64_t avg_row_nnz =
      x.rows() > 0 ? std::max<int64_t>(1, x.nnz() / x.rows()) : 1;
  const int64_t flops = static_cast<int64_t>(batch) * avg_row_nnz;
  MaybeParallelForFlops(flops, 0, batch, /*grain=*/-1,
                        [&](int64_t b_lo, int64_t b_hi) {
    for (int64_t b = b_lo; b < b_hi; ++b) {
      const int r = rows[static_cast<size_t>(b)];
      LEAST_DCHECK(r >= 0 && r < x.rows());
      for (int64_t e = x.row_ptr()[r]; e < x.row_ptr()[r + 1]; ++e) {
        (*out)(x.col_idx()[e], static_cast<int>(b)) = x.values()[e];
      }
    }
  });
}

// ----------------------------------------------------- CSV shard scanning ---

/// Reads one shard's byte extent from an already-open stream (seeks, so
/// extents need not be contiguous — blank lines between shards belong to
/// neither). A short read means the file shrank since it was scanned.
Status ReadShardBytes(std::ifstream& in, const std::string& path,
                      uint64_t byte_offset, uint64_t byte_size,
                      std::string* buffer) {
  buffer->assign(static_cast<size_t>(byte_size), '\0');
  in.clear();
  in.seekg(static_cast<std::streamoff>(byte_offset));
  in.read(buffer->data(), static_cast<std::streamsize>(byte_size));
  if (static_cast<uint64_t>(in.gcount()) != byte_size) {
    return Status::InvalidArgument(
        "CSV dataset '" + path +
        "' is shorter than its recorded shard extents (file changed)");
  }
  return Status::Ok();
}

/// Parses the data lines of one shard's byte extent (however it was
/// obtained — local read or HTTP `Range:` response body) into an
/// `expect_rows` x `cols` matrix. Every row goes through the same
/// `ParseCsvRow` as `ReadCsv`, straight into the matrix, so a value parsed
/// from a shard is bit-identical to the whole-file parse. Any structural
/// surprise — ragged/extra/missing lines — is `kInvalidArgument`. `path`,
/// `shard` and `first_line` only feed messages: with `first_line` > 0 (the
/// file line the extent starts on, known to the scan) lines are named by
/// file line, as `ReadCsv` names them; with 0 (a reload) by shard and
/// shard-relative line.
Result<DenseMatrix> ParseCsvShardBuffer(std::string_view buffer,
                                        const std::string& path,
                                        int expect_rows, int cols, int shard,
                                        size_t first_line = 0) {
  DenseMatrix x(expect_rows, cols);
  int filled = 0;
  size_t pos = 0;
  // Counts file lines when the extent's first line is known, otherwise
  // lines from the extent's start, labelled with the shard.
  size_t line_no = first_line > 0 ? first_line - 1 : 0;
  const int label_shard = first_line > 0 ? -1 : shard;
  while (pos < buffer.size()) {
    size_t eol = buffer.find('\n', pos);
    if (eol == std::string_view::npos) eol = buffer.size();
    std::string_view line = buffer.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (filled >= expect_rows ||
        CsvCellCount(line) != static_cast<size_t>(cols)) {
      return Status::InvalidArgument(
          "CSV line outside the scanned shard layout at " +
          CsvLineLabel(line_no, label_shard) + " in '" + path + "'");
    }
    const Status parsed =
        ParseCsvRow(line, line_no, path, x.row(filled), label_shard);
    if (!parsed.ok()) return parsed;
    ++filled;
  }
  if (filled != expect_rows) {
    return Status::InvalidArgument(
        "CSV shard extent in '" + path + "' holds " + std::to_string(filled) +
        " rows where " + std::to_string(expect_rows) + " were scanned");
  }
  return x;
}

}  // namespace

Result<CsvShardScan> ScanCsvIntoShards(const std::string& path,
                                       bool has_header, int shard_rows) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  CsvShardScan scan;
  uint64_t offset = 0;
  std::string line;
  size_t expected_cols = 0;
  bool first = true;
  size_t line_no = 0;
  int data_rows = 0;
  std::vector<size_t> first_lines;  // file line each shard's extent starts on
  while (std::getline(in, line)) {
    const uint64_t line_begin = offset;
    // getline consumed line.size() chars plus one '\n' — except when it
    // stopped at EOF (a final unterminated line), where eofbit is set. The
    // '\r' of a CRLF line stays in `line` here (stripped below), so offsets
    // are exact for CRLF and missing-trailing-newline files alike.
    offset += static_cast<uint64_t>(line.size()) + (in.eof() ? 0 : 1);
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const size_t cells = CsvCellCount(line);
    if (first && has_header) {
      expected_cols = cells;
      first = false;
      continue;
    }
    if (first) {
      expected_cols = cells;
      first = false;
    } else if (cells != expected_cols) {
      return Status::InvalidArgument(
          "ragged CSV row at line " + std::to_string(line_no) + " in '" +
          path + "'");
    }
    if (data_rows % shard_rows == 0) {
      DatasetShard shard;
      shard.row_begin = data_rows;
      shard.byte_offset = line_begin;
      scan.shards.push_back(shard);
      first_lines.push_back(line_no);
    }
    DatasetShard& shard = scan.shards.back();
    shard.row_end = data_rows + 1;
    shard.byte_size = offset - shard.byte_offset;
    ++data_rows;
  }
  if (data_rows == 0) {
    return Status::InvalidArgument("CSV dataset '" + path +
                                   "' contains no data rows");
  }
  if (expected_cols == 0) {
    return Status::InvalidArgument("CSV dataset '" + path +
                                   "' has zero columns");
  }
  scan.rows = data_rows;
  scan.cols = static_cast<int>(expected_cols);
  // Pass two: value hashes. The whole-dataset chain is exactly
  // `HashDenseContent`'s — (rows, cols, then all values row-major) — folded
  // one shard at a time, streaming through a single reopened handle (one
  // seek per shard, not one open: a large dataset has many shards).
  std::ifstream values_in(path, std::ios::binary);
  if (!values_in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  uint64_t whole = kFnv1aOffset;
  whole = Fnv1aFold(whole, static_cast<uint64_t>(scan.rows));
  whole = Fnv1aFold(whole, static_cast<uint64_t>(scan.cols));
  std::string buffer;
  for (size_t i = 0; i < scan.shards.size(); ++i) {
    DatasetShard& shard = scan.shards[i];
    const Status read = ReadShardBytes(values_in, path, shard.byte_offset,
                                       shard.byte_size, &buffer);
    if (!read.ok()) return read;
    Result<DenseMatrix> values =
        ParseCsvShardBuffer(buffer, path, shard.row_end - shard.row_begin,
                            scan.cols, static_cast<int>(i), first_lines[i]);
    if (!values.ok()) return values.status();
    const DenseMatrix& x = values.value();
    shard.content_hash = HashShardContent(shard.row_begin, shard.row_end, x);
    whole = Fnv1aFold(whole, x.data().data(), x.size() * sizeof(double));
  }
  scan.content_hash = whole;
  return scan;
}

Status GatherFromShards(
    std::span<const int> rows, DenseMatrix* out, GatherScratch* scratch,
    int total_rows, int cols, int shard_rows, int num_shards,
    const std::function<Result<std::shared_ptr<const DenseMatrix>>(int)>&
        acquire_shard) {
  const int batch = static_cast<int>(rows.size());
  LEAST_CHECK(out != nullptr && out->rows() == cols && out->cols() == batch);
  LEAST_CHECK(shard_rows > 0 && num_shards > 0);
  GatherScratch local;
  if (scratch == nullptr) scratch = &local;
  // Counting sort of batch indices by shard, so each shard is materialized
  // exactly once per batch and pinned only while its columns are copied —
  // peak residency is one shard above whatever the cache retains.
  std::vector<int>& bucket = scratch->bucket;
  std::vector<int>& order = scratch->order;
  bucket.assign(static_cast<size_t>(num_shards) + 1, 0);
  for (int b = 0; b < batch; ++b) {
    const int r = rows[static_cast<size_t>(b)];
    // Hard check (not DCHECK): an out-of-range row would make the counting
    // sort below *write* past bucket's end in release builds — a heap
    // corruption, unlike the bounded garbage read of the in-memory gathers.
    LEAST_CHECK(r >= 0 && r < total_rows);
    ++bucket[static_cast<size_t>(r / shard_rows) + 1];
  }
  for (int s = 0; s < num_shards; ++s) bucket[s + 1] += bucket[s];
  order.resize(static_cast<size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    order[static_cast<size_t>(
        bucket[rows[static_cast<size_t>(b)] / shard_rows]++)] = b;
  }
  // bucket[s] is now the end offset of shard s's group. Shards are visited
  // in ascending order on one call and descending on the next: an LRU cache
  // holding the last k shards of one pass then serves the first k of the
  // next, where a fixed order evicts each shard just before its next use.
  const bool descending = scratch->descending;
  scratch->descending = !descending;
  for (int i = 0; i < num_shards; ++i) {
    const int s = descending ? num_shards - 1 - i : i;
    const int begin = s == 0 ? 0 : bucket[s - 1];
    const int end = bucket[s];
    if (begin == end) continue;
    Result<std::shared_ptr<const DenseMatrix>> shard = acquire_shard(s);
    if (!shard.ok()) return shard.status();
    const DenseMatrix& m = *shard.value();
    const int* group = order.data() + begin;
    const int count = end - begin;
    const int64_t flops = static_cast<int64_t>(count) * cols;
    // Pure output-column partition (each column written by exactly one
    // chunk, values copied verbatim): bitwise identical at any thread
    // count, with or without an executor.
    MaybeParallelForFlops(flops, 0, count, /*grain=*/-1,
                          [&](int64_t g_lo, int64_t g_hi) {
      for (int64_t g = g_lo; g < g_hi; ++g) {
        const int b = group[g];
        const double* src =
            m.row(rows[static_cast<size_t>(b)] - s * shard_rows);
        for (int v = 0; v < cols; ++v) (*out)(v, b) = src[v];
      }
    });
    // The shard handle dies here, so the next admission may evict it: any
    // budget that admits one shard streams a dataset of unbounded size.
  }
  return Status::Ok();
}

std::string_view DatasetKindName(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kDense:
      return "dense";
    case DatasetKind::kCsr:
      return "csr";
    case DatasetKind::kCsv:
      return "csv";
    case DatasetKind::kVirtual:
      return "virtual";
    case DatasetKind::kRemote:
      return "remote";
  }
  return "unknown";
}

uint64_t HashDenseContent(const DenseMatrix& x) {
  uint64_t hash = kFnv1aOffset;
  hash = Fnv1aFold(hash, static_cast<uint64_t>(x.rows()));
  hash = Fnv1aFold(hash, static_cast<uint64_t>(x.cols()));
  return Fnv1aFold(hash, x.data().data(), x.size() * sizeof(double));
}

uint64_t HashCsrContent(const CsrMatrix& x) {
  uint64_t hash = kFnv1aOffset;
  hash = Fnv1aFold(hash, static_cast<uint64_t>(x.rows()));
  hash = Fnv1aFold(hash, static_cast<uint64_t>(x.cols()));
  hash = Fnv1aFold(hash, static_cast<uint64_t>(x.nnz()));
  hash = Fnv1aFold(hash, x.row_ptr().data(),
                   x.row_ptr().size() * sizeof(int64_t));
  hash = Fnv1aFold(hash, x.col_idx().data(), x.col_idx().size() * sizeof(int));
  return Fnv1aFold(hash, x.values().data(),
                   x.values().size() * sizeof(double));
}

uint64_t HashShardContent(int row_begin, int row_end, const DenseMatrix& x) {
  uint64_t hash = kFnv1aOffset;
  hash = Fnv1aFold(hash, static_cast<uint64_t>(row_begin));
  hash = Fnv1aFold(hash, static_cast<uint64_t>(row_end));
  hash = Fnv1aFold(hash, static_cast<uint64_t>(x.cols()));
  return Fnv1aFold(hash, x.data().data(), x.size() * sizeof(double));
}

Result<std::shared_ptr<const CsrMatrix>> DataSource::Csr() const {
  Result<std::shared_ptr<const DenseMatrix>> dense = Dense();
  if (!dense.ok()) return dense.status();
  return std::make_shared<const CsrMatrix>(
      CsrMatrix::FromDense(*dense.value()));
}

// ------------------------------------------------ OwningDenseDataSource ---

OwningDenseDataSource::OwningDenseDataSource(DenseMatrix x, std::string name)
    : OwningDenseDataSource(
          std::make_shared<const DenseMatrix>(std::move(x)), std::move(name)) {}

OwningDenseDataSource::OwningDenseDataSource(
    std::shared_ptr<const DenseMatrix> x, std::string name)
    : x_(std::move(x)) {
  LEAST_CHECK(x_ != nullptr);
  spec_.kind = DatasetKind::kDense;
  spec_.name = name.empty() ? std::string(DatasetKindName(spec_.kind))
                            : std::move(name);
  spec_.rows = x_->rows();
  spec_.cols = x_->cols();
}

DatasetSpec OwningDenseDataSource::spec() const {
  std::call_once(hash_once_, [this]() { hash_ = HashDenseContent(*x_); });
  DatasetSpec spec = spec_;
  spec.content_hash = hash_;
  return spec;
}

Status OwningDenseDataSource::GatherTransposed(std::span<const int> rows,
                                               DenseMatrix* out) const {
  GatherFromDense(*x_, rows, out);
  return Status::Ok();
}

// -------------------------------------------------- OwningCsrDataSource ---

OwningCsrDataSource::OwningCsrDataSource(CsrMatrix x, std::string name)
    : OwningCsrDataSource(std::make_shared<const CsrMatrix>(std::move(x)),
                          std::move(name)) {}

OwningCsrDataSource::OwningCsrDataSource(std::shared_ptr<const CsrMatrix> x,
                                         std::string name)
    : x_(std::move(x)) {
  LEAST_CHECK(x_ != nullptr);
  spec_.kind = DatasetKind::kCsr;
  spec_.name = name.empty() ? std::string(DatasetKindName(spec_.kind))
                            : std::move(name);
  spec_.rows = x_->rows();
  spec_.cols = x_->cols();
}

DatasetSpec OwningCsrDataSource::spec() const {
  std::call_once(hash_once_, [this]() { hash_ = HashCsrContent(*x_); });
  DatasetSpec spec = spec_;
  spec.content_hash = hash_;
  return spec;
}

Result<std::shared_ptr<const DenseMatrix>> OwningCsrDataSource::Dense() const {
  return std::make_shared<const DenseMatrix>(x_->ToDense());
}

Status OwningCsrDataSource::GatherTransposed(std::span<const int> rows,
                                             DenseMatrix* out) const {
  GatherFromCsr(*x_, rows, out);
  return Status::Ok();
}

// ------------------------------------------------------------ DatasetCache ---

DatasetCache::DatasetCache(size_t byte_budget)
    : accounting_(std::make_shared<Accounting>()), byte_budget_(byte_budget) {}

DatasetCache::~DatasetCache() = default;

std::shared_ptr<const DenseMatrix> DatasetCache::LookupLocked(
    const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  if (it->second.cached != nullptr) {
    it->second.last_used = ++tick_;
    return it->second.cached;
  }
  // Evicted but possibly still pinned by a running job: re-promote (the
  // bytes are already charged, so this never changes residency).
  if (auto handle = it->second.alive.lock()) {
    it->second.cached = handle;
    it->second.last_used = ++tick_;
    return handle;
  }
  entries_.erase(it);  // fully released since eviction
  return nullptr;
}

void DatasetCache::EvictForLocked(size_t incoming) {
  while (true) {
    size_t resident = 0;
    {
      std::lock_guard<std::mutex> alock(accounting_->mu);
      resident = accounting_->resident;
    }
    if (resident + incoming <= byte_budget_) return;
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.cached == nullptr) continue;
      if (victim == entries_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything left is pinned
    TraceEmit(TraceEventKind::kCacheEvict, -1, victim->second.bytes,
              CacheKeyHash(victim->first));
    CacheMetrics::Get().evictions.Add();
    victim->second.cached.reset();  // may free inline when unpinned
    ++evictions_;
    if (victim->second.alive.expired()) entries_.erase(victim);
  }
}

Result<std::shared_ptr<const DenseMatrix>> DatasetCache::GetOrLoad(
    const std::string& key, const Loader& loader) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (auto handle = LookupLocked(key)) {
      ++hits_;
      TraceEmit(TraceEventKind::kCacheHit, -1,
                handle->size() * sizeof(double), CacheKeyHash(key));
      CacheMetrics::Get().hits.Add();
      return handle;
    }
    // Single-flight per key: claim the load, or wait for whoever owns it
    // and re-check (their load may have failed, in which case we claim).
    // Misses on *different* keys — e.g. distinct shards of one dataset, or
    // distinct fleet datasets — load concurrently.
    if (inflight_.insert(key).second) break;
    inflight_cv_.wait(lock);
  }
  // A miss is a lookup that found nothing usable — counted at claim time,
  // whether or not the load then succeeds (a failing loader is still a
  // miss; `loads` counts the successes).
  ++misses_;
  lock.unlock();
  TraceEmit(TraceEventKind::kCacheMiss, -1, 0, CacheKeyHash(key));
  CacheMetrics::Get().misses.Add();
  // The in-flight claim must be released even if the loader throws (e.g.
  // bad_alloc materializing a large shard) — a leaked key would deadlock
  // every future miss on it.
  Result<DenseMatrix> loaded = Status::Internal("loader did not run");
  try {
    // The fault stands in for the loader failing (disk hiccup, transient
    // I/O): the single-flight claim is released on the normal failure path
    // below, and a later attempt on the same key loads for real.
    Status fault = Status::Ok();
    if (FailpointsArmed()) fault = FailpointHit("cache.load");
    loaded = fault.ok() ? loader() : Result<DenseMatrix>(fault);
  } catch (...) {
    lock.lock();
    inflight_.erase(key);
    inflight_cv_.notify_all();
    throw;
  }
  lock.lock();
  inflight_.erase(key);
  inflight_cv_.notify_all();
  if (!loaded.ok()) return loaded.status();
  DenseMatrix matrix = std::move(loaded).value();
  const size_t bytes = matrix.size() * sizeof(double);

  EvictForLocked(bytes);  // make room before charging the newcomer
  std::shared_ptr<Accounting> acct = accounting_;
  auto* raw = new DenseMatrix(std::move(matrix));
  std::shared_ptr<const DenseMatrix> handle(
      raw, [acct, bytes](const DenseMatrix* p) {
        delete p;
        std::lock_guard<std::mutex> alock(acct->mu);
        acct->resident -= bytes;
      });
  size_t resident_after = 0;
  {
    std::lock_guard<std::mutex> alock(acct->mu);
    acct->resident += bytes;
    acct->peak = std::max(acct->peak, acct->resident);
    resident_after = acct->resident;
  }
  Entry& entry = entries_[key];
  entry.cached = handle;
  entry.alive = handle;
  entry.bytes = bytes;
  entry.last_used = ++tick_;
  ++loads_;
  TraceEmit(TraceEventKind::kCacheLoad, -1, bytes, resident_after);
  CacheMetrics& metrics = CacheMetrics::Get();
  metrics.loads.Add();
  metrics.resident.Set(static_cast<int64_t>(resident_after));
  return handle;
}

void DatasetCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : entries_) {
    if (entry.cached != nullptr) {
      entry.cached.reset();
      ++evictions_;
    }
  }
  entries_.clear();
}

void DatasetCache::Drop(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  // Drop is the verification-refusal path, so every call counts as a
  // refusal even when the payload was already evicted by LRU pressure.
  ++refusals_;
  TraceEmit(TraceEventKind::kCacheRefuse, -1, 0, CacheKeyHash(key));
  CacheMetrics::Get().refusals.Add();
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  if (it->second.cached != nullptr) {
    it->second.cached.reset();
    ++evictions_;
    CacheMetrics::Get().evictions.Add();
  }
  if (it->second.alive.expired()) entries_.erase(it);
}

bool DatasetCache::Resident(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  // Mirrors LookupLocked's "would this hit?" logic without its side
  // effects: no LRU bump, no re-promotion, no erase of a dead entry —
  // affinity probing must never perturb eviction order.
  return it->second.cached != nullptr || !it->second.alive.expired();
}

void DatasetCache::set_byte_budget(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  byte_budget_ = bytes;
  EvictForLocked(0);
}

size_t DatasetCache::byte_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return byte_budget_;
}

DatasetCache::Stats DatasetCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.byte_budget = byte_budget_;
  {
    std::lock_guard<std::mutex> alock(accounting_->mu);
    s.resident_bytes = accounting_->resident;
    s.peak_resident_bytes = accounting_->peak;
  }
  s.hits = hits_;
  s.misses = misses_;
  s.loads = loads_;
  s.evictions = evictions_;
  s.refusals = refusals_;
  s.entries = static_cast<int64_t>(entries_.size());
  return s;
}

size_t DatasetCache::resident_bytes() const {
  std::lock_guard<std::mutex> alock(accounting_->mu);
  return accounting_->resident;
}

DatasetCache& GlobalDatasetCache() {
  static DatasetCache* cache = new DatasetCache();
  return *cache;
}

// ----------------------------------------------------------- ShardedSource ---

ShardedSource::ShardedSource(DatasetSpec expected, DatasetCache* cache)
    : cache_(cache != nullptr ? cache : &GlobalDatasetCache()),
      spec_(std::move(expected)) {
  LEAST_CHECK(!spec_.path.empty() && spec_.shard_rows > 0);
  LEAST_CHECK(spec_.kind == DatasetKind::kCsv ||
              spec_.kind == DatasetKind::kRemote);
  // Parse options are part of the payload identity: two sources reading
  // the same dataset with and without a header (or with different shard
  // geometry) must not share cache entries.
  cache_key_ = spec_.path + (spec_.csv_has_header ? "#header" : "#noheader") +
               "#rows" + std::to_string(spec_.shard_rows);
}

std::string ShardedSource::ShardKey(int index) const {
  return cache_key_ + "#shard" + std::to_string(index);
}

std::string ShardedSource::Subject() const {
  return (spec_.kind == DatasetKind::kRemote ? "remote dataset '"
                                             : "CSV dataset '") +
         spec_.path + "'";
}

Status ShardedSource::Refusal(const std::string& what) const {
  return Status::InvalidArgument(
      Subject() + " " + what +
      (spec_.kind == DatasetKind::kRemote ? " (origin changed)"
                                          : " (file changed)"));
}

Status ShardedSource::Prepare() const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (prepared_) return Status::Ok();
  }
  Result<CsvShardScan> scanned = ScanLayout();
  if (!scanned.ok()) return scanned.status();
  CsvShardScan& scan = scanned.value();
  // Shard i covers exactly [i * shard_rows, min((i + 1) * shard_rows, rows)).
  // The fixed stride is load-bearing — Dense() writes shard i at row
  // i * shard_rows and the gather buckets row r into shard r / shard_rows —
  // so a table that merely tiles [0, rows) with other strides is refused,
  // not just one with gaps. Byte extents feed Range headers and slicing
  // arithmetic, so an extent whose end would wrap uint64 is refused too.
  const int64_t stride = shard_rows();
  if (scan.rows <= 0 || scan.cols <= 0 ||
      static_cast<int64_t>(scan.shards.size()) !=
          (scan.rows + stride - 1) / stride) {
    return Status::InvalidArgument(Subject() +
                                   " shard table does not tile the dataset");
  }
  for (size_t i = 0; i < scan.shards.size(); ++i) {
    const DatasetShard& shard = scan.shards[i];
    const int64_t begin = static_cast<int64_t>(i) * stride;
    if (shard.row_begin != begin ||
        shard.row_end != std::min<int64_t>(begin + stride, scan.rows) ||
        shard.byte_size == 0) {
      return Status::InvalidArgument(Subject() + " shard table does not tile "
                                     "the dataset at shard " +
                                     std::to_string(i));
    }
    if (shard.byte_offset > UINT64_MAX - shard.byte_size) {
      return Status::InvalidArgument(Subject() + " shard " + std::to_string(i) +
                                     " byte extent overflows");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (prepared_) return Status::Ok();  // a racing Prepare finished first
  // Expectations from a checkpointed spec. A recorded shard table is
  // verified by *content* — row ranges and value hashes; byte extents are
  // the backend's materialization detail (a rewrite that parses to
  // identical doubles is the same dataset), so the fresh layout's extents
  // are authoritative.
  if ((spec_.rows != 0 && spec_.rows != scan.rows) ||
      (spec_.cols != 0 && spec_.cols != scan.cols)) {
    return Refusal("is " + std::to_string(scan.rows) + "x" +
                   std::to_string(scan.cols) + " but " +
                   std::to_string(spec_.rows) + "x" +
                   std::to_string(spec_.cols) + " was expected");
  }
  if (spec_.content_hash != 0 && spec_.content_hash != scan.content_hash) {
    return Refusal("content hash mismatch");
  }
  if (!spec_.shards.empty()) {
    if (spec_.shards.size() != scan.shards.size()) {
      return Refusal("has " + std::to_string(scan.shards.size()) +
                     " shards where " + std::to_string(spec_.shards.size()) +
                     " were recorded");
    }
    for (size_t i = 0; i < spec_.shards.size(); ++i) {
      const DatasetShard& want = spec_.shards[i];
      const DatasetShard& got = scan.shards[i];
      if (want.row_begin != got.row_begin || want.row_end != got.row_end ||
          (want.content_hash != 0 &&
           want.content_hash != got.content_hash)) {
        return Refusal("shard " + std::to_string(i) +
                       " does not match its recorded layout");
      }
    }
  }
  spec_.rows = scan.rows;
  spec_.cols = scan.cols;
  spec_.content_hash = scan.content_hash;
  spec_.shards = std::move(scan.shards);
  verified_.assign(spec_.shards.size(), std::weak_ptr<const DenseMatrix>());
  prepared_ = true;
  return Status::Ok();
}

DatasetSpec ShardedSource::spec() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spec_;
}

double ShardedSource::CacheResidency() const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!prepared_) return 0.0;  // nothing loaded yet; probing loads nothing
  }
  const size_t num_shards = spec_.shards.size();
  size_t resident = 0;
  for (size_t i = 0; i < num_shards; ++i) {
    if (cache_->Resident(ShardKey(static_cast<int>(i)))) ++resident;
  }
  return static_cast<double>(resident) / static_cast<double>(num_shards);
}

Result<DenseMatrix> ShardedSource::LoadShard(int index) const {
  const DatasetShard& shard = spec_.shards[static_cast<size_t>(index)];
  std::string buffer;
  Result<std::string_view> extent = ReadExtent(index, shard, &buffer);
  if (!extent.ok()) return extent.status();
  Result<DenseMatrix> parsed =
      ParseCsvShardBuffer(extent.value(), path(),
                          shard.row_end - shard.row_begin, spec_.cols, index);
  if (!parsed.ok()) {
    return Refusal("shard " + std::to_string(index) +
                   " no longer parses as recorded: " +
                   parsed.status().message());
  }
  return parsed;
}

Result<std::shared_ptr<const DenseMatrix>> ShardedSource::AcquireShard(
    int index) const {
  const std::string key = ShardKey(index);
  Result<std::shared_ptr<const DenseMatrix>> acquired =
      cache_->GetOrLoad(key, [this, index]() { return LoadShard(index); });
  if (!acquired.ok()) return acquired;
  // Transient acquire fault: no Drop — the data is fine, so the shard stays
  // cached and a retrying caller succeeds on the next attempt.
  LEAST_FAILPOINT("cache.verify");
  const std::shared_ptr<const DenseMatrix>& handle = acquired.value();
  std::lock_guard<std::mutex> lock(mu_);
  std::weak_ptr<const DenseMatrix>& seen =
      verified_[static_cast<size_t>(index)];
  if (handle == seen.lock()) return acquired;  // same payload object
  // First touch of this payload object (load, reload after eviction, or a
  // foreign source repopulating the shared entry): verify it against the
  // layout recorded at Prepare before letting a single value through.
  const DatasetShard& shard = spec_.shards[static_cast<size_t>(index)];
  if (handle->rows() != shard.row_end - shard.row_begin ||
      handle->cols() != spec_.cols ||
      HashShardContent(shard.row_begin, shard.row_end, *handle) !=
          shard.content_hash) {
    // Release the refused payload's cache reservation: a shard no job can
    // use must not stay charged against the budget until LRU pressure
    // happens to evict it.
    cache_->Drop(key);
    return Refusal("shard " + std::to_string(index) + " content mismatch");
  }
  seen = handle;
  return acquired;
}

Result<std::shared_ptr<const DenseMatrix>> ShardedSource::Dense() const {
  const Status prepared = Prepare();
  if (!prepared.ok()) return prepared;
  // Shards are pinned one at a time, so the transient overhead above the
  // caller-owned result itself is a single shard.
  auto full = std::make_shared<DenseMatrix>(spec_.rows, spec_.cols);
  for (int s = 0; s < static_cast<int>(spec_.shards.size()); ++s) {
    Result<std::shared_ptr<const DenseMatrix>> shard = AcquireShard(s);
    if (!shard.ok()) return shard.status();
    const DenseMatrix& m = *shard.value();
    std::memcpy(full->row(s * shard_rows()), m.data().data(),
                m.size() * sizeof(double));
  }
  return std::static_pointer_cast<const DenseMatrix>(full);
}

Status ShardedSource::GatherTransposed(std::span<const int> rows,
                                       DenseMatrix* out) const {
  return GatherTransposed(rows, out, nullptr);
}

Status ShardedSource::GatherTransposed(std::span<const int> rows,
                                       DenseMatrix* out,
                                       GatherScratch* scratch) const {
  const Status prepared = Prepare();
  if (!prepared.ok()) return prepared;
  return GatherFromShards(rows, out, scratch, spec_.rows, spec_.cols,
                          shard_rows(), static_cast<int>(spec_.shards.size()),
                          [this](int s) { return AcquireShard(s); });
}

// ----------------------------------------------------------- CsvDataSource ---

namespace {

/// Chunked `CsvDataSource`'s backend: the layout is a scan of the file, an
/// extent is a seek + read.
class LocalCsvShards final : public ShardedSource {
 public:
  LocalCsvShards(DatasetSpec expected, DatasetCache* cache)
      : ShardedSource(std::move(expected), cache) {}

 private:
  Result<CsvShardScan> ScanLayout() const override {
    return ScanCsvIntoShards(path(), has_header(), shard_rows());
  }

  Result<std::string_view> ReadExtent(int /*index*/, const DatasetShard& shard,
                                      std::string* buffer) const override {
    std::ifstream in(path(), std::ios::binary);
    if (!in) {
      return Status::IoError("cannot open '" + path() + "' for reading");
    }
    const Status read = ReadShardBytes(in, path(), shard.byte_offset,
                                       shard.byte_size, buffer);
    if (!read.ok()) return read;
    return std::string_view(*buffer);
  }
};

}  // namespace

CsvDataSource::CsvDataSource(std::string path, CsvSourceOptions options)
    : cache_(options.cache != nullptr ? options.cache
                                      : &GlobalDatasetCache()) {
  LEAST_CHECK(!path.empty());
  LEAST_CHECK(options.shard_rows >= 0);
  LEAST_CHECK(options.expected_shards.empty() || options.shard_rows > 0);
  spec_.kind = DatasetKind::kCsv;
  spec_.path = std::move(path);
  spec_.name = options.name.empty() ? spec_.path : std::move(options.name);
  spec_.csv_has_header = options.has_header;
  spec_.rows = options.expected_rows;
  spec_.cols = options.expected_cols;
  spec_.content_hash = options.expected_hash;
  if (options.shard_rows > 0) {
    spec_.shard_rows = options.shard_rows;
    spec_.shards = std::move(options.expected_shards);
    sharded_ = std::make_unique<LocalCsvShards>(spec_, cache_);
    return;
  }
  // The header flag is part of the payload identity: two sources reading
  // the same file with and without a header must not share an entry.
  cache_key_ = spec_.path + (options.has_header ? "#header" : "#noheader");
}

Result<DenseMatrix> CsvDataSource::Load() const {
  bool has_header = false;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    has_header = spec_.csv_has_header;
    path = spec_.path;
  }
  Result<CsvTable> table = ReadCsv(path, has_header);
  if (!table.ok()) return table.status();
  const auto& rows = table.value().rows;
  if (rows.empty()) {
    return Status::InvalidArgument("CSV dataset '" + path +
                                   "' contains no data rows");
  }
  const int n = static_cast<int>(rows.size());
  const int d = static_cast<int>(rows[0].size());
  if (d == 0) {
    return Status::InvalidArgument("CSV dataset '" + path +
                                   "' has zero columns");
  }
  DenseMatrix x(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) x(i, j) = rows[i][j];
  }
  return x;
}

Result<std::shared_ptr<const DenseMatrix>> CsvDataSource::AcquireVerified()
    const {
  Result<std::shared_ptr<const DenseMatrix>> acquired =
      cache_->GetOrLoad(cache_key_, [this]() { return Load(); });
  if (!acquired.ok()) return acquired;
  // Transient acquire fault: the payload stays cached (no Drop — the data
  // is fine), so a retrying caller succeeds on the next attempt.
  LEAST_FAILPOINT("cache.verify");
  const std::shared_ptr<const DenseMatrix>& handle = acquired.value();
  std::lock_guard<std::mutex> lock(mu_);
  if (handle == verified_.lock()) return acquired;  // same payload object
  // The payload changed since we last checked — first touch, a reload
  // after eviction, or another source repopulating the shared entry.
  // Expectations (from a checkpointed spec) and the shape/hash recorded at
  // first touch must match: a file mutated mid-run would silently corrupt
  // a deterministic fleet, so refuse it instead. This runs on cache hits
  // of unseen payload objects too, never on the per-batch fast path.
  const int n = handle->rows();
  const int d = handle->cols();
  if ((spec_.rows != 0 && spec_.rows != n) ||
      (spec_.cols != 0 && spec_.cols != d)) {
    // Release the refused payload's cache reservation: a dataset no job can
    // use must not stay charged against the budget until LRU pressure
    // happens to evict it.
    cache_->Drop(cache_key_);
    return Status::InvalidArgument(
        "CSV dataset '" + spec_.path + "' is " + std::to_string(n) + "x" +
        std::to_string(d) + " but " + std::to_string(spec_.rows) + "x" +
        std::to_string(spec_.cols) + " was expected");
  }
  const uint64_t hash = HashDenseContent(*handle);
  if (spec_.content_hash != 0 && spec_.content_hash != hash) {
    cache_->Drop(cache_key_);
    return Status::InvalidArgument(
        "CSV dataset '" + spec_.path +
        "' content hash mismatch (file changed since it was recorded)");
  }
  spec_.rows = n;
  spec_.cols = d;
  spec_.content_hash = hash;
  verified_ = handle;
  return acquired;
}

Status CsvDataSource::Prepare() const {
  if (sharded_ != nullptr) return sharded_->Prepare();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (prepared_) return Status::Ok();
  }
  Result<std::shared_ptr<const DenseMatrix>> handle = AcquireVerified();
  if (!handle.ok()) return handle.status();
  std::lock_guard<std::mutex> lock(mu_);
  prepared_ = true;
  return Status::Ok();
}

DatasetSpec CsvDataSource::spec() const {
  if (sharded_ != nullptr) return sharded_->spec();
  std::lock_guard<std::mutex> lock(mu_);
  return spec_;
}

double CsvDataSource::CacheResidency() const {
  if (sharded_ != nullptr) return sharded_->CacheResidency();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!prepared_) return 0.0;  // nothing loaded yet, and probing loads nothing
  }
  return cache_->Resident(cache_key_) ? 1.0 : 0.0;
}

Result<std::shared_ptr<const DenseMatrix>> CsvDataSource::Dense() const {
  if (sharded_ != nullptr) return sharded_->Dense();
  return AcquireVerified();
}

Status CsvDataSource::GatherTransposed(std::span<const int> rows,
                                       DenseMatrix* out) const {
  return GatherTransposed(rows, out, nullptr);
}

Status CsvDataSource::GatherTransposed(std::span<const int> rows,
                                       DenseMatrix* out,
                                       GatherScratch* scratch) const {
  if (sharded_ != nullptr) {
    return sharded_->GatherTransposed(rows, out, scratch);
  }
  // Re-acquired per batch on purpose: holding the handle across the whole
  // fit would pin the dataset and defeat the cache budget. Verification is
  // pointer-identity-gated, so the steady-state cost is one cache lookup.
  Result<std::shared_ptr<const DenseMatrix>> dense = AcquireVerified();
  if (!dense.ok()) return dense.status();
  GatherFromDense(*dense.value(), rows, out);
  return Status::Ok();
}

// -------------------------------------------------------------- factories ---

std::shared_ptr<DataSource> MakeDenseSource(DenseMatrix x, std::string name) {
  return std::make_shared<OwningDenseDataSource>(std::move(x),
                                                 std::move(name));
}

std::shared_ptr<DataSource> MakeDenseSource(
    std::shared_ptr<const DenseMatrix> x, std::string name) {
  return std::make_shared<OwningDenseDataSource>(std::move(x),
                                                 std::move(name));
}

std::shared_ptr<DataSource> MakeCsrSource(CsrMatrix x, std::string name) {
  return std::make_shared<OwningCsrDataSource>(std::move(x), std::move(name));
}

std::shared_ptr<DataSource> MakeCsrSource(std::shared_ptr<const CsrMatrix> x,
                                          std::string name) {
  return std::make_shared<OwningCsrDataSource>(std::move(x), std::move(name));
}

std::shared_ptr<DataSource> MakeCsvSource(std::string path,
                                          CsvSourceOptions options) {
  return std::make_shared<CsvDataSource>(std::move(path), std::move(options));
}

Status WriteMatrixCsv(const std::string& path, const DenseMatrix& x,
                      const std::vector<std::string>& header) {
  std::vector<std::vector<double>> rows;
  rows.reserve(static_cast<size_t>(x.rows()));
  for (int i = 0; i < x.rows(); ++i) {
    rows.emplace_back(x.row(i), x.row(i) + x.cols());
  }
  return WriteCsv(path, header, rows);
}

namespace {

/// Plain pointer, not atomic: installation happens once at process start
/// (main, or a test fixture) before any attach runs concurrently.
RemoteSourceFactory g_remote_source_factory = nullptr;

}  // namespace

void SetRemoteSourceFactory(RemoteSourceFactory factory) {
  g_remote_source_factory = factory;
}

RemoteSourceFactory GetRemoteSourceFactory() {
  return g_remote_source_factory;
}

Result<std::shared_ptr<const DataSource>> AttachDataset(
    const DatasetSpec& spec, DatasetCache* cache) {
  if (spec.kind == DatasetKind::kRemote) {
    RemoteSourceFactory factory = GetRemoteSourceFactory();
    if (factory == nullptr) {
      return Status::InvalidArgument(
          "remote dataset '" + spec.name +
          "' cannot be re-attached: no remote source factory is installed "
          "(call InstallHttpDataPlane() first)");
    }
    if (spec.path.empty()) {
      return Status::InvalidArgument(
          "remote dataset spec carries no origin URL to re-attach from");
    }
    return factory(spec, cache);
  }
  if (spec.kind == DatasetKind::kCsv) {
    if (spec.path.empty()) {
      return Status::InvalidArgument(
          "CSV dataset spec carries no path to re-attach from");
    }
    // A shard table requires its geometry; the reverse is fine — a spec
    // from an enqueue-time stub records shard_rows before the first scan
    // fills the table (re-attach then scans the layout fresh).
    if (spec.shard_rows < 0 || (!spec.shards.empty() && spec.shard_rows == 0)) {
      return Status::InvalidArgument(
          "CSV dataset spec carries an inconsistent shard layout");
    }
    CsvSourceOptions options;
    options.has_header = spec.csv_has_header;
    options.name = spec.name;
    options.cache = cache;
    options.expected_rows = spec.rows;
    options.expected_cols = spec.cols;
    options.expected_hash = spec.content_hash;
    // A sharded spec re-attaches in chunked mode: the recorded layout
    // becomes the expectation, so `Prepare` refuses a file whose shard row
    // ranges or value hashes drifted since the checkpoint.
    options.shard_rows = spec.shard_rows;
    options.expected_shards = spec.shards;
    return std::static_pointer_cast<const DataSource>(
        MakeCsvSource(spec.path, std::move(options)));
  }
  return Status::InvalidArgument(
      "in-memory dataset '" + spec.name + "' (kind " +
      std::string(DatasetKindName(spec.kind)) +
      ") cannot be re-attached from its spec; supply a data resolver");
}

}  // namespace least
