/// \file data_source.h
/// \brief Owning, self-describing dataset access for the fleet data plane.
///
/// A fleet job references a *dataset*, not a matrix. `DataSource` is the
/// abstraction behind that: it owns (or knows how to load) its samples,
/// describes itself with a `DatasetSpec` (kind + path/name + shape +
/// content hash — what checkpoints stamp so an interrupted fleet can
/// re-attach data on resume), and serves the three access shapes the
/// learners use:
///
///  * `Dense()` — the full n x d matrix (dense learners);
///  * `Csr()`   — sparse samples (e.g. mean-centered ratings);
///  * `GatherTransposed()` — transposed mini-batches for LEAST-SP, which
///    only ever touches B rows at a time (paper Fig. 3, INNER line 5): the
///    output's row v holds variable v's values over the batch, the layout
///    the pattern-restricted gradient kernel wants.
///
/// Ownership model: sources are shared (`std::shared_ptr<const DataSource>`)
/// so asynchronous fleet jobs can never dangle — the borrowed-pointer
/// adapters this file used to export are gone. In-memory sources
/// (`OwningDenseDataSource`, `OwningCsrDataSource`) hold their payload;
/// `CsvDataSource` is lazy: it loads from disk on first touch through a
/// fleet-wide `DatasetCache` with a byte budget and LRU eviction, and an
/// evicted dataset reloads bit-identically on the next touch, so a fleet of
/// thousands of CSV jobs never materializes every dataset in RAM at once.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "linalg/csr_matrix.h"
#include "linalg/dense_matrix.h"
#include "util/status.h"

namespace least {

/// \brief What kind of storage backs a dataset (stable on-disk ids — these
/// values are stamped into format-v3 model checkpoints).
enum class DatasetKind : uint8_t {
  kDense = 0,    ///< in-memory dense matrix
  kCsr = 1,      ///< in-memory CSR samples
  kCsv = 2,      ///< numeric CSV file on disk, loaded lazily
  kVirtual = 3,  ///< synthesized on demand (e.g. `StreamingLsemSource`)
  /// Numeric CSV served by a remote HTTP origin, fetched shard-by-shard
  /// with `Range:` requests (`net/http_data_source.h`). The spec's `path`
  /// holds the origin URL. Stamped only into format-v5+ checkpoints.
  kRemote = 4,
};

/// Canonical lowercase name ("dense", "csr", "csv", "virtual", "remote").
std::string_view DatasetKindName(DatasetKind kind);

/// \brief One row-range chunk of a sharded on-disk dataset: the logical row
/// range it covers, the byte extent of its data lines in the source file,
/// and an FNV-1a hash of its parsed values (see `HashShardContent`). The
/// layout is recorded in the spec (and stamped into format-v4 checkpoints)
/// so a resumed fleet can re-attach a sharded dataset and refuse a mutated
/// file shard by shard.
struct DatasetShard {
  int row_begin = 0;         ///< first logical data row (inclusive)
  int row_end = 0;           ///< one past the last logical data row
  uint64_t byte_offset = 0;  ///< file offset of the first data line
  uint64_t byte_size = 0;    ///< bytes through the end of the last data line
  uint64_t content_hash = 0; ///< FNV-1a over (row range, cols, values)
};

/// \brief Self-description of a dataset: enough to re-attach (for on-disk
/// kinds) or at least verify (shape + content hash) the data a checkpointed
/// job was learning from.
struct DatasetSpec {
  DatasetKind kind = DatasetKind::kDense;
  std::string name;  ///< free-form label (defaults to the kind / CSV path)
  std::string path;  ///< on-disk path for `kCsv`; empty for in-memory kinds
  int rows = 0;      ///< n (0 until a lazy source is prepared)
  int cols = 0;      ///< d (0 until a lazy source is prepared)
  /// FNV-1a content hash (see `HashDenseContent`/`HashCsrContent`); 0 means
  /// "not computed yet" and disables verification on re-attach. For sharded
  /// CSV sources this is the *whole-dataset* hash — identical to what the
  /// unsharded source reports for the same file, so sharding is invisible
  /// to spec comparison.
  uint64_t content_hash = 0;
  bool csv_has_header = false;  ///< only meaningful for `kCsv`
  /// Row-range residency granularity: 0 = unsharded (whole-dataset cache
  /// entries); > 0 = fixed row-chunk size, with one `shards` entry per
  /// chunk (the last may be partial). Only meaningful for `kCsv`.
  int shard_rows = 0;
  /// Per-chunk byte extents + hashes (empty iff `shard_rows == 0`; filled
  /// by `Prepare` for sharded sources).
  std::vector<DatasetShard> shards;
};

/// FNV-1a over shape + row-major values of a dense matrix.
uint64_t HashDenseContent(const DenseMatrix& x);
/// FNV-1a over shape + CSR arrays of a sparse matrix.
uint64_t HashCsrContent(const CsrMatrix& x);
/// FNV-1a over a shard's identity: (row_begin, row_end, cols) + the shard's
/// values row-major. What `DatasetShard::content_hash` records and what
/// every shard load is verified against.
uint64_t HashShardContent(int row_begin, int row_end, const DenseMatrix& x);

/// \brief Reusable scratch for shard-aware gathers. Callers that gather in
/// a loop (the sparse learner's batch loop) pass one in so the per-batch
/// shard grouping performs no steady-state heap allocations and successive
/// gathers alternate their shard visit order (see `GatherFromShards`);
/// passing nullptr makes the source use a transient local, which always
/// visits in ascending order. Unsharded sources ignore it entirely.
struct GatherScratch {
  std::vector<int> bucket;  ///< per-shard counting-sort offsets
  std::vector<int> order;   ///< batch indices grouped by shard
  bool descending = false;  ///< visit order of the next gather; flips per call
};

/// \brief Abstract owning dataset.
///
/// Thread safety: all methods are const and safe to call concurrently.
/// Lifecycle: call `Prepare()` (idempotent) and check its status before any
/// other accessor — for lazy sources it performs the first disk load and
/// fills the spec's shape and content hash; for in-memory sources it is a
/// no-op. `num_rows`/`num_cols`/`GatherTransposed` are only meaningful
/// after a successful `Prepare`.
class DataSource {
 public:
  virtual ~DataSource() = default;

  /// Validates the dataset and (for lazy sources) performs the first-touch
  /// load, filling shape + content hash in `spec()`. Idempotent and cheap
  /// after the first success. Errors: `kIoError` (unreadable file) or
  /// `kInvalidArgument` (malformed/empty data) — never a crash.
  virtual Status Prepare() const = 0;

  /// Current self-description (copied; lazy sources complete it during
  /// `Prepare`, in-memory sources compute the content hash lazily on the
  /// first call). Always safe to call — before `Prepare` a lazy source
  /// reports its path/name with zero shape and hash.
  virtual DatasetSpec spec() const = 0;

  /// Number of samples n. Requires a successful `Prepare`. (Virtual so
  /// in-memory sources can answer without computing their content hash.)
  virtual int num_rows() const { return spec().rows; }
  /// Number of variables d. Requires a successful `Prepare`.
  virtual int num_cols() const { return spec().cols; }

  /// Full dense materialization, shared and immutable. Lazy sources route
  /// through their `DatasetCache`: hold the handle only as long as needed —
  /// a held handle keeps the bytes resident regardless of cache eviction.
  virtual Result<std::shared_ptr<const DenseMatrix>> Dense() const = 0;

  /// Sparse (CSR) materialization. The default converts `Dense()` on
  /// demand (O(n·d)); CSR-backed sources return their payload.
  virtual Result<std::shared_ptr<const CsrMatrix>> Csr() const;

  /// Fills `out` (must be d x rows.size()) with out(v, b) = X(rows[b], v).
  /// Splits the batch across the optional global `ParallelExecutor` with
  /// bitwise-identical results (pure output-column partition). For lazy
  /// sources this re-acquires the dataset from the cache per call, so an
  /// eviction between batches is transparent (the reload is bit-identical);
  /// a failed reload surfaces here as a non-OK status. Sharded sources
  /// materialize only the row-range shards the batch touches, one at a
  /// time, so a dataset larger than its cache budget streams through.
  virtual Status GatherTransposed(std::span<const int> rows,
                                  DenseMatrix* out) const = 0;

  /// As above, with a caller-owned scratch so per-batch shard grouping does
  /// not allocate in steady state. The default forwards to the two-argument
  /// overload (in-memory sources need no grouping).
  virtual Status GatherTransposed(std::span<const int> rows, DenseMatrix* out,
                                  GatherScratch* scratch) const {
    (void)scratch;
    return GatherTransposed(rows, out);
  }

  /// Fraction of this dataset currently resident in cache, in [0, 1] — the
  /// cache-affinity signal the fleet scheduler's placement policy reads.
  /// In-memory sources are always "warm" (1.0). Lazy sources report what a
  /// touch right now would find without loading anything: 0 or 1 for
  /// whole-dataset residency, the resident-shard fraction for sharded mode,
  /// and 0 before `Prepare` (an unprepared source has loaded nothing, and
  /// probing must stay side-effect-free). Advisory only — the value may be
  /// stale by the time the job runs; correctness never depends on it.
  virtual double CacheResidency() const { return 1.0; }
};

/// \brief In-memory dense dataset, owning (or sharing) its matrix.
class OwningDenseDataSource final : public DataSource {
 public:
  /// Takes ownership of `x` by value.
  explicit OwningDenseDataSource(DenseMatrix x, std::string name = {});
  /// Shares an existing immutable matrix (must be non-null).
  explicit OwningDenseDataSource(std::shared_ptr<const DenseMatrix> x,
                                 std::string name = {});

  Status Prepare() const override { return Status::Ok(); }
  /// Computes the content hash on first call (synchronous uses of an
  /// in-memory source never pay the O(n·d) hash unless a spec is wanted).
  DatasetSpec spec() const override;
  int num_rows() const override { return x_->rows(); }
  int num_cols() const override { return x_->cols(); }
  Result<std::shared_ptr<const DenseMatrix>> Dense() const override {
    return x_;
  }
  using DataSource::GatherTransposed;
  Status GatherTransposed(std::span<const int> rows,
                          DenseMatrix* out) const override;

 private:
  std::shared_ptr<const DenseMatrix> x_;
  DatasetSpec spec_;  ///< content_hash filled lazily under hash_once_
  mutable std::once_flag hash_once_;
  mutable uint64_t hash_ = 0;
};

/// \brief In-memory sparse dataset (e.g. mean-centered ratings where
/// unrated items are zero), owning (or sharing) its CSR matrix.
class OwningCsrDataSource final : public DataSource {
 public:
  explicit OwningCsrDataSource(CsrMatrix x, std::string name = {});
  explicit OwningCsrDataSource(std::shared_ptr<const CsrMatrix> x,
                               std::string name = {});

  Status Prepare() const override { return Status::Ok(); }
  /// Content hash computed on first call (see `OwningDenseDataSource`).
  DatasetSpec spec() const override;
  int num_rows() const override { return x_->rows(); }
  int num_cols() const override { return x_->cols(); }
  Result<std::shared_ptr<const DenseMatrix>> Dense() const override;
  Result<std::shared_ptr<const CsrMatrix>> Csr() const override { return x_; }
  using DataSource::GatherTransposed;
  Status GatherTransposed(std::span<const int> rows,
                          DenseMatrix* out) const override;

 private:
  std::shared_ptr<const CsrMatrix> x_;
  DatasetSpec spec_;  ///< content_hash filled lazily under hash_once_
  mutable std::once_flag hash_once_;
  mutable uint64_t hash_ = 0;
};

/// \brief Fleet-wide LRU cache of loaded datasets — or, for sharded
/// sources, of individual row-range shards — with a byte budget.
///
/// Lazy sources (`CsvDataSource`) load through a cache so a fleet of
/// thousands of disk-backed jobs keeps only its working set in RAM. The
/// cache hands out `shared_ptr` handles whose bytes stay *charged* against
/// the resident counter until the last handle dies — eviction drops the
/// cache's own reference (an unpinned dataset frees immediately; a dataset
/// pinned by a running job frees when that job releases it), so
/// `resident_bytes` is an honest account of dataset RAM, not just of what
/// the map holds. Admission evicts least-recently-used entries first until
/// `resident + incoming <= budget`; when everything else is pinned the new
/// dataset is still admitted (jobs must run), so the budget binds whenever
/// it exceeds the concurrently-pinned working set. A sharded dataset maps
/// to one entry per row-range shard, so eviction granularity is a shard:
/// one dataset larger than the whole budget can still stream through as
/// long as the budget admits a single shard.
///
/// Thread safety: all methods are safe to call concurrently. Loads are
/// single-flight *per key*: concurrent misses on the same key wait for the
/// one in-flight load (a file or shard is never parsed twice in parallel
/// and the budget is never overshot by duplicate payloads), while misses on
/// different keys load concurrently.
class DatasetCache {
 public:
  /// Default budget used by `GlobalDatasetCache` (256 MiB).
  static constexpr size_t kDefaultByteBudget = size_t{256} << 20;

  explicit DatasetCache(size_t byte_budget = kDefaultByteBudget);
  ~DatasetCache();

  DatasetCache(const DatasetCache&) = delete;
  DatasetCache& operator=(const DatasetCache&) = delete;

  /// Produces a dense matrix on a cache miss. May fail (IO, parse errors);
  /// failures are returned to the caller and nothing is cached.
  using Loader = std::function<Result<DenseMatrix>()>;

  /// Returns the cached dataset for `key`, invoking `loader` on a miss.
  /// The charged size of an entry is its payload bytes
  /// (`matrix.size() * sizeof(double)`).
  Result<std::shared_ptr<const DenseMatrix>> GetOrLoad(const std::string& key,
                                                       const Loader& loader);

  /// Drops every cached reference (pinned handles stay alive until their
  /// holders release them).
  void Clear();

  /// Drops the cache's reference for one key (counts as an eviction when a
  /// payload was cached, and always as a refusal). Sources call this when a
  /// loaded payload fails verification: a refused dataset must not keep
  /// charging the budget until LRU pressure happens to reach it.
  void Drop(const std::string& key);

  /// True when a `GetOrLoad(key, ...)` right now would hit: the entry is
  /// cached, or evicted-but-pinned (a live handle still holds the bytes).
  /// A pure probe for the scheduler's cache-affinity placement — no LRU
  /// bump, no hit/miss accounting, no load.
  bool Resident(const std::string& key) const;

  /// Adjusts the budget and evicts down to it.
  void set_byte_budget(size_t bytes);
  size_t byte_budget() const;

  struct Stats {
    size_t byte_budget = 0;
    size_t resident_bytes = 0;       ///< bytes alive via cache-issued handles
    size_t peak_resident_bytes = 0;  ///< high-water mark of the above
    int64_t hits = 0;
    int64_t misses = 0;    ///< lookups that found no usable entry
    int64_t loads = 0;     ///< loader invocations that succeeded
    int64_t evictions = 0; ///< cache references dropped to make room
    int64_t refusals = 0;  ///< loaded payloads dropped by verification
    int64_t entries = 0;   ///< keys currently tracked
  };
  Stats stats() const;
  size_t resident_bytes() const;

 private:
  // Shared with handle deleters so accounting survives cache destruction.
  struct Accounting {
    std::mutex mu;
    size_t resident = 0;
    size_t peak = 0;
  };
  struct Entry {
    std::shared_ptr<const DenseMatrix> cached;  ///< null once evicted
    std::weak_ptr<const DenseMatrix> alive;     ///< observes pinned handles
    size_t bytes = 0;
    uint64_t last_used = 0;
  };

  std::shared_ptr<const DenseMatrix> LookupLocked(const std::string& key);
  /// Drops LRU cache references until `resident + incoming <= budget` or
  /// nothing evictable remains. Requires `mu_`.
  void EvictForLocked(size_t incoming);

  mutable std::mutex mu_;   ///< guards entries_, inflight_, and counters
  /// Keys with a load in flight; misses on the same key wait on
  /// `inflight_cv_` instead of starting a duplicate load.
  std::set<std::string> inflight_;
  std::condition_variable inflight_cv_;
  std::shared_ptr<Accounting> accounting_;
  std::unordered_map<std::string, Entry> entries_;
  size_t byte_budget_;
  uint64_t tick_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t loads_ = 0;
  int64_t evictions_ = 0;
  int64_t refusals_ = 0;
};

/// The process-wide cache lazy sources use by default.
DatasetCache& GlobalDatasetCache();

// ------------------------------------------------------------ shard plane ---
//
// A dataset larger than its cache budget streams one row-range shard at a
// time. One source owns that plane, `ShardedSource`; the local chunked
// `CsvDataSource` and the remote `HttpDataSource` (`net/http_data_source.h`)
// are backends that supply only the layout and the bytes of one shard's
// extent. So a remote dataset streams bit-identically to the local file it
// was exported from, and both refuse a changed dataset by the same rules.

/// \brief Outcome of scanning a CSV file into fixed row-range shards.
struct CsvShardScan {
  int rows = 0;
  int cols = 0;
  /// Whole-dataset hash, identical to `HashDenseContent` of the fully
  /// materialized matrix (the row-major value stream is the concatenation
  /// of the shard value streams).
  uint64_t content_hash = 0;
  std::vector<DatasetShard> shards;
};

/// Two-pass bounded-memory scan of a CSV file into fixed `shard_rows`-row
/// shards: pass one establishes structure (shape, raggedness, byte
/// extents), pass two folds per-shard value hashes plus the whole-dataset
/// hash one shard at a time. The layout behind `CsvDataSource`'s chunked
/// mode and the manifest the fleet service serves to remote readers. A bad
/// cell is reported at its file line, word for word as `ReadCsv` does.
Result<CsvShardScan> ScanCsvIntoShards(const std::string& path,
                                       bool has_header, int shard_rows);

/// The shard-granular gather loop behind every sharded source: counting-
/// sorts `rows` by shard (via `scratch`, allocation-free in steady state;
/// nullptr uses a transient local), then materializes each touched shard
/// exactly once through `acquire_shard` and copies its columns into `out`
/// as a pure output partition (bitwise identical at any thread count). The
/// shard handle is released before the next shard is acquired, so peak
/// residency is one shard above whatever the cache retains. Shards are
/// visited in ascending index order, or descending when
/// `scratch->descending` is set; each call flips that flag, so a reused
/// scratch alternates and an LRU cache's survivors from one gather are the
/// first shards the next one asks for. The order changes which loads hit
/// the cache, never a value.
Status GatherFromShards(
    std::span<const int> rows, DenseMatrix* out, GatherScratch* scratch,
    int total_rows, int cols, int shard_rows, int num_shards,
    const std::function<Result<std::shared_ptr<const DenseMatrix>>(int)>&
        acquire_shard);

/// \brief A numeric CSV dataset held as fixed row-range shards, each its
/// own `DatasetCache` entry.
///
/// `Prepare` takes the backend's layout, refuses one whose shard i does not
/// cover exactly `[i * shard_rows, min((i + 1) * shard_rows, rows))`, and
/// checks it against any checkpointed expectations (shape, whole hash, the
/// recorded shards' row ranges and value hashes). A shard load parses the
/// backend's extent bytes and is verified against the recorded shard hash
/// whenever the cached payload object is new to this source; a refused
/// payload is dropped from the cache. Refusals name the dataset by kind:
/// "CSV dataset '<path>' ... (file changed)" or "remote dataset '<url>'
/// ... (origin changed)".
///
/// Thread safety: all methods are const and safe to call concurrently; the
/// backend's two hooks run under no lock and may run concurrently.
class ShardedSource : public DataSource {
 public:
  Status Prepare() const override;
  /// Before `Prepare`: the identity plus any checkpointed expectations
  /// (shape, hash, shard table). After: the verified layout.
  DatasetSpec spec() const override;
  /// Assembles the full matrix shard by shard; the result is caller-owned
  /// (NOT budget-tracked) — dense learners genuinely need the whole matrix,
  /// and asking for it is an explicit opt-out of streaming.
  Result<std::shared_ptr<const DenseMatrix>> Dense() const override;
  Status GatherTransposed(std::span<const int> rows,
                          DenseMatrix* out) const override;
  Status GatherTransposed(std::span<const int> rows, DenseMatrix* out,
                          GatherScratch* scratch) const override;
  /// Resident shards / shards; 0 before `Prepare` (probing loads nothing).
  double CacheResidency() const override;

 protected:
  /// `expected` names the dataset (kind `kCsv` or `kRemote`, path, name,
  /// header flag, `shard_rows` > 0) and carries what a checkpoint recorded
  /// of it — rows, cols, content hash, shard table — with zero or empty
  /// meaning "not recorded". `cache` nullptr means `GlobalDatasetCache()`.
  ShardedSource(DatasetSpec expected, DatasetCache* cache);

  /// The dataset's shape, whole hash and shard table, at `shard_rows()`.
  virtual Result<CsvShardScan> ScanLayout() const = 0;
  /// Reads shard `index`'s byte extent `shard` into `buffer` and returns
  /// the view of exactly its bytes (all of `buffer` or a slice of it).
  virtual Result<std::string_view> ReadExtent(int index,
                                              const DatasetShard& shard,
                                              std::string* buffer) const = 0;

  /// `kInvalidArgument` "<kind> dataset '<path>' <what> (<file|origin>
  /// changed)": how a backend refuses bytes that no longer fit the layout.
  Status Refusal(const std::string& what) const;

  // Fixed at construction, so readable without the lock.
  const std::string& path() const { return spec_.path; }
  bool has_header() const { return spec_.csv_has_header; }
  int shard_rows() const { return spec_.shard_rows; }

 private:
  /// Reads, parses and shape-checks one shard (the cache loader).
  Result<DenseMatrix> LoadShard(int index) const;
  /// Cache acquire plus payload-identity-gated hash verification.
  Result<std::shared_ptr<const DenseMatrix>> AcquireShard(int index) const;
  std::string ShardKey(int index) const;
  /// "CSV dataset '<path>'" or "remote dataset '<url>'", by kind.
  std::string Subject() const;

  DatasetCache* cache_;
  std::string cache_key_;  ///< path + parse options (header flag + sharding)
  /// Guards prepared_ and verified_. spec_'s layout (rows, cols, hash,
  /// shards) is written once, under it, by the Prepare that sets prepared_,
  /// so code that has seen prepared_ set reads the layout without it.
  mutable std::mutex mu_;
  mutable DatasetSpec spec_;
  mutable bool prepared_ = false;
  /// Per shard, the payload object last verified (see `AcquireShard`).
  mutable std::vector<std::weak_ptr<const DenseMatrix>> verified_;
};

/// \brief Options for `CsvDataSource` / `MakeCsvSource`.
struct CsvSourceOptions {
  bool has_header = true;
  std::string name;             ///< label; defaults to the path
  DatasetCache* cache = nullptr;  ///< defaults to `GlobalDatasetCache()`
  /// Expected shape/hash from a checkpointed `DatasetSpec`: when non-zero,
  /// `Prepare` fails with `kInvalidArgument` if the file on disk does not
  /// match (the file changed since the checkpoint was written).
  int expected_rows = 0;
  int expected_cols = 0;
  uint64_t expected_hash = 0;
  /// Row-range residency granularity: 0 = whole-dataset cache entries
  /// (the default); > 0 = chunked mode, where `Prepare` scans the file into
  /// fixed `shard_rows`-row shards and every access materializes only the
  /// shards it touches — a dataset larger than the cache budget streams
  /// through `GatherTransposed` without ever being held whole.
  int shard_rows = 0;
  /// Expected shard layout from a checkpointed `DatasetSpec` (requires a
  /// matching `shard_rows`). When non-empty, `Prepare` refuses a file whose
  /// scanned layout — row ranges or per-shard hashes — differs.
  std::vector<DatasetShard> expected_shards;
};

/// \brief Lazy numeric-CSV dataset: nothing is read until first touch, and
/// the payload lives in a `DatasetCache` (evictions reload bit-identically).
///
/// Robustness contract: malformed input — ragged rows, non-numeric or
/// non-finite cells, header/shape mismatches, empty files — surfaces as
/// `kInvalidArgument` from `Prepare` (or from a mid-run reload), never as a
/// crash. A reload whose content differs from the first load (file mutated
/// mid-run) is also refused, and the refused payload's cache reservation is
/// released (`DatasetCache::Drop`) instead of lingering charged.
///
/// Chunked mode (`CsvSourceOptions::shard_rows > 0`) is a `ShardedSource`
/// over the file (`ScanCsvIntoShards` + extent reads): `GatherTransposed`
/// pins one shard at a time, so any cache budget that admits a single shard
/// streams a dataset of unbounded size bit-identically to the in-RAM path.
/// Whole-file mode (the default) keeps one cache entry per file and skips
/// the scan, which would cost several times its cached `Prepare`.
class CsvDataSource final : public DataSource {
 public:
  explicit CsvDataSource(std::string path, CsvSourceOptions options = {});

  Status Prepare() const override;
  DatasetSpec spec() const override;
  /// Sharded sources assemble the full matrix shard by shard; the result is
  /// caller-owned (NOT budget-tracked), see `ShardedSource::Dense`.
  Result<std::shared_ptr<const DenseMatrix>> Dense() const override;
  Status GatherTransposed(std::span<const int> rows,
                          DenseMatrix* out) const override;
  Status GatherTransposed(std::span<const int> rows, DenseMatrix* out,
                          GatherScratch* scratch) const override;
  /// Whole-dataset mode: 0 or 1. Sharded mode: resident shards / shards.
  /// 0 before `Prepare` (nothing has been loaded; probing loads nothing).
  double CacheResidency() const override;

 private:
  /// Parses + structurally validates the whole file (the cache loader).
  Result<DenseMatrix> Load() const;
  /// Acquires the whole-dataset payload from the cache and verifies it
  /// against the expected/recorded shape + content hash. Verification runs
  /// whenever the underlying payload object changed since the last check
  /// (first touch, reload after eviction, or a different source
  /// repopulating the shared cache entry), so a cache *hit* on mutated
  /// content is refused too.
  Result<std::shared_ptr<const DenseMatrix>> AcquireVerified() const;

  /// Chunked mode's implementation; null in whole-file mode.
  std::unique_ptr<const ShardedSource> sharded_;
  DatasetCache* cache_;
  std::string cache_key_;  ///< path + header flag
  mutable std::mutex mu_;  // guards spec_ shape/hash, prepared_, verified_
  mutable DatasetSpec spec_;
  mutable bool prepared_ = false;
  mutable std::weak_ptr<const DenseMatrix> verified_;
};

/// \brief Factory `AttachDataset` uses for `kRemote` specs, so the core
/// data plane can re-attach remote datasets without depending on the net
/// layer. Installed by `InstallHttpDataPlane()` (`net/http_data_source.h`);
/// nullptr (the default) makes re-attaching a remote spec fail with a
/// message naming the installer.
using RemoteSourceFactory = Result<std::shared_ptr<const DataSource>> (*)(
    const DatasetSpec& spec, DatasetCache* cache);
void SetRemoteSourceFactory(RemoteSourceFactory factory);
RemoteSourceFactory GetRemoteSourceFactory();

// ------------------------------------------------------------- factories ---

/// Wraps an in-memory dense matrix into a shareable source.
std::shared_ptr<DataSource> MakeDenseSource(DenseMatrix x,
                                            std::string name = {});
std::shared_ptr<DataSource> MakeDenseSource(
    std::shared_ptr<const DenseMatrix> x, std::string name = {});

/// Wraps in-memory CSR samples into a shareable source.
std::shared_ptr<DataSource> MakeCsrSource(CsrMatrix x, std::string name = {});
std::shared_ptr<DataSource> MakeCsrSource(std::shared_ptr<const CsrMatrix> x,
                                          std::string name = {});

/// Lazy CSV-backed source (see `CsvDataSource`).
std::shared_ptr<DataSource> MakeCsvSource(std::string path,
                                          CsvSourceOptions options = {});

/// Writes a dense matrix as a numeric CSV with round-trip-exact value
/// precision — the write-side inverse of `CsvDataSource`, shared by tests
/// and benches that materialize disk-backed datasets.
Status WriteMatrixCsv(const std::string& path, const DenseMatrix& x,
                      const std::vector<std::string>& header = {});

/// Re-attaches the dataset described by a checkpointed spec. `kCsv` specs
/// re-attach from the spec alone (shape and hash are verified on load when
/// recorded; a sharded spec re-attaches in chunked mode and additionally
/// verifies every shard's row range and value hash, so a file mutated since
/// the checkpoint is refused shard by shard). `kRemote` specs re-attach
/// through the installed `RemoteSourceFactory` (call
/// `InstallHttpDataPlane()` first) with the same verification rules against
/// the origin. In-memory kinds fail with `kInvalidArgument` — supply them
/// through a resolver (see `FleetScheduler::ScanAndResume`).
Result<std::shared_ptr<const DataSource>> AttachDataset(
    const DatasetSpec& spec, DatasetCache* cache = nullptr);

}  // namespace least
