#include "net/http_data_source.h"

#include <cstdint>
#include <cstring>

#include "net/json.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace least {
namespace {

/// Reads a u64 manifest field that may be a JSON string of decimal digits
/// (how the origin writes 64-bit values — JSON numbers are doubles and
/// cannot carry a full uint64) or, tolerantly, a small integral number.
bool U64Field(const JsonValue* value, uint64_t* out) {
  if (value == nullptr) return false;
  if (value->is_string()) {
    const std::string& digits = value->as_string();
    if (digits.empty() || digits.size() > 20) return false;
    uint64_t parsed = 0;
    for (char c : digits) {
      if (c < '0' || c > '9') return false;
      const uint64_t next = parsed * 10 + static_cast<uint64_t>(c - '0');
      if (next < parsed) return false;  // overflow
      parsed = next;
    }
    *out = parsed;
    return true;
  }
  int64_t integral = 0;
  if (value->IntegerValue(&integral) && integral >= 0) {
    *out = static_cast<uint64_t>(integral);
    return true;
  }
  return false;
}

bool IntField(const JsonValue* value, int* out) {
  int64_t integral = 0;
  if (value == nullptr || !value->IntegerValue(&integral)) return false;
  if (integral < 0 || integral > INT32_MAX) return false;
  *out = static_cast<int>(integral);
  return true;
}

Status ManifestError(const std::string& url, std::string_view what) {
  return Status::InvalidArgument("remote dataset '" + url +
                                 "' manifest is malformed: " +
                                 std::string(what));
}

Result<std::shared_ptr<const DataSource>> AttachRemote(const DatasetSpec& spec,
                                                       DatasetCache* cache) {
  HttpSourceOptions options;
  options.has_header = spec.csv_has_header;
  options.name = spec.name;
  options.cache = cache;
  options.shard_rows = spec.shard_rows;
  options.expected_rows = spec.rows;
  options.expected_cols = spec.cols;
  options.expected_hash = spec.content_hash;
  options.expected_shards = spec.shards;
  return MakeHttpSource(spec.path, std::move(options));
}

}  // namespace

Result<ParsedHttpUrl> ParseHttpUrl(std::string_view url) {
  constexpr std::string_view kScheme = "http://";
  if (url.substr(0, kScheme.size()) != kScheme) {
    return Status::InvalidArgument("unsupported URL scheme in '" +
                                   std::string(url) + "' (only http://)");
  }
  std::string_view rest = url.substr(kScheme.size());
  const size_t slash = rest.find('/');
  std::string_view authority =
      slash == std::string_view::npos ? rest : rest.substr(0, slash);
  ParsedHttpUrl parsed;
  parsed.path = slash == std::string_view::npos
                    ? std::string("/")
                    : std::string(rest.substr(slash));
  const size_t colon = authority.find(':');
  const std::string_view host = authority.substr(0, colon);
  if (host.empty()) {
    return Status::InvalidArgument("URL '" + std::string(url) +
                                   "' has an empty host");
  }
  for (char c : host) {
    if ((c < '0' || c > '9') && c != '.') {
      return Status::InvalidArgument(
          "URL host '" + std::string(host) +
          "' is not an IPv4 literal (the transport dials addresses)");
    }
  }
  parsed.host = std::string(host);
  if (colon != std::string_view::npos) {
    const std::string_view digits = authority.substr(colon + 1);
    if (digits.empty() || digits.size() > 5) {
      return Status::InvalidArgument("URL '" + std::string(url) +
                                     "' has a malformed port");
    }
    int port = 0;
    for (char c : digits) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("URL '" + std::string(url) +
                                       "' has a malformed port");
      }
      port = port * 10 + (c - '0');
    }
    if (port < 1 || port > 65535) {
      return Status::InvalidArgument("URL '" + std::string(url) +
                                     "' has an out-of-range port");
    }
    parsed.port = port;
  }
  return parsed;
}

HttpDataSource::HttpDataSource(ParsedHttpUrl origin, std::string url,
                               HttpSourceOptions options)
    : origin_(std::move(origin)),
      cache_(options.cache != nullptr ? options.cache : &GlobalDatasetCache()),
      shard_rows_(options.shard_rows),
      has_header_(options.has_header),
      expected_shards_(std::move(options.expected_shards)),
      expected_rows_(options.expected_rows),
      expected_cols_(options.expected_cols),
      expected_hash_(options.expected_hash),
      pool_(std::make_unique<HttpConnectionPool>(origin_.host, origin_.port,
                                                 options.pool)) {
  spec_.kind = DatasetKind::kRemote;
  spec_.path = std::move(url);
  spec_.name = options.name.empty() ? spec_.path : std::move(options.name);
  spec_.csv_has_header = has_header_;
  spec_.shard_rows = shard_rows_;
  cache_key_ = spec_.path + (has_header_ ? "#header" : "#noheader") +
               "#rows" + std::to_string(shard_rows_);
}

std::string HttpDataSource::ShardKey(int index) const {
  return cache_key_ + "#shard" + std::to_string(index);
}

Status HttpDataSource::PrepareRemote() const {
  const std::string manifest_path =
      origin_.path + "?manifest=1&shard_rows=" + std::to_string(shard_rows_) +
      "&has_header=" + (has_header_ ? "1" : "0");
  Result<HttpClientResponse> fetched = pool_->Fetch(manifest_path);
  if (!fetched.ok()) return fetched.status();
  const HttpClientResponse& response = fetched.value();
  if (response.status == 404) {
    return Status::InvalidArgument("remote dataset '" + spec_.path +
                                   "' not found at the origin");
  }
  if (response.status != 200) {
    return Status::IoError("manifest fetch for '" + spec_.path +
                           "' returned HTTP " +
                           std::to_string(response.status));
  }
  Result<JsonValue> parsed = ParseJson(response.body);
  if (!parsed.ok()) {
    return ManifestError(spec_.path, parsed.status().message());
  }
  const JsonValue& manifest = parsed.value();
  if (!manifest.is_object()) {
    return ManifestError(spec_.path, "top level is not an object");
  }
  int rows = 0, cols = 0, manifest_shard_rows = 0;
  uint64_t content_hash = 0;
  if (!IntField(manifest.Find("rows"), &rows) || rows <= 0) {
    return ManifestError(spec_.path, "missing or invalid 'rows'");
  }
  if (!IntField(manifest.Find("cols"), &cols) || cols <= 0) {
    return ManifestError(spec_.path, "missing or invalid 'cols'");
  }
  if (!IntField(manifest.Find("shard_rows"), &manifest_shard_rows) ||
      manifest_shard_rows != shard_rows_) {
    return ManifestError(
        spec_.path,
        "origin scanned at a different shard granularity than requested");
  }
  if (!U64Field(manifest.Find("content_hash"), &content_hash)) {
    return ManifestError(spec_.path, "missing or invalid 'content_hash'");
  }
  const JsonValue* shard_list = manifest.Find("shards");
  if (shard_list == nullptr || !shard_list->is_array() ||
      shard_list->items().empty()) {
    return ManifestError(spec_.path, "missing or empty 'shards'");
  }
  std::vector<DatasetShard> shards;
  shards.reserve(shard_list->items().size());
  int expect_begin = 0;
  int64_t shard_index = 0;
  for (const JsonValue& entry : shard_list->items()) {
    if (!entry.is_object()) {
      return ManifestError(spec_.path, "shard entry is not an object");
    }
    DatasetShard shard;
    if (!IntField(entry.Find("row_begin"), &shard.row_begin) ||
        !IntField(entry.Find("row_end"), &shard.row_end) ||
        !U64Field(entry.Find("byte_offset"), &shard.byte_offset) ||
        !U64Field(entry.Find("byte_size"), &shard.byte_size) ||
        !U64Field(entry.Find("content_hash"), &shard.content_hash)) {
      return ManifestError(spec_.path, "shard entry field missing or invalid");
    }
    // Same tiling discipline as `ScanCsvIntoShards`: shard i covers exactly
    // [i * shard_rows, min((i + 1) * shard_rows, rows)). The fixed stride is
    // load-bearing — Dense() writes shard i at row i * shard_rows and the
    // gather path buckets row r into shard r / shard_rows — so a manifest
    // that merely tiles [0, rows) with smaller shards must be refused, not
    // just one with gaps.
    if (shard.row_begin != expect_begin ||
        static_cast<int64_t>(shard.row_begin) != shard_index * shard_rows_ ||
        shard.row_end <= shard.row_begin ||
        (shard.row_end - shard.row_begin != shard_rows_ &&
         shard.row_end != rows) ||
        shard.row_end > rows || shard.byte_size == 0) {
      return ManifestError(spec_.path,
                           "shard table does not tile the dataset");
    }
    // Byte extents participate in Range headers and slicing arithmetic;
    // refuse extents whose end would wrap uint64.
    if (shard.byte_offset > UINT64_MAX - shard.byte_size) {
      return ManifestError(spec_.path, "shard byte extent overflows");
    }
    expect_begin = shard.row_end;
    ++shard_index;
    shards.push_back(shard);
  }
  if (expect_begin != rows) {
    return ManifestError(spec_.path, "shard table does not cover every row");
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (prepared_) return Status::Ok();  // a racing Prepare finished first
  if ((expected_rows_ != 0 && expected_rows_ != rows) ||
      (expected_cols_ != 0 && expected_cols_ != cols)) {
    return Status::InvalidArgument(
        "remote dataset '" + spec_.path + "' is " + std::to_string(rows) +
        "x" + std::to_string(cols) + " but " +
        std::to_string(expected_rows_) + "x" + std::to_string(expected_cols_) +
        " was expected");
  }
  if (expected_hash_ != 0 && expected_hash_ != content_hash) {
    return Status::InvalidArgument(
        "remote dataset '" + spec_.path +
        "' content hash mismatch (origin changed since it was recorded)");
  }
  // A checkpointed layout is verified by *content* — row ranges and value
  // hashes; byte extents are the origin's materialization detail.
  if (!expected_shards_.empty()) {
    if (expected_shards_.size() != shards.size()) {
      return Status::InvalidArgument(
          "remote dataset '" + spec_.path + "' serves " +
          std::to_string(shards.size()) + " shards where " +
          std::to_string(expected_shards_.size()) +
          " were recorded (origin changed since the checkpoint)");
    }
    for (size_t i = 0; i < expected_shards_.size(); ++i) {
      const DatasetShard& want = expected_shards_[i];
      const DatasetShard& got = shards[i];
      if (want.row_begin != got.row_begin || want.row_end != got.row_end ||
          (want.content_hash != 0 &&
           want.content_hash != got.content_hash)) {
        return Status::InvalidArgument(
            "remote dataset '" + spec_.path + "' shard " + std::to_string(i) +
            " does not match its recorded layout (origin changed since the "
            "checkpoint)");
      }
    }
  }
  spec_.rows = rows;
  spec_.cols = cols;
  spec_.content_hash = content_hash;
  spec_.shards = std::move(shards);
  verified_shards_.assign(spec_.shards.size(),
                          std::weak_ptr<const DenseMatrix>());
  prepared_ = true;
  return Status::Ok();
}

Status HttpDataSource::Prepare() const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (prepared_) return Status::Ok();
  }
  return PrepareRemote();
}

DatasetSpec HttpDataSource::spec() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spec_;
}

Result<DenseMatrix> HttpDataSource::LoadShard(int index) const {
  DatasetShard shard;
  int cols = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    LEAST_CHECK(prepared_ && index >= 0 &&
                index < static_cast<int>(spec_.shards.size()));
    shard = spec_.shards[static_cast<size_t>(index)];
    cols = spec_.cols;
  }
  HttpFetchOptions options;
  options.range = "bytes=" + std::to_string(shard.byte_offset) + "-" +
                  std::to_string(shard.byte_offset + shard.byte_size - 1);
  Result<HttpClientResponse> fetched = pool_->Fetch(origin_.path, options);
  if (!fetched.ok()) return fetched.status();
  const HttpClientResponse& response = fetched.value();
  std::string_view body(response.body);
  if (response.status == 206) {
    // The origin honored the range; the body must be exactly the extent.
    if (body.size() != shard.byte_size) {
      return Status::InvalidArgument(
          "remote dataset '" + spec_.path + "' shard " +
          std::to_string(index) + " range response holds " +
          std::to_string(body.size()) + " bytes where " +
          std::to_string(shard.byte_size) + " were recorded (origin changed)");
    }
  } else if (response.status == 200) {
    // The origin ignored the Range header and sent the whole file; slice
    // the extent out (correctness is identical, just more bytes moved).
    // Written subtraction-side so untrusted u64 extents cannot wrap (the
    // manifest check already refuses wrapping extents; keep this load path
    // safe on its own).
    if (shard.byte_offset > body.size() ||
        body.size() - shard.byte_offset < shard.byte_size) {
      return Status::InvalidArgument(
          "remote dataset '" + spec_.path +
          "' is shorter than its recorded shard extents (origin changed)");
    }
    body = body.substr(static_cast<size_t>(shard.byte_offset),
                       static_cast<size_t>(shard.byte_size));
  } else if (response.status == 416) {
    return Status::InvalidArgument(
        "remote dataset '" + spec_.path + "' no longer satisfies shard " +
        std::to_string(index) + "'s byte range (origin changed)");
  } else {
    return Status::IoError("shard fetch for '" + spec_.path +
                           "' returned HTTP " +
                           std::to_string(response.status));
  }
  Result<DenseMatrix> parsed = ParseCsvShardBuffer(
      body, spec_.path, shard.row_end - shard.row_begin, cols, index);
  if (!parsed.ok()) {
    return Status::InvalidArgument(
        "remote dataset '" + spec_.path + "' shard " + std::to_string(index) +
        " no longer parses as recorded (origin changed): " +
        parsed.status().message());
  }
  return parsed;
}

Result<std::shared_ptr<const DenseMatrix>> HttpDataSource::AcquireShard(
    int index) const {
  const std::string key = ShardKey(index);
  Result<std::shared_ptr<const DenseMatrix>> acquired =
      cache_->GetOrLoad(key, [this, index]() { return LoadShard(index); });
  if (!acquired.ok()) return acquired;
  // Same transient-fault site as the local sources: no Drop, the shard
  // stays cached for the retry.
  LEAST_FAILPOINT("cache.verify");
  const std::shared_ptr<const DenseMatrix>& handle = acquired.value();
  std::lock_guard<std::mutex> lock(mu_);
  std::weak_ptr<const DenseMatrix>& seen =
      verified_shards_[static_cast<size_t>(index)];
  if (handle == seen.lock()) return acquired;  // same payload object
  // First touch of this payload object (load, reload after eviction, or a
  // foreign source repopulating the shared entry): verify it against the
  // manifest recorded at Prepare before letting a single value through.
  const DatasetShard& shard = spec_.shards[static_cast<size_t>(index)];
  const int rows = shard.row_end - shard.row_begin;
  if (handle->rows() != rows || handle->cols() != spec_.cols ||
      HashShardContent(shard.row_begin, shard.row_end, *handle) !=
          shard.content_hash) {
    // Release the refused payload's reservation.
    cache_->Drop(key);
    return Status::InvalidArgument(
        "remote dataset '" + spec_.path + "' shard " + std::to_string(index) +
        " content mismatch (origin changed since it was recorded)");
  }
  seen = handle;
  return acquired;
}

Result<std::shared_ptr<const DenseMatrix>> HttpDataSource::Dense() const {
  const Status prepared = Prepare();
  if (!prepared.ok()) return prepared;
  int n = 0, d = 0, num_shards = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    n = spec_.rows;
    d = spec_.cols;
    num_shards = static_cast<int>(spec_.shards.size());
  }
  // Whole-matrix materialization is caller-owned and outside the cache
  // budget — the explicit opt-out of streaming (see `CsvDataSource`).
  auto full = std::make_shared<DenseMatrix>(n, d);
  for (int s = 0; s < num_shards; ++s) {
    Result<std::shared_ptr<const DenseMatrix>> shard = AcquireShard(s);
    if (!shard.ok()) return shard.status();
    const DenseMatrix& m = *shard.value();
    std::memcpy(full->row(s * shard_rows_), m.data().data(),
                m.size() * sizeof(double));
  }
  return std::static_pointer_cast<const DenseMatrix>(full);
}

Result<std::shared_ptr<const CsrMatrix>> HttpDataSource::Csr() const {
  Result<std::shared_ptr<const DenseMatrix>> dense = Dense();
  if (!dense.ok()) return dense.status();
  return std::make_shared<const CsrMatrix>(
      CsrMatrix::FromDense(*dense.value()));
}

Status HttpDataSource::GatherTransposed(std::span<const int> rows,
                                        DenseMatrix* out) const {
  return GatherTransposed(rows, out, nullptr);
}

Status HttpDataSource::GatherTransposed(std::span<const int> rows,
                                        DenseMatrix* out,
                                        GatherScratch* scratch) const {
  const Status prepared = Prepare();
  if (!prepared.ok()) return prepared;
  int n = 0, d = 0, num_shards = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    n = spec_.rows;
    d = spec_.cols;
    num_shards = static_cast<int>(spec_.shards.size());
  }
  return GatherFromShards(rows, out, scratch, n, d, shard_rows_, num_shards,
                          [this](int s) { return AcquireShard(s); });
}

double HttpDataSource::CacheResidency() const {
  size_t num_shards = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!prepared_) return 0.0;  // nothing loaded yet; probing loads nothing
    num_shards = spec_.shards.size();
  }
  if (num_shards == 0) return 0.0;
  size_t resident = 0;
  for (size_t i = 0; i < num_shards; ++i) {
    if (cache_->Resident(ShardKey(static_cast<int>(i)))) ++resident;
  }
  return static_cast<double>(resident) / static_cast<double>(num_shards);
}

Result<std::shared_ptr<const DataSource>> MakeHttpSource(
    const std::string& url, HttpSourceOptions options) {
  if (options.shard_rows <= 0) {
    return Status::InvalidArgument(
        "remote sources are always sharded: shard_rows must be positive");
  }
  Result<ParsedHttpUrl> parsed = ParseHttpUrl(url);
  if (!parsed.ok()) return parsed.status();
  return std::static_pointer_cast<const DataSource>(
      std::make_shared<HttpDataSource>(std::move(parsed).value(), url,
                                       std::move(options)));
}

void InstallHttpDataPlane() { SetRemoteSourceFactory(&AttachRemote); }

}  // namespace least
