#include "net/http_data_source.h"

#include <cstdint>
#include <utility>

#include "net/json.h"

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

/// The spec a remote source starts from: identity plus the checkpointed
/// expectations carried in `options` (moved out of it).
DatasetSpec RemoteSpec(std::string url, HttpSourceOptions* options) {
  DatasetSpec spec;
  spec.kind = DatasetKind::kRemote;
  spec.path = std::move(url);
  spec.name = options->name.empty() ? spec.path : std::move(options->name);
  spec.csv_has_header = options->has_header;
  spec.shard_rows = options->shard_rows;
  spec.rows = options->expected_rows;
  spec.cols = options->expected_cols;
  spec.content_hash = options->expected_hash;
  spec.shards = std::move(options->expected_shards);
  return spec;
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
    : ShardedSource(RemoteSpec(std::move(url), &options), options.cache),
      origin_(std::move(origin)),
      pool_(std::make_unique<HttpConnectionPool>(origin_.host, origin_.port,
                                                 options.pool)) {}

Result<CsvShardScan> HttpDataSource::ScanLayout() const {
  const std::string manifest_path =
      origin_.path + "?manifest=1&shard_rows=" + std::to_string(shard_rows()) +
      "&has_header=" + (has_header() ? "1" : "0");
  Result<HttpClientResponse> fetched = pool_->Fetch(manifest_path);
  if (!fetched.ok()) return fetched.status();
  const HttpClientResponse& response = fetched.value();
  if (response.status == 404) {
    return Status::InvalidArgument("remote dataset '" + path() +
                                   "' not found at the origin");
  }
  if (response.status != 200) {
    return Status::IoError("manifest fetch for '" + path() +
                           "' returned HTTP " +
                           std::to_string(response.status));
  }
  Result<JsonValue> parsed = ParseJson(response.body);
  if (!parsed.ok()) {
    return ManifestError(path(), parsed.status().message());
  }
  const JsonValue& manifest = parsed.value();
  if (!manifest.is_object()) {
    return ManifestError(path(), "top level is not an object");
  }
  CsvShardScan scan;
  int manifest_shard_rows = 0;
  if (!IntField(manifest.Find("rows"), &scan.rows) || scan.rows <= 0) {
    return ManifestError(path(), "missing or invalid 'rows'");
  }
  if (!IntField(manifest.Find("cols"), &scan.cols) || scan.cols <= 0) {
    return ManifestError(path(), "missing or invalid 'cols'");
  }
  if (!IntField(manifest.Find("shard_rows"), &manifest_shard_rows) ||
      manifest_shard_rows != shard_rows()) {
    return ManifestError(
        path(),
        "origin scanned at a different shard granularity than requested");
  }
  if (!U64Field(manifest.Find("content_hash"), &scan.content_hash)) {
    return ManifestError(path(), "missing or invalid 'content_hash'");
  }
  const JsonValue* shard_list = manifest.Find("shards");
  if (shard_list == nullptr || !shard_list->is_array()) {
    return ManifestError(path(), "missing 'shards'");
  }
  // Field syntax only: whether the table tiles the dataset is checked by
  // `ShardedSource::Prepare`, for every backend.
  scan.shards.reserve(shard_list->items().size());
  for (const JsonValue& entry : shard_list->items()) {
    DatasetShard shard;
    if (!entry.is_object() ||
        !IntField(entry.Find("row_begin"), &shard.row_begin) ||
        !IntField(entry.Find("row_end"), &shard.row_end) ||
        !U64Field(entry.Find("byte_offset"), &shard.byte_offset) ||
        !U64Field(entry.Find("byte_size"), &shard.byte_size) ||
        !U64Field(entry.Find("content_hash"), &shard.content_hash)) {
      return ManifestError(path(), "shard entry field missing or invalid");
    }
    scan.shards.push_back(shard);
  }
  return scan;
}

Result<std::string_view> HttpDataSource::ReadExtent(
    int index, const DatasetShard& shard, std::string* buffer) const {
  HttpFetchOptions options;
  options.range = "bytes=" + std::to_string(shard.byte_offset) + "-" +
                  std::to_string(shard.byte_offset + shard.byte_size - 1);
  Result<HttpClientResponse> fetched = pool_->Fetch(origin_.path, options);
  if (!fetched.ok()) return fetched.status();
  const int status = fetched.value().status;
  *buffer = std::move(fetched).value().body;
  const std::string_view body(*buffer);
  const std::string shard_name = "shard " + std::to_string(index);
  if (status == 206) {
    // The origin honored the range; the body must be exactly the extent.
    if (body.size() != shard.byte_size) {
      return Refusal(shard_name + " range response holds " +
                     std::to_string(body.size()) + " bytes where " +
                     std::to_string(shard.byte_size) + " were recorded");
    }
    return body;
  }
  if (status == 200) {
    // The origin ignored the Range header and sent the whole file; slice
    // the extent out (correctness is identical, just more bytes moved).
    // Written subtraction-side so a u64 extent cannot wrap.
    if (shard.byte_offset > body.size() ||
        body.size() - shard.byte_offset < shard.byte_size) {
      return Refusal(shard_name + " extent lies past the end of the file");
    }
    return body.substr(static_cast<size_t>(shard.byte_offset),
                       static_cast<size_t>(shard.byte_size));
  }
  if (status == 416) {
    return Refusal(shard_name + " byte range is no longer satisfiable");
  }
  return Status::IoError("shard fetch for '" + path() + "' returned HTTP " +
                         std::to_string(status));
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
