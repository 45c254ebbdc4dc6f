/// \file http_data_source.h
/// \brief Remote data plane: a `DataSource` that streams CSV shards from an
/// HTTP origin with `Range:` requests.
///
/// The shard table recorded for local CSV files — per-shard
/// `byte_offset`/`byte_size`/`content_hash` — is exactly an HTTP `Range:`
/// request plan, so a learner can run where compute is while its dataset
/// stays at the origin. `HttpDataSource` is the remote backend of the
/// shared `ShardedSource` (`core/data_source.h`), which owns the cache,
/// verification and gather; this file supplies only:
///
///  * the layout: a small JSON *manifest*
///    (`GET <path>?manifest=1&shard_rows=K&has_header=H`, served by
///    `FleetService`'s `/data` route) — the node never holds the dataset
///    to learn its structure;
///  * an extent's bytes: a `Range:` GET through a retrying
///    `HttpConnectionPool` (keep-alive reuse, deterministic backoff on
///    transient failures, redirect cap).
///
/// The spec is stamped `kRemote` (`path` = origin URL) into format-v5
/// checkpoints; `InstallHttpDataPlane()` registers the factory
/// `AttachDataset` needs so a killed fleet resumes streaming from the
/// origin (`FleetScheduler::ScanAndResume`).
///
/// Layering: this lives in `net` (it owns sockets); `core` reaches it only
/// through the `RemoteSourceFactory` function-pointer seam
/// (`core/data_source.h`), installed explicitly — never via static
/// initializers, which dead-strip out of static libraries.

#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/data_source.h"
#include "net/http_client.h"
#include "util/status.h"

namespace least {

/// \brief A split `http://host:port/path` origin URL.
struct ParsedHttpUrl {
  std::string host;  ///< IPv4 literal (the client dials addresses, not names)
  int port = 80;
  std::string path;  ///< origin-form target, always starting with '/'
};

/// Splits an `http://` URL. Accepts only what the transport can dial:
/// plain `http`, an IPv4 host literal, an optional decimal port (default
/// 80), an optional path (default "/"). Anything else — other schemes,
/// userinfo, empty host, junk ports — is `kInvalidArgument`.
Result<ParsedHttpUrl> ParseHttpUrl(std::string_view url);

/// \brief Options for `HttpDataSource` / `MakeHttpSource`. Mirrors
/// `CsvSourceOptions`; remote sources are *always* sharded (fetching a
/// whole remote dataset in one request is exactly what this layer exists
/// to avoid).
struct HttpSourceOptions {
  bool has_header = true;
  std::string name;               ///< label; defaults to the URL
  DatasetCache* cache = nullptr;  ///< defaults to `GlobalDatasetCache()`
  /// Row-range residency granularity (must be > 0). The origin scans at
  /// this granularity, so the manifest's byte extents line up with the
  /// `Range:` requests the shard loads issue.
  int shard_rows = 256;
  /// Expected shape/hash/layout from a checkpointed `DatasetSpec`: when
  /// set, `Prepare` fails with `kInvalidArgument` if the origin's manifest
  /// does not match (the origin changed since the checkpoint).
  int expected_rows = 0;
  int expected_cols = 0;
  uint64_t expected_hash = 0;
  std::vector<DatasetShard> expected_shards;
  /// Transport knobs (retry policy, timeout, idle connections).
  HttpConnectionPoolOptions pool;
};

/// \brief CSV dataset served by a remote HTTP origin (see file comment).
///
/// Thread safety: like every `DataSource`, all methods are const and safe
/// concurrently (the pool hands each in-flight request its own
/// connection). Lifecycle: `Prepare()` fetches and verifies the manifest;
/// everything else requires it.
class HttpDataSource final : public ShardedSource {
 public:
  /// `origin` must already be parsed (use `MakeHttpSource` for URL
  /// strings); `url` is the original URL kept for spec/path stamping.
  HttpDataSource(ParsedHttpUrl origin, std::string url,
                 HttpSourceOptions options);

  /// The pool's transport counters (fetches, retries, redirects) — what
  /// the chaos and property tests assert against.
  HttpConnectionPool::Stats transport_stats() const {
    return pool_->stats();
  }

 private:
  /// Fetches and parses the manifest (`GET <path>?manifest=1&...`).
  Result<CsvShardScan> ScanLayout() const override;
  /// One shard's `Range:` GET: a 206 body must be exactly the extent, a
  /// 200 (Range ignored) is sliced, a 416 means the origin shrank.
  Result<std::string_view> ReadExtent(int index, const DatasetShard& shard,
                                      std::string* buffer) const override;

  const ParsedHttpUrl origin_;
  std::unique_ptr<HttpConnectionPool> pool_;
};

/// Builds an `HttpDataSource` from a URL string. Fails with
/// `kInvalidArgument` on a URL the transport cannot dial or a non-positive
/// `shard_rows`; network trouble surfaces later, from `Prepare`.
Result<std::shared_ptr<const DataSource>> MakeHttpSource(
    const std::string& url, HttpSourceOptions options = {});

/// Registers the HTTP data plane with core's `RemoteSourceFactory` seam so
/// `AttachDataset` (and through it `FleetScheduler::ScanAndResume`) can
/// re-attach `kRemote` specs. Idempotent; call once at process start
/// (examples/fleet_server does, as do the remote tests).
void InstallHttpDataPlane();

}  // namespace least
