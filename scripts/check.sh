#!/usr/bin/env bash
# Tier-1 verification: configure, build (library carries -Wall -Wextra),
# and run the full ctest suite. Run from anywhere; operates on the repo root.
#
#   scripts/check.sh                 # incremental
#   CLEAN=1 scripts/check.sh         # wipe build/ first
#   BUILD_DIR=out scripts/check.sh
#   LEAST_SANITIZE=1 scripts/check.sh       # add the ASan+UBSan pass
#   LEAST_SANITIZE_ONLY=1 scripts/check.sh  # just the sanitizer pass (CI)
#   scripts/check.sh --bench-smoke          # build + run kernel_micro small;
#                                           # writes build/BENCH_kernels.json
#                                           # (CI uploads it as an artifact).
#                                           # The repo-root BENCH_kernels.json
#                                           # is the committed paper-scale
#                                           # record — refresh it by running
#                                           # build/bench/kernel_micro from
#                                           # the repo root at scale 1.
#   scripts/check.sh --trace-smoke          # run the fleet example with a
#                                           # .lbtrace telemetry file and
#                                           # verify lbtrace_dump can read it
#                                           # back (CI uploads the trace).
#   scripts/check.sh --http-smoke           # start the fleet_server example,
#                                           # drive it over HTTP with
#                                           # fleet_client (submit, watch,
#                                           # fetch model, drain), and verify
#                                           # every job settled.
#   scripts/check.sh --chaos                # run the seeded fault-injection
#                                           # harness (test_chaos_fleet) at
#                                           # three fixed storm seeds; every
#                                           # seed must absorb its storm with
#                                           # bit-identical models.
#   scripts/check.sh --remote-smoke         # start fleet_server, probe its
#                                           # /data route (manifest, Range
#                                           # slices compared with the file,
#                                           # directory ref = 404) with
#                                           # fleet_client fetch,
#                                           # then submit a job whose dataset
#                                           # is the server's own http:// URL
#                                           # — the remote data plane end to
#                                           # end as a black box.
#   LEAST_NATIVE=1 scripts/check.sh         # -march=native kernels (local
#                                           # perf runs; off in CI)

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BUILD_DIR:-build}"

bench_smoke=0
trace_smoke=0
http_smoke=0
remote_smoke=0
chaos=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) bench_smoke=1 ;;
    --trace-smoke) trace_smoke=1 ;;
    --http-smoke) http_smoke=1 ;;
    --remote-smoke) remote_smoke=1 ;;
    --chaos) chaos=1 ;;
    *) echo "check.sh: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done

native_flags=()
if [[ "${LEAST_NATIVE:-0}" != "0" ]]; then
  native_flags+=(-DLEAST_NATIVE=ON)
fi

if [[ "$bench_smoke" != "0" ]]; then
  # Bench smoke: small sizes, proves the kernel microbenchmark and the fleet
  # scheduling/throughput bench (policy comparison, mixed_workload section)
  # still report sane numbers. The snapshots land in the build tree so they
  # can never clobber the committed paper-scale BENCH_kernels.json /
  # BENCH_fleet.json at the repo root.
  cd "$repo_root"
  cmake -B "$build_dir" -S . "${native_flags[@]}"
  cmake --build "$build_dir" -j"$(nproc)" --target bench_kernel_micro \
        bench_fleet_throughput
  (cd "$build_dir" &&
   LEAST_BENCH_SCALE="${LEAST_BENCH_SCALE:-0.2}" bench/kernel_micro)
  (cd "$build_dir" &&
   LEAST_BENCH_SCALE="${LEAST_BENCH_SCALE:-0.2}" \
   LEAST_FLEET_MAX_THREADS="${LEAST_FLEET_MAX_THREADS:-2}" \
     bench/fleet_throughput)
  echo "check.sh: bench smoke done ($build_dir/BENCH_kernels.json and" \
       "$build_dir/BENCH_fleet.json written)"
  exit 0
fi

if [[ "$trace_smoke" != "0" ]]; then
  # Telemetry smoke: run a small traced fleet end to end — example writes a
  # .lbtrace file, lbtrace_dump decodes it (loudly rejecting corruption, so
  # a successful dump proves the checksum/count header round-tripped) and
  # must report every job settled. The trace stays in the build tree for CI
  # to upload.
  cd "$repo_root"
  cmake -B "$build_dir" -S . "${native_flags[@]}"
  cmake --build "$build_dir" -j"$(nproc)" --target example_fleet_learning tool_lbtrace_dump
  trace_file="$build_dir/fleet-smoke.lbtrace"
  jobs="${LEAST_FLEET_JOBS:-120}"
  (cd "$build_dir" &&
   LEAST_FLEET_JOBS="$jobs" LEAST_FLEET_TRACE="fleet-smoke.lbtrace" \
     examples/fleet_learning)
  dump="$("$build_dir/tools/lbtrace_dump" "$trace_file")"
  echo "$dump" | tail -n 4
  echo "$dump" | grep -q "settled jobs: $jobs (succeeded $jobs," || {
    echo "check.sh: trace smoke FAILED — expected '$jobs' settled jobs in lbtrace_dump output" >&2
    exit 1
  }
  echo "check.sh: trace smoke done ($trace_file written)"
  exit 0
fi

if [[ "$http_smoke" != "0" ]]; then
  # Service smoke: start the fleet_server example on an ephemeral port and
  # drive it purely over HTTP with fleet_client — submit two jobs, follow the
  # changes feed until they settle, download a model blob, then drain via
  # POST /admin/shutdown and require the server to exit with every job
  # settled. Exercises the whole net stack (parser, server, service routes,
  # journal long-poll, model streaming) as a black box.
  cd "$repo_root"
  cmake -B "$build_dir" -S . "${native_flags[@]}"
  cmake --build "$build_dir" -j"$(nproc)" --target \
        example_fleet_server example_csv_workflow tool_fleet_client \
        tool_lbtrace_dump
  build_abs="$(cd "$build_dir" && pwd)"
  smoke_dir="$build_abs/http-smoke"
  rm -rf "$smoke_dir"
  mkdir -p "$smoke_dir"

  # Dataset: the csv_workflow demo generator writes a learnable benchmark
  # CSV; drop its header row since the submission declares has_header=false.
  (cd "$smoke_dir" && "$build_abs/examples/csv_workflow" > /dev/null)
  tail -n +2 "$smoke_dir/csv_workflow_demo.csv" > "$smoke_dir/http_smoke.csv"

  server_log="$smoke_dir/fleet_server.log"
  LEAST_SERVER_PORT=0 LEAST_SERVER_THREADS=4 LEAST_SERVER_DATA="$smoke_dir" \
  LEAST_SERVER_TRACE="$smoke_dir/http-smoke.lbtrace" \
    "$build_abs/examples/fleet_server" > "$server_log" 2>&1 &
  server_pid=$!
  trap 'kill "$server_pid" 2>/dev/null || true' EXIT

  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n \
      's#^fleet_server: listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
      "$server_log")"
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "check.sh: http smoke FAILED — server never reported its port" >&2
    cat "$server_log" >&2
    exit 1
  fi

  client="$build_abs/tools/fleet_client"
  options='{"max_outer_iterations":40,"max_inner_iterations":150,
            "tolerance":1e-3,"track_exact_h":true,"terminate_on_h":true}'
  "$client" "$port" submit http_smoke.csv least-dense smoke-a "$options"
  "$client" "$port" submit http_smoke.csv least-dense smoke-b "$options"
  "$client" "$port" watch 0 300 | tail -n 1
  "$client" "$port" watch 1 300 | tail -n 1
  "$client" "$port" model 0 "$smoke_dir/model0.bin"
  [[ -s "$smoke_dir/model0.bin" ]] || {
    echo "check.sh: http smoke FAILED — empty model blob" >&2; exit 1; }
  report="$("$client" "$port" report)"
  echo "$report"
  echo "$report" | grep -q '"succeeded":2' || {
    echo "check.sh: http smoke FAILED — expected 2 succeeded jobs" >&2
    exit 1
  }
  "$client" "$port" shutdown
  wait "$server_pid"
  trap - EXIT
  grep -q "fleet_server: drained" "$server_log" || {
    echo "check.sh: http smoke FAILED — server did not drain cleanly" >&2
    cat "$server_log" >&2
    exit 1
  }
  tail -n 4 "$server_log"

  # The server recorded a .lbtrace; the inspector must decode it and report
  # the HTTP traffic it carried (kinds 16-18).
  "$build_abs/tools/lbtrace_dump" "$smoke_dir/http-smoke.lbtrace" |
    grep "^http:" || {
    echo "check.sh: http smoke FAILED — no http summary in lbtrace_dump" >&2
    exit 1
  }
  echo "check.sh: http smoke done (model blob at $smoke_dir/model0.bin)"
  exit 0
fi

if [[ "$remote_smoke" != "0" ]]; then
  # Remote data plane smoke: the server serves its own dataset directory
  # over GET /data/<ref> (shard manifests + Range slices), and a submitted
  # job may name an http:// origin as its dataset. Probe both with
  # fleet_client, then close the loop: submit a job whose dataset is the
  # server's *own* /data URL, so the shards stream over loopback HTTP
  # through HttpDataSource while the model is learned — end to end, black
  # box.
  cd "$repo_root"
  cmake -B "$build_dir" -S . "${native_flags[@]}"
  cmake --build "$build_dir" -j"$(nproc)" --target \
        example_fleet_server example_csv_workflow tool_fleet_client
  build_abs="$(cd "$build_dir" && pwd)"
  smoke_dir="$build_abs/remote-smoke"
  rm -rf "$smoke_dir"
  mkdir -p "$smoke_dir"

  (cd "$smoke_dir" && "$build_abs/examples/csv_workflow" > /dev/null)
  tail -n +2 "$smoke_dir/csv_workflow_demo.csv" > "$smoke_dir/remote_smoke.csv"

  server_log="$smoke_dir/fleet_server.log"
  LEAST_SERVER_PORT=0 LEAST_SERVER_THREADS=4 LEAST_SERVER_DATA="$smoke_dir" \
    "$build_abs/examples/fleet_server" > "$server_log" 2>&1 &
  server_pid=$!
  trap 'kill "$server_pid" 2>/dev/null || true' EXIT

  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n \
      's#^fleet_server: listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
      "$server_log")"
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "check.sh: remote smoke FAILED — server never reported its port" >&2
    cat "$server_log" >&2
    exit 1
  fi

  client="$build_abs/tools/fleet_client"

  # 1. The manifest: shape, whole-dataset hash, and the shard table whose
  #    byte extents the Range loads will replay.
  manifest="$("$client" "$port" fetch \
    '/data/remote_smoke.csv?manifest=1&shard_rows=64&has_header=0')"
  echo "$manifest" | grep -q '"shards"' || {
    echo "check.sh: remote smoke FAILED — manifest has no shard table" >&2
    echo "$manifest" >&2
    exit 1
  }

  # 2. A Range slice: exactly the requested 128 bytes back.
  "$client" "$port" fetch /data/remote_smoke.csv 0-127 \
    "$smoke_dir/slice.bin"
  slice_bytes=$(wc -c < "$smoke_dir/slice.bin")
  [[ "$slice_bytes" == "128" ]] || {
    echo "check.sh: remote smoke FAILED — Range 0-127 returned $slice_bytes bytes" >&2
    exit 1
  }

  # 3. A mid-file slice: the second shard's extent from the manifest comes
  #    back byte for byte the same as the local file's bytes there.
  offsets=($(echo "$manifest" | grep -o '"byte_offset":"[0-9]*"' | grep -o '[0-9][0-9]*'))
  sizes=($(echo "$manifest" | grep -o '"byte_size":"[0-9]*"' | grep -o '[0-9][0-9]*'))
  [[ "${#offsets[@]}" -ge 2 && "${#sizes[@]}" -ge 2 ]] || {
    echo "check.sh: remote smoke FAILED — manifest holds fewer than two shards" >&2
    exit 1
  }
  lo="${offsets[1]}"
  hi=$((lo + sizes[1] - 1))
  "$client" "$port" fetch /data/remote_smoke.csv "$lo-$hi" \
    "$smoke_dir/shard1.bin"
  slice_bytes=$(wc -c < "$smoke_dir/shard1.bin")
  [[ "$slice_bytes" == "${sizes[1]}" ]] &&
    cmp -n "${sizes[1]}" "$smoke_dir/shard1.bin" \
        "$smoke_dir/remote_smoke.csv" 0 "$lo" || {
    echo "check.sh: remote smoke FAILED — Range $lo-$hi differs from the file" >&2
    exit 1
  }

  # 4. Only regular files are datasets: a directory ref is a 404.
  mkdir -p "$smoke_dir/not_a_dataset"
  if "$client" "$port" fetch /data/not_a_dataset \
       > /dev/null 2> "$smoke_dir/dir_fetch.err"; then
    echo "check.sh: remote smoke FAILED — GET of a directory succeeded" >&2
    exit 1
  fi
  grep -q "status 404" "$smoke_dir/dir_fetch.err" || {
    echo "check.sh: remote smoke FAILED — GET of a directory was not a 404" >&2
    cat "$smoke_dir/dir_fetch.err" >&2
    exit 1
  }

  # 5. A job whose dataset is the origin URL: shards stream over HTTP while
  #    the model is learned.
  options='{"max_outer_iterations":40,"max_inner_iterations":150,
            "tolerance":1e-3,"track_exact_h":true,"terminate_on_h":true}'
  "$client" "$port" submit \
    "http://127.0.0.1:$port/data/remote_smoke.csv" \
    least-dense remote-smoke "$options"
  "$client" "$port" watch 0 300 | tail -n 1 | grep -q "settled: succeeded" || {
    echo "check.sh: remote smoke FAILED — remote-dataset job did not succeed" >&2
    exit 1
  }
  "$client" "$port" shutdown
  wait "$server_pid"
  trap - EXIT
  grep -q "fleet_server: drained" "$server_log" || {
    echo "check.sh: remote smoke FAILED — server did not drain cleanly" >&2
    cat "$server_log" >&2
    exit 1
  }
  echo "check.sh: remote smoke done (manifest + Range slices + directory 404 + streamed-shard job)"
  exit 0
fi

if [[ "$chaos" != "0" ]]; then
  # Chaos pass: the seeded fault-injection harness at three fixed storm
  # seeds. Each seed drives a different (but reproducible) fault stream
  # through the 200-job storm fleet, the mid-storm kill + resume, and the
  # HTTP chaos tests; a regression in retry/crash-safety semantics shows up
  # as a failed settle, a non-identical model, or checkpoint debris.
  cd "$repo_root"
  cmake -B "$build_dir" -S . "${native_flags[@]}"
  cmake --build "$build_dir" -j"$(nproc)" --target test_chaos_fleet
  for seed in 1 2 3; do
    echo "check.sh: chaos seed $seed"
    LEAST_CHAOS_SEED="$seed" "$build_dir/test_chaos_fleet"
  done
  echo "check.sh: chaos pass green (seeds 1-3)"
  exit 0
fi

if [[ "${LEAST_SANITIZE_ONLY:-0}" != "0" ]]; then
  LEAST_SANITIZE=1
fi

if [[ "${LEAST_SANITIZE_ONLY:-0}" == "0" ]]; then
  cd "$repo_root"
  if [[ "${CLEAN:-0}" != "0" ]]; then
    rm -rf "$build_dir"
  fi

  cmake -B "$build_dir" -S . "${native_flags[@]}"
  cmake --build "$build_dir" -j"$(nproc)"
  cd "$build_dir"
  ctest --output-on-failure -j

  # The thread-pool, fleet-scheduler, fleet-scheduling, sharded-cache,
  # net-stress, chaos, and remote-data-plane tests exercise real concurrency
  # (work stealing, cancellation races, shutdown, policy-ordered claims,
  # bounded-admission storms, single-flight shard loads, HTTP
  # drain-while-busy, fault storms racing transient retries, live loopback
  # connection pools); a scheduling-dependent bug can pass a single run.
  # Re-run them a few times and fail on a flake.
  ctest --output-on-failure \
        -R '^(test_thread_pool|test_fleet_scheduler|test_fleet_scheduling|test_sharded_cache|test_net_stress|test_chaos_fleet|test_http_client|test_remote_shards)$' \
        --repeat until-fail:3 --no-tests=error

  echo "check.sh: all green"
fi

# Optional sanitizer pass over the data-plane and net tests: LEAST_SANITIZE=1
# configures a second build tree with ASan+UBSan and runs the tests that
# exercise cache eviction lifetimes, CSV parsing, checkpoint parsing,
# scheduler concurrency, the HTTP stack (parser fuzz sweep, loopback
# service end-to-end, connection churn), and the sparse learner's batch
# step (tiled gather and lane-interleaved gradient dots index raw pointers
# over partial tiles and lanes). Kept separate from the main tree so
# incremental builds stay fast.
if [[ "${LEAST_SANITIZE:-0}" != "0" ]]; then
  san_dir="${SANITIZE_BUILD_DIR:-build-sanitize}"
  cd "$repo_root"
  cmake -B "$san_dir" -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake --build "$san_dir" -j"$(nproc)" --target \
        test_data_source test_csv test_fleet_data_plane \
        test_sharded_cache \
        test_fleet_scheduler test_fleet_scheduling test_model_serializer \
        test_serializer_fuzz \
        test_checkpoint_resume test_trace_log test_obs_metrics \
        test_http_parser test_http_client test_remote_shards \
        test_net_service test_net_stress \
        test_failpoint test_chaos_fleet test_least_sparse
  cd "$san_dir"
  ctest --output-on-failure --no-tests=error -R \
        '^(test_data_source|test_csv|test_fleet_data_plane|test_sharded_cache|test_fleet_scheduler|test_fleet_scheduling|test_model_serializer|test_serializer_fuzz|test_checkpoint_resume|test_trace_log|test_obs_metrics|test_http_parser|test_http_client|test_remote_shards|test_net_service|test_net_stress|test_failpoint|test_chaos_fleet|test_least_sparse)$'
  echo "check.sh: sanitizer pass green"
fi
