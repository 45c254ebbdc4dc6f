// perfbench: one workload per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--trace-out <dir>]
//
// Prints notes, then as its last line one JSON object with the run's
// correctness verdict, every metric it measured and the machine's env
// block. run.py turns that into the benchmark's result line. Exits 1 when
// any check fails.

#include <sched.h>
#include <sys/sysinfo.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Fixed integer work for the parallelism probe.
uint64_t Spin(uint64_t iterations) {
  uint64_t x = 88172645463325252ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

// Wall seconds for `threads` threads each running the same fixed work.
double SpinSeconds(int threads, uint64_t iterations) {
  std::vector<std::thread> pool;
  std::vector<uint64_t> sink(static_cast<size_t>(threads));
  const Clock::time_point t0 = Clock::now();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t, iterations] { sink[t] = Spin(iterations); });
  }
  for (std::thread& th : pool) th.join();
  const double s = SecondsSince(t0);
  uint64_t fold = 0;
  for (const uint64_t v : sink) fold ^= v;
  return fold == 1 ? s + 1e-12 : s;  // keeps the work observable
}

// The env block: lets a reader tell machine drift from a code change.
std::string EnvJson() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  struct sysinfo info {};
  double load1 = -1;
  if (sysinfo(&info) == 0) {
    load1 = static_cast<double>(info.loads[0]) / (1 << SI_LOAD_SHIFT);
  }
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  constexpr uint64_t kSpin = 40'000'000;
  const double one = SpinSeconds(1, kSpin);
  const double four = SpinSeconds(4, kSpin);
  std::string out = "{";
  out += "\"nproc\":" + std::to_string(nproc);
  out += ",\"spin_parallelism_4\":" + JsonNumber(four > 0 ? 4 * one / four : 0);
  out += ",\"compiler\":" + JsonString(PERFBENCH_COMPILER);
  out += ",\"flags\":" + JsonString(PERFBENCH_FLAGS);
  out += ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE);
  out += ",\"llc_bytes\":" + std::to_string(llc);
  out += ",\"loadavg_1m_at_start\":" + JsonNumber(load1);
  return out + "}";
}

void PrintSelfTimes(const std::vector<SpanRecord>& spans) {
  std::printf("self times over the traced windows (ms):\n");
  std::printf("  %-22s %10s %12s %12s\n", "span", "calls", "total", "self");
  for (const auto& [name, t] : AggregateSpans(spans)) {
    std::printf("  %-22s %10lld %12.3f %12.3f\n", name.c_str(),
                static_cast<long long>(t.calls), t.total_ms, t.self_ms);
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <sparse_fit|shard_stream|"
               "service_jobs> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--trace-out <dir>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  if (argc % 2 == 0) return Usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  Outcome (*run)(const Args&, Tracer*) = nullptr;
  if (args.workload == "sparse_fit") run = RunSparseFit;
  if (args.workload == "shard_stream") run = RunShardStream;
  if (args.workload == "service_jobs") run = RunServiceJobs;
  if (run == nullptr || !(args.seconds > 0)) return Usage();

  const std::string env = EnvJson();
  Tracer tracer;
  const Outcome out = run(args, args.trace ? &tracer : nullptr);

  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  if (args.trace) {
    PrintSelfTimes(tracer.Snapshot());
    std::filesystem::create_directories(args.trace_out);
    const std::string path = args.trace_out + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    if (tracer.WriteJsonl(path)) std::printf("spans written to %s\n", path.c_str());
  }
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.c_str());
  }

  const bool correct =
      out.errors.empty() && out.failed == 0 && out.attempted > 0;
  std::string line = "{\"correct\":";
  line += correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(out.attempted);
  line += ",\"failed\":" + std::to_string(out.failed);
  line += ",\"errors\":[";
  for (size_t i = 0; i < out.errors.size(); ++i) {
    line += (i ? "," : "") + JsonString(out.errors[i]);
  }
  line += "],\"metrics\":{";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, vu] = out.metrics[i];
    line += (i ? "," : "") + JsonString(name) + ":{\"value\":" +
            JsonNumber(vu.first) + ",\"unit\":" + JsonString(vu.second) + "}";
  }
  line += "},\"env\":" + env + "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
