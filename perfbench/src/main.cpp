// Benchmark program: builds one workload's inputs from the seed, runs it for
// the requested time, checks the outputs, and prints one JSON result line.
//
//   perfbench --workload <dco_ldpc|train_ldpc|serve_mix> --seed N
//             --seconds S --trace 0|1 [--spawn-ns T] [--out-dir DIR]
//             [--threads N]
//
// The last line of stdout is {"correct","attempted","failed","metrics"};
// --trace 0 prints every end-to-end metric of BENCHMARK.json, --trace 1
// every per-layer one, whatever the workload, and writes the span trace to
// <out-dir>/trace-<workload>-<seed>.json. Workload-specific figures outside
// the manifest go to stderr as a "details" line.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "util/jsonl.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload dco_ldpc|train_ldpc|serve_mix "
               "--seed N --seconds S --trace 0|1 [--spawn-ns T] "
               "[--out-dir DIR] [--threads N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--spawn-ns") opt.spawn_ns = std::strtoll(v.c_str(), nullptr, 10);
    else if (k == "--out-dir") opt.out_dir = v;
    else if (k == "--threads") opt.threads = std::atoi(v.c_str());
    else return usage();
  }
  if (opt.seconds <= 0.0) return usage();

  dco3d::util::set_num_threads(opt.threads > 0 ? opt.threads : bench_threads());
  Tracer tr(opt.trace);
  Metrics m;
  RunResult rr;
  const auto t0 = Clock::now();
  try {
    if (opt.workload == "dco_ldpc") rr = run_dco_ldpc(opt, tr, m);
    else if (opt.workload == "train_ldpc") rr = run_train_ldpc(opt, tr, m);
    else if (opt.workload == "serve_mix") rr = run_serve_mix(opt, tr, m);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  const double wall_s = ms_since(t0) * 1e-3;
  for (const std::string& f : rr.check_failures)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());

  // The result carries exactly the manifest's metrics; the rest of what the
  // workload measured goes with its details.
  Metrics result;
  std::string err;
  if (!manifest_metrics(m, opt.trace, result, rr.details, err)) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                 err.c_str());
    return 1;
  }
  std::fprintf(stderr, "perfbench: details %s\n", rr.details.to_json().c_str());

  if (opt.trace) {
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    dco3d::util::JsonWriter hdr;
    hdr.field("workload", opt.workload)
        .field("seed", static_cast<std::uint64_t>(opt.seed))
        .field("seconds", opt.seconds)
        .field("threads", dco3d::util::num_threads())
        .field("wall_s", wall_s)
        .raw("metrics", result.to_json())
        .raw("details", rr.details.to_json());
    tr.write_json(path, hdr.done());
    std::fprintf(stderr, "perfbench: trace written to %s (wall %.3f s)\n",
                 path.c_str(), wall_s);
  } else {
    std::fprintf(stderr, "perfbench: wall %.3f s\n", wall_s);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              rr.correct ? "true" : "false",
              static_cast<long long>(rr.attempted),
              static_cast<long long>(rr.failed), result.to_json().c_str());
  return 0;
}
