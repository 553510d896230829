// load_serve — serve-mode load harness. Starts an in-process Server, measures
// the single-job service time, then sweeps offered load across multiples of
// the measured capacity (default 0.5x / 1x / 2x), submitting real jobs over
// the real loopback protocol from pacing client threads. Emits one
// machine-readable JSON report (schema dco3d-bench-serve-v1) with per-level
// throughput, client-observed latency percentiles (p50/p95/p99), and shed
// rate — the overload headline: at 2x capacity the server must shed with
// retriable hints while admitted jobs keep completing within deadline.
//
//   load_serve [-o BENCH_serve.json] [--workers N] [--queue N] [--jobs N]
//              [--scale S] [--grid N] [--levels "0.5,1,2"]
//
// The cache is disabled so every admitted job pays the full pipeline cost
// (an idempotent-resubmission benchmark would only measure the cache).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/server.hpp"
#include "util/jsonl.hpp"
#include "util/socket.hpp"

using namespace dco3d;

namespace {

struct LevelResult {
  double multiplier = 0.0;
  double offered_hz = 0.0;
  int offered = 0;
  int completed = 0;
  int early_commit = 0;
  int shed = 0;
  int failed = 0;
  double elapsed_s = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

/// Submit one job with wait:true; returns the final response object
/// ("done" event, shed line, or empty on transport trouble).
util::JsonObject submit_and_wait(int port, const std::string& body) {
  util::JsonObject obj;
  try {
    util::Fd conn = util::connect_local(port);
    if (!util::send_line(conn.get(), body)) return obj;
    util::LineReader reader(conn.get());
    std::string line;
    while (reader.read_line(line)) {
      util::JsonValue v;
      if (!util::parse_json(line, v).ok() ||
          !v.is(util::JsonValue::Kind::kObject) ||
          util::json_str(v.obj, "event", "") == "stage")
        continue;
      obj = std::move(v.obj);
      if (util::json_str(obj, "event", "") == "done") break;
      if (!util::json_bool(obj, "ok", false)) break;  // shed
    }
  } catch (const StatusError&) {
  }
  return obj;
}

double arg_num(int argc, char** argv, const char* name, double dflt) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return std::atof(argv[i + 1]);
  return dflt;
}

const char* arg_str(int argc, char** argv, const char* name,
                    const char* dflt) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return dflt;
}

}  // namespace

int main(int argc, char** argv) {
  const int workers = static_cast<int>(arg_num(argc, argv, "--workers", 1));
  const std::size_t queue =
      static_cast<std::size_t>(arg_num(argc, argv, "--queue", 4));
  const int jobs_per_level =
      static_cast<int>(arg_num(argc, argv, "--jobs", 16));
  const double scale = arg_num(argc, argv, "--scale", 0.01);
  const int grid = static_cast<int>(arg_num(argc, argv, "--grid", 8));
  const std::string out = arg_str(argc, argv, "-o", "BENCH_serve.json");
  std::vector<double> levels;
  {
    std::stringstream ss(arg_str(argc, argv, "--levels", "0.5,1,2"));
    std::string tok;
    while (std::getline(ss, tok, ',')) levels.push_back(std::atof(tok.c_str()));
  }

  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = workers;
  cfg.queue_depth = queue;
  Server server(cfg);
  server.start();
  const int port = server.port();
  std::printf("load_serve: server on 127.0.0.1:%d (%d workers, queue %zu)\n",
              port, workers, queue);

  const std::string body = util::JsonWriter()
                               .field("cmd", "submit")
                               .field("kind", "dma")
                               .field("scale", scale)
                               .field("grid", grid)
                               .field("seed", 1)
                               .field("cache", false)
                               .field("wait", true)
                               .done();

  // Calibrate: sequential warmup jobs measure the per-job service time the
  // capacity model is based on (the first run also pays one-time setup).
  double service_ms = 0.0;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    util::JsonObject done = submit_and_wait(port, body);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (util::json_str(done, "state", "") != "done") {
      std::fprintf(stderr, "load_serve: warmup job did not complete\n");
      return 1;
    }
    if (i > 0) service_ms = std::max(service_ms, ms);  // skip cold first run
  }
  const double capacity_hz = workers / (service_ms / 1000.0);
  std::printf("load_serve: service time %.1f ms -> capacity %.2f jobs/s\n",
              service_ms, capacity_hz);

  std::vector<LevelResult> results;
  for (double mult : levels) {
    LevelResult lr;
    lr.multiplier = mult;
    lr.offered_hz = capacity_hz * mult;
    lr.offered = jobs_per_level;
    const double gap_ms = 1000.0 / lr.offered_hz;

    std::mutex mu;
    std::vector<double> latencies;
    std::vector<std::thread> clients;
    clients.reserve(static_cast<std::size_t>(jobs_per_level));
    const auto level_t0 = std::chrono::steady_clock::now();
    for (int j = 0; j < jobs_per_level; ++j) {
      clients.emplace_back([&, j] {
        const auto t0 = std::chrono::steady_clock::now();
        util::JsonObject resp = submit_and_wait(port, body);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        const std::string state = util::json_str(resp, "state", "");
        std::lock_guard<std::mutex> lock(mu);
        if (state == "done") {
          ++lr.completed;
          latencies.push_back(ms);
        } else if (state == "early_commit") {
          ++lr.early_commit;
          latencies.push_back(ms);
        } else if (state == "shed") {
          ++lr.shed;
        } else {
          ++lr.failed;
        }
      });
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long>(gap_ms * 1000.0)));
    }
    for (std::thread& t : clients) t.join();
    lr.elapsed_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - level_t0)
                       .count();
    lr.p50_ms = percentile(latencies, 0.50);
    lr.p95_ms = percentile(latencies, 0.95);
    lr.p99_ms = percentile(latencies, 0.99);
    std::printf(
        "load_serve: %.2fx capacity: %d offered, %d done, %d early, %d shed, "
        "%d failed in %.1fs (p50 %.0fms p95 %.0fms p99 %.0fms)\n",
        mult, lr.offered, lr.completed, lr.early_commit, lr.shed, lr.failed,
        lr.elapsed_s, lr.p50_ms, lr.p95_ms, lr.p99_ms);
    results.push_back(lr);
  }

  server.request_drain();
  server.wait();

  std::vector<std::string> level_rows;
  for (const LevelResult& lr : results) {
    const int served = lr.completed + lr.early_commit;
    level_rows.push_back(
        util::JsonWriter()
            .field("multiplier", lr.multiplier)
            .field("offered_hz", lr.offered_hz)
            .field("offered", lr.offered)
            .field("completed", lr.completed)
            .field("early_commit", lr.early_commit)
            .field("shed", lr.shed)
            .field("failed", lr.failed)
            .field("throughput_hz",
                   lr.elapsed_s > 0.0 ? served / lr.elapsed_s : 0.0)
            .field("shed_rate", lr.offered > 0 ? static_cast<double>(lr.shed) /
                                                     lr.offered
                                               : 0.0)
            .field("p50_ms", lr.p50_ms)
            .field("p95_ms", lr.p95_ms)
            .field("p99_ms", lr.p99_ms)
            .done());
  }
  std::ofstream os(out);
  os << util::JsonWriter()
            .field("schema", "dco3d-bench-serve-v1")
            .field("workers", workers)
            .field("queue_depth", std::uint64_t{queue})
            .field("jobs_per_level", jobs_per_level)
            .field("scale", scale)
            .field("grid", grid)
            .field("service_ms", service_ms)
            .field("capacity_hz", capacity_hz)
            .array("levels", level_rows)
            .done()
     << '\n';
  if (!os) {
    std::fprintf(stderr, "load_serve: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("load_serve: wrote %s\n", out.c_str());

  // Sanity: any failed job is a harness failure; overload levels (>1x) must
  // actually exercise load shedding — but only when the offered excess
  // (jobs arriving faster than they drain, ~ jobs*(m-1)/m) can overflow the
  // queue at all. Small sweeps under heavy instrumentation (the TSan smoke)
  // stay below that line unless --queue is shrunk to match.
  for (const LevelResult& lr : results) {
    if (lr.failed > 0) return 1;
    const double excess =
        lr.offered * (lr.multiplier - 1.0) / std::max(lr.multiplier, 1.0);
    if (lr.multiplier > 1.5 && excess > static_cast<double>(queue) + workers &&
        lr.shed == 0) {
      std::fprintf(stderr,
                   "load_serve: expected shedding at %.1fx capacity\n",
                   lr.multiplier);
      return 1;
    }
  }
  return 0;
}
