// serve_mix: served jobs. An in-process Server (2 workers, fresh artifact
// cache, the search runner registered) driven by a closed loop of 2 client
// connections over loopback. Each round submits six baseline flow jobs (no
// DCO) over several design kinds at 2 and 3 tiers — each once cache-cold and
// once more as a cache-warm resubmit — then one small search job.

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <thread>

#include "checks.hpp"
#include "flow/server.hpp"
#include "flow/stage.hpp"
#include "place/placer3d.hpp"
#include "search/serve_search.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dco3d;

namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr double kScale = 0.02;
constexpr int kGrid = 16;
constexpr double kClockPs = 250.0;

struct FlowJobSpec {
  const char* kind;
  int tiers;
};
// Six distinct designs per round; macroheavy is the macro-blockage scenario.
const FlowJobSpec kFlowJobs[] = {{"dma", 2},        {"aes", 3},
                                 {"ldpc", 2},       {"macroheavy", 3},
                                 {"memlogic", 2},   {"ecg", 3}};
constexpr int kNumFlowJobs = 6;
const FlowJobSpec kWarmupJob = {"vga", 2};
// Each flow job fresh and warm, plus the search job.
constexpr double kJobsPerRound = 2 * kNumFlowJobs + 1;

/// One submission as the client saw it.
struct Submission {
  enum Kind { kFresh, kWarm, kSearch } kind = kFresh;
  int round = 0, job = 0;
  std::uint64_t seed = 1;
  double client_ms = 0.0;
  JobReport done;
  std::vector<std::pair<std::string, double>> stages;  // streamed stage wall_ms
  std::vector<double> full_objectives;                 // search: usable full evals
  std::string error;
};

/// Design seed of flow job `job` in round `round` (search: job kNumFlowJobs).
/// Fixed per round, so every run submits the same designs; each round's
/// are distinct, so its fresh jobs are cache-cold.
std::uint64_t job_seed(int round, int job) {
  return 1 + static_cast<std::uint64_t>(round) * (kNumFlowJobs + 1) +
         static_cast<std::uint64_t>(job);
}

/// The workload seed's part: the order in which the clients take a round's
/// flow jobs.
std::vector<int> job_order(std::uint64_t seed, int round) {
  std::vector<int> order(kNumFlowJobs);
  for (int j = 0; j < kNumFlowJobs; ++j) order[static_cast<std::size_t>(j)] = j;
  Rng rng(mix_seed(seed, static_cast<std::uint64_t>(round)));
  rng.shuffle(order);
  return order;
}

std::string flow_request(const FlowJobSpec& j, std::uint64_t seed) {
  return util::JsonWriter()
      .field("cmd", "submit")
      .field("kind", j.kind)
      .field("scale", kScale)
      .field("grid", kGrid)
      .field("tiers", j.tiers)
      .field("clock_ps", kClockPs)
      .field("seed", static_cast<std::uint64_t>(seed))
      .field("wait", true)
      .done();
}

std::string search_request(std::uint64_t seed) {
  return util::JsonWriter()
      .field("cmd", "submit")
      .field("type", "search")
      .field("kind", "dma")
      .field("scale", kScale)
      .field("grid", kGrid)
      .field("tiers", 2)
      .field("clock_ps", kClockPs)
      .field("seed", static_cast<std::uint64_t>(seed))
      .field("rounds", 1)
      .field("batch", 2)
      .field("init", 2)
      .field("candidates", 32)
      .field("promote", 0.5)
      .field("search_seed", static_cast<std::uint64_t>(seed))
      .field("wait", true)
      .done();
}

/// The payload after "trace": of a streamed event (without the outer '}').
std::string inner_trace(const std::string& line) {
  const std::size_t p = line.find("\"trace\":");
  if (p == std::string::npos || line.size() < p + 9) return "";
  return line.substr(p + 8, line.size() - 1 - (p + 8));
}

/// First "key":<string> in a JSON text (flat lookup, enough for the
/// stage-trace payload whose nested objects come after these keys).
std::string find_str(const std::string& s, const std::string& key) {
  const std::string pat = "\"" + key + "\":\"";
  const std::size_t p = s.find(pat);
  if (p == std::string::npos) return "";
  const std::size_t b = p + pat.size();
  return s.substr(b, s.find('"', b) - b);
}

double find_num(const std::string& s, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const std::size_t p = s.find(pat);
  if (p == std::string::npos) return std::nan("");
  return std::strtod(s.c_str() + p + pat.size(), nullptr);
}

/// A client connection whose reads give up after 150 s, so a hung server
/// ends the run with an error instead of outliving the benchmark's limit.
util::Fd connect_client(int port) {
  util::Fd fd = util::connect_local(port);
  util::set_recv_timeout(fd.get(), 150000);
  return fd;
}

/// Submit one job on an open connection and read its stream to the end.
void submit(int fd, util::LineReader& reader, const std::string& request,
            Submission& sub) {
  const auto t0 = Clock::now();
  if (!util::send_line(fd, request)) {
    sub.error = "send failed";
    return;
  }
  std::string line;
  while (reader.read_line(line)) {
    const std::string event = find_str(line, "event");
    if (event == "done") {
      sub.client_ms = ms_since(t0);
      std::string err;
      if (!parse_done_event(line, sub.done, err)) sub.error = err;
      return;
    }
    const std::string inner = inner_trace(line);
    if (event == "stage") {
      sub.stages.emplace_back(find_str(inner, "stage"), find_num(inner, "wall_ms"));
    } else if (event == "eval" || event == "round") {
      util::JsonObject o;
      if (event == "eval" && util::parse_json_object(inner, o).ok() &&
          util::json_str(o, "fidelity") == "full" &&
          util::json_bool(o, "usable"))
        sub.full_objectives.push_back(util::json_num(o, "objective"));
    } else if (line.find("\"ok\":false") != std::string::npos) {
      sub.error = "rejected: " + line;
      return;
    }
  }
  sub.error = "connection closed before the done event";
}

/// One client's part of a round: it takes the next flow job of the round's
/// order whenever its previous one is done, and submits it fresh, then its
/// warm resubmit. Taking jobs as they come (rather than a fixed share)
/// keeps the round's makespan from hanging on how the order splits the
/// jobs between the clients.
void run_client(int port, int round, const std::vector<int>& order,
                std::atomic<int>& next, std::vector<Submission>& out) {
  util::Fd fd = connect_client(port);
  util::LineReader reader(fd.get());
  for (int k; (k = next.fetch_add(1)) < kNumFlowJobs;) {
    const int j = order[static_cast<std::size_t>(k)];
    const std::uint64_t seed = job_seed(round, j);
    const std::string req = flow_request(kFlowJobs[j], seed);
    for (Submission::Kind kind : {Submission::kFresh, Submission::kWarm}) {
      Submission sub;
      sub.kind = kind;
      sub.round = round;
      sub.job = j;
      sub.seed = seed;
      submit(fd.get(), reader, req, sub);
      out.push_back(std::move(sub));
    }
  }
}

/// A round's search job, submitted on its own after the flow jobs, so its
/// time does not depend on which flow jobs it would overlap.
Submission run_search(int port, int round) {
  Submission sub;
  sub.kind = Submission::kSearch;
  sub.round = round;
  sub.seed = job_seed(round, kNumFlowJobs);
  try {
    util::Fd fd = connect_client(port);
    util::LineReader reader(fd.get());
    submit(fd.get(), reader, search_request(sub.seed), sub);
  } catch (const std::exception& e) {
    sub.error = std::string("client: ") + e.what();
  }
  return sub;
}

/// The server's flow-job glue, run directly in-process with no server and
/// no cache (the reference for the direct-run check).
struct DirectRun {
  Netlist design;
  FlowConfig cfg;
  FlowResult res;
};

DirectRun direct_run(const FlowJobSpec& j, std::uint64_t seed, Tracer& tr) {
  Scoped root(tr, "direct_run");
  DirectRun d;
  Status err;
  DesignSpec spec = spec_for(parse_serve_kind(j.kind, err), kScale);
  spec.seed = seed;
  spec.clock_period_ps = kClockPs;
  d.design = generate_design(spec);
  d.cfg.grid_nx = d.cfg.grid_ny = kGrid;
  d.cfg.num_tiers = j.tiers;
  d.cfg.seed = spec.seed;
  {
    Scoped s(tr, "flow.calibrate");
    const Placement3D ref = place_pseudo3d(d.design, d.cfg.place_params,
                                           d.cfg.seed, true, d.cfg.num_tiers);
    d.cfg.router = calibrated_router(d.design, ref, kGrid, kCalibPercentile);
  }
  FlowContext ctx = make_flow_context(d.design, d.cfg);
  ctx.design_name = spec.name;
  d.res = pin3d_pipeline().run(ctx);
  return d;
}

}  // namespace

RunResult run_serve_mix(const Options& opt, Tracer& tr, Metrics& m) {
  RunResult rr;
  // --- Set-up: a fresh cache directory and a started server.
  const std::string cache_dir = opt.out_dir + "/serve-cache-" +
                                std::to_string(opt.seed) + "-" +
                                std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);
  std::filesystem::create_directories(cache_dir, ec);
  std::unique_ptr<Server> server;
  {
    Scoped s(tr, "setup");
    ServerConfig sc;
    sc.workers = kWorkers;
    sc.queue_depth = 8;
    sc.cache_dir = cache_dir;
    sc.runners["search"] = make_search_job_runner();
    server = std::make_unique<Server>(sc);
    server->start();
    // One warm-up job outside the mix (a design kind no round submits), so
    // the timed rounds see a resident server, not a cold process.
    util::Fd fd = connect_client(server->port());
    util::LineReader reader(fd.get());
    Submission warmup;
    submit(fd.get(), reader, flow_request(kWarmupJob, 1), warmup);
    if (!warmup.error.empty() || warmup.done.state != "done")
      throw StatusError(Status::internal("serve_mix: warm-up job failed: " +
                                         warmup.error + warmup.done.state));
  }
  const double setup_s = seconds_since_spawn(opt);

  // --- Timed: whole rounds while the run's time allows (at least one).
  const UtilDelta util0;
  std::vector<Submission> subs;
  std::vector<double> round_s;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  for (int round = 0;; ++round) {
    const auto r0 = Clock::now();
    const std::vector<int> order = job_order(opt.seed, round);
    std::vector<std::vector<Submission>> per_client(kClients);
    std::atomic<int> next{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<Submission>& mine = per_client[static_cast<std::size_t>(c)];
        try {
          run_client(server->port(), round, order, next, mine);
        } catch (const std::exception& e) {
          Submission failed;
          failed.round = round;
          failed.error = std::string("client: ") + e.what();
          mine.push_back(std::move(failed));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (auto& v : per_client)
      for (Submission& s : v) subs.push_back(std::move(s));
    subs.push_back(run_search(server->port(), round));
    round_s.push_back(ms_since(r0) * 1e-3);
    if (ms_since(t0) * 1e-3 + median(round_s) > opt.seconds) break;
  }
  Metrics util_m;
  util0.report(util_m);
  const double cpu_s = process_cpu_s() - cpu0;
  server->request_drain();
  server->wait();
  server.reset();
  std::filesystem::remove_all(cache_dir, ec);

  // --- Checks.
  rr.attempted = static_cast<std::int64_t>(subs.size());
  const int num_stages = static_cast<int>(pin3d_pipeline().stages().size());
  std::map<std::pair<int, int>, const Submission*> fresh_of;
  for (const Submission& s : subs) {
    const std::string failure = s.error.empty()
                                    ? check_job_done(s.done)
                                    : "serve: job submission failed: " + s.error;
    if (!failure.empty()) ++rr.failed;
    rr.check(failure);
    if (!s.error.empty()) continue;
    if (s.kind == Submission::kFresh) fresh_of[{s.round, s.job}] = &s;
  }
  for (const Submission& s : subs) {
    if (s.kind == Submission::kWarm && s.error.empty()) {
      const auto it = fresh_of.find({s.round, s.job});
      if (it != fresh_of.end())
        rr.check(check_warm_matches(it->second->done, s.done, num_stages));
    }
    if (s.kind == Submission::kSearch && s.error.empty())
      rr.check(check_search_objective(s.done, s.full_objectives));
  }
  const auto first_fresh = fresh_of.find({0, 0});
  DirectRun direct;
  {
    Scoped s(tr, "checks");
    direct = direct_run(kFlowJobs[0], job_seed(0, 0), tr);
    if (first_fresh == fresh_of.end())
      rr.check("serve: the first fresh job is missing");
    else
      rr.check(check_direct_matches(first_fresh->second->done,
                                    direct.res.signoff));
  }

  // --- Metrics.
  std::vector<double> fresh_ms, warm_ms, search_ms, queue_ms, run_fresh,
      run_warm;
  double overflow0 = 0.0;
  int stages_cached = 0, stages_total = 0;
  std::map<std::string, std::vector<double>> stage_ms;
  const Submission* search0 = nullptr;
  for (const Submission& s : subs) {
    if (!s.error.empty()) continue;
    queue_ms.push_back(s.client_ms - s.done.wall_ms);
    switch (s.kind) {
      case Submission::kFresh:
        fresh_ms.push_back(s.client_ms);
        run_fresh.push_back(s.done.wall_ms);
        if (s.round == 0) overflow0 += s.done.overflow;
        for (const auto& [name, ms] : s.stages) stage_ms[name].push_back(ms);
        break;
      case Submission::kWarm:
        warm_ms.push_back(s.client_ms);
        run_warm.push_back(s.done.wall_ms);
        break;
      case Submission::kSearch:
        search_ms.push_back(s.client_ms * 1e-3);
        if (s.round == 0) search0 = &s;
        break;
    }
    if (s.kind != Submission::kSearch) {
      stages_cached += s.done.stages_cached;
      stages_total += s.done.stages_cached + s.done.stages_run;
    }
  }
  m.set("setup_s", setup_s, "s");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  rr.details.set("op_cpu_s", cpu_s / static_cast<double>(round_s.size()), "s");
  // A round's makespan, median over the rounds.
  m.set("op_s", median(round_s), "s");
  m.set("qor", overflow0, "qor");
  rr.details.set("baseline_overflow", overflow0, "overflow");
  rr.details.set("serve_jobs_per_s", kJobsPerRound / median(round_s), "1/s");
  rr.details.set("serve_fresh_job_ms", median(fresh_ms), "ms");
  rr.details.set("serve_warm_job_ms", median(warm_ms), "ms");
  rr.details.set("search_job_s", median(search_ms), "s");
  if (!opt.trace) return rr;

  m.set("flow.cache.stage_hit_ratio",
        stages_total ? static_cast<double>(stages_cached) / stages_total : 0.0,
        "ratio");
  if (search0) {
    m.set("search.rounds", search0->done.rounds, "count");
    m.set("search.cheap_evals", search0->done.cheap_evals, "count");
    m.set("search.full_evals", search0->done.full_evals, "count");
  }
  for (const auto& [k, v] : util_m.items()) m.set(k, v.first, v.second);
  rr.details.set("flow.serve.queue_wait_ms", median(queue_ms), "ms");
  rr.details.set("flow.serve.run_fresh_ms", median(run_fresh), "ms");
  rr.details.set("flow.serve.run_warm_ms", median(run_warm), "ms");
  for (const auto& [name, v] : stage_ms)
    rr.details.set("flow.serve.stage." + name + "_ms", median(v), "ms");

  // Layer replays on round 0's first job (the direct run's design and
  // calibrated config), with a small predictor trained for that design.
  Predictor pred;
  {
    Scoped s(tr, "replay.predictor");
    pred = small_predictor(direct.design, direct.cfg);
  }
  LayerInputs in;
  in.design = &direct.design;
  in.cfg = direct.cfg;
  in.predictor = &pred;
  replay_layers(in, tr, m);
  return rr;
}

}  // namespace perfbench
