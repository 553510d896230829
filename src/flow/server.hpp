#pragma once
// DCO-as-a-service: a resident optimization server. Clients submit flow jobs
// over a loopback TCP socket speaking a line-delimited JSON protocol
// (docs/serve.md); the server schedules them across a fixed set of worker
// lanes through a bounded priority job queue with explicit admission control
// (excess load is shed with a Retry-After-style backoff hint, never queued
// unboundedly), runs each job through the stage-graph pipeline with a
// per-job wall-clock deadline that early-commits partial results instead of
// dying, shares one byte-budgeted content-addressed artifact cache across
// all jobs (idempotent resubmissions skip straight to the divergent stage),
// and streams StageTrace events back to waiting clients as progress.
//
// Robustness contract:
//   * a failed/diverged job is isolated — its Status lands in the job
//     record, the queue and the server keep running;
//   * drain (the `drain` command, or SIGINT/SIGTERM via request_drain)
//     stops admission, rejects still-queued jobs with a retriable
//     kUnavailable status, lets in-flight jobs finish or early-commit,
//     then shuts every connection and thread down cleanly;
//   * every worker lane is an util::InlineLane, so concurrent jobs never
//     re-enter the shared kernel pool and each job's numbers stay
//     bit-identical to a serial run.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "flow/cache.hpp"
#include "flow/jobqueue.hpp"
#include "flow/stage.hpp"
#include "netlist/generators.hpp"
#include "util/jsonl.hpp"
#include "util/socket.hpp"
#include "util/status.hpp"

namespace dco3d {

inline constexpr const char* kServeProtocol = "dco3d-serve-v1";
inline constexpr int kDefaultServePort = 40223;

/// Job lifecycle. Terminal states from kDone on; kShed/kRejected carry a
/// retriable kUnavailable status (the client should back off and resubmit).
enum class JobState {
  kQueued,
  kRunning,
  kDone,         // all requested stages completed
  kEarlyCommit,  // deadline hit — partial results committed
  kFailed,       // the flow threw; Status says why; server unaffected
  kShed,         // not admitted (queue full) — retriable
  kCancelled,    // cancelled by the client
  kRejected,     // was queued when the server drained — retriable
};
const char* job_state_name(JobState s);
bool job_state_terminal(JobState s);
bool job_state_retriable(JobState s);

/// What a client submits (all fields have protocol defaults; docs/serve.md).
struct ServeJobSpec {
  std::string type = "flow";  // "flow" (built in) or a registered job type
  std::string kind = "dma";   // generator design kind
  double scale = 0.02;
  int grid = 16;
  int tiers = 2;             // stacked dies; 2 = classic two-die flow
  double clock_ps = 250.0;
  std::uint64_t seed = 1;
  std::string stop_after;    // empty = full pipeline
  double deadline_ms = 0.0;  // 0 = server default
  int priority = 0;          // higher runs first
  bool use_cache = true;     // share the artifact cache
};

/// The design and flow configuration a generated job runs on.
struct ServeJobSetup {
  std::string name;  // generator design name (labels traces and contexts)
  Netlist design;
  FlowConfig cfg;    // grid, tiers, seed and the calibrated router
};

/// Build a generated job from its spec: generate the design (seed 0 means
/// 1), then calibrate the router on the flow's own legalized reference at
/// `pctile`. The one setup path of served flow and search jobs and of
/// `dco3d search`, so the same spec gets the same cache keys on every path.
/// cfg.timing keeps its default: spec.clock_ps reaches only
/// DesignSpec::clock_period_ps, which the generator does not read. Throws
/// StatusError (kInvalidArgument) on an unknown kind.
ServeJobSetup build_serve_job(const ServeJobSpec& spec,
                              double pctile = kCalibrationPctile);

/// What a custom job runner (a non-"flow" job type) reports back; surfaced
/// through JobSnapshot and the status/done protocol events. The search job
/// type fills the objective/eval fields.
struct ServeRunOutcome {
  bool has_objective = false;
  double objective = 0.0;   // best objective found
  int rounds = 0;           // search rounds completed
  int cheap_evals = 0;
  int full_evals = 0;
  bool deadline_hit = false;  // runner early-committed on the job deadline
  bool cancelled = false;     // runner observed the cancel flag
};

/// Execution context handed to a custom job runner: the parsed spec, the raw
/// submit request (for type-specific knobs), the shared artifact cache, the
/// per-job guards, and an event sink streaming progress lines to waiting
/// clients (`kind` becomes the protocol "event" field, `inner_json` is
/// spliced as the "trace" payload — the StageTrace streaming convention).
struct ServeRunContext {
  const ServeJobSpec& spec;
  const util::JsonObject& request;
  ArtifactCache* cache = nullptr;
  const Deadline* deadline = nullptr;
  const std::atomic<bool>* cancel = nullptr;
  std::function<void(const std::string& kind, const std::string& inner_json)>
      emit;
};

/// A custom job type's implementation. Runs synchronously on a worker lane
/// (InlineLane — same bit-identity contract as flow jobs). A non-OK return
/// marks the job failed; cancellation/deadline are reported via the outcome.
using ServeJobRunner =
    std::function<Status(const ServeRunContext&, ServeRunOutcome&)>;

/// Immutable view of a job record (returned by Server::job / the status
/// command).
struct JobSnapshot {
  std::string id;
  JobState state = JobState::kQueued;
  Status status;     // why the job failed / was shed / was rejected
  std::string key;   // flow content key (once the job started)
  double wall_ms = 0.0;
  int last_stage = -1;
  int stages_run = 0;
  int stages_cached = 0;
  bool deadline_hit = false;
  double retry_after_ms = 0.0;  // backoff hint for retriable states
  // Headline metrics of the deepest measured stage (when available).
  double overflow = -1.0, wns_ps = 0.0, wirelength_um = 0.0;
  // Custom-runner outcome (search jobs: best objective + eval counts).
  std::string type = "flow";
  ServeRunOutcome outcome;
};

struct ServerConfig {
  int port = 0;               // 0 = ephemeral; Server::port() has the truth
  int workers = 2;            // concurrent job lanes
  std::size_t queue_depth = 8;
  double default_deadline_ms = 0.0;  // 0 = unlimited
  std::string cache_dir;             // empty = no artifact cache
  std::uint64_t cache_budget_bytes = 1ull << 30;  // generous default (1 GiB)
  int idle_timeout_ms = 30000;  // recv timeout on idle client connections
  std::size_t history = 256;    // finished job records kept for status
  // Custom job types beyond the built-in "flow" — e.g. the CLI installs
  // {"search", make_search_job_runner()} (src/search/serve_search.hpp).
  // Submissions with an unregistered type are rejected as invalid_argument.
  std::map<std::string, ServeJobRunner> runners;
};

struct ServerCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t early_commits = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t rejected = 0;
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();  // implies drain + full stop

  /// Bind, listen, spawn workers + listener. Throws StatusError
  /// (kUnavailable: port taken; kIoError otherwise).
  void start();
  int port() const { return port_; }
  bool stopped() const { return stopped_.load(); }

  /// Graceful stop: reject queued jobs (retriable), let running jobs finish
  /// or early-commit, then stop. Safe from any thread (the SIGINT/SIGTERM
  /// watcher calls this); idempotent. Returns once drain completed.
  void request_drain();

  /// Block until the server fully stopped (drain command, request_drain, or
  /// destructor) and all threads are joined.
  void wait();

  /// Direct (in-process) views for tests and the load harness.
  JobSnapshot job(const std::string& id) const;
  ServerCounters counters() const;
  JobQueueStats queue_stats() const;
  const ArtifactCache* cache() const { return cache_.get(); }

 private:
  struct Job;

  void accept_loop();
  void worker_loop();
  void conn_loop(int raw_fd);
  void run_job(Job& job);
  void finish_job(Job& job, JobState state, Status status);
  void update_counters(Job& job, JobState state);
  std::string do_drain();  // returns the summary response JSON
  void teardown();         // join/stop everything; idempotent

  std::shared_ptr<Job> find_job(const std::string& id) const;
  std::shared_ptr<Job> find_job_num(std::uint64_t num) const;
  JobSnapshot snapshot(const Job& job) const;

  // Protocol handlers (each returns the response line; submit may stream).
  std::string handle_submit(const util::JsonObject& req, int fd);
  std::string handle_status(const util::JsonObject& req) const;
  std::string handle_cancel(const util::JsonObject& req);
  void stream_job(int fd, Job& job);

  ServerConfig cfg_;
  util::Fd listen_fd_;
  util::Fd wake_rd_, wake_wr_;  // self-pipe: wakes the accept loop on stop
  int port_ = 0;
  std::unique_ptr<ArtifactCache> cache_;
  JobQueue queue_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> torn_down_{false};

  mutable std::mutex jobs_mu_;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::deque<std::uint64_t> finished_order_;  // history eviction order
  std::uint64_t next_job_ = 1;
  ServerCounters counters_;

  std::thread listener_;
  std::vector<std::thread> workers_;

  mutable std::mutex conns_mu_;
  std::vector<int> conn_fds_;
  int conn_count_ = 0;
  std::condition_variable conns_cv_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  std::mutex drain_mu_;  // serializes do_drain callers

  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace dco3d
