#pragma once
// Shared pieces of the plsim performance benchmark: the in-memory span
// recorder, host probes (clock, CPU time, peak RSS, calibration loop), the
// per-run result every workload fills, and the layer probes.
//
// Spans are recorded only from this benchmark's own files, around each call
// it makes into a plsim layer. The untraced run constructs a disabled Tracer,
// so every Scope is a branch on a bool.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace pb {

std::uint64_t now_ns();
double cpu_seconds();   ///< process user+system time, all threads
double peak_rss_mb();   ///< process high-water resident set
/// Fixed reference loop that uses no plsim code: median of five timed
/// repetitions, in ms. A slow host period shows as a larger value.
double calib_ms();

std::uint64_t mix64(std::uint64_t a, std::uint64_t b);  ///< seed derivation
/// 64-bit FNV-1a of a byte string (final-value strings of responses).
std::uint64_t fnv1a(const std::string& s);

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p);

enum class Phase : std::uint8_t { Setup, Timed, Probe };
const char* phase_name(Phase p);

/// First job id of the layer probes' spans, and of vp_fig1's set-up points
/// (never a timed job id).
inline constexpr std::int64_t kProbeJob = 1'000'000'000;
inline constexpr std::int64_t kSetupJob = 2'000'000'000;

struct Span {
  const char* name;
  std::uint64_t start_ns, end_ns;
  std::int32_t parent;  ///< index into the span list, -1 for a root
  std::int64_t job;     ///< -1 outside any job
  Phase phase;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  void set_phase(Phase p) { phase_ = p; }

  /// Open a span under the innermost open one; -1 when tracing is off.
  int begin(const char* name, std::int64_t job);
  void end(int idx);
  /// Record an already-measured child interval of span `parent` (used for
  /// the queue/engine split a service response reports about itself).
  void add(const char* name, std::int64_t job, std::uint64_t start,
           std::uint64_t end, int parent);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  Phase phase_ = Phase::Setup;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, std::int64_t job)
      : t_(t), idx_(t.begin(name, job)) {}
  ~Scope() { t_.end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string socket = "plsim-bench.sock";
};

/// What one workload run hands back to main().
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log

  double setup_s = 0.0;              ///< median over the repeated set-ups
  // Untraced jobs of the timed phase: one entry per job, and slice
  // boundaries.
  std::vector<double> latency_ms;
  std::vector<int> latency_kind;     ///< job kind of each latency sample
  std::vector<double> cost_ms;       ///< client-thread wall time of each job
  std::vector<std::int64_t> timed_ids;
  struct Mark {
    double t_s, cpu_s;     ///< since the phase began; process CPU time
    std::size_t jobs;      ///< untraced jobs completed before this boundary
  };
  std::vector<Mark> marks;  ///< kSlices + 1 boundaries
  double rss_mb = 0.0;
  double calib_before_ms = 0.0, calib_after_ms = 0.0;

  // Traced run only: the jobs with spans recorded.
  std::vector<double> traced_latency_ms;
  std::vector<int> traced_kind;
  std::vector<double> traced_cost_ms;
  /// Golden evaluation count per job id (probe included), the denominator
  /// of every ns_per_eval layer metric.
  std::unordered_map<std::int64_t, std::uint64_t> golden_evals;
  /// Layer metrics the workload measures directly (counts, ratios).
  std::map<std::string, double> layer;
  /// Engine counters that vary with thread timing, as the service reported
  /// them for each Time Warp and conservative job.
  struct TwSample {
    std::int64_t job;
    double rollbacks, evaluations;
  };
  std::vector<TwSample> tw_samples;
  std::vector<double> cons_null_messages;

  void fail(std::string what);
};

/// The untraced timed phase is cut into this many equal slices; the
/// end-to-end rates and p50 are medians over slices, so a short slow host
/// period moves one slice, not the run.
inline constexpr std::size_t kSlices = 5;

struct JobSample {
  std::int64_t id;
  int kind;        ///< job kind, for the per-kind tracing overhead
  double ms;       ///< client-side latency
  double cost_ms;  ///< all the job's work on the client thread (latency + replay)
};

/// Run the timed phase: calibration, then `job(traced)` in a closed loop
/// for a.seconds, then calibration again and the peak RSS. With tracing on,
/// jobs alternate untraced and traced, so host drift over the phase falls
/// on both halves alike; the untraced jobs are the reference for the
/// tracing overhead. `job` returns nullopt to stop early (the connection
/// failed).
void timed_phase(const Args& a, Tracer& tr, Report& r,
                 const std::function<std::optional<JobSample>(bool traced)>& job);

/// Workloads. Each fills `r` and records its spans into `tr`.
void run_cold_jobs(const Args& a, Tracer& tr, Report& r);
void run_vp_fig1(const Args& a, Tracer& tr, Report& r);

/// Layer probes, called in traced runs after the timed phase and its checks.
/// Each workload calls on one fixed circuit of its own family the layers its
/// timed phase does not call, so every per-layer metric has a measured
/// figure on every workload.
struct ProbeInput {
  std::size_t gates = 2000;
  std::uint64_t circuit_seed = 1;
  std::uint64_t stim_seed = 1;
};

/// The service path (for vp_fig1): rounds of sync, conservative and timewarp
/// jobs through an in-process plsimd, each round trip replayed call by call.
/// The jobs are checked like timed service jobs.
void probe_service(const ProbeInput& in, const std::string& socket, Tracer& tr,
                   Report& r);
/// The packed-plane oblivious engine, which no workload's jobs run, checked
/// against the scalar sweep.
void probe_oblivious(const ProbeInput& in, Tracer& tr, Report& r);
/// One Figure-1 point, built as vp_fig1 builds its points, through the
/// sequential cost model and the four VP executors (for cold_jobs). Records
/// the vp.* exact counts and checks each executor against golden.
void probe_vp(const ProbeInput& in, Tracer& tr, Report& r);

}  // namespace pb
