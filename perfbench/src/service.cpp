// The plsimd workload, cold_jobs: one client thread on one connection in a
// closed loop against an in-process 1 shard x 1 worker service. Every
// response is checked after the timed phase; with tracing on, every job is
// also replayed call by call on the client thread. Also the probes of the
// service path and of the oblivious engine.

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "analyze/opt.hpp"
#include "common.hpp"
#include "engines/common.hpp"
#include "engines/engine.hpp"
#include "logic/value.hpp"
#include "netlist/generators.hpp"
#include "partition/algorithms.hpp"
#include "partition/partition.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "seq/golden.hpp"
#include "stim/stimulus.hpp"
#include "util/circuit_hash.hpp"

namespace pb {
namespace {

using plsim::JobRequest;
using plsim::JobResponse;

/// plsimd inside the benchmark process: 1 shard x 1 worker behind a Unix
/// socket, and the one client connection that loads it. Members destroy in
/// reverse order: the client hangs up, the server joins its connection
/// thread, then the service drains.
struct Daemon {
  plsim::Service service;
  plsim::UnixServer server;
  plsim::ServiceClient client;

  Daemon(std::size_t cache_capacity, const std::string& socket)
      : service(config(cache_capacity)), server(service, socket), client(socket) {}

  static plsim::ServiceConfig config(std::size_t cache_capacity) {
    plsim::ServiceConfig c;
    c.shards = 1;
    c.workers_per_shard = 1;
    c.plan_cache_capacity = cache_capacity;
    c.circuit_cache_capacity = cache_capacity;
    return c;
  }
};

/// The shape of every service job: 2 blocks, 6 stimulus cycles at
/// activity 0.25, period 10.
constexpr std::uint32_t kBlocks = 2;
constexpr std::size_t kCycles = 6;
constexpr std::uint64_t kPeriod = 10;

/// A plsim-job-v1 request for a `scaled` circuit of the shape above.
JobRequest scaled_job(std::int64_t id, std::size_t gates,
                      std::uint64_t circuit_seed, std::uint64_t stim_seed,
                      const char* engine) {
  JobRequest req;
  req.id = static_cast<std::uint64_t>(id);
  req.circuit.kind = plsim::CircuitSpec::Kind::Generator;
  req.circuit.generator = "scaled";
  req.circuit.gates = gates;
  req.circuit.seed = circuit_seed;
  req.stimulus.cycles = kCycles;
  req.stimulus.activity = 0.25;
  req.stimulus.seed = stim_seed;
  req.stimulus.period = kPeriod;
  req.engine = engine;
  req.blocks = kBlocks;
  return req;
}

/// One closed-loop round trip. With tracing on, records a client.roundtrip
/// span with server.queue and server.engine children taken from the
/// response's own timings. Returns the client-side latency in ms.
double round_trip(Daemon& d, const JobRequest& req, Tracer& tr,
                  JobResponse& resp) {
  const auto id = static_cast<std::int64_t>(req.id);
  const int rt = tr.begin("client.roundtrip", id);
  const std::uint64_t t0 = now_ns();
  resp = d.client.call(req);
  const std::uint64_t t1 = now_ns();
  tr.end(rt);
  // The service reports queue wait and engine time about itself; lay them
  // inside the round trip so its self time is the transport + protocol +
  // dispatch overhead.
  const auto q = static_cast<std::uint64_t>(resp.queue_seconds * 1e9);
  const auto e = static_cast<std::uint64_t>(resp.wall_seconds * 1e9);
  tr.add("server.queue", id, t0, t0 + q, rt);
  tr.add("server.engine", id, t0 + q, t0 + q + e, rt);
  return static_cast<double>(t1 - t0) * 1e-6;
}

constexpr int kSetups = 3;
/// Rounds of sync, conservative and timewarp jobs in the service probe.
constexpr int kProbeRounds = 3;
constexpr const char* kEngines[] = {"sync", "conservative", "timewarp"};
/// The replay span of each engine's run, in the order of kEngines.
constexpr const char* kEngineSpan[] = {"engines.sync", "engines.conservative",
                                       "engines.timewarp"};

/// A job's kind: its engine's index in kEngines (jobs name only these).
int engine_kind(const std::string& engine) {
  int k = 0;
  while (engine != kEngines[k]) ++k;
  return k;
}

std::uint64_t small_seed(std::uint64_t a, std::uint64_t b) {
  // Seeds travel as JSON numbers: keep them well inside 2^53.
  return (mix64(a, b) >> 33) + 1;
}

std::string finals_string(const std::vector<plsim::Logic4>& v) {
  std::string s;
  s.reserve(v.size());
  for (const plsim::Logic4 x : v) s.push_back(plsim::to_char(x));
  return s;
}

/// What the check needs of a response; the response itself is dropped.
struct Done {
  JobRequest req;
  bool ok = false;
  std::string error;
  std::uint64_t digest = 0, finals = 0;
};

/// Reference results outside the timed phase: the one-block batch
/// synchronous run at the same plan optimisation. The threaded engines'
/// waveform does not depend on the partition.
class Oracle {
 public:
  struct Ref {
    std::uint64_t digest = 0, finals = 0;
    std::uint64_t golden_evals = 0;  ///< of the job's circuit and stimulus
  };

  const Ref& reference(const JobRequest& req) {
    const auto key = std::make_pair(req.circuit.seed, req.stimulus.seed);
    if (auto it = refs_.find(key); it != refs_.end()) return it->second;
    const plsim::Circuit c = plsim::scaled_circuit(req.circuit.gates, req.circuit.seed);
    const plsim::Stimulus stim =
        plsim::random_stimulus(c, req.stimulus.cycles, req.stimulus.activity,
                               req.stimulus.seed, req.stimulus.period);
    plsim::EngineConfig cfg;
    cfg.plan_opt = req.plan_opt;
    const plsim::RunResult res =
        plsim::run_synchronous(c, stim, plsim::partition_round_robin(c, 1), cfg);
    return refs_[key] = Ref{res.wave.digest(), fnv1a(finals_string(res.final_values)),
                            plsim::simulate_golden(c, stim).stats.evaluations};
  }

 private:
  std::map<std::pair<std::uint64_t, std::uint64_t>, Ref> refs_;
};

/// Counts a replay yields that depend only on its job.
struct Replayed {
  double cut = 0.0;            ///< multilevel partition cut edges
  double gates_removed = 0.0;  ///< by optimize_circuit
  double barriers = 0.0;       ///< of the engine run
};

/// The calls Service::execute and the connection thread make for `req`, in
/// the same order, made directly on this thread. Then the two calls hidden
/// inside compile_rig and run_* are timed on their own: optimize_circuit
/// and instantiate_rig.
Replayed replay(const JobRequest& req, const JobResponse& resp, Tracer& tr) {
  const auto id = static_cast<std::int64_t>(req.id);
  const int kind = engine_kind(req.engine);
  const std::string payload = plsim::serialize_request(req);
  std::optional<plsim::Circuit> c;  // built inside the replay span
  plsim::Stimulus stim;
  plsim::Partition p;
  std::shared_ptr<const plsim::CompiledRig> rig;
  plsim::RunResult run;
  {
    Scope root(tr, "replay", id);
    {
      JobRequest parsed;
      JobResponse bad;
      Scope s(tr, "server.decode", id);
      plsim::parse_job_request(payload, parsed, bad);
    }
    {
      Scope s(tr, "netlist.build", id);
      c.emplace(plsim::scaled_circuit(req.circuit.gates, req.circuit.seed));
    }
    {
      Scope s(tr, "util.circuit_hash", id);
      plsim::circuit_hash(*c);
    }
    {
      Scope s(tr, "stim.random_stimulus", id);
      stim = plsim::random_stimulus(*c, req.stimulus.cycles, req.stimulus.activity,
                                    req.stimulus.seed, req.stimulus.period);
    }
    {
      Scope s(tr, "partition.multilevel", id);
      p = plsim::partition_multilevel(*c, req.blocks, req.partition_seed);
    }
    {
      Scope s(tr, "engines.compile_rig", id);
      rig = std::make_shared<const plsim::CompiledRig>(
          plsim::compile_rig(*c, p, stim.period, req.plan_opt, {}));
    }
    {
      plsim::EngineConfig cfg;
      cfg.plan_opt = req.plan_opt;
      cfg.compiled = rig;
      Scope s(tr, kEngineSpan[kind], id);
      if (kind == 0) {
        cfg.time_buckets = req.time_buckets;
        run = plsim::run_synchronous(*c, stim, rig->source, cfg);
      } else if (kind == 1) {
        cfg.adaptive_lookahead = req.adaptive_lookahead;
        run = plsim::run_conservative(*c, stim, rig->source, cfg);
      } else {
        cfg.lazy_cancellation = req.lazy_cancellation;
        run = plsim::run_timewarp(*c, stim, rig->source, cfg);
      }
    }
    Scope s(tr, "server.encode", id);
    plsim::serialize_response(resp);
  }
  Replayed out;
  {
    plsim::OptOptions oo;
    oo.level = req.plan_opt;
    oo.clock_period = stim.period;
    Scope s(tr, "analyze.optimize", id);
    const plsim::OptStats st = plsim::optimize_circuit(*c, oo).stats;
    out.gates_removed = static_cast<double>(st.gates_before - st.gates_after);
  }
  {
    plsim::BlockOptions bo;
    bo.clock_period = stim.period;
    bo.horizon = stim.horizon();
    Scope s(tr, "engines.instantiate_rig", id);
    plsim::instantiate_rig(*c, stim, *rig, bo);
  }
  out.cut = static_cast<double>(plsim::evaluate_partition(*c, p).cut_edges);
  out.barriers = static_cast<double>(run.stats.barriers);
  return out;
}

/// The exact counts come from the first replayed sync job. The job list and
/// the alternation of untraced and traced jobs are fixed, so that is the
/// same job on every run with one seed.
void note_exact_counts(const JobRequest& req, const Replayed& rp, Report& r) {
  if (req.engine != "sync" || r.layer.count("engines.sync_barriers")) return;
  r.layer["partition.cut"] = rp.cut;
  r.layer["analyze.gates_removed"] = rp.gates_removed;
  r.layer["engines.sync_barriers"] = rp.barriers;
}

/// Keep what the check needs, and the engine counters that vary with
/// thread timing when `sample` is set.
void record(Report& r, std::vector<Done>& done, const JobRequest& req,
            const JobResponse& resp, bool sample) {
  ++r.attempted;
  Done d{req, resp.ok, resp.error, resp.wave_digest, fnv1a(resp.final_values)};
  if (resp.ok && resp.id != req.id) {
    d.ok = false;
    d.error = "response id does not match request id";
  }
  done.push_back(std::move(d));
  if (!sample || !resp.ok) return;
  const auto stat = [&](const char* k) {
    const plsim::JsonValue* v = resp.metrics.find(k);
    return v ? v->as_double(0.0) : 0.0;
  };
  if (req.engine == "timewarp")
    r.tw_samples.push_back({static_cast<std::int64_t>(req.id),
                            stat("stats.rollbacks"), stat("stats.evaluations")});
  else if (req.engine == "conservative")
    r.cons_null_messages.push_back(stat("stats.null_messages"));
}

/// One round trip; a transport failure counts as a failed job. Returns the
/// client-side latency in ms, or nullopt on a transport failure.
std::optional<double> send(Daemon& d, const JobRequest& req, Tracer& tr, Report& r,
                           std::vector<Done>& done, bool sample, JobResponse& resp) {
  double ms = 0.0;
  try {
    ms = round_trip(d, req, tr, resp);
  } catch (const std::exception& e) {
    ++r.attempted;
    r.fail("job " + std::to_string(req.id) + ": transport: " + e.what());
    return std::nullopt;
  }
  record(r, done, req, resp, sample);
  return ms;
}

/// Check every job against the oracle and fill the golden evaluation
/// counts.
void check(const std::vector<Done>& done, Report& r) {
  Oracle oracle;
  for (const Done& d : done) {
    const auto id = static_cast<std::int64_t>(d.req.id);
    if (!d.ok) {
      r.fail("job " + std::to_string(id) + " (" + d.req.engine + "): " + d.error);
      continue;
    }
    const Oracle::Ref& ref = oracle.reference(d.req);
    if (ref.digest != d.digest || ref.finals != d.finals)
      r.fail("job " + std::to_string(id) + " (" + d.req.engine +
             "): result differs from the reference");
    r.golden_evals[id] = ref.golden_evals;
  }
}

/// Deltas of the service's plan-cache counters between two snapshots.
void plan_cache_metrics(const plsim::ServiceMetrics& m0,
                        const plsim::ServiceMetrics& m1, Report& r) {
  const auto delta = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  const double hits = delta(m0.plan_cache.hits, m1.plan_cache.hits);
  const double looked = hits + delta(m0.plan_cache.misses, m1.plan_cache.misses) +
                        delta(m0.plan_cache.joined, m1.plan_cache.joined);
  r.layer["server.plan_hit_ratio"] = looked > 0 ? hits / looked : 0.0;
  r.layer["server.plan_compiles"] = delta(m0.plan_cache.misses, m1.plan_cache.misses);
  r.layer["server.plan_evictions"] =
      delta(m0.plan_cache.evictions, m1.plan_cache.evictions);
}

}  // namespace

// cold_jobs: every job names a 6000-gate circuit not seen before in the run,
// engines rotate sync -> conservative -> timewarp, the plan cache (capacity
// 8) misses on every job and evicts.
void run_cold_jobs(const Args& a, Tracer& tr, Report& r) {
  constexpr std::size_t kGates = 6000, kWarmup = 8;
  static Tracer off(false);
  const std::uint64_t base = 1 + (mix64(a.seed, 1) >> 44) * 1'000'000;
  const auto jobs = [&](std::size_t i) {
    return scaled_job(static_cast<std::int64_t>(i), kGates, base + i,
                      small_seed(a.seed, i), kEngines[i % 3]);
  };
  std::vector<Done> done;
  std::unique_ptr<Daemon> d;
  std::vector<double> setup_secs;
  for (int rep = 0; rep < kSetups; ++rep) {
    d.reset();
    const std::uint64_t t0 = now_ns();
    d = std::make_unique<Daemon>(8, a.socket);
    for (std::size_t i = 0; i < kWarmup; ++i) {
      JobResponse resp;
      send(*d, jobs(i), off, r, done, false, resp);
    }
    setup_secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  r.setup_s = median(setup_secs);

  std::size_t next = kWarmup;
  const plsim::ServiceMetrics m0 = d->service.metrics();
  timed_phase(a, tr, r, [&](bool traced) -> std::optional<JobSample> {
    const JobRequest req = jobs(next++);
    JobResponse resp;
    const std::optional<double> ms = send(*d, req, traced ? tr : off, r, done, true, resp);
    if (!ms) return std::nullopt;
    double cost = *ms;
    if (a.trace) {
      // Untraced jobs are replayed too, without spans: the reference for
      // the tracing overhead.
      const std::uint64_t t0 = now_ns();
      const Replayed rp = replay(req, resp, traced ? tr : off);
      cost += static_cast<double>(now_ns() - t0) * 1e-6;
      if (traced) note_exact_counts(req, rp, r);
    }
    return JobSample{static_cast<std::int64_t>(req.id), engine_kind(req.engine), *ms, cost};
  });
  plan_cache_metrics(m0, d->service.metrics(), r);
  d.reset();
  check(done, r);
  if (a.trace) {
    ProbeInput in;
    in.gates = kGates;
    in.circuit_seed = base;
    in.stim_seed = small_seed(a.seed, 0);
    probe_oblivious(in, tr, r);
    probe_vp(in, tr, r);
  }
}

void probe_service(const ProbeInput& in, const std::string& socket, Tracer& tr,
                   Report& r) {
  tr.set_phase(Phase::Probe);
  std::vector<Done> done;
  {
    Daemon d(8, socket);
    const plsim::ServiceMetrics m0 = d.service.metrics();
    std::int64_t id = kProbeJob;
    for (int round = 0; round < kProbeRounds; ++round)
      for (const char* engine : kEngines) {
        const JobRequest req =
            scaled_job(id++, in.gates, in.circuit_seed, in.stim_seed, engine);
        JobResponse resp;
        if (!send(d, req, tr, r, done, true, resp)) break;
        note_exact_counts(req, replay(req, resp, tr), r);
      }
    plan_cache_metrics(m0, d.service.metrics(), r);
  }
  check(done, r);
  probe_oblivious(in, tr, r);
}

void probe_oblivious(const ProbeInput& in, Tracer& tr, Report& r) {
  tr.set_phase(Phase::Probe);
  const plsim::Circuit c = plsim::scaled_circuit(in.gates, in.circuit_seed);
  const plsim::Stimulus stim =
      plsim::random_stimulus(c, kCycles, 0.25, in.stim_seed, kPeriod);
  const plsim::Partition p = plsim::partition_round_robin(c, kBlocks);
  plsim::EngineConfig cfg;
  cfg.packed_plane = true;
  plsim::RunResult packed;
  {
    Scope s(tr, "engines.oblivious_packed", -1);
    packed = plsim::run_oblivious_parallel(c, stim, p, cfg);
  }
  // Checked against the scalar oblivious sweep.
  cfg.packed_plane = false;
  const plsim::RunResult scalar = plsim::run_oblivious_parallel(c, stim, p, cfg);
  ++r.attempted;
  if (packed.wave.digest() != scalar.wave.digest() ||
      packed.final_values != scalar.final_values)
    r.fail("packed oblivious probe: result differs from the scalar sweep");
  tr.set_phase(Phase::Setup);
}

}  // namespace pb
