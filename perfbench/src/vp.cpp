// vp_fig1: a fixed subset of the Figure-1 size axis on the virtual platform,
// in-process and single-threaded: 3 sizes x 3 circuits, each running the
// sequential cost model and 4 executors. The 45 call kinds put p50 and p90
// inside one kind rather than between two. Set-up builds the circuits,
// their 8-way FM partitions and golden reference digests; the timed phase
// calls only the sequential cost model and the VP executors. Also the VP
// layer probe, one such point for the service workload.

#include "netlist/generators.hpp"
#include "partition/algorithms.hpp"
#include "partition/partition.hpp"
#include "seq/golden.hpp"
#include "stim/stimulus.hpp"
#include "vp/vp.hpp"
#include "common.hpp"

namespace pb {
namespace {

constexpr std::uint32_t kProcs = 8;
constexpr std::size_t kSizes[] = {2000, 5000, 10000};
/// Circuits per size: the run averages over several netlists of each size,
/// so one seed's circuit structure weighs less on the result.
constexpr std::size_t kCircuits = 3;
constexpr std::size_t kPoints = std::size(kSizes) * kCircuits;
constexpr int kSetups = 3;

enum Exec { kSeqCost, kSync, kCons, kTw, kHybrid, kExecs };
const char* const kSpan[kExecs] = {"vp.seqcost", "vp.sync", "vp.conservative",
                                   "vp.timewarp", "vp.hybrid"};

struct Point {
  plsim::Circuit circuit;
  std::size_t gates = 0;
  plsim::Stimulus stim;
  plsim::Partition part;
  std::uint64_t digest = 0;  ///< golden wave digest
  std::uint64_t evals = 0;   ///< golden evaluations
  std::uint64_t events = 0;  ///< golden wire events
};

/// One executor call's observable result. Every field is deterministic.
struct Outcome {
  double cost = 0.0;           ///< makespan, or sequential work
  std::uint64_t digest = 0;    ///< wave digest, or sequential events
  std::uint64_t rollbacks = 0, null_messages = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome call(const Point& pt, int e) {
  plsim::VpConfig cfg;  // the surveyed optimistic implementations: lazy
  cfg.lazy_cancellation = true;  // cancellation + incremental state saving
  if (e == kSeqCost) {
    const plsim::SequentialCost s = plsim::sequential_cost(pt.circuit, pt.stim, cfg.cost);
    return {s.work, s.events, 0, 0};
  }
  plsim::VpResult v;
  switch (e) {
    case kSync: v = plsim::run_sync_vp(pt.circuit, pt.stim, pt.part, cfg); break;
    case kCons: v = plsim::run_conservative_vp(pt.circuit, pt.stim, pt.part, cfg); break;
    case kTw: v = plsim::run_timewarp_vp(pt.circuit, pt.stim, pt.part, cfg); break;
    default: v = plsim::run_hybrid_vp(pt.circuit, pt.stim, pt.part, cfg); break;
  }
  return {v.makespan, v.wave_digest, v.stats.rollbacks, v.stats.null_messages};
}

/// The circuits are fixed, as in bench/fig1_speedup_vs_size: the first
/// kCircuits netlists of the scaled family at each size. The workload seed
/// draws only the stimulus. Per-seed netlists moved the run's total VP work
/// by +-12% (9 circuits), which would drown the changes this workload is for.
std::uint64_t circuit_seed(std::size_t point) { return 1 + point % kCircuits; }
std::uint64_t stim_seed(std::uint64_t seed, std::size_t point) {
  return (mix64(seed, 1000 + point) >> 33) + 1;
}

/// Build one Figure-1 point: circuit, 20 vectors at activity 0.25, 8-way FM
/// partition, golden reference. Its golden span is job `job`.
Point make_point(std::size_t gates, std::uint64_t cseed, std::uint64_t sseed,
                 std::int64_t job, Tracer& tr, Report& r) {
  Point pt{[&] {
    Scope s(tr, "netlist.build", job);
    return plsim::scaled_circuit(gates, cseed);
  }(), gates, {}, {}};
  {
    Scope s(tr, "stim.random_stimulus", job);
    pt.stim = plsim::random_stimulus(pt.circuit, 20, 0.25, sseed);
  }
  {
    Scope s(tr, "partition.fm", job);
    pt.part = plsim::partition_fm(pt.circuit, kProcs, 1);
  }
  plsim::RunResult g;
  {
    Scope s(tr, "seq.golden", job);
    g = plsim::simulate_golden(pt.circuit, pt.stim);
  }
  pt.digest = g.wave.digest();
  pt.evals = g.stats.evaluations;
  pt.events = g.stats.wire_events;
  r.golden_evals[job] = pt.evals;
  return pt;
}

/// Check one call of the first pass against golden (wave digest; the
/// sequential cost model's event count).
void check_golden(const Point& pt, int e, const Outcome& o, Report& r) {
  ++r.attempted;
  if (o.digest != (e == kSeqCost ? pt.events : pt.digest))
    r.fail(std::string(kSpan[e]) + " at " + std::to_string(pt.gates) +
           " gates: differs from golden");
}

/// The exact counts of one pass over some points: each point with its
/// executor results.
void exact_counts(const std::vector<std::pair<const Point*, const Outcome*>>& pass,
                  Report& r) {
  double makespans = 0.0, rollbacks = 0.0, nulls = 0.0, cut = 0.0;
  for (const auto& [pt, o] : pass) {
    for (int e = kSync; e < kExecs; ++e) makespans += o[e].cost;
    rollbacks += static_cast<double>(o[kTw].rollbacks);
    nulls += static_cast<double>(o[kCons].null_messages);
    cut += static_cast<double>(plsim::evaluate_partition(pt->circuit, pt->part).cut_edges);
  }
  r.layer["partition.fm_cut"] = cut;
  r.layer["vp.makespan_sum"] = makespans;
  r.layer["vp.timewarp_rollbacks"] = rollbacks;
  r.layer["vp.conservative_null_messages"] = nulls;
}

struct Sweep {
  std::vector<Point> points;
  Outcome expected[kPoints][kExecs];  ///< the warm-up pass's results
};

}  // namespace

void run_vp_fig1(const Args& a, Tracer& tr, Report& r) {
  std::vector<double> setup_secs;
  Sweep sw;
  for (int rep = 0; rep < kSetups; ++rep) {
    const std::uint64_t t0 = now_ns();
    sw = Sweep{};
    for (std::size_t p = 0; p < kPoints; ++p)
      sw.points.push_back(make_point(kSizes[p / kCircuits], circuit_seed(p),
                                     stim_seed(a.seed, p),
                                     kSetupJob + static_cast<std::int64_t>(p), tr, r));
    // Untimed warm-up pass: also the reference for every timed call.
    for (std::size_t p = 0; p < kPoints; ++p)
      for (int e = 0; e < kExecs; ++e) sw.expected[p][e] = call(sw.points[p], e);
    setup_secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  r.setup_s = median(setup_secs);

  std::vector<std::pair<const Point*, const Outcome*>> pass;
  for (std::size_t p = 0; p < kPoints; ++p) {
    for (int e = 0; e < kExecs; ++e) check_golden(sw.points[p], e, sw.expected[p][e], r);
    pass.emplace_back(&sw.points[p], sw.expected[p]);
  }
  exact_counts(pass, r);

  // Timed phase: calls cycle through (point, executor) in a fixed order.
  struct Call {
    std::size_t p;
    int e;
    Outcome out;
  };
  std::vector<Call> calls;
  std::size_t j = 0;
  static Tracer off(false);
  timed_phase(a, tr, r, [&](bool traced) -> std::optional<JobSample> {
    const std::size_t p = (j / kExecs) % kPoints;
    const int e = static_cast<int>(j % kExecs);
    const auto id = static_cast<std::int64_t>(j++);
    const std::uint64_t t0 = now_ns();
    Outcome out;
    {
      Scope s(traced ? tr : off, kSpan[e], id);
      out = call(sw.points[p], e);
    }
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    calls.push_back({p, e, out});
    r.golden_evals[id] = sw.points[p].evals;
    return JobSample{id, static_cast<int>(p) * kExecs + e, ms, ms};
  });

  // Check: every timed call reproduces the warm-up pass exactly (which in
  // turn matched golden).
  for (const Call& c : calls) {
    ++r.attempted;
    if (!(c.out == sw.expected[c.p][c.e]))
      r.fail(std::string(kSpan[c.e]) + " at " + std::to_string(sw.points[c.p].gates) +
             " gates: result differs from the warm-up pass");
  }

  if (a.trace) {
    ProbeInput in;
    in.gates = kSizes[0];
    in.circuit_seed = circuit_seed(0);
    in.stim_seed = stim_seed(a.seed, 0);
    probe_service(in, a.socket, tr, r);
  }
}

void probe_vp(const ProbeInput& in, Tracer& tr, Report& r) {
  tr.set_phase(Phase::Probe);
  const Point pt = make_point(in.gates, in.circuit_seed, in.stim_seed, kProbeJob, tr, r);
  Outcome out[kExecs];
  for (int e = 0; e < kExecs; ++e) {
    {
      Scope s(tr, kSpan[e], kProbeJob);
      out[e] = call(pt, e);
    }
    check_golden(pt, e, out[e], r);
  }
  exact_counts({{&pt, out}}, r);
  tr.set_phase(Phase::Setup);
}

}  // namespace pb
