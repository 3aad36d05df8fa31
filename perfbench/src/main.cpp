// plsim_perfbench: one workload per invocation.
//
//   plsim_perfbench --workload cold_jobs|vp_fig1 --seed N
//                   --seconds S --trace 0|1 [--out-dir D] [--socket P]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans, writes
// them to D/spans-<workload>-<seed>.json, prints the per-layer self-time
// table and the per-layer metrics. The last stdout line is always one JSON
// object {correct, attempted, failed, metrics}. Exit status is 0 only when
// every job passed its check.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace pb {
namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

int usage() {
  std::fprintf(stderr,
               "usage: plsim_perfbench --workload cold_jobs|vp_fig1 "
               "--seed N --seconds S --trace 0|1 [--out-dir D] [--socket P]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), &end, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), &end);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out-dir") a.out_dir = v;
    else if (k == "--socket") a.socket = v;
    else return false;
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

/// Client-thread wall time per job (round trip and replay) with spans
/// recorded against without, job kind by job kind: the median over kinds of
/// the ratio of per-kind medians, as a percentage. Traced and untraced jobs
/// alternate, so host drift falls on both alike.
double tracing_overhead_pct(const Report& r) {
  std::map<int, std::pair<std::vector<double>, std::vector<double>>> by_kind;
  for (std::size_t i = 0; i < r.cost_ms.size(); ++i)
    by_kind[r.latency_kind[i]].first.push_back(r.cost_ms[i]);
  for (std::size_t i = 0; i < r.traced_cost_ms.size(); ++i)
    by_kind[r.traced_kind[i]].second.push_back(r.traced_cost_ms[i]);
  std::vector<double> ratios;
  for (const auto& [kind, v] : by_kind)
    if (!v.first.empty() && !v.second.empty())
      ratios.push_back(median(v.second) / median(v.first));
  return (median(ratios) - 1.0) * 100.0;
}

/// Per-layer aggregates of spans.
struct LayerSpans {
  std::vector<double> self_ns, dur_ns;
  double self_sum = 0.0;
  /// Self time and golden evaluations of the spans whose job has a golden
  /// evaluation count.
  double eval_ns = 0.0, evals = 0.0;
};
using ByName = std::map<std::string, LayerSpans>;

/// Self time = duration minus the part its child spans cover. Spans of the
/// timed phase go to `timed`, the rest (set-up, layer probe) to `other`.
void aggregate(const Tracer& tr, const Report& r, ByName& timed, ByName& other) {
  const std::vector<Span>& sp = tr.spans();
  std::vector<double> child(sp.size(), 0.0);
  for (const Span& s : sp)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
  for (std::size_t i = 0; i < sp.size(); ++i) {
    const Span& s = sp[i];
    LayerSpans& l = (s.phase == Phase::Timed ? timed : other)[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const double self = dur - child[i];
    l.dur_ns.push_back(dur);
    l.self_ns.push_back(self);
    l.self_sum += self;
    if (auto it = r.golden_evals.find(s.job); s.job >= 0 && it != r.golden_evals.end()) {
      l.eval_ns += self;
      l.evals += static_cast<double>(it->second);
    }
  }
}

std::vector<Metric> layer_metrics(const ByName& timed, const ByName& other,
                                  const Report& r) {
  // A layer's figures come from the timed phase when the workload calls it
  // there, otherwise from its calls in set-up and the layer probe.
  const auto spans = [&](const char* name) -> const LayerSpans& {
    static const LayerSpans none;
    if (auto it = timed.find(name); it != timed.end()) return it->second;
    if (auto it = other.find(name); it != other.end()) return it->second;
    return none;
  };
  const auto self_ms = [&](const char* n) { return median(spans(n).self_ns) * 1e-6; };
  const auto self_us = [&](const char* n) { return median(spans(n).self_ns) * 1e-3; };
  const auto ns_per_eval = [&](std::initializer_list<const char*> names) {
    double ns = 0.0, evals = 0.0;
    for (const char* n : names) {
      ns += spans(n).eval_ns;
      evals += spans(n).evals;
    }
    return evals > 0 ? ns / evals : 0.0;
  };
  const double jobs = static_cast<double>(r.traced_latency_ms.size());
  const auto per_job = [&](std::initializer_list<const char*> names) {
    double calls = 0.0;
    for (const char* n : names)
      if (auto it = timed.find(n); it != timed.end())
        calls += static_cast<double>(it->second.self_ns.size());
    return jobs > 0 ? calls / jobs : 0.0;
  };
  const auto layer = [&](const char* n) {
    auto it = r.layer.find(n);
    return it == r.layer.end() ? 0.0 : it->second;
  };
  std::vector<double> rollbacks, ratios;
  for (const Report::TwSample& s : r.tw_samples) {
    rollbacks.push_back(s.rollbacks);
    if (auto it = r.golden_evals.find(s.job); it != r.golden_evals.end() && it->second > 0)
      ratios.push_back(s.evaluations / static_cast<double>(it->second));
  }
  const LayerSpans& rt = spans("client.roundtrip");
  return {
      {"partition.multilevel_ms", self_ms("partition.multilevel"), "ms"},
      {"partition.fm_ms", self_ms("partition.fm"), "ms"},
      {"partition.cut", layer("partition.cut"), "count"},
      {"partition.fm_cut", layer("partition.fm_cut"), "count"},
      {"partition.calls_per_job", per_job({"partition.multilevel", "partition.fm"}), "1/job"},
      {"analyze.optimize_ms", self_ms("analyze.optimize"), "ms"},
      {"analyze.gates_removed", layer("analyze.gates_removed"), "count"},
      {"engines.compile_rig_ms", self_ms("engines.compile_rig"), "ms"},
      {"engines.compile_rig_calls_per_job", per_job({"engines.compile_rig"}), "1/job"},
      {"engines.instantiate_rig_ms", self_ms("engines.instantiate_rig"), "ms"},
      {"netlist.build_ms", self_ms("netlist.build"), "ms"},
      {"util.circuit_hash_ms", self_ms("util.circuit_hash"), "ms"},
      {"stim.random_stimulus_ms", self_ms("stim.random_stimulus"), "ms"},
      {"engines.sync_ns_per_eval", ns_per_eval({"engines.sync"}), "ns"},
      {"engines.conservative_ns_per_eval", ns_per_eval({"engines.conservative"}), "ns"},
      {"engines.timewarp_ns_per_eval", ns_per_eval({"engines.timewarp"}), "ns"},
      {"engines.oblivious_packed_ms", self_ms("engines.oblivious_packed"), "ms"},
      {"engines.sync_barriers", layer("engines.sync_barriers"), "count"},
      {"engines.conservative_null_messages", median(r.cons_null_messages), "count"},
      {"engines.timewarp_rollbacks", median(rollbacks), "count"},
      {"engines.timewarp_eval_ratio", median(ratios), "ratio"},
      {"seq.golden_ns_per_eval", ns_per_eval({"seq.golden"}), "ns"},
      {"vp.seqcost_ms", self_ms("vp.seqcost"), "ms"},
      {"vp.sync_ms", self_ms("vp.sync"), "ms"},
      {"vp.conservative_ms", self_ms("vp.conservative"), "ms"},
      {"vp.timewarp_ms", self_ms("vp.timewarp"), "ms"},
      {"vp.hybrid_ms", self_ms("vp.hybrid"), "ms"},
      {"vp.ns_per_eval",
       ns_per_eval({"vp.sync", "vp.conservative", "vp.timewarp", "vp.hybrid"}), "ns"},
      {"vp.timewarp_rollbacks", layer("vp.timewarp_rollbacks"), "count"},
      {"vp.conservative_null_messages", layer("vp.conservative_null_messages"), "count"},
      {"vp.makespan_sum", layer("vp.makespan_sum"), "units"},
      {"server.decode_us", self_us("server.decode"), "us"},
      {"server.encode_us", self_us("server.encode"), "us"},
      {"server.queue_ms", self_ms("server.queue"), "ms"},
      {"server.engine_ms", self_ms("server.engine"), "ms"},
      {"server.overhead_ms", self_ms("client.roundtrip"), "ms"},
      {"server.plan_hit_ratio", layer("server.plan_hit_ratio"), "ratio"},
      {"server.plan_compiles", layer("server.plan_compiles"), "count"},
      {"server.plan_evictions", layer("server.plan_evictions"), "count"},
      {"server.calls_per_job", per_job({"client.roundtrip"}), "1/job"},
      {"client.p99_ms", percentile(rt.dur_ns, 0.99) * 1e-6, "ms"},
      {"host.calib_ms", median({r.calib_before_ms, r.calib_after_ms}), "ms"},
      {"trace.overhead_pct", tracing_overhead_pct(r), "%"},
  };
}

/// Self-time table of the timed phase, the share of job latency the
/// layers under a job account for, and the tracing overhead.
void print_split(const ByName& timed, const Report& r, const std::string& workload) {
  double job_ms = 0.0;
  for (const double ms : r.traced_latency_ms) job_ms += ms;
  const double jobs = static_cast<double>(r.traced_latency_ms.size());
  // Two views of each job: what the client saw (round trip, and the queue
  // and engine time the response reports), and the layers of the replay.
  const auto is_client_view = [](const std::string& n) {
    return n == "client.roundtrip" || n == "server.queue" || n == "server.engine";
  };
  for (const bool client_view : {true, false}) {
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& [name, l] : timed)
      if (is_client_view(name) == client_view) rows.emplace_back(l.self_sum, name);
    if (rows.empty()) continue;
    std::sort(rows.rbegin(), rows.rend());
    std::printf("%s self time, %s timed phase (%.0f traced jobs):\n",
                client_view ? "client view:" : "per-layer", workload.c_str(), jobs);
    std::printf("  %-28s %8s %12s %12s %9s\n", "span", "calls", "self_ms",
                "ms/job", "%job");
    for (const auto& [self, name] : rows)
      std::printf("  %-28s %8zu %12.3f %12.4f %8.1f%%\n", name.c_str(),
                  timed.at(name).self_ns.size(), self * 1e-6, self * 1e-6 / jobs,
                  100.0 * self * 1e-6 / job_ms);
  }
  // The replayed layers: for service jobs the replay root's duration against
  // the client round trips; vp_fig1 jobs are the layer calls themselves.
  double replay_ms = 0.0;
  if (auto it = timed.find("replay"); it != timed.end()) {
    for (const double d : it->second.dur_ns) replay_ms += d * 1e-6;
  } else {
    for (const auto& [name, l] : timed)
      if (name.rfind("vp.", 0) == 0)
        for (const double d : l.dur_ns) replay_ms += d * 1e-6;
  }
  std::printf("replayed layers account for %.1f%% of job latency "
              "(%.1f ms of %.1f ms)\n",
              100.0 * replay_ms / job_ms, replay_ms, job_ms);
  std::printf("tracing overhead: %+.2f%% per job of the same kind, traced "
              "vs untraced jobs interleaved (client-thread time p50 %.4f ms "
              "vs %.4f ms)\n",
              tracing_overhead_pct(r), median(r.traced_cost_ms), median(r.cost_ms));
}

void write_spans(const Tracer& tr, const Args& a) {
  const std::string path = a.out_dir + "/spans-" + a.workload + "-" +
                           std::to_string(a.seed) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const std::vector<Span>& sp = tr.spans();
  const std::uint64_t t0 = sp.empty() ? 0 : sp.front().start_ns;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed));
  for (std::size_t i = 0; i < sp.size(); ++i)
    std::fprintf(f,
                 "{\"name\": \"%s\", \"phase\": \"%s\", \"job\": %lld, "
                 "\"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 sp[i].name, phase_name(sp[i].phase),
                 static_cast<long long>(sp[i].job), sp[i].parent,
                 static_cast<double>(sp[i].start_ns - t0) * 1e-3,
                 static_cast<double>(sp[i].end_ns - t0) * 1e-3,
                 i + 1 < sp.size() ? "," : "");
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("spans: %s (%zu spans)\n", path.c_str(), sp.size());
}

/// Rates, CPU per job, ns per evaluation and p50 are medians over the
/// timed phase's slices; p90 is over all its jobs (at least 10 samples
/// beyond it needs 100 jobs, more than a slice of cold_jobs holds).
std::vector<Metric> end_to_end(const Report& r) {
  std::vector<double> rate, p50, cpu, ns;
  for (std::size_t k = 0; k + 1 < r.marks.size(); ++k) {
    const Report::Mark& m0 = r.marks[k];
    const Report::Mark& m1 = r.marks[k + 1];
    if (m1.jobs == m0.jobs) continue;
    const double n = static_cast<double>(m1.jobs - m0.jobs);
    const double wall = m1.t_s - m0.t_s;
    double evals = 0.0;
    for (std::size_t i = m0.jobs; i < m1.jobs; ++i)
      if (auto it = r.golden_evals.find(r.timed_ids[i]); it != r.golden_evals.end())
        evals += static_cast<double>(it->second);
    rate.push_back(n / wall);
    const auto first = r.latency_ms.begin();
    p50.push_back(median(std::vector<double>(first + static_cast<std::ptrdiff_t>(m0.jobs),
                                             first + static_cast<std::ptrdiff_t>(m1.jobs))));
    cpu.push_back((m1.cpu_s - m0.cpu_s) * 1e3 / n);
    ns.push_back(wall * 1e9 / evals);
  }
  return {
      {"setup_s", r.setup_s, "s"},
      {"jobs_per_s", median(rate), "1/s"},
      {"job_p50_ms", median(p50), "ms"},
      {"job_p90_ms", percentile(r.latency_ms, 0.9), "ms"},
      {"cpu_ms_per_job", median(cpu), "ms"},
      {"host_ns_per_eval", median(ns), "ns"},
      {"peak_rss_mb", r.rss_mb, "MB"},
  };
}

void print_result(const Report& r, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // Shortest text that reads back as the same double: every digit kept.
    char num[32];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    *std::to_chars(num, num + sizeof num - 1, v).ptr = '\0';
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), num, metrics[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  Args a;
  if (!parse_args(argc, argv, a)) return usage();
  const std::map<std::string, std::function<void(const Args&, Tracer&, Report&)>>
      workloads = {{"cold_jobs", run_cold_jobs}, {"vp_fig1", run_vp_fig1}};
  const auto w = workloads.find(a.workload);
  if (w == workloads.end()) return usage();

  Tracer tr(a.trace);
  Report r;
  try {
    w->second(a, tr, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", a.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& f : r.failures) std::printf("FAILED %s\n", f.c_str());
  if (r.latency_ms.empty()) {
    std::fprintf(stderr, "%s: no job completed in the timed phase\n", a.workload.c_str());
    return 1;
  }
  std::printf("%s seed %llu: %zu timed jobs in %.2f s, %llu attempted, %llu failed\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              r.latency_ms.size() + r.traced_latency_ms.size(), r.marks.back().t_s,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("host.calib_ms before %.4f after %.4f\n", r.calib_before_ms,
              r.calib_after_ms);
  if (a.trace) {
    write_spans(tr, a);
    ByName timed, other;
    aggregate(tr, r, timed, other);
    print_split(timed, r, a.workload);
    print_result(r, layer_metrics(timed, other, r));
  } else {
    print_result(r, end_to_end(r));
  }
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}
