// C15 — the persistent simulation service (ISSUE 10), measured on the
// transport-free Service core (src/server/service.hpp):
//
//   (A) Cold vs warm job latency on a >=5k-gate circuit. The first job
//       compiles the full rig — multilevel partition, plan optimization,
//       routing, SimPlan — and parks it in the plan cache; every repeat job
//       instantiates fresh simulators on the shared immutable rig and skips
//       compilation. The bench asserts warm median < 0.5x cold median
//       (exits nonzero otherwise) and golden-compares the cache counters
//       that prove the warm jobs never compiled. Warm results must be
//       bit-identical to the cold one (same wave digest). The cold side is
//       the median of 3 cold jobs: the first on the service the warm jobs
//       hit, two more each on a fresh Service, spread among the warm runs.
//       The ratio is taken over the CPU time of the thread that runs the
//       job, where compilation happens. Wall time is reported, not gated:
//       under a full `ctest -j4` on a shared 4-vCPU host the engine's 4
//       yield-spinning threads stretch both sides to hundreds of ms. The
//       wall ratio crossed 0.5 in 3 of 7 such runs, and so did a process
//       CPU-time ratio, which counts the spinning; the thread CPU-time
//       ratio read 0.015–0.017.
//
//   (B) A 1000-job mixed replay — hot-key skew across 4 circuits, cold-key
//       churn, packed-plane oblivious sweeps, golden and fault jobs — pushed
//       through the sharded worker pool by 4 concurrent clients. Throughput
//       and p50/p95/p99 latency go under wall.* (host-dependent); the
//       deterministic outcome counts, distinct-compile count (cache misses)
//       and the digest-mismatch audit (identical requests must return
//       identical results) are golden-compared.
//
//   (C) Bounded behavior: LRU eviction under a capacity-2 plan cache cycling
//       three hot keys, and deterministic queue-full rejection — workers
//       paused, the queue filled to capacity, the overflow rejected with a
//       structured Overloaded error, then resumed and drained to completion.
//
// Latencies are host wall-clock (excluded from the golden comparison); every
// count in the golden is exact.

#include <algorithm>
#include <ctime>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_main.hpp"
#include "parallel/guarded.hpp"
#include "parallel/threads.hpp"
#include "server/protocol.hpp"
#include "server/service.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace plsim;

namespace {

JobRequest hot_job(std::uint64_t gates, std::uint64_t circuit_seed,
                   const std::string& engine) {
  JobRequest req;
  req.circuit.kind = CircuitSpec::Kind::Generator;
  req.circuit.generator = "scaled";
  req.circuit.gates = gates;
  req.circuit.seed = circuit_seed;
  req.engine = engine;
  req.blocks = 4;
  req.stimulus.cycles = 6;
  return req;
}

/// Deterministic job for global index i — same class mix as tools/plsim_load
/// (hot-key skew, cold churn, packed oblivious, golden, fault).
JobRequest mixed_job(std::uint64_t i) {
  constexpr std::uint64_t kHotKeys = 4;
  Rng rng(mix64(0x6331356d6978ull ^ (i * 0x9e3779b97f4a7c15ull)));
  JobRequest req;
  req.id = i;
  req.blocks = 4;
  req.stimulus.cycles = 6;
  req.stimulus.seed = 1 + rng.uniform(4);
  const std::uint64_t cls = rng.uniform(100);
  if (cls < 55) {
    const std::uint64_t a = rng.uniform(kHotKeys);
    const std::uint64_t b = rng.uniform(kHotKeys);
    req.circuit.kind = CircuitSpec::Kind::Generator;
    req.circuit.generator = "scaled";
    req.circuit.gates = 2000;
    req.circuit.seed = 100 + std::min(a, b);
    const std::uint64_t e = rng.uniform(3);
    req.engine = e == 0 ? "sync" : e == 1 ? "conservative" : "timewarp";
  } else if (cls < 70) {
    req.circuit.kind = CircuitSpec::Kind::Generator;
    req.circuit.generator = "random";
    req.circuit.gates = 400;
    req.circuit.seed = 1000000 + i;
    req.engine = rng.uniform(2) == 0 ? "conservative" : "sync";
  } else if (cls < 82) {
    req.circuit.kind = CircuitSpec::Kind::Generator;
    req.circuit.generator = "scaled";
    req.circuit.gates = 1000;
    req.circuit.seed = 100 + rng.uniform(kHotKeys);
    req.engine = "oblivious";
    req.packed_plane = true;
  } else if (cls < 92) {
    req.circuit.kind = CircuitSpec::Kind::Builtin;
    req.circuit.builtin = rng.uniform(2) == 0 ? "c17" : "s27";
    req.engine = "golden";
  } else {
    req.circuit.kind = CircuitSpec::Kind::Generator;
    req.circuit.generator = "random";
    req.circuit.gates = 250;
    req.circuit.seed = 100 + rng.uniform(kHotKeys);
    req.engine = "fault";
  }
  return req;
}

std::uint64_t string_key(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  return h;
}

std::uint64_t request_identity(const JobRequest& r) {
  std::uint64_t k = r.circuit.content_key();
  k = hash_combine(k, string_key(r.engine));
  k = hash_combine(k, r.stimulus.seed);
  k = hash_combine(k, r.stimulus.cycles);
  k = hash_combine(k, r.blocks);
  return k;
}

/// CPU time consumed so far by the calling thread.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (idx - static_cast<double>(lo));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 0.5);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchDriver driver("c15_service_throughput", argc, argv);
  bool failed = false;

  // --- (A) cold vs warm: the plan cache skips compilation ------------------
  constexpr std::uint64_t kGates = 6000;
  constexpr unsigned kWarmRuns = 8;
  constexpr unsigned kColdRuns = 3;
  std::cout << "C15.A: cold vs warm job latency, scaled circuit ("
            << kGates << " gates requested), sync engine, P = 4\n\n";
  {
    auto timed = driver.phase("cold_warm");
    Service service(ServiceConfig{});
    const JobRequest req = hot_job(kGates, /*circuit_seed=*/7, "sync");

    // Each job's wall time, and the CPU time of the thread that runs it:
    // compilation runs there, while the engine threads it waits on are
    // the same work on both sides.
    struct Times {
      std::vector<double> wall, cpu;
      double med_wall() const { return median(wall); }
      double med_cpu() const { return median(cpu); }
    };
    Times cold_t, warm_t;
    const auto timed_job = [&](Service& svc, Times& t) {
      WallTimer timer;
      const double cpu0 = thread_cpu_seconds();
      JobResponse resp = svc.execute_now(req);
      t.cpu.push_back(thread_cpu_seconds() - cpu0);
      t.wall.push_back(timer.seconds());
      return resp;
    };
    const auto check_cold = [&](const JobResponse& resp) {
      if (!resp.ok || resp.cache != "miss") {
        std::cerr << "c15: cold job expected ok+miss, got cache=" << resp.cache
                  << " error=" << resp.error << "\n";
        failed = true;
      }
    };
    const JobResponse cold = timed_job(service, cold_t);
    check_cold(cold);

    std::uint64_t warm_hits = 0, warm_identical = 0;
    for (unsigned i = 0; i < kWarmRuns; ++i) {
      const JobResponse warm = timed_job(service, warm_t);
      warm_hits += warm.ok && warm.cache == "hit" ? 1 : 0;
      warm_identical += warm.wave_digest == cold.wave_digest ? 1 : 0;
      // The other cold jobs fall after warm runs 3 and 6.
      if (i % 3 == 2 && cold_t.wall.size() < kColdRuns) {
        Service fresh(ServiceConfig{});
        const JobResponse again = timed_job(fresh, cold_t);
        check_cold(again);
        if (again.wave_digest != cold.wave_digest) {
          std::cerr << "c15: cold jobs disagree on the wave digest\n";
          failed = true;
        }
      }
    }
    const double ratio = cold_t.med_cpu() > 0.0
                             ? warm_t.med_cpu() / cold_t.med_cpu()
                             : 1.0;

    const ServiceMetrics m = service.metrics();
    Table table({"phase", "latency_ms", "cpu_ms", "plan_cache", "digest"});
    table.add_row({"cold(med)", Table::fmt(cold_t.med_wall() * 1e3),
                   Table::fmt(cold_t.med_cpu() * 1e3),
                   "miss x" + std::to_string(cold_t.wall.size()),
                   Table::fmt(cold.wave_digest)});
    table.add_row({"warm(med)", Table::fmt(warm_t.med_wall() * 1e3),
                   Table::fmt(warm_t.med_cpu() * 1e3),
                   "hit x" + std::to_string(warm_hits),
                   Table::fmt(cold.wave_digest)});
    table.print(std::cout);
    std::cout << "\nwarm/cold cpu ratio " << Table::fmt(ratio)
              << " (required < 0.5)\n";
    if (warm_hits != kWarmRuns || warm_identical != kWarmRuns) {
      std::cerr << "c15: warm jobs must all hit and match the cold digest\n";
      failed = true;
    }
    if (ratio >= 0.5) {
      std::cerr << "c15: warm median " << warm_t.med_cpu() * 1e3
                << " cpu ms not < 0.5x cold median "
                << cold_t.med_cpu() * 1e3 << " cpu ms\n";
      failed = true;
    }
    driver.run()
                      .label("section", "cold_warm")
                      .label("gates", cold.gate_count)
                      .metric("plan_misses", m.plan_cache.misses)
                      .metric("plan_hits", m.plan_cache.hits)
                      .metric("warm_identical", warm_identical)
                      .wall("cold_ms", cold_t.med_wall() * 1e3)
                      .wall("warm_med_ms", warm_t.med_wall() * 1e3)
                      .wall("warm_cold_ratio",
                            warm_t.med_wall() / cold_t.med_wall())
                      .wall("cold_cpu_ms", cold_t.med_cpu() * 1e3)
                      .wall("warm_cpu_med_ms", warm_t.med_cpu() * 1e3)
                      .wall("warm_cold_cpu_ratio", ratio);
  }

  // --- (B) mixed 1000-job replay through the sharded pool ------------------
  constexpr std::uint64_t kJobs = 1000;
  constexpr unsigned kClients = 4;
  std::cout << "\nC15.B: " << kJobs << "-job mixed replay (hot-key skew, "
               "cold churn, packed, golden, fault), " << kClients
            << " concurrent clients, 2 shards x 2 workers\n\n";
  {
    auto timed = driver.phase("mixed");
    ServiceConfig cfg;
    cfg.plan_cache_capacity = 512;    // > distinct plan keys: no evictions,
    cfg.circuit_cache_capacity = 512; // so the miss counts are exact
    Service service(cfg);

    struct Outcome {
      double latency;
      bool ok;
      std::uint64_t key, digest;
    };
    Guarded<std::vector<Outcome>> collected;
    WallTimer total;
    run_on_threads(kClients, [&](unsigned tid) {
      std::vector<Outcome> local;
      for (std::uint64_t i = tid; i < kJobs; i += kClients) {
        const JobRequest req = mixed_job(i);
        WallTimer timer;
        const JobResponse resp = service.run(req);
        local.push_back({timer.seconds(), resp.ok, request_identity(req),
                         resp.wave_digest});
      }
      collected.with([&](std::vector<Outcome>& all) {
        all.insert(all.end(), local.begin(), local.end());
      });
    });
    const double wall = total.seconds();

    std::vector<Outcome> outcomes;
    collected.with([&](std::vector<Outcome>& all) { outcomes.swap(all); });
    std::uint64_t ok = 0, digest_mismatches = 0;
    std::vector<double> latencies;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (const Outcome& o : outcomes) {
      latencies.push_back(o.latency);
      if (!o.ok) continue;
      ++ok;
      bool found = false;
      for (const auto& [k, d] : seen) {
        if (k != o.key) continue;
        found = true;
        if (d != o.digest) ++digest_mismatches;
        break;
      }
      if (!found) seen.emplace_back(o.key, o.digest);
    }
    std::sort(latencies.begin(), latencies.end());
    const double jobs_per_sec =
        wall > 0.0 ? static_cast<double>(outcomes.size()) / wall : 0.0;

    const ServiceMetrics m = service.metrics();
    Table table({"jobs", "ok", "jobs/sec", "p50_ms", "p95_ms", "p99_ms",
                 "compiles", "warm", "mismatches"});
    table.add_row({Table::fmt(static_cast<std::uint64_t>(outcomes.size())),
                   Table::fmt(ok), Table::fmt(jobs_per_sec),
                   Table::fmt(percentile(latencies, 0.50) * 1e3),
                   Table::fmt(percentile(latencies, 0.95) * 1e3),
                   Table::fmt(percentile(latencies, 0.99) * 1e3),
                   Table::fmt(m.plan_cache.misses),
                   Table::fmt(m.plan_cache.hits + m.plan_cache.joined),
                   Table::fmt(digest_mismatches)});
    table.print(std::cout);
    if (ok != kJobs || digest_mismatches != 0) {
      std::cerr << "c15: mixed replay expected " << kJobs
                << " ok and 0 digest mismatches\n";
      failed = true;
    }
    // hits vs joined split depends on thread interleaving; their sum (and the
    // miss count — distinct keys actually compiled) is deterministic.
    driver.run()
                      .label("section", "mixed")
                      .label("clients", static_cast<std::uint64_t>(kClients))
                      .metric("jobs", static_cast<std::uint64_t>(outcomes.size()))
                      .metric("ok", ok)
                      .metric("digest_mismatches", digest_mismatches)
                      .metric("plan_compiles", m.plan_cache.misses)
                      .metric("plan_warm", m.plan_cache.hits + m.plan_cache.joined)
                      .metric("plan_evictions", m.plan_cache.evictions)
                      .metric("circuit_parses", m.circuit_cache.misses)
                      .wall("seconds", wall)
                      .wall("jobs_per_sec", jobs_per_sec)
                      .wall("p50_ms", percentile(latencies, 0.50) * 1e3)
                      .wall("p95_ms", percentile(latencies, 0.95) * 1e3)
                      .wall("p99_ms", percentile(latencies, 0.99) * 1e3);
  }

  // --- (C) bounded behavior: LRU eviction + queue-full rejection -----------
  std::cout << "\nC15.C: capacity-2 plan cache cycling 3 hot keys (LRU "
               "eviction), then queue-full rejection with paused workers\n\n";
  {
    auto timed = driver.phase("bounded");
    ServiceConfig small;
    small.shards = 1;
    small.workers_per_shard = 1;
    small.queue_capacity = 4;
    small.plan_cache_capacity = 2;
    Service service(small);

    // Three keys through a two-slot cache, twice around: every access after
    // the first three evicts the least-recently-used plan and recompiles.
    std::uint64_t evict_ok = 0;
    for (unsigned round = 0; round < 2; ++round)
      for (std::uint64_t key = 0; key < 3; ++key)
        evict_ok += service.execute_now(hot_job(600, 200 + key, "sync")).ok;
    const CacheCounters after_cycle = service.metrics().plan_cache;

    service.pause();
    std::uint64_t accepted = 0, overloaded = 0, done_count_unused = 0;
    (void)done_count_unused;
    Guarded<std::uint64_t> completed;
    const auto on_done = [&completed](JobResponse) {
      completed.with([](std::uint64_t& n) { ++n; });
    };
    for (std::uint64_t i = 0; i < 10; ++i) {
      const Admit a = service.submit(hot_job(600, 200, "sync"), on_done);
      accepted += a == Admit::Accepted ? 1 : 0;
      overloaded += a == Admit::Overloaded ? 1 : 0;
    }
    service.resume();
    service.drain();
    std::uint64_t drained = 0;
    completed.with([&](std::uint64_t& n) { drained = n; });

    Table table({"cycle_ok", "compiles", "evictions", "accepted",
                 "overloaded", "drained"});
    table.add_row({Table::fmt(evict_ok), Table::fmt(after_cycle.misses),
                   Table::fmt(after_cycle.evictions), Table::fmt(accepted),
                   Table::fmt(overloaded), Table::fmt(drained)});
    table.print(std::cout);
    if (accepted != small.queue_capacity || drained != accepted) {
      std::cerr << "c15: expected exactly queue_capacity accepted jobs, all "
                   "drained after resume\n";
      failed = true;
    }
    driver.run()
                      .label("section", "bounded")
                      .metric("cycle_ok", evict_ok)
                      .metric("plan_compiles", after_cycle.misses)
                      .metric("plan_evictions", after_cycle.evictions)
                      .metric("accepted", accepted)
                      .metric("overloaded", overloaded)
                      .metric("drained", drained);
  }

  std::cout << "\npaper: a persistent service amortizes plan compilation "
               "across jobs — warm requests skip the partition/optimize/"
               "routing/plan pipeline entirely and answer from the hot rig\n";
  const int rc = driver.finish();
  return failed ? 1 : rc;
}
