// Virtual-platform synchronous executor: the global-clock loop of
// engines/sync_engine.cpp executed deterministically with explicit costs.
// Step time = 2 barriers (time agreement + delivery) plus the busiest
// processor's compute/send plus the busiest receiver's message intake.
//
// Extensions over the basic algorithm (all from the paper's §III/§VI):
//   - many blocks (LPs) per processor via VpConfig::block_to_proc;
//   - bounded-window "time bucket" steps: one barrier pair per lookahead
//     window instead of per distinct event time (sync_time_buckets);
//   - dynamic load balancing: periodic re-assignment of blocks to
//     processors by measured load, paying state-migration costs
//     (sync_dynamic_remap).

#include <algorithm>
#include <numeric>
#include <optional>

#include "check/auditor.hpp"
#include "core/block.hpp"
#include "engines/common.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "vp/common.hpp"
#include "vp/vp.hpp"

namespace plsim {

VpResult run_sync_vp(const Circuit& c, const Stimulus& stim,
                     const Partition& p, const VpConfig& cfg) {
  BlockOptions bopts;
  bopts.clock_period = stim.period;
  bopts.horizon = stim.horizon();
  bopts.save = SaveMode::None;
  BlockRig rig = make_rig(c, stim, p, bopts);

  const std::uint32_t n_blocks = p.n_blocks;
  const Tick horizon = bopts.horizon;
  const CostModel& cost = cfg.cost;

  std::uint32_t n_procs = 0;
  std::vector<std::uint32_t> proc_of = cfg.resolve_mapping(n_blocks, n_procs);

  // Window width: 1 tick (classic), or the global export lookahead (time
  // buckets) — every cross-block message generated inside a window lands in
  // a later window, so wider steps stay race-free.
  Tick window = 1;
  if (cfg.sync_time_buckets) {
    Tick lookahead = kTickInf;
    for (std::uint32_t b = 0; b < n_blocks; ++b)
      lookahead = std::min<Tick>(lookahead, rig.blocks[b]->export_lookahead());
    window = std::max<Tick>(1, lookahead == kTickInf ? horizon : lookahead);
  }

  std::vector<StagedMessages> staged(n_blocks);
  std::vector<std::size_t> env_pos(n_blocks, 0);
  std::vector<double> recv_work(n_procs, 0.0);
  std::vector<double> compute(n_procs, 0.0);
  std::vector<double> block_load(n_blocks, 0.0);  // for dynamic remap
  std::vector<Rng> jitter;
  for (std::uint32_t pr = 0; pr < n_procs; ++pr)
    jitter.emplace_back(cfg.jitter_seed ^ (0x9e37u + pr));

  VpResult r;
  r.procs = n_procs;
  std::vector<Message> externals, outputs;

  std::optional<Auditor> aud;
  if (cfg.audit || Auditor::env_enabled())
    aud.emplace("sync-vp", n_blocks, horizon);

  // Records are stamped on the modelled clock: the step's barrier pair and
  // each block's compute interval land where the cost model puts them.
  trace::Session tsn("sync-vp", n_blocks,
                     trace::ClockKind::VirtualMilliUnits);

  auto block_next = [&](std::uint32_t b) {
    Tick mine = rig.blocks[b]->next_internal_time();
    if (env_pos[b] < rig.env[b].size())
      mine = std::min(mine, rig.env[b][env_pos[b]].time);
    if (!staged[b].empty()) mine = std::min(mine, staged[b].top().time);
    return mine;
  };

  std::uint64_t steps = 0;
  for (;;) {
    Tick front = kTickInf;
    for (std::uint32_t b = 0; b < n_blocks; ++b)
      front = std::min(front, block_next(b));
    if (front >= horizon || front == kTickInf) break;
    // The window front plays the role of GVT: all processing this step is at
    // or above it, and no staged (in-flight) message may lie below it.
    if (aud) aud->on_gvt(front);
    const Tick window_end = std::min(horizon, tick_add(front, window));

    std::fill(recv_work.begin(), recv_work.end(), 0.0);
    std::fill(compute.begin(), compute.end(), 0.0);
    const double step_base = r.makespan;
    const double work_base =
        step_base + 2.0 * cost.barrier_cost(n_procs);
    for (std::uint32_t b = 0; b < n_blocks; ++b) {
      BlockSimulator& blk = *rig.blocks[b];
      const std::uint32_t pr = proc_of[b];
      trace::Lane* tl = tsn.lane(b);
      const double my_start = work_base + compute[pr];
      std::uint32_t my_batches = 0;
      double w = 0.0;
      for (;;) {
        const Tick t = block_next(b);
        if (t >= window_end) break;
        externals.clear();
        auto& env = rig.env[b];
        while (env_pos[b] < env.size() && env[env_pos[b]].time == t)
          externals.push_back(env[env_pos[b]++]);
        while (!staged[b].empty() && staged[b].top().time == t) {
          if (aud) {
            aud->on_deliver(b, t);
            aud->on_inflight_remove(t);
          }
          externals.push_back(staged[b].top());
          staged[b].pop();
        }
        outputs.clear();
        if (aud) aud->on_batch(b, t);
        const BatchStats bs = blk.process_batch(t, externals, outputs);
        w += batch_cost(cost, bs, SaveMode::None);
        ++my_batches;
        for (const Message& m : outputs) {
          for (std::uint32_t dst : rig.routing.dests[m.gate]) {
            staged[dst].push(m);
            if (aud) {
              aud->on_send(b, m.time);
              aud->on_inflight_add(m.time);
            }
            PLSIM_TRACE_VMARK(tl, Send, my_start + w, m.time, dst);
            w += cost.msg_send;
            recv_work[proc_of[dst]] += cost.msg_recv;
            ++r.stats.messages;
          }
        }
      }
      if (w > 0.0) {
        w *= cfg.noise(jitter[pr]);
        compute[pr] += w;
        block_load[b] += w;
        PLSIM_TRACE_VSPAN(tl, BarrierWait, step_base, work_base, front, 0);
        PLSIM_TRACE_VSPAN(tl, Eval, my_start, my_start + w, front,
                          my_batches);
      }
    }

    const double max_compute =
        *std::max_element(compute.begin(), compute.end());
    const double max_recv =
        *std::max_element(recv_work.begin(), recv_work.end());
    const double step =
        2.0 * cost.barrier_cost(n_procs) + max_compute + max_recv;
    r.makespan += step;
    r.busy += std::accumulate(compute.begin(), compute.end(), 0.0) +
              std::accumulate(recv_work.begin(), recv_work.end(), 0.0);
    r.stats.barriers += 2 * n_procs;
    ++steps;

    // Dynamic load balancing: incremental re-assignment with hysteresis —
    // shed blocks from overloaded processors onto the least loaded one,
    // keeping everything else in place (wholesale reshuffles churn state for
    // stale measurements).
    if (cfg.sync_dynamic_remap && n_procs > 1 &&
        steps % cfg.remap_interval == 0) {
      std::vector<double> bin(n_procs, 0.0);
      double total = 0.0;
      for (std::uint32_t b = 0; b < n_blocks; ++b) {
        bin[proc_of[b]] += block_load[b];
        total += block_load[b];
      }
      const double avg = total / n_procs;
      double moved_bytes = 0.0;
      std::uint64_t moved = 0;
      for (int guard = 0; guard < static_cast<int>(n_blocks); ++guard) {
        std::uint32_t hi = 0, lo = 0;
        for (std::uint32_t pr = 1; pr < n_procs; ++pr) {
          if (bin[pr] > bin[hi]) hi = pr;
          if (bin[pr] < bin[lo]) lo = pr;
        }
        if (bin[hi] <= 1.15 * avg || hi == lo) break;
        // Move the heaviest block that still helps — hot blocks stacked on
        // one processor are what sets the per-step maximum.
        std::uint32_t best = kNoGate;
        for (std::uint32_t b = 0; b < n_blocks; ++b) {
          if (proc_of[b] != hi || block_load[b] <= 0.0) continue;
          if (bin[lo] + block_load[b] >= bin[hi]) continue;
          if (best == kNoGate || block_load[b] > block_load[best]) best = b;
        }
        if (best == kNoGate) break;
        bin[hi] -= block_load[best];
        bin[lo] += block_load[best];
        proc_of[best] = lo;
        moved_bytes +=
            static_cast<double>(rig.blocks[best]->owned().size()) * 4.0;
        ++moved;
      }
      if (moved > 0) {
        r.makespan +=
            cost.barrier_cost(n_procs) + moved_bytes * cost.save_per_byte;
        r.busy += moved_bytes * cost.save_per_byte;
        r.stats.migrations += moved;
      }
      std::fill(block_load.begin(), block_load.end(), 0.0);
    }
  }

  if (aud) {
    // Staged messages past the horizon were sent but never consumed.
    for (std::uint32_t b = 0; b < n_blocks; ++b) {
      aud->set_pending(b, staged[b].size());
      while (!staged[b].empty()) {
        aud->on_inflight_remove(staged[b].top().time);
        staged[b].pop();
      }
    }
  }

  finish_vp_result(r, c, rig, tsn);
  if (aud) aud->finalize();
  return r;
}

}  // namespace plsim
