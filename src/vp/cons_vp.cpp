// Virtual-platform conservative executor: a deterministic discrete-event
// simulation (in processor time) of the CMB protocol of
// engines/conservative_engine.cpp. LP activations are driven by message
// arrivals; blocked time is real idle time on the modelled machine, which is
// what makes the null-message overhead and blocking of paper §V measurable.
//
// Extensions (paper §III/§IV):
//   - many LPs per processor (VpConfig::block_to_proc): co-located LPs
//     exchange messages through shared memory at event-insertion cost,
//     which is precisely why coarser LP-per-processor granularity reduces
//     blocked computation;
//   - deadlock handling by null messages (default) or by detection and
//     recovery via a circulating marker (cons_null_messages = false).

#include <optional>
#include <queue>
#include <unordered_map>

#include "check/auditor.hpp"
#include "core/block.hpp"
#include "engines/cmb.hpp"
#include "engines/common.hpp"
#include "engines/lookahead.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "vp/common.hpp"
#include "vp/vp.hpp"

namespace plsim {
namespace {

struct Arrival {
  double at;
  std::uint32_t dst;  // destination LP (block)
  CmbMsg msg;
  std::uint64_t seq;
};
struct ArrivalLater {
  bool operator()(const Arrival& a, const Arrival& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

}  // namespace

VpResult run_conservative_vp(const Circuit& c, const Stimulus& stim,
                             const Partition& p, const VpConfig& cfg) {
  BlockOptions bopts;
  bopts.clock_period = stim.period;
  bopts.horizon = stim.horizon();
  bopts.save = SaveMode::None;
  bopts.track_lookahead = cfg.cons_adaptive_lookahead;
  BlockRig rig = make_rig(c, stim, p, bopts);

  std::optional<ChannelBounds> bounds;
  if (cfg.cons_adaptive_lookahead)
    bounds.emplace(build_channel_bounds(*rig.plan, rig.routing));

  const std::uint32_t n_blocks = p.n_blocks;
  const Tick horizon = bopts.horizon;
  const CostModel& cost = cfg.cost;

  std::uint32_t n_procs = 0;
  const std::vector<std::uint32_t> proc_of =
      cfg.resolve_mapping(n_blocks, n_procs);
  std::vector<std::vector<std::uint32_t>> lps_of(n_procs);
  for (std::uint32_t b = 0; b < n_blocks; ++b) lps_of[proc_of[b]].push_back(b);

  struct Lp {
    CmbInState in;
    std::vector<CmbOutChannel> outs;
    std::unordered_map<std::uint32_t, std::size_t> out_index;
    std::size_t env_pos = 0;
    bool terminated = false;
  };
  std::optional<Auditor> aud;
  if (cfg.audit || Auditor::env_enabled())
    aud.emplace("conservative-vp", n_blocks, horizon);

  trace::Session tsn("conservative-vp", n_blocks,
                     trace::ClockKind::VirtualMilliUnits);

  std::vector<Lp> lps(n_blocks);
  std::vector<double> clock(n_procs, 0.0);
  for (std::uint32_t b = 0; b < n_blocks; ++b) {
    if (aud) aud->on_lookahead(b, rig.blocks[b]->export_lookahead());
    std::vector<std::uint32_t> sources;
    for (std::uint32_t j = 0; j < n_blocks; ++j)
      if (j != b && rig.routing.has_channel(j, b)) sources.push_back(j);
    lps[b].in = CmbInState(sources);
    for (std::uint32_t j = 0; j < n_blocks; ++j) {
      if (j != b && rig.routing.has_channel(b, j)) {
        lps[b].out_index.emplace(j, lps[b].outs.size());
        lps[b].outs.emplace_back(j, rig.blocks[b]->export_lookahead());
      }
    }
  }

  // Null-message multiplicity: cut wires per (src, dst) block pair when
  // wire-grained channels are modelled, 1 otherwise.
  std::vector<std::uint32_t> wire_mult(
      static_cast<std::size_t>(n_blocks) * n_blocks, 0);
  if (cfg.cons_wire_channels) {
    for (GateId g = 0; g < c.gate_count(); ++g)
      for (std::uint32_t dst : rig.routing.dests[g])
        ++wire_mult[static_cast<std::size_t>(p.block_of[g]) * n_blocks + dst];
  } else {
    for (std::size_t i = 0; i < wire_mult.size(); ++i) wire_mult[i] = 1;
  }
  auto null_cost = [&](std::uint32_t src, std::uint32_t dst) {
    return cost.null_msg +
           cost.null_wire *
               (wire_mult[static_cast<std::size_t>(src) * n_blocks + dst] - 1);
  };

  std::priority_queue<Arrival, std::vector<Arrival>, ArrivalLater> des;
  std::uint64_t des_seq = 0;
  VpResult r;
  r.procs = n_procs;
  std::vector<Message> externals, outputs;
  std::vector<Rng> jitter;
  for (std::uint32_t pr = 0; pr < n_procs; ++pr)
    jitter.emplace_back(cfg.jitter_seed ^ (0x9e37u + pr));

  // Run one LP's processing + channel-release cycle on its processor's
  // clock. Returns true if it did anything new.
  auto run_lp = [&](std::uint32_t b) -> bool {
    Lp& lp = lps[b];
    if (lp.terminated) return false;
    const std::uint32_t pr = proc_of[b];
    BlockSimulator& blk = *rig.blocks[b];
    const auto& env = rig.env[b];
    const Tick safe = lp.in.has_channels() ? lp.in.safe(horizon) : horizon;
    bool did = false;

    for (;;) {
      Tick t = blk.next_internal_time();
      if (lp.env_pos < env.size()) t = std::min(t, env[lp.env_pos].time);
      if (!lp.in.staged_empty()) t = std::min(t, lp.in.staged_top_time());
      if (t >= safe || t >= horizon) break;

      externals.clear();
      while (lp.env_pos < env.size() && env[lp.env_pos].time == t)
        externals.push_back(env[lp.env_pos++]);
      while (!lp.in.staged_empty() && lp.in.staged_top_time() == t)
        externals.push_back(lp.in.pop_staged());

      outputs.clear();
      if (aud) aud->on_batch(b, t);
      const BatchStats bs = blk.process_batch(t, externals, outputs);
      const double w =
          batch_cost(cost, bs, SaveMode::None) * cfg.noise(jitter[pr]);
      PLSIM_TRACE_VSPAN(tsn.lane(b), Eval, clock[pr], clock[pr] + w, t,
                        outputs.size());
      clock[pr] += w;
      r.busy += w;
      did = true;
      for (const Message& m : outputs)
        for (std::uint32_t dst : rig.routing.dests[m.gate])
          lp.outs[lp.out_index.at(dst)].buffer(m);
    }

    Tick frontier = safe;
    frontier = std::min(frontier, blk.next_internal_time());
    if (lp.env_pos < env.size())
      frontier = std::min(frontier, env[lp.env_pos].time);
    if (!lp.in.staged_empty())
      frontier = std::min(frontier, lp.in.staged_top_time());

    // Per-root frontiers for the adaptive per-channel bounds (mirrors
    // engines/conservative_engine.cpp): each event root pairs with its own
    // static distance to the destination instead of collapsing into one
    // block-wide frontier + minimum chain.
    Tick next_wire = kTickInf;
    Tick in_low = kTickInf;
    Tick env_next = kTickInf;
    Tick next_clock = kTickInf;
    if (bounds) {
      next_wire = blk.next_wire_time();
      in_low = safe;
      if (!lp.in.staged_empty())
        in_low = std::min(in_low, lp.in.staged_top_time());
      if (lp.env_pos < env.size()) env_next = env[lp.env_pos].time;
      next_clock = blk.next_clock_time();
    }

    for (CmbOutChannel& ch : lp.outs) {
      CmbOutChannel::Released rel;
      if (bounds) {
        const Tick classic =
            std::min(horizon, tick_add(frontier, blk.export_lookahead()));
        Tick adaptive = kTickInf;
        const Tick wd = bounds->wire(b, ch.dst());
        if (wd != kTickInf && next_wire != kTickInf)
          adaptive = std::min(adaptive, tick_add(next_wire, wd));
        const Tick rv = bounds->recv(b, ch.dst());
        if (rv != kTickInf && in_low != kTickInf)
          adaptive = std::min(adaptive, tick_add(in_low, rv));
        const Tick ed = bounds->env(b, ch.dst());
        if (ed != kTickInf && env_next != kTickInf)
          adaptive = std::min(adaptive, tick_add(env_next, ed));
        const Tick cd = bounds->clock(b, ch.dst());
        if (cd != kTickInf && next_clock != kTickInf)
          adaptive = std::min(adaptive, tick_add(next_clock, cd));
        rel = ch.release_at(std::max(classic, std::min(adaptive, horizon)),
                            horizon);
      } else {
        rel = ch.release(frontier, horizon);
      }
      const bool local = proc_of[ch.dst()] == pr;
      for (const Message& m : rel.real) {
        did = true;
        ++r.stats.messages;
        if (aud) aud->on_send(b, m.time);
        PLSIM_TRACE_VMARK(tsn.lane(b), Send, clock[pr], m.time, ch.dst());
        if (local) {
          clock[pr] += cost.event;
          r.busy += cost.event;
          if (aud) aud->on_deliver(ch.dst(), m.time);
          lps[ch.dst()].in.receive(CmbMsg{m, b, false});
        } else {
          clock[pr] += cost.msg_send;
          r.busy += cost.msg_send;
          if (aud) aud->on_inflight_add(m.time);
          des.push(Arrival{clock[pr] + cost.msg_latency, ch.dst(),
                           CmbMsg{m, b, false}, des_seq++});
        }
      }
      if (rel.send_null && cfg.cons_null_messages) {
        did = true;
        r.stats.null_messages +=
            wire_mult[static_cast<std::size_t>(b) * n_blocks + ch.dst()];
        const CmbMsg nm{Message{rel.promise, kNoGate, Logic4::X}, b, true};
        if (aud) {
          aud->on_promise(b, ch.dst(), rel.promise);
          aud->on_send(b, rel.promise);
        }
        PLSIM_TRACE_VMARK(tsn.lane(b), NullMsg, clock[pr], rel.promise,
                          ch.dst());
        if (local) {
          clock[pr] += cost.event;
          r.busy += cost.event;
          if (aud) aud->on_deliver(ch.dst(), rel.promise);
          lps[ch.dst()].in.receive(nm);
        } else {
          const double w = null_cost(b, ch.dst());
          clock[pr] += w;
          r.busy += w;
          if (aud) aud->on_inflight_add(rel.promise);
          des.push(Arrival{clock[pr] + cost.msg_latency, ch.dst(), nm,
                           des_seq++});
        }
      }
      // In detection/recovery mode an unsent promise simply leaves the
      // downstream channel clock behind until recovery grants progress.
    }
    if (frontier >= horizon) lp.terminated = true;
    return did;
  };

  auto activate_proc = [&](std::uint32_t pr) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::uint32_t b : lps_of[pr]) progress |= run_lp(b);
    }
  };

  auto drain_des = [&] {
    while (!des.empty()) {
      const Arrival a = des.top();
      des.pop();
      if (aud) {
        // Leaving the transport counts as delivery even when the terminated
        // destination drops the message on the floor.
        aud->on_deliver(a.dst, a.msg.msg.time);
        aud->on_inflight_remove(a.msg.msg.time);
      }
      if (lps[a.dst].terminated) continue;
      const std::uint32_t pr = proc_of[a.dst];
      const double handle =
          a.msg.null ? null_cost(a.msg.src, a.dst) : cost.msg_recv;
      if (a.msg.null) {
        // Null service is protocol overhead, not useful progress: charge the
        // whole stretch — idle until the null arrived plus the time spent
        // digesting it — as blocked time. A dense null crawl otherwise hides
        // its cost as busy work, and the traced blocked time undercounts
        // exactly when the protocol hurts most.
        PLSIM_TRACE_VSPAN(tsn.lane(a.dst), Blocked, clock[pr],
                          std::max(clock[pr], a.at) + handle, a.msg.msg.time,
                          a.msg.src);
      } else if (a.at > clock[pr]) {
        // The processor sat idle until the arrival: modelled blocked time.
        PLSIM_TRACE_VSPAN(tsn.lane(a.dst), Blocked, clock[pr], a.at,
                          a.msg.msg.time, a.msg.src);
      }
      PLSIM_TRACE_VMARK(tsn.lane(a.dst), Recv, std::max(clock[pr], a.at),
                        a.msg.msg.time, 1);
      clock[pr] = std::max(clock[pr], a.at) + handle;
      r.busy += handle;
      lps[a.dst].in.receive(a.msg);
      activate_proc(pr);
    }
  };

  for (std::uint32_t pr = 0; pr < n_procs; ++pr) activate_proc(pr);
  drain_des();

  // Without null messages the system deadlocks; detect with a circulating
  // marker and recover by granting the global minimum pending time (§IV).
  if (!cfg.cons_null_messages) {
    for (;;) {
      bool all_done = true;
      Tick t_min = horizon;
      for (std::uint32_t b = 0; b < n_blocks; ++b) {
        if (lps[b].terminated) continue;
        all_done = false;
        Tick t = rig.blocks[b]->next_internal_time();
        if (lps[b].env_pos < rig.env[b].size())
          t = std::min(t, rig.env[b][lps[b].env_pos].time);
        if (!lps[b].in.staged_empty())
          t = std::min(t, lps[b].in.staged_top_time());
        // Unreleased output messages can hold the true global minimum.
        for (const CmbOutChannel& ch : lps[b].outs)
          t = std::min(t, ch.buffered_min());
        t_min = std::min(t_min, t);
      }
      if (all_done) break;
      ++r.stats.deadlocks;

      // The marker circulates twice around the processors before the grant
      // is broadcast; everyone stalls until detection completes.
      double tau = 0.0;
      for (std::uint32_t pr = 0; pr < n_procs; ++pr)
        tau = std::max(tau, clock[pr]);
      tau += 2.0 * n_procs * (cost.msg_send + cost.msg_recv) +
             2.0 * cost.msg_latency * n_procs;
      for (std::uint32_t pr = 0; pr < n_procs; ++pr) {
        clock[pr] = tau;
        r.busy += cost.msg_send + cost.msg_recv;  // marker handling
      }

      // Recovery, phase 1: deliver every buffered message at the minimum
      // (the minimum events are provably safe to release).
      for (std::uint32_t b = 0; b < n_blocks; ++b) {
        for (CmbOutChannel& ch : lps[b].outs) {
          for (const Message& m : ch.force_release(t_min)) {
            clock[proc_of[b]] += cost.msg_send;
            r.busy += cost.msg_send;
            ++r.stats.messages;
            if (aud) {
              aud->on_send(b, m.time);
              aud->on_inflight_add(m.time);
            }
            des.push(Arrival{clock[proc_of[b]] + cost.msg_latency, ch.dst(),
                             CmbMsg{m, b, false}, des_seq++});
          }
        }
      }
      drain_des();

      // Recovery, phase 2: grant t_min + 1 — once the minimum events are
      // delivered, no future message can carry a timestamp below that. The
      // minimum is this executor's GVT: batches at t_min itself are exactly
      // what the grant unblocks, so the floor is t_min, not t_min + 1.
      if (aud) aud->on_gvt(t_min);
      for (std::uint32_t b = 0; b < n_blocks; ++b)
        if (!lps[b].terminated) lps[b].in.grant(tick_add(t_min, 1));
      for (std::uint32_t pr = 0; pr < n_procs; ++pr) activate_proc(pr);
      drain_des();
    }
  }

  for (std::uint32_t pr = 0; pr < n_procs; ++pr)
    r.makespan = std::max(r.makespan, clock[pr]);

  finish_vp_result(r, c, rig, tsn);
  if (aud) {
    // The arrival queue is fully drained before we get here.
    for (std::uint32_t b = 0; b < n_blocks; ++b) aud->set_pending(b, 0);
    aud->finalize();
  }
  return r;
}

}  // namespace plsim
