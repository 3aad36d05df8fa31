// Virtual-platform optimistic executor: a deterministic DES (in processor
// time) of Time Warp. Each virtual processor greedily executes the
// lowest-timestamp unprocessed batch among its LPs, paying state-saving
// costs per batch; stragglers and anti-messages trigger rollbacks whose
// restore work is charged from the real undo logs / snapshots. GVT rounds
// run at fixed virtual-time intervals; because the platform is simulated,
// GVT is computed exactly (LP minima plus in-flight message timestamps) and
// each round charges a reduction cost to every processor.
//
// LP granularity (paper §III): with several LPs per processor
// (VpConfig::block_to_proc), co-located LPs exchange messages through shared
// memory at event-insertion cost and the processor always runs its
// lowest-timestamp LP — the classic smallest-timestamp-first scheduling.

#include "vp/optimistic.hpp"

namespace plsim {
namespace {

// Processors are the nodes; every block is its own LP. send, deliver and
// rollback recurse into each other: delivering to a co-located LP can roll
// it back, which cancels more messages, possibly again locally.
class TwVp final : public OptimisticVp {
 public:
  TwVp(BlockRig rig, const VpConfig& cfg, SaveMode save, std::uint32_t n_blocks,
       std::vector<std::uint32_t> proc_of)
      : OptimisticVp("timewarp-vp", cfg, std::move(rig), identity(n_blocks),
                     std::move(proc_of), 0x9e37u),
        save_(save) {}

 private:
  void send(std::uint32_t b, const TwMsg& m) {
    const std::uint32_t pr = node_of_[b];
    for (std::uint32_t dst : rig_.routing.dests[m.msg.gate]) {
      note_send(b, m, dst);
      if (node_of_[dst] == pr) {
        // Shared-memory neighbour: enqueue directly.
        charge(pr, cost_.event);
        arrive(dst, m);
      } else {
        charge(pr, cost_.msg_send);
        send_remote(dst, m, clock_[pr] + cost_.msg_latency);
      }
    }
  }

  void rollback(std::uint32_t b, Tick t) {
    const std::uint32_t pr = node_of_[b];
    BlockSimulator::RollbackStats rs;
    const std::vector<TwMsg> cancel = lps_[b].rollback_to(
        t, cfg_.lazy_cancellation,
        [&rs](const BlockSimulator::RollbackStats& s) { rs = s; });
    const double w = cost_.rollback_fixed + rs.entries * cost_.undo_replay +
                     static_cast<double>(rs.bytes) * cost_.save_per_byte;
    PLSIM_TRACE_VSPAN(tsn_.lane(b), Rollback, clock_[pr], clock_[pr] + w, t,
                      rs.batches);
    charge(pr, w);
    for (const TwMsg& anti : cancel) send(b, anti);
    r_.stats.rolled_back_batches += rs.batches;
  }

  void arrive(std::uint32_t b, const TwMsg& m) override {
    PLSIM_TRACE_VMARK(tsn_.lane(b), Recv, clock_[node_of_[b]], m.msg.time, 1);
    lps_[b].deliver(m, [&](Tick t) { rollback(b, t); });
    wake(node_of_[b]);
  }

  // Runs the processor's lowest-timestamp LP.
  void work(std::uint32_t pr) override {
    // Flush lazy cancellations for every local LP first: anything below an
    // LP's next batch time will never be regenerated.
    for (std::uint32_t b : lps_of_[pr])
      lps_[b].flush_lazy(lps_[b].next_batch(horizon_),
                         [&](const TwMsg& anti) { send(b, anti); });

    // Lowest-timestamp-first LP scheduling among the unthrottled. An LP
    // whose next batch is beyond its optimism window past GVT is skipped —
    // with per-LP windows a throttled low-timestamp LP lets a higher
    // (unthrottled) neighbour on the same processor run instead.
    std::uint32_t best = kNoGate;
    Tick best_nt = horizon_;
    bool throttled_seen = false;
    for (std::uint32_t b : lps_of_[pr]) {
      const Tick nt = lps_[b].next_batch(horizon_);
      if (nt >= horizon_) continue;
      const Tick window =
          cfg_.lp_optimism.empty() ? cfg_.optimism_window : cfg_.lp_optimism[b];
      if (window > 0 && nt > gvt() && nt - gvt() > window) {
        throttled_seen = true;
        continue;
      }
      if (nt < best_nt) {
        best_nt = nt;
        best = b;
      }
    }
    if (best == kNoGate) {
      // All runnable LPs are throttled: the processor pays a poll and sleeps
      // until the next GVT round re-wakes it (GVT advancing is the only
      // thing that can unthrottle an LP here).
      if (throttled_seen) charge(pr, cost_.throttle_poll);
      return;  // idle (or throttled until the next GVT round)
    }

    TwLp& lp = lps_[best];
    const Tick nt = best_nt;
    externals_.clear();
    lp.gather(0, nt, externals_);
    outputs_.clear();
    lp.start_batch(nt);
    const BatchStats bs = lp.member(0).process_batch(nt, externals_, outputs_);
    const double w = batch_cost(cost_, bs, save_) * cfg_.noise(jitter_[pr]);
    PLSIM_TRACE_VSPAN(tsn_.lane(best), Eval, clock_[pr], clock_[pr] + w, nt,
                      outputs_.size());
    charge(pr, w);

    for (const Message& m : outputs_) {
      if (rig_.routing.dests[m.gate].empty()) continue;
      if (cfg_.lazy_cancellation && lp.reuse_lazy(nt, m)) continue;
      send(best, lp.log_send(nt, m));
    }
    wake(pr);
  }

  const SaveMode save_;
};

}  // namespace

VpResult run_timewarp_vp(const Circuit& c, const Stimulus& stim,
                         const Partition& p, const VpConfig& cfg) {
  BlockOptions bopts;
  bopts.clock_period = stim.period;
  bopts.horizon = stim.horizon();
  bopts.save = cfg.save == SaveMode::None ? SaveMode::Incremental : cfg.save;
  BlockRig rig = make_rig(c, stim, p, bopts);

  const std::uint32_t n_blocks = p.n_blocks;
  PLSIM_CHECK(cfg.lp_optimism.empty() || cfg.lp_optimism.size() == n_blocks,
              "VpConfig: lp_optimism size does not match the partition");
  PLSIM_CHECK(
      cfg.lp_save_interval.empty() || cfg.lp_save_interval.size() == n_blocks,
      "VpConfig: lp_save_interval size does not match the partition");
  if (!cfg.lp_save_interval.empty() || cfg.save_interval > 1)
    for (std::uint32_t b = 0; b < n_blocks; ++b)
      rig.blocks[b]->set_save_interval(cfg.lp_save_interval.empty()
                                           ? cfg.save_interval
                                           : cfg.lp_save_interval[b]);

  std::uint32_t n_procs = 0;
  return TwVp(std::move(rig), cfg, bopts.save, n_blocks,
              cfg.resolve_mapping(n_blocks, n_procs))
      .run(c);
}

}  // namespace plsim
