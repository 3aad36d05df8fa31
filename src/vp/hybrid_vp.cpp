// Virtual-platform hybrid hierarchical executor (paper §VI): "hierarchical
// synchronization, using either a synchronous or conservative asynchronous
// algorithm within a cluster of processors and using an optimistic
// asynchronous algorithm across clusters ... especially attractive for
// naturally hierarchical execution platforms".
//
// Each cluster owns hybrid_cluster_size blocks, one processor per block.
// Inside a cluster the blocks advance in lockstep (a barrier-synchronized
// timestep, messages through shared memory); across clusters the whole
// cluster behaves as one optimistic super-LP: a straggler from another
// cluster rolls the entire cluster back. Intra-cluster messages are part of
// the cluster's own history (removed on rollback); inter-cluster messages
// are cancelled with anti-messages (aggressive cancellation).

#include "vp/optimistic.hpp"

namespace plsim {
namespace {

// Clusters are both the nodes and the LPs: the auditor's LPs are the
// clusters, and intra-cluster messages are internal state, not transport.
class HybridVp final : public OptimisticVp {
 public:
  HybridVp(BlockRig rig, const VpConfig& cfg,
           const std::vector<std::uint32_t>& cluster_of, std::uint32_t csize)
      : OptimisticVp("hybrid-vp", cfg, std::move(rig), cluster_of,
                     identity(cluster_of.back() + 1), 0x517cu),
        csize_(csize),
        inter_latency_(cost_.msg_latency * cfg.inter_latency_factor) {
    // One processor per block, csize per cluster node.
    r_.procs = static_cast<std::uint32_t>(cluster_of.size());
  }

 private:
  void send_inter(std::uint32_t k, const TwMsg& m) {
    charge(k, cost_.msg_send);
    send_remote(m.dst / csize_, m, clock_[k] + inter_latency_);
    note_send(k, m, m.dst);
  }

  // A straggler rolls the whole cluster back. Hybrid clusters always cancel
  // aggressively: intra-cluster sends vanish from the cluster's own queue,
  // inter-cluster sends are cancelled with anti-messages.
  void rollback(std::uint32_t k, Tick t) {
    double w = cost_.rollback_fixed;
    std::uint64_t rb_batches = 0;
    const std::vector<TwMsg> undone = lps_[k].rollback_to(
        t, false, [&](const BlockSimulator::RollbackStats& rs) {
          w += rs.entries * cost_.undo_replay;
          rb_batches += rs.batches;
        });
    r_.stats.rolled_back_batches += rb_batches;
    PLSIM_TRACE_VSPAN(tsn_.lane(k), Rollback, clock_[k], clock_[k] + w, t,
                      static_cast<std::uint32_t>(rb_batches));
    charge(k, w);
    for (const TwMsg& m : undone) {
      if (m.dst / csize_ == k)
        lps_[k].annihilate(m);
      else
        send_inter(k, m);
    }
  }

  void arrive(std::uint32_t k, const TwMsg& m) override {
    PLSIM_TRACE_VMARK(tsn_.lane(k), Recv, clock_[k], m.msg.time, m.dst);
    lps_[k].deliver(m, [&](Tick t) { rollback(k, t); });
    wake(k);
  }

  // One synchronized cluster timestep: all member blocks process time nt.
  void work(std::uint32_t k) override {
    TwLp& cl = lps_[k];
    const Tick nt = cl.next_batch(horizon_);
    if (nt >= horizon_) return;
    const Tick window = cfg_.optimism_window;
    if (window > 0 && nt > gvt() && nt - gvt() > window) return;

    cl.start_batch(nt);
    double max_member = 0.0;
    double send_work = 0.0;
    std::uint32_t stepped = 0;  // member blocks that actually ran a batch
    std::vector<TwMsg> to_send;  // dispatched after the step cost is charged
    for (std::size_t i = 0; i < cl.members(); ++i) {
      externals_.clear();
      cl.gather(i, nt, externals_);
      if (externals_.empty() && cl.member(i).next_internal_time() != nt)
        continue;

      outputs_.clear();
      const BatchStats bs = cl.member(i).process_batch(nt, externals_, outputs_);
      max_member =
          std::max(max_member, batch_cost(cost_, bs, SaveMode::Incremental));
      ++stepped;
      for (const Message& m : outputs_) {
        for (std::uint32_t dst : rig_.routing.dests[m.gate]) {
          const TwMsg hm = cl.log_send(nt, m, dst);
          if (dst / csize_ == k) {
            send_work += cost_.event;
            cl.enqueue(hm);
            ++r_.stats.messages;
          } else {
            to_send.push_back(hm);
          }
        }
      }
    }
    const double w =
        (max_member + send_work + cost_.smp_barrier_cost(csize_)) *
        cfg_.noise(jitter_[k]);
    PLSIM_TRACE_VSPAN(tsn_.lane(k), Eval, clock_[k], clock_[k] + w, nt,
                      stepped);
    clock_[k] += w;
    r_.busy += w * csize_;  // every member processor occupies the step
    r_.stats.barriers += csize_;
    // Network sends depart once the step's computation has finished.
    for (const TwMsg& hm : to_send) send_inter(k, hm);
    wake(k);
  }

  const std::uint32_t csize_;
  const double inter_latency_;
};

}  // namespace

VpResult run_hybrid_vp(const Circuit& c, const Stimulus& stim,
                       const Partition& p, const VpConfig& cfg) {
  BlockOptions bopts;
  bopts.clock_period = stim.period;
  bopts.horizon = stim.horizon();
  bopts.save = SaveMode::Incremental;
  const std::uint32_t csize = std::max<std::uint32_t>(1, cfg.hybrid_cluster_size);
  std::vector<std::uint32_t> cluster_of(p.n_blocks);
  for (std::uint32_t b = 0; b < p.n_blocks; ++b) cluster_of[b] = b / csize;
  return HybridVp(make_rig(c, stim, p, bopts), cfg, cluster_of, csize).run(c);
}

}  // namespace plsim
