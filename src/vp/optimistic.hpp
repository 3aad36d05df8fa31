#pragma once
// Skeleton shared by the two optimistic virtual-platform executors
// (run_timewarp_vp, run_hybrid_vp). Both run TwLps (engines/tw_lp.hpp) on
// modelled nodes — processors for Time Warp, SMP clusters for hybrid — in a
// deterministic discrete-event simulation of message arrivals, node wake-ups
// and GVT rounds. The platform is simulated, so GVT is exact: the minimum
// of every LP's gvt_floor and every in-flight message timestamp. Each round
// charges a reduction plus fossil collection to every node.
//
// An executor supplies the two steps that differ: what a woken node does
// and how an LP takes an arrived message.

#include <algorithm>
#include <memory>
#include <numeric>
#include <queue>
#include <set>
#include <vector>

#include "check/auditor.hpp"
#include "engines/common.hpp"
#include "engines/tw_lp.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "vp/common.hpp"
#include "vp/vp.hpp"

namespace plsim {

class OptimisticVp {
 public:
  VpResult run(const Circuit& c) {
    for (std::uint32_t n = 0; n < clock_.size(); ++n) wake(n);
    push(cfg_.gvt_period, Kind::Gvt, 0, {});

    while (!des_.empty() && gvt_ < horizon_) {
      const Event ev = des_.top();
      des_.pop();
      switch (ev.kind) {
        case Kind::Wake:
          wake_scheduled_[ev.target] = 0;
          work(ev.target);
          break;
        case Kind::Arrival: {
          inflight_.erase(inflight_.find(ev.msg.msg.time));
          if (aud_) aud_->on_inflight_remove(ev.msg.msg.time);
          const std::uint32_t n = node_of_[ev.target];
          clock_[n] = std::max(clock_[n], ev.at) + cost_.msg_recv;
          r_.busy += cost_.msg_recv;
          arrive(ev.target, ev.msg);
          break;
        }
        case Kind::Gvt:
          gvt_round(ev.at);
          break;
      }
    }

    for (double t : clock_) r_.makespan = std::max(r_.makespan, t);
    for (const TwLp& lp : lps_) r_.stats.rollbacks += lp.rollbacks();
    if (aud_) {
      // The loop stops once GVT reaches the horizon: arrivals still queued
      // were sent but never delivered.
      std::vector<std::uint64_t> pending(lps_.size(), 0);
      for (; !des_.empty(); des_.pop()) {
        if (des_.top().kind != Kind::Arrival) continue;
        ++pending[des_.top().target];
        aud_->on_inflight_remove(des_.top().msg.msg.time);
      }
      for (std::uint32_t l = 0; l < lps_.size(); ++l) {
        aud_->set_pending(l, pending[l]);
        aud_->set_queue_left(l, lps_[l].queue_left());
      }
    }
    finish_vp_result(r_, c, rig_, tsn_);
    if (aud_) aud_->finalize();
    return r_;
  }

 protected:
  /// LP l owns the blocks b with lp_of_block[b] == l and runs on node
  /// node_of_lp[l]; every node runs an LP. Node n's jitter stream is seeded
  /// jitter_seed ^ (salt + n).
  OptimisticVp(const char* engine, const VpConfig& cfg, BlockRig rig,
               const std::vector<std::uint32_t>& lp_of_block,
               std::vector<std::uint32_t> node_of_lp,
               std::uint32_t jitter_salt)
      : cfg_(cfg),
        cost_(cfg.cost),
        rig_(std::move(rig)),
        horizon_(rig_.horizon),
        aud_(cfg.audit || Auditor::env_enabled()
                 ? std::make_unique<Auditor>(
                       engine, static_cast<std::uint32_t>(node_of_lp.size()),
                       horizon_)
                 : nullptr),
        tsn_(engine, static_cast<std::uint32_t>(node_of_lp.size()),
             trace::ClockKind::VirtualMilliUnits),
        node_of_(std::move(node_of_lp)),
        lps_of_(*std::max_element(node_of_.begin(), node_of_.end()) + 1),
        clock_(lps_of_.size(), 0.0),
        wake_scheduled_(lps_of_.size(), 0) {
    lps_.reserve(node_of_.size());
    for (std::uint32_t l = 0; l < node_of_.size(); ++l) {
      lps_.emplace_back(l, aud_.get());
      lps_of_[node_of_[l]].push_back(l);
    }
    for (std::uint32_t b = 0; b < lp_of_block.size(); ++b)
      lps_[lp_of_block[b]].add_member(b, rig_.blocks[b].get(), &rig_.env[b]);
    for (std::uint32_t n = 0; n < lps_of_.size(); ++n)
      jitter_.emplace_back(cfg.jitter_seed ^ (jitter_salt + n));
    r_.procs = static_cast<std::uint32_t>(lps_of_.size());
  }

  /// {0, 1, ..., n-1}: the one-to-one mapping.
  static std::vector<std::uint32_t> identity(std::uint32_t n) {
    std::vector<std::uint32_t> v(n);
    std::iota(v.begin(), v.end(), 0u);
    return v;
  }

  /// `node` woke up: process at most one batch, waking itself again while
  /// work remains.
  virtual void work(std::uint32_t node) = 0;
  /// Message `m` arrived at LP `lp`; its node has paid the receive.
  virtual void arrive(std::uint32_t lp, const TwMsg& m) = 0;

  void charge(std::uint32_t node, double w) {
    clock_[node] += w;
    r_.busy += w;
  }
  /// Wake `node` at its clock unless a wake-up is already pending.
  void wake(std::uint32_t node) {
    if (wake_scheduled_[node]) return;
    wake_scheduled_[node] = 1;
    push(clock_[node], Kind::Wake, node, {});
  }
  /// Count one copy of `m` sent by LP `lp` and mark it at its node's clock;
  /// `aux` names the destination on the trace.
  void note_send(std::uint32_t lp, const TwMsg& m, std::uint32_t aux) {
    if (aud_) aud_->on_send(lp, m.msg.time);
    if (m.anti) {
      ++r_.stats.anti_messages;
      PLSIM_TRACE_VMARK(tsn_.lane(lp), AntiMsg, clock_[node_of_[lp]],
                        m.msg.time, aux);
    } else {
      ++r_.stats.messages;
      PLSIM_TRACE_VMARK(tsn_.lane(lp), Send, clock_[node_of_[lp]],
                        m.msg.time, aux);
    }
  }
  /// Put `m` on the network to LP `lp`, arriving at modelled time `at`.
  void send_remote(std::uint32_t lp, const TwMsg& m, double at) {
    inflight_.insert(m.msg.time);
    if (aud_) aud_->on_inflight_add(m.msg.time);
    push(at, Kind::Arrival, lp, m);
  }
  Tick gvt() const { return gvt_; }

  const VpConfig& cfg_;
  const CostModel& cost_;
  BlockRig rig_;
  const Tick horizon_;
  std::unique_ptr<Auditor> aud_;  ///< null unless auditing
  trace::Session tsn_;            ///< one lane per LP
  std::vector<TwLp> lps_;
  const std::vector<std::uint32_t> node_of_;       ///< LP -> node
  std::vector<std::vector<std::uint32_t>> lps_of_;  ///< node -> LPs
  std::vector<double> clock_;  ///< per node
  std::vector<Rng> jitter_;    ///< per node
  VpResult r_;                 ///< procs defaults to the node count
  std::vector<Message> externals_, outputs_;  ///< batch buffers

 private:
  enum class Kind : std::uint8_t { Arrival, Wake, Gvt };
  struct Event {
    double at;
    Kind kind;
    std::uint32_t target;  ///< LP for Arrival, node for Wake
    TwMsg msg;
    std::uint64_t seq;  ///< FIFO among events at the same modelled time
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void push(double at, Kind kind, std::uint32_t target, const TwMsg& m) {
    des_.push(Event{at, kind, target, m, seq_++});
  }
  void gvt_round(double at) {
    Tick g = inflight_.empty() ? horizon_ : *inflight_.begin();
    for (TwLp& lp : lps_) g = std::min(g, lp.gvt_floor(horizon_));
    gvt_ = std::max(gvt_, g);
    if (aud_) aud_->on_gvt(gvt_);
    ++r_.stats.gvt_rounds;
    PLSIM_TRACE_VMARK(tsn_.lane(0), GvtRound, at, gvt_, r_.stats.gvt_rounds);
    const auto n_nodes = static_cast<std::uint32_t>(clock_.size());
    for (std::uint32_t n = 0; n < n_nodes; ++n) {
      double w = cost_.barrier_cost(n_nodes) + cost_.gvt_per_proc;
      for (std::uint32_t l : lps_of_[n])
        lps_[l].fossil_collect(gvt_, [&](std::size_t dropped) {
          w += dropped * cost_.fossil_per_batch;
        });
      clock_[n] = std::max(clock_[n], at) + w;
      r_.busy += w;
    }
    for (std::uint32_t n = 0; n < n_nodes; ++n) wake(n);
    if (gvt_ < horizon_) push(at + cfg_.gvt_period, Kind::Gvt, 0, {});
  }

  std::priority_queue<Event, std::vector<Event>, Later> des_;
  std::uint64_t seq_ = 0;
  std::vector<std::uint8_t> wake_scheduled_;  ///< per node
  std::multiset<Tick> inflight_;  ///< timestamps of undelivered messages
  Tick gvt_ = 0;
};

}  // namespace plsim
