#pragma once
// One optimistic logical process (Jefferson's Time Warp, paper §IV), shared
// by the threaded Time Warp engine and the two optimistic virtual-platform
// executors (Time Warp and hybrid).
//
// The LP owns one or more member BlockSimulators with their stimulus
// cursors: a Time Warp LP has one member, a hybrid cluster several that step
// in lockstep. It also owns the timestamped input queue, the processed bound
// (entries below it are processed; a rollback moves it down), the per-batch
// sent log and, under Gafni's lazy cancellation, the messages of rolled-back
// batches still awaiting regeneration or cancellation. The auditor's
// optimistic hooks fire here and nowhere else.
//
// The LP knows nothing about clocks, threads or transport. Operations that
// cancel or send hand the messages to the caller, which routes, costs and
// counts them under its own rules.

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "check/auditor.hpp"
#include "core/block.hpp"
#include "core/types.hpp"
#include "util/error.hpp"

namespace plsim {

/// Time Warp message envelope.
struct TwMsg {
  Message msg;
  std::uint64_t uid = 0;  ///< (sending LP id << 40) | per-LP counter
  /// Destination block. Only hybrid clusters set it: their members share one
  /// input queue, so each entry names the member it is for.
  std::uint32_t dst = 0;
  bool anti = false;
};

class TwLp {
 public:
  /// `id` is the LP's auditor slot and uid prefix; `aud` may be null.
  TwLp(std::uint32_t id, Auditor* aud) : id_(id), aud_(aud) {}

  void add_member(std::uint32_t block, BlockSimulator* sim,
                  const std::vector<Message>* env) {
    members_.push_back(Member{block, sim, env, 0});
  }
  std::size_t members() const { return members_.size(); }
  BlockSimulator& member(std::size_t i) { return *members_[i].sim; }

  /// Take one message off the transport. A straggler (below the processed
  /// bound) first calls `rollback(t)`, the caller's rollback, which owns
  /// costing and sending; then a positive is enqueued and an anti
  /// annihilates its positive.
  template <class Rollback>
  void deliver(const TwMsg& m, Rollback&& rollback) {
    if (aud_) aud_->on_deliver(id_, m.msg.time);
    if (m.msg.time < processed_bound_) rollback(m.msg.time);
    if (m.anti)
      annihilate(m);
    else
      enqueue(m);
  }

  void enqueue(const TwMsg& m) {
    input_queue_.emplace(m.msg.time, m);
    if (aud_) aud_->on_enqueue(id_);
  }

  /// Erase the positive carrying `m`'s uid (the input queue holds positives
  /// only). Transports deliver it first (per-sender FIFO); a hybrid's local
  /// sends are undone only once.
  void annihilate(const TwMsg& m) {
    auto [it, hi] = input_queue_.equal_range(m.msg.time);
    while (it != hi && it->second.uid != m.uid) ++it;
    PLSIM_ASSERT(it != hi);
    input_queue_.erase(it);
    if (aud_) aud_->on_cancel(id_);
  }

  /// Roll every member back so all batches at or above `t` (below the
  /// processed bound) are unprocessed. `restored(rs)` receives each member's
  /// restore work, in member order. Returns the anti-messages for what the
  /// undone batches sent, in log order, for the caller to send; under `lazy`
  /// the sent messages are kept pending instead and nothing is returned.
  template <class Restored>
  std::vector<TwMsg> rollback_to(Tick t, bool lazy, Restored&& restored) {
    if (aud_) aud_->on_rollback(id_, t);
    for (Member& m : members_) {
      restored(m.sim->rollback_to(t));
      while (m.env_pos > 0 && (*m.env)[m.env_pos - 1].time >= t) --m.env_pos;
    }
    processed_bound_ = t;
    ++rollbacks_;
    std::vector<TwMsg> cancel;
    const auto from = sent_log_.lower_bound(t);
    for (auto it = from; it != sent_log_.end(); ++it) {
      if (lazy) {
        lazy_pending_.emplace(it->first, it->second);
      } else {
        cancel.push_back(it->second);
        cancel.back().anti = true;
      }
    }
    sent_log_.erase(from, sent_log_.end());
    return cancel;
  }

  /// Time of the next batch this LP will process (the scheduling minimum),
  /// clamped to `horizon`. Pending lazy entries are excluded: waiting for
  /// them would livelock, since only re-execution resolves them.
  Tick next_batch(Tick horizon) {
    Tick t = kTickInf;
    for (Member& m : members_) {
      t = std::min(t, m.sim->next_internal_time());
      if (m.env_pos < m.env->size()) t = std::min(t, (*m.env)[m.env_pos].time);
    }
    const auto it = input_queue_.lower_bound(processed_bound_);
    if (it != input_queue_.end()) t = std::min(t, it->first);
    return std::min(t, horizon);
  }

  /// This LP's lower bound for GVT. Unlike next_batch it includes pending
  /// lazy entries: one at batch time bt can still become an anti-message
  /// at bt and roll its receivers back there, so GVT must not overtake it.
  Tick gvt_floor(Tick horizon) {
    Tick t = next_batch(horizon);
    if (!lazy_pending_.empty())
      t = std::min(t, lazy_pending_.begin()->first);
    return t;
  }

  /// The scheduler is about to process the batch at `nt`: audit causality
  /// and move the processed bound past it.
  void start_batch(Tick nt) {
    if (aud_) aud_->on_batch(id_, nt);
    processed_bound_ = tick_add(nt, 1);
  }

  /// Append member `i`'s inputs for the batch at `nt` to `out`: its stimulus
  /// first, then the queued messages (all of them in a one-member LP, only
  /// those addressed to the member in a cluster).
  void gather(std::size_t i, Tick nt, std::vector<Message>& out) {
    Member& m = members_[i];
    while (m.env_pos < m.env->size() && (*m.env)[m.env_pos].time == nt)
      out.push_back((*m.env)[m.env_pos++]);
    const bool all = members_.size() == 1;
    for (auto [lo, hi] = input_queue_.equal_range(nt); lo != hi; ++lo)
      if (all || lo->second.dst == m.block) out.push_back(lo->second.msg);
  }

  /// Lazy reuse: when a pending entry of the batch at `nt` carries exactly
  /// `m`, the message already standing at the receivers is still right.
  /// Moves it back to the sent log and returns true.
  bool reuse_lazy(Tick nt, const Message& m) {
    auto [it, hi] = lazy_pending_.equal_range(nt);
    while (it != hi && !(it->second.msg == m)) ++it;
    if (it == hi) return false;
    sent_log_.emplace(nt, it->second);
    lazy_pending_.erase(it);
    return true;
  }

  /// Stamp a fresh uid on an output of the batch at `nt` and log it as sent.
  TwMsg log_send(Tick nt, const Message& m, std::uint32_t dst = 0) {
    const TwMsg tm{m, (static_cast<std::uint64_t>(id_) << 40) | uid_counter_++,
                   dst, false};
    sent_log_.emplace(nt, tm);
    return tm;
  }

  /// Turn every pending lazy entry below `below` (the next batch time; those
  /// batches will not be re-executed) into an anti-message and pass it to
  /// `send`, in pending order.
  template <class Send>
  void flush_lazy(Tick below, Send&& send) {
    for (auto it = lazy_pending_.begin();
         it != lazy_pending_.end() && it->first < below;) {
      TwMsg anti = it->second;
      anti.anti = true;
      it = lazy_pending_.erase(it);
      send(anti);
    }
  }

  /// Fossil-collect below `gvt`: member histories (each member's freed batch
  /// count goes to `freed`, in member order), the sent log, and processed
  /// inputs below min(gvt, processed bound), which can never be replayed.
  template <class Freed>
  void fossil_collect(Tick gvt, Freed&& freed) {
    for (Member& m : members_) freed(m.sim->fossil_collect(gvt));
    sent_log_.erase(sent_log_.begin(), sent_log_.lower_bound(gvt));
    const auto end =
        input_queue_.lower_bound(std::min(gvt, processed_bound_));
    fossil_dropped_ += static_cast<std::uint64_t>(
        std::distance(input_queue_.begin(), end));
    input_queue_.erase(input_queue_.begin(), end);
  }

  std::uint64_t rollbacks() const { return rollbacks_; }

  /// Input-queue entries still held plus those fossil-collected: what the
  /// auditor's queue conservation expects at exit.
  std::uint64_t queue_left() const {
    return input_queue_.size() + fossil_dropped_;
  }

 private:
  struct Member {
    std::uint32_t block;
    BlockSimulator* sim;
    const std::vector<Message>* env;  ///< stimulus feed, sorted by time
    std::size_t env_pos;
  };

  std::uint32_t id_;
  Auditor* aud_;
  std::vector<Member> members_;
  std::multimap<Tick, TwMsg> input_queue_;  ///< positives, by timestamp
  Tick processed_bound_ = 0;
  std::multimap<Tick, TwMsg> sent_log_;  ///< keyed by the sending batch time
  std::multimap<Tick, TwMsg> lazy_pending_;  ///< keyed by original batch time
  std::uint64_t uid_counter_ = 0;
  std::uint64_t rollbacks_ = 0;
  std::uint64_t fossil_dropped_ = 0;
};

}  // namespace plsim
