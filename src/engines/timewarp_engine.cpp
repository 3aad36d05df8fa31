// Optimistic asynchronous engine: Jefferson's Time Warp (paper §IV).
//
// Each block processes its lowest-timestamp unprocessed batch immediately.
// A straggler (or anti-message) below local virtual time triggers rollback:
// block state is restored (incremental undo log or full-copy snapshots) and
// previously sent messages are cancelled — eagerly (aggressive cancellation)
// or only once re-execution proves they were wrong (Gafni's lazy
// cancellation). Global virtual time is computed by a coordinator thread
// using a count-consistent snapshot (Mattern-style: a cut is valid only when
// the global sent and received message counts match, which any in-flight
// message breaks); storage below GVT is fossil-collected.

#include <atomic>
#include <optional>

#include "check/auditor.hpp"
#include "engines/common.hpp"
#include "engines/engine.hpp"
#include "engines/tw_lp.hpp"
#include "parallel/guarded.hpp"
#include "trace/critical_path.hpp"
#include "parallel/mailbox.hpp"
#include "parallel/threads.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace plsim {
namespace {

/// Per-LP record read by the GVT coordinator. `min_time` is the earliest
/// simulated time the LP could still (re)process — including pending lazy
/// cancellations, whose anti-messages can still roll a receiver back to
/// their timestamps; counts are cumulative messages sent/received, used to
/// detect in-flight messages.
struct PublishedRec {
  Tick min_time = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
};
struct alignas(64) PublishedSlot {
  Guarded<PublishedRec> rec;
};

}  // namespace

RunResult run_timewarp(const Circuit& c, const Stimulus& stim,
                       const Partition& p, const EngineConfig& cfg) {
  validate_engine_config(cfg, p.n_blocks, "timewarp");
  // Partition shaping first (it renumbers block ids), critical-path guidance
  // second (its per-LP vectors must index the final block ids).
  if (cfg.activity_feedback || cfg.schedule_blocks) {
    const Partition p2 = prepare_partition(c, stim, p, cfg);
    EngineConfig cfg2 = cfg;
    cfg2.activity_feedback = false;
    cfg2.schedule_blocks = false;
    return run_timewarp(c, stim, p2, cfg2);
  }
  if (cfg.cp_guided) {
    const CriticalPathResult cp = analyze_critical_path(c, stim, p,
                                                        CostModel{});
    const CpGuidance guide = derive_cp_guidance(
        cp, cfg.cp_window, cfg.cp_save_interval, cfg.cp_slack_threshold);
    EngineConfig cfg2 = cfg;
    cfg2.cp_guided = false;
    cfg2.lp_optimism = guide.lp_optimism;
    cfg2.lp_save_interval = guide.lp_save_interval;
    return run_timewarp(c, stim, p, cfg2);
  }

  WallTimer timer;

  BlockOptions bopts;
  bopts.clock_period = stim.period;
  bopts.horizon = stim.horizon();
  bopts.save = cfg.save == SaveMode::None ? SaveMode::Incremental : cfg.save;
  bopts.record_trace = cfg.record_trace;
  BlockRig rig = build_rig(c, stim, p, bopts, cfg);
  if (!cfg.lp_save_interval.empty() || cfg.save_interval > 1)
    for (std::uint32_t b = 0; b < p.n_blocks; ++b)
      rig.blocks[b]->set_save_interval(cfg.lp_save_interval.empty()
                                           ? cfg.save_interval
                                           : cfg.lp_save_interval[b]);

  const std::uint32_t n = p.n_blocks;
  const Tick horizon = bopts.horizon;
  std::vector<Mailbox<TwMsg>> inbox(n);
  std::vector<PublishedSlot> published(n);
  std::atomic<Tick> gvt{0};
  std::atomic<std::uint64_t> gvt_rounds{0};
  struct LpTotals {
    std::uint64_t rollbacks = 0, antis = 0, queue_left = 0;
  };
  std::vector<LpTotals> totals(n);  // written by each LP thread at exit

  std::optional<Auditor> aud;
  if (cfg.audit || Auditor::env_enabled())
    aud.emplace("timewarp", n, horizon);

  // Lane n belongs to the GVT coordinator thread.
  trace::Session tsn("timewarp", n + 1);

  // Thread ids 0..n-1 run the LPs; thread id n is the GVT coordinator.
  run_on_threads(n + 1, [&](unsigned tid) {
    // ---------------------------------------------------------------- GVT --
    if (tid == n) {
      trace::Lane* gl = tsn.lane(n);
      std::uint64_t rounds = 0;
      std::vector<PublishedRec> snap(n);
      for (;;) {
        // Two sweeps, seqlock style. The slots are read one at a time, so a
        // single sweep is a staggered cut: two messages crossing it in
        // opposite directions leave compensating +1/-1 count errors and the
        // aggregate sent == recv test matches with a straggler still in
        // flight. The counters are monotone, so if every slot shows the same
        // counts in both sweeps they were constant over the whole gap between
        // the sweeps, and the reads are equivalent to one instantaneous
        // snapshot taken in that gap.
        for (std::uint32_t b = 0; b < n; ++b)
          published[b].rec.with([&](const PublishedRec& pub) {
            snap[b] = pub;
          });
        Tick min_time = kTickInf;
        std::uint64_t sent = 0, recv = 0;
        bool stable = true;
        for (std::uint32_t b = 0; b < n && stable; ++b) {
          published[b].rec.with([&](const PublishedRec& pub) {
            stable = pub.sent == snap[b].sent &&
                     pub.received == snap[b].received;
            min_time = std::min(min_time, pub.min_time);
            sent += pub.sent;
            recv += pub.received;
          });
        }
        if (stable && sent == recv) {
          // Consistent cut: no message is in flight, so min_time is a valid
          // lower bound on all future processing.
          ++rounds;
          if (min_time > gvt.load(std::memory_order_relaxed)) {
            if (aud) aud->on_gvt(min_time);
            PLSIM_TRACE_MARK(gl, GvtRound, min_time,
                             static_cast<std::uint32_t>(rounds));
            gvt.store(min_time, std::memory_order_release);
            for (auto& mb : inbox) mb.wake();  // unblock throttled/idle LPs
          }
          if (min_time >= horizon) break;
        }
        yield_thread();
      }
      gvt_rounds.store(rounds, std::memory_order_relaxed);
      return;
    }

    // ---------------------------------------------------------------- LPs --
    const std::uint32_t b = tid;
    trace::Lane* tl = tsn.lane(b);
    TwLp lp(b, aud ? &*aud : nullptr);
    lp.add_member(b, rig.blocks[b].get(), &rig.env[b]);
    std::uint64_t antis = 0;

    std::vector<TwMsg> drained;
    std::vector<Message> externals, outputs;
    // Per-destination send buffers, reused across iterations: send() batches
    // locally and publish() flushes, so each iteration pays one mailbox lock
    // per destination instead of one per message. Appending in send order
    // preserves the per-sender FIFO delivery that annihilation relies on.
    std::vector<std::vector<TwMsg>> outbuf(n);

    auto publish = [&](std::uint64_t d_sent, std::uint64_t d_recv) {
      // Count before flushing (Samadi's rule): the sent-count must be
      // published before the messages become visible in any mailbox. That
      // way `sent` over-approximates and `received` under-approximates the
      // messages actually delivered at every instant, so an instantaneous
      // sent == recv reading really does mean nothing is in flight. The
      // opposite order opens a window where a receiver has drained and
      // counted a message whose send is still unpublished, and the
      // coordinator can match a cut with a straggler in flight.
      const Tick lm = lp.gvt_floor(horizon);
      published[b].rec.with([&](PublishedRec& pub) {
        pub.min_time = lm;
        pub.sent += d_sent;
        pub.received += d_recv;
      });
      for (std::uint32_t dst = 0; dst < n; ++dst) {
        if (!outbuf[dst].empty()) {
          inbox[dst].push_many(outbuf[dst]);
          outbuf[dst].clear();
        }
      }
    };

    auto send = [&](const TwMsg& m) -> std::uint64_t {
      const std::vector<std::uint32_t>& dests = rig.routing.dests[m.msg.gate];
      for (std::uint32_t dst : dests) {
        outbuf[dst].push_back(m);
        if (m.anti)
          PLSIM_TRACE_MARK(tl, AntiMsg, m.msg.time, dst);
        else
          PLSIM_TRACE_MARK(tl, Send, m.msg.time, dst);
      }
      if (aud && !dests.empty()) aud->on_send(b, m.msg.time, dests.size());
      return dests.size();
    };

    // Integrate a drained batch of incoming messages. A straggler rolls the
    // LP back and cancels (or stages for lazy comparison) the messages the
    // undone batches sent. Returns the number of anti-messages pushed.
    auto integrate = [&](const std::vector<TwMsg>& batch) -> std::uint64_t {
      std::uint64_t pushed = 0;
      if (!batch.empty())
        PLSIM_TRACE_MARK(tl, Recv, batch.front().msg.time,
                         static_cast<std::uint32_t>(batch.size()));
      for (const TwMsg& m : batch)
        lp.deliver(m, [&](Tick t) {
          PLSIM_TRACE_NAMED_SCOPE(rbspan, tl, Rollback, t, 0);
          // Anti-messages are counted per message here.
          std::uint64_t rb_pushed = 0;
          for (const TwMsg& anti :
               lp.rollback_to(t, cfg.lazy_cancellation, [](const auto&) {})) {
            rb_pushed += send(anti);
            ++antis;
          }
          rbspan.set_aux(static_cast<std::uint32_t>(rb_pushed));
          pushed += rb_pushed;
        });
      return pushed;
    };

    publish(0, 0);

    for (;;) {
      // ---- integrate incoming messages ----
      drained.clear();
      inbox[b].drain(drained);
      const std::uint64_t pushed = integrate(drained);
      if (!drained.empty() || pushed > 0) publish(pushed, drained.size());

      const Tick current_gvt = gvt.load(std::memory_order_acquire);
      if (current_gvt >= horizon) break;

      // ---- fossil collection ----
      if (current_gvt > 0) lp.fossil_collect(current_gvt, [](std::size_t) {});

      // ---- pick the next unprocessed batch ----
      const Tick nt = lp.next_batch(horizon);

      // ---- lazy cancellation: flush stale messages from batches that will
      // never be re-executed (everything below the next batch time) ----
      std::uint64_t lazy_pushed = 0;
      lp.flush_lazy(nt, [&](const TwMsg& anti) {
        lazy_pushed += send(anti);
        ++antis;
      });
      if (lazy_pushed > 0) publish(lazy_pushed, 0);

      const Tick window = cfg.lp_optimism.empty() ? cfg.optimism_window
                                                  : cfg.lp_optimism[b];
      const bool throttled =
          window > 0 && nt > current_gvt && nt - current_gvt > window;

      if (nt >= horizon || throttled) {
        // Nothing (allowed) to do: wait for messages or a GVT advance.
        publish(0, 0);
        drained.clear();
        {
          PLSIM_TRACE_SCOPE(tl, Blocked, nt, throttled ? 1 : 0);
          inbox[b].wait_and_drain(drained);
        }
        const std::uint64_t p2 = integrate(drained);
        if (!drained.empty() || p2 > 0) publish(p2, drained.size());
        continue;
      }

      // ---- process the batch at nt ----
      externals.clear();
      lp.gather(0, nt, externals);
      outputs.clear();
      lp.start_batch(nt);
      {
        PLSIM_TRACE_NAMED_SCOPE(span, tl, Eval, nt, 0);
        lp.member(0).process_batch(nt, externals, outputs);
        span.set_aux(static_cast<std::uint32_t>(outputs.size()));
      }

      std::uint64_t out_pushed = 0;
      for (const Message& m : outputs) {
        if (rig.routing.dests[m.gate].empty()) continue;
        // Lazy reuse: identical message already stands at the receivers.
        if (cfg.lazy_cancellation && lp.reuse_lazy(nt, m)) continue;
        out_pushed += send(lp.log_send(nt, m));
      }
      publish(out_pushed, 0);
    }

    totals[b] = {lp.rollbacks(), antis, lp.queue_left()};
  });

  if (aud) {
    // All threads have joined: whatever is still in a mailbox was sent but
    // never integrated (possible only for wake-credit residue; count it).
    std::vector<TwMsg> leftovers;
    for (std::uint32_t b = 0; b < n; ++b) {
      leftovers.clear();
      aud->set_pending(b, inbox[b].drain(leftovers));
      aud->set_queue_left(b, totals[b].queue_left);
    }
  }

  flush_block_activity(tsn, rig);

  RunResult r = merge_results(c, rig, cfg.record_trace);
  for (const LpTotals& t : totals) {
    r.stats.rollbacks += t.rollbacks;
    r.stats.anti_messages += t.antis;
  }
  r.stats.gvt_rounds = gvt_rounds.load(std::memory_order_relaxed);
  r.wall_seconds = timer.seconds();
  if (aud) {
    aud->check_trace(r.trace);
    aud->finalize();
  }
  return r;
}

}  // namespace plsim
