// Tests for the shared Time Warp LP (src/engines/tw_lp.hpp), driven directly
// on a two-block circuit: block 1 owns primary input `a` and output buffer
// `o`, block 0 owns `n = NOT a`. The LP under test is block 0, fed by
// hand-made messages on `a`, so every batch, straggler and anti-message is
// placed exactly. Block 0 starts with a = 0: its batch at 0 sends n = 1 at
// t = 1, and every test first runs past that start-up.

#include <gtest/gtest.h>

#include "engines/common.hpp"
#include "engines/tw_lp.hpp"
#include "netlist/builder.hpp"
#include "stim/stimulus.hpp"

namespace plsim {
namespace {

struct Fixture {
  Circuit circuit;
  Stimulus stim;
  BlockRig rig;
  TwLp lp{0, nullptr};
  GateId a = 0, n = 0;
  std::uint64_t next_uid = std::uint64_t{1} << 40;  // LP 1's uid space
  std::size_t batches = 0;  ///< batches processed (re-executions included)

  Fixture() : circuit(build()), stim(make_stim(circuit)), rig(rig_for()) {
    lp.add_member(0, rig.blocks[0].get(), &rig.env[0]);
    EXPECT_EQ(run_below(5).size(), 1u);  // start-up: n = 1 at t = 1
  }

  Circuit build() {
    NetlistBuilder b;
    a = b.add_input("a");
    n = b.add_gate(GateType::Not, {a}, "n");
    b.mark_output(b.add_gate(GateType::Buf, {n}, "o"));
    return b.build();
  }
  static Stimulus make_stim(const Circuit& c) {
    return random_stimulus(c, 3, 0.5, 7);
  }
  BlockRig rig_for() {
    Partition p;
    p.n_blocks = 2;
    p.block_of = {1, 0, 1};
    BlockOptions bopts;
    bopts.clock_period = stim.period;
    bopts.horizon = stim.horizon();
    bopts.save = SaveMode::Incremental;
    return make_rig(circuit, stim, p, bopts);
  }
  Tick horizon() const { return stim.horizon(); }

  /// A fresh positive from LP 1 setting `a` at time t.
  TwMsg input(Tick t, Logic4 v) {
    return TwMsg{Message{t, a, v}, next_uid++, 0, false};
  }
  static TwMsg anti(TwMsg m) {
    m.anti = true;
    return m;
  }

  /// Deliver with lazy (or aggressive) rollback; returns the anti-messages
  /// the rollback handed back.
  std::vector<TwMsg> deliver(const TwMsg& m, bool lazy) {
    std::vector<TwMsg> cancel;
    lp.deliver(m, [&](Tick t) {
      cancel = lp.rollback_to(t, lazy, [](const auto&) {});
    });
    return cancel;
  }

  /// Process the batch at `nt`, which must be next; returns its outputs
  /// for block 1 without logging them.
  std::vector<Message> step(Tick nt) {
    EXPECT_EQ(lp.next_batch(horizon()), nt);
    std::vector<Message> in, out, routed;
    lp.gather(0, nt, in);
    lp.start_batch(nt);
    lp.member(0).process_batch(nt, in, out);
    ++batches;
    for (const Message& m : out)
      if (!rig.routing.dests[m.gate].empty()) routed.push_back(m);
    return routed;
  }

  /// Process every batch below `until`, logging each output for block 1 as
  /// a fresh send; returns the sends.
  std::vector<TwMsg> run_below(Tick until) {
    std::vector<TwMsg> sent;
    for (Tick nt; (nt = lp.next_batch(horizon())) < until;)
      for (const Message& m : step(nt)) sent.push_back(lp.log_send(nt, m));
    return sent;
  }
};

TEST(TwLp, GvtFloorCountsLazyEntriesButNextBatchDoesNot) {
  Fixture f;
  const TwMsg m = f.input(5, Logic4::T);
  f.deliver(m, true);
  const std::vector<TwMsg> sent = f.run_below(6);
  ASSERT_EQ(sent.size(), 1u);  // batch 5 sends n: 1 -> 0 at t = 6

  // The input is cancelled: rolling back to 5 stages the send as lazily
  // pending, and with the input gone nothing is left to do before the clock
  // edge at 10.
  EXPECT_TRUE(f.deliver(Fixture::anti(m), true).empty());
  EXPECT_EQ(f.lp.next_batch(f.horizon()), 10u);
  // The pending entry can still become an anti-message at 5: GVT must not
  // pass it, but scheduling must not wait on it (that would livelock).
  EXPECT_EQ(f.lp.gvt_floor(f.horizon()), 5u);

  std::vector<TwMsg> flushed;
  f.lp.flush_lazy(f.lp.next_batch(f.horizon()),
                  [&](const TwMsg& x) { flushed.push_back(x); });
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_TRUE(flushed[0].anti);
  EXPECT_EQ(flushed[0].uid, sent[0].uid);
  EXPECT_EQ(f.lp.gvt_floor(f.horizon()), 10u);
}

TEST(TwLp, LazyReuseNeedsExactMessageAtSameBatchTime) {
  Fixture f;
  f.deliver(f.input(5, Logic4::T), true);
  const std::vector<TwMsg> sent = f.run_below(6);
  ASSERT_EQ(sent.size(), 1u);
  const Message out = sent[0].msg;  // n = 0 at t = 6

  // A straggler a = X at 3 rolls back past the batch at 5 lazily;
  // re-execution from 3 sends n: 1 -> X at t = 4 afresh.
  EXPECT_TRUE(f.deliver(f.input(3, Logic4::X), true).empty());
  EXPECT_EQ(f.lp.gvt_floor(f.horizon()), 3u);
  EXPECT_EQ(f.run_below(5).size(), 1u);
  EXPECT_EQ(f.lp.gvt_floor(f.horizon()), 5u);

  // Only the exact Message, at the batch time that sent it, is reused.
  Message other_value = out;
  other_value.value = Logic4::X;
  Message other_time = out;
  other_time.time = out.time + 1;
  EXPECT_FALSE(f.lp.reuse_lazy(5, other_value));
  EXPECT_FALSE(f.lp.reuse_lazy(5, other_time));
  EXPECT_FALSE(f.lp.reuse_lazy(4, out));
  EXPECT_EQ(f.lp.gvt_floor(f.horizon()), 5u);

  const std::vector<Message> again = f.step(5);  // n: X -> 0 at t = 6
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0], out);
  EXPECT_TRUE(f.lp.reuse_lazy(5, again[0]));
  EXPECT_FALSE(f.lp.reuse_lazy(5, again[0]));  // consumed
  EXPECT_EQ(f.lp.gvt_floor(f.horizon()), f.lp.next_batch(f.horizon()));

  // The reused message is back in the sent log under its original uid.
  const std::vector<TwMsg> cancel = f.deliver(f.input(5, Logic4::T), false);
  ASSERT_EQ(cancel.size(), 1u);
  EXPECT_TRUE(cancel[0].anti);
  EXPECT_EQ(cancel[0].uid, sent[0].uid);
}

TEST(TwLp, AntiMessageAnnihilatesOnlyThePositiveWithItsUid) {
  Fixture f;
  // Two positives on the same gate at the same time, told apart by value.
  const TwMsg one = f.input(5, Logic4::T);
  const TwMsg zero = f.input(5, Logic4::F);
  f.deliver(one, false);
  f.deliver(zero, false);
  EXPECT_EQ(f.lp.queue_left(), 2u);

  f.deliver(Fixture::anti(zero), false);
  EXPECT_EQ(f.lp.queue_left(), 1u);
  std::vector<Message> in;
  f.lp.gather(0, 5, in);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0], one.msg);

  f.deliver(Fixture::anti(one), false);
  EXPECT_EQ(f.lp.queue_left(), 0u);
  in.clear();
  f.lp.gather(0, 5, in);
  EXPECT_TRUE(in.empty());
}

TEST(TwLp, FossilCollectionKeepsInputsAtOrAboveGvtAndProcessedBound) {
  Fixture f;
  const Logic4 v[] = {Logic4::T, Logic4::F, Logic4::T};
  for (int i = 0; i < 3; ++i) f.deliver(f.input(5 + 10 * i, v[i]), false);
  f.run_below(10);
  const std::size_t below_10 = f.batches;
  f.run_below(16);  // the processed bound is now 16

  // Below GVT the history and the input at 5 go; the processed input at 15
  // (at or above GVT) must stay replayable.
  std::size_t freed = 0;
  f.lp.fossil_collect(10, [&](std::size_t b) { freed += b; });
  EXPECT_EQ(freed, below_10);
  EXPECT_EQ(f.lp.queue_left(), 3u);  // held + fossil-collected
  f.deliver(f.input(15, Logic4::F), false);  // straggler: back to 15
  std::vector<Message> in;
  f.lp.gather(0, 15, in);
  EXPECT_EQ(in.size(), 2u);

  // A GVT past the processed bound (now 15) keeps both the re-opened batch
  // at 15 and the unprocessed input at 25.
  f.lp.fossil_collect(30, [](std::size_t) {});
  EXPECT_EQ(f.lp.next_batch(f.horizon()), 15u);
  f.run_below(25);
  EXPECT_EQ(f.lp.next_batch(f.horizon()), 25u);
  in.clear();
  f.lp.gather(0, 25, in);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].value, Logic4::T);
  EXPECT_EQ(f.lp.queue_left(), 4u);
}

}  // namespace
}  // namespace plsim
