// Differential test of the multilevel refinement's gain heap
// (src/partition/gain_heap.hpp) against the linear scan it replaced: for
// random gains with many ties, random 64-bit weights, random balance windows
// and interleaved gain updates, erases and re-inserts, every constrained
// pick must name the same vertex the scan names. Heaps are filled only by
// build() (Floyd's bottom-up heapify), from shuffled vertex lists, as
// refinement fills them at the start of every pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "partition/gain_heap.hpp"
#include "util/rng.hpp"

namespace plsim {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/// The scan the heap replaced: ascending vertex index, strict `>` on gain.
template <class Pred>
std::uint32_t scan_best(const std::vector<std::int64_t>& gain,
                        const std::vector<std::uint8_t>& present, Pred ok) {
  std::uint32_t best = GainHeap::kNone;
  std::int64_t bg = std::numeric_limits<std::int64_t>::min();
  for (std::uint32_t v = 0; v < gain.size(); ++v) {
    if (!present[v] || !ok(v)) continue;
    if (gain[v] > bg) {
      bg = gain[v];
      best = v;
    }
  }
  return best;
}

/// Gains drawn from a handful of values (ties everywhere), now and then
/// from the whole int64 range.
std::int64_t random_gain(Rng& rng) {
  if (rng.chance(0.05))
    return static_cast<std::int64_t>(rng.next() >> 1) -
           static_cast<std::int64_t>(rng.next() >> 1);
  return static_cast<std::int64_t>(rng.uniform(9)) - 4;
}

/// Vertex weights in one of five regimes: unit, small, mixed magnitudes,
/// full 64-bit, and crowded just below 2^64 (where w0 +/- w wraps).
std::uint64_t random_weight(Rng& rng, int regime) {
  switch (regime) {
    case 0:
      return 1;
    case 1:
      return rng.range(1, 16);
    case 2:
      return rng.next() >> rng.uniform(64);
    case 3:
      return rng.next();
    default:
      return kMax - rng.uniform(1000);
  }
}

/// Refills `heap` with the present vertices on side `s`, in random order.
void rebuild(GainHeap& heap, std::uint8_t s,
             const std::vector<std::uint8_t>& side,
             const std::vector<std::uint8_t>& present, Rng& rng) {
  std::vector<std::uint32_t> members;
  for (std::uint32_t v = 0; v < side.size(); ++v)
    if (present[v] && side[v] == s) members.push_back(v);
  for (std::size_t i = members.size(); i > 1; --i)
    std::swap(members[i - 1], members[rng.uniform(i)]);
  heap.build(members);
}

TEST(GainHeap, ConstrainedPicksMatchLinearScan) {
  Rng rng(0x6a1e);
  std::size_t picks = 0, admitted_picks = 0, sides_ruled_out = 0;
  std::size_t builds = 0;
  while (picks < 120000) {
    const std::uint32_t n = static_cast<std::uint32_t>(rng.range(1, 300));
    const int regime = static_cast<int>(rng.uniform(5));
    std::vector<std::int64_t> gain(n);
    std::vector<std::uint64_t> weight(n);
    std::vector<std::uint8_t> side(n), present(n, 1);
    GainHeap heap[2] = {GainHeap(gain), GainHeap(gain)};
    for (std::uint32_t v = 0; v < n; ++v) {
      gain[v] = random_gain(rng);
      weight[v] = random_weight(rng, regime);
      side[v] = static_cast<std::uint8_t>(rng.uniform(2));
    }
    for (std::uint8_t s : {0, 1}) rebuild(heap[s], s, side, present, rng);
    builds += 2;

    for (int op = 0; op < 400; ++op) {
      const std::uint32_t v = static_cast<std::uint32_t>(rng.uniform(n));
      const std::uint64_t kind = rng.uniform(100);
      if (kind < 25) {
        gain[v] = random_gain(rng);
        heap[side[v]].update(v);
      } else if (kind < 35) {
        if (present[v]) {
          heap[side[v]].erase(v);
          present[v] = 0;
        } else {
          // Re-insert: rebuild the vertex's new side over its old layout.
          side[v] = static_cast<std::uint8_t>(rng.uniform(2));
          present[v] = 1;
          rebuild(heap[side[v]], side[v], side, present, rng);
          ++builds;
        }
      } else if (kind < 45) {
        // Refinement's restoration pick: one side, a weight threshold.
        const std::uint8_t s = side[v];
        const double limit =
            static_cast<double>(random_weight(rng, regime)) * 2.0 * rng.real();
        const auto ok = [&](std::uint32_t u) {
          return !(static_cast<double>(weight[u]) >= limit);
        };
        std::vector<std::uint8_t> on_side(n, 0);
        for (std::uint32_t u = 0; u < n; ++u)
          on_side[u] = present[u] && side[u] == s;
        ASSERT_EQ(heap[s].best_if(ok), scan_best(gain, on_side, ok));
        ++picks;
      } else {
        // Refinement's FM pick: both sides, a balance window placed around
        // the landing weight of a random vertex so that some moves land
        // inside it and some do not.
        BalanceWindow window{random_weight(rng, regime), 0, 0};
        const double land =
            side[v] == 0 ? static_cast<double>(window.w0 - weight[v])
                         : static_cast<double>(window.w0 + weight[v]);
        const double spread =
            static_cast<double>(random_weight(rng, regime)) * rng.real();
        window.lo = land - spread * rng.real();
        window.hi = land + spread * rng.real();
        if (rng.chance(0.2)) window.hi = window.lo - 1;  // empty window
        const auto ok = [&](std::uint32_t u) {
          return window.admits(weight[u], side[u]);
        };

        std::uint32_t got = GainHeap::kNone;
        for (std::uint8_t s : {0, 1}) {
          std::uint64_t wmin = kMax, wmax = 0;
          std::vector<std::uint8_t> on_side(n, 0);
          for (std::uint32_t u = 0; u < n; ++u) {
            if (!present[u] || side[u] != s) continue;
            on_side[u] = 1;
            wmin = std::min(wmin, weight[u]);
            wmax = std::max(wmax, weight[u]);
          }
          // The side filter may only rule out sides with no admitted move.
          const bool may = window.may_admit(wmin, wmax, s);
          if (!may) {
            ++sides_ruled_out;
            ASSERT_EQ(scan_best(gain, on_side, ok), GainHeap::kNone);
          }
          if (may) got = heap[s].best_if(ok, got);
        }
        const std::uint32_t want = scan_best(gain, present, ok);
        ASSERT_EQ(got, want);
        ++picks;
        if (want != GainHeap::kNone) {
          ++admitted_picks;
          // Take the move, as refinement does: the vertex leaves its heap.
          heap[side[want]].erase(want);
          present[want] = 0;
        }
      }
    }
    for (std::uint32_t v = 0; v < n; ++v)
      ASSERT_EQ(heap[side[v]].contains(v), present[v] != 0);
  }
  // The mix must exercise every outcome, not only the trivial ones.
  EXPECT_GT(admitted_picks, picks / 10);
  EXPECT_GT(picks - admitted_picks, picks / 10);
  EXPECT_GT(sides_ruled_out, picks / 20);
  EXPECT_GT(builds, picks / 20);
}

TEST(GainHeap, OrdersByGainThenIndex) {
  std::vector<std::int64_t> gain = {3, 7, 7, -2, 7, 3};
  GainHeap heap(gain);
  const auto any = [](std::uint32_t) { return true; };
  // Every fill order gives the same pick order.
  std::vector<std::uint32_t> fill = {5, 3, 4, 0, 2, 1};
  Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    heap.build(fill);
    std::vector<std::uint32_t> order;
    for (std::size_t i = 0; i < gain.size(); ++i) {
      order.push_back(heap.best_if(any));
      heap.erase(order.back());
    }
    EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 4, 0, 5, 3}));
    EXPECT_EQ(heap.best_if(any), GainHeap::kNone);
    for (std::size_t i = fill.size(); i > 1; --i)
      std::swap(fill[i - 1], fill[rng.uniform(i)]);
  }

  // build() replaces the contents: vertices left from before are dropped.
  heap.build(std::vector<std::uint32_t>{0, 1, 2});
  heap.build(std::vector<std::uint32_t>{3, 5});
  EXPECT_FALSE(heap.contains(1));
  EXPECT_EQ(heap.best_if(any), 5u);

  // A gain update re-sorts; an incumbent ahead of every match wins.
  heap.build(std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5});
  gain[3] = 8;
  heap.update(3);
  EXPECT_EQ(heap.best_if(any), 3u);
  EXPECT_EQ(heap.best_if([](std::uint32_t v) { return v == 0; }), 0u);
  EXPECT_EQ(heap.best_if([](std::uint32_t v) { return v == 0; }, 4u), 4u);
  EXPECT_EQ(heap.best_if([](std::uint32_t) { return false; }), GainHeap::kNone);
}

}  // namespace
}  // namespace plsim
