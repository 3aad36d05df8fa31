#pragma once
// Indexed gain heap for the multilevel partitioner's refinement
// (multilevel.cpp): a binary max-heap of vertices ordered by gain
// descending, then vertex index ascending. That order is exactly the one a
// strict-`>` scan over ascending indices picks by, so refinement driven by
// the heap reproduces the scan's partitions move for move. Each vertex's heap
// position is tracked, so an erase or a gain update costs O(log n); build()
// fills a heap in O(n) with Floyd's bottom-up heapify. Picks depend only on
// the order, never on the heap's layout, so how a heap was filled cannot
// change a pick.
//
// Refinement may only make moves that keep the bisection balanced, so the
// pick is constrained: best_if() walks the heap tree without changing it,
// stopping below any node that passes the test (everything under it comes
// later in heap order) and below any node that does not beat the candidate
// found so far. BalanceWindow holds refinement's balance test and a
// conservative O(1) filter that rules a whole side out before the walk.
//
// The heap does not own the gains: it reads them from the caller's array,
// and the caller calls update(v) after changing gain[v].

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace plsim {

class GainHeap {
 public:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  explicit GainHeap(std::span<const std::int64_t> gain)
      : gain_(gain), pos_(gain.size(), kNone) {}

  bool contains(std::uint32_t v) const { return pos_[v] != kNone; }

  /// Replaces the contents with `vertices` (distinct), in O(n).
  void build(std::span<const std::uint32_t> vertices) {
    for (std::uint32_t v : heap_) pos_[v] = kNone;
    heap_.assign(vertices.begin(), vertices.end());
    for (std::uint32_t i = 0; i < heap_.size(); ++i) pos_[heap_[i]] = i;
    for (std::size_t i = heap_.size() / 2; i-- > 0;)
      sift_down(static_cast<std::uint32_t>(i));
  }

  void erase(std::uint32_t v) {
    const std::uint32_t i = pos_[v];
    pos_[v] = kNone;
    const std::uint32_t last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    place(i, last);
    sift_up(i);
    sift_down(pos_[last]);
  }

  /// Restores heap order after the caller changed gain[v]; a no-op when v
  /// is not on the heap.
  void update(std::uint32_t v) {
    if (!contains(v)) return;
    sift_up(pos_[v]);
    sift_down(pos_[v]);
  }

  /// The first vertex in heap order that passes `ok` and comes before
  /// `incumbent`; `incumbent` itself when there is none. Picking across
  /// several heaps chains the calls through `incumbent`.
  template <class Pred>
  std::uint32_t best_if(Pred&& ok, std::uint32_t incumbent = kNone) const {
    std::uint32_t best = incumbent;
    walk(0, ok, best);
    return best;
  }

 private:
  /// Heap order: true when `a` is picked before `b`.
  bool before(std::uint32_t a, std::uint32_t b) const {
    return gain_[a] > gain_[b] || (gain_[a] == gain_[b] && a < b);
  }

  template <class Pred>
  void walk(std::size_t i, Pred& ok, std::uint32_t& best) const {
    if (i >= heap_.size()) return;
    const std::uint32_t v = heap_[i];
    if (best != kNone && !before(v, best)) return;
    if (ok(v)) {
      best = v;
      return;
    }
    walk(2 * i + 1, ok, best);
    walk(2 * i + 2, ok, best);
  }

  void place(std::uint32_t i, std::uint32_t v) {
    heap_[i] = v;
    pos_[v] = i;
  }

  void sift_up(std::uint32_t i) {
    const std::uint32_t v = heap_[i];
    while (i > 0) {
      const std::uint32_t parent = (i - 1) / 2;
      if (!before(v, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, v);
  }

  void sift_down(std::uint32_t i) {
    const std::uint32_t v = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * std::size_t{i} + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], v)) break;
      place(i, heap_[child]);
      i = static_cast<std::uint32_t>(child);
    }
    place(i, v);
  }

  std::span<const std::int64_t> gain_;
  std::vector<std::uint32_t> heap_;
  std::vector<std::uint32_t> pos_;
};

/// Refinement's balance test. Moving a vertex of weight `wv` off `side`
/// leaves side 0 weighing nw0; the move is admitted when nw0 lies in
/// [lo, hi]. The uint64 arithmetic may wrap; a wrapped nw0 is tested like
/// any other value.
struct BalanceWindow {
  std::uint64_t w0;  // current weight of side 0
  double lo, hi;

  bool admits(std::uint64_t wv, std::uint8_t side) const {
    const double nw0 = side == 0 ? static_cast<double>(w0 - wv)
                                 : static_cast<double>(w0 + wv);
    return !(nw0 < lo || nw0 > hi);
  }

  /// Conservative side filter: false only when no weight in [wmin, wmax]
  /// moved off `side` is admitted. Without wrap-around the landing weights
  /// are a monotone function of the vertex weight (and so is rounding to
  /// double), so they span [nw0(wmin), nw0(wmax)] in some order; when the
  /// range could wrap, nothing is ruled out.
  bool may_admit(std::uint64_t wmin, std::uint64_t wmax,
                 std::uint8_t side) const {
    if (side == 0) {
      if (wmax > w0) return true;
      return !(static_cast<double>(w0 - wmin) < lo ||
               static_cast<double>(w0 - wmax) > hi);
    }
    if (wmax > std::numeric_limits<std::uint64_t>::max() - w0) return true;
    return !(static_cast<double>(w0 + wmax) < lo ||
             static_cast<double>(w0 + wmin) > hi);
  }
};

}  // namespace plsim
