// Multilevel graph bisection: coarsen by heavy-edge matching until the graph
// is small, bisect the coarsest level, then uncoarsen while refining with a
// boundary FM pass at every level. Operates on the undirected weighted gate
// graph (edge weight = connection multiplicity, scaled by the driver's net
// activity when given); applied recursively for k-way partitions.
//
// Activity weighting (paper §III/§VI): per-gate evaluation counts become
// vertex weights that flow through coarsening (supernodes sum their
// constituents' weights, so the balance constraint at every level is the
// *dynamic* load), and per-driver message counts scale the edge weights
// that heavy-edge matching and refinement gains operate on. All weight
// arithmetic is 64-bit: summed activity counts exceed 2^32 on million-event
// runs. Coarsening must conserve both totals at every level — checked in
// debug builds and under PLSIM_AUDIT.

#include <cstdlib>
#include <algorithm>
#include <limits>
#include <memory_resource>
#include <unordered_map>

#include "partition/algorithms.hpp"
#include "partition/gain_heap.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace plsim {
namespace {

/// Conservation-invariant checking: always in debug builds, and when the
/// PLSIM_AUDIT environment variable is set (same convention as
/// Auditor::env_enabled, inlined here to keep src/partition below src/check
/// in the library graph).
bool ml_audit_enabled() {
#ifndef NDEBUG
  return true;
#else
  static const bool on = [] {
    const char* v = std::getenv("PLSIM_AUDIT");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return on;
#endif
}

struct MlGraph {
  // CSR adjacency with parallel edge weights; vertex weights for balance.
  // 64-bit: vertex weights are summed activity counts and edge weights are
  // activity-scaled multiplicities, both of which overflow 32 bits once
  // supernodes aggregate hot gates.
  std::vector<std::uint32_t> off;
  std::vector<std::uint32_t> adj;
  std::vector<std::uint64_t> wedge;
  std::vector<std::uint64_t> wvert;
  std::size_t n() const { return wvert.size(); }

  std::uint64_t total_vertex_weight() const {
    std::uint64_t t = 0;
    for (std::uint64_t w : wvert) t += w;
    return t;
  }
  std::uint64_t total_edge_weight() const {
    std::uint64_t t = 0;
    for (std::uint64_t w : wedge) t += w;
    return t;
  }
};

/// Per-vertex edge merge: neighbour -> summed edge weight. The graph
/// builders below keep one per vertex, all carved from one arena that lives
/// for the call, so a level costs a few large allocations instead of one
/// per node and bucket array. libstdc++'s bucket and rehash policy does not
/// depend on the allocator, so each map iterates in the order a default-
/// allocated one would, and that order is the adjacency order matching and
/// the BFS seed read: partitions depend on it. Never reserve() or rehash()
/// these maps; either changes bucket counts and so the order.
using EdgeMerge = std::pmr::unordered_map<std::uint32_t, std::uint64_t>;

/// Fills g's CSR adjacency from the merged edges, in map iteration order.
void set_adjacency(MlGraph& g, const std::pmr::vector<EdgeMerge>& nbr) {
  const std::size_t n = nbr.size();
  g.off.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    g.off[i + 1] = g.off[i] + static_cast<std::uint32_t>(nbr[i].size());
  g.adj.resize(g.off[n]);
  g.wedge.resize(g.off[n]);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t k = g.off[i];
    for (auto [u, w] : nbr[i]) {
      g.adj[k] = u;
      g.wedge[k] = w;
      ++k;
    }
  }
}

/// `gate_w` / `net_w` are global-gate-indexed activity weights (empty =
/// unit). Each fanin connection f -> cells[i] contributes the weight of the
/// net driven by f.
MlGraph from_circuit(const Circuit& c, std::span<const GateId> cells,
                     std::span<const std::uint32_t> local_of,
                     std::span<const std::uint64_t> gate_w,
                     std::span<const std::uint64_t> net_w) {
  const std::size_t n = cells.size();
  std::pmr::monotonic_buffer_resource arena;  // declared first: outlives nbr
  std::pmr::vector<EdgeMerge> nbr(n, &arena);
  for (std::size_t i = 0; i < n; ++i) {
    for (GateId f : c.fanins(cells[i])) {
      const std::uint32_t lf = local_of[f];
      if (lf != static_cast<std::uint32_t>(-1) && lf != i) {
        const std::uint64_t w = net_w.empty() ? 1 : net_w[f];
        nbr[i][lf] += w;
        nbr[lf][static_cast<std::uint32_t>(i)] += w;
      }
    }
  }
  MlGraph g;
  g.wvert.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    g.wvert[i] = gate_w.empty() ? 1 : gate_w[cells[i]];
  set_adjacency(g, nbr);
  return g;
}

/// Heavy-edge matching coarsening; returns the coarse graph and the map
/// fine-vertex -> coarse-vertex.
MlGraph coarsen(const MlGraph& g, Rng& rng, std::vector<std::uint32_t>& map) {
  const std::size_t n = g.n();
  map.assign(n, static_cast<std::uint32_t>(-1));
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform(i)]);

  std::uint32_t coarse = 0;
  for (std::uint32_t v : order) {
    if (map[v] != static_cast<std::uint32_t>(-1)) continue;
    // Match with the unmatched neighbour of heaviest connecting weight.
    std::uint32_t best = static_cast<std::uint32_t>(-1);
    std::uint64_t bw = 0;
    for (std::uint32_t e = g.off[v]; e < g.off[v + 1]; ++e) {
      const std::uint32_t u = g.adj[e];
      if (map[u] == static_cast<std::uint32_t>(-1) && g.wedge[e] > bw) {
        bw = g.wedge[e];
        best = u;
      }
    }
    map[v] = coarse;
    if (best != static_cast<std::uint32_t>(-1)) map[best] = coarse;
    ++coarse;
  }

  // Build the coarse graph. Edges absorbed inside a supernode leave the
  // graph; everything else must survive weight-for-weight.
  std::pmr::monotonic_buffer_resource arena;  // declared first: outlives nbr
  std::pmr::vector<EdgeMerge> nbr(coarse, &arena);
  MlGraph cg;
  std::uint64_t absorbed = 0;
  cg.wvert.assign(coarse, 0);
  for (std::size_t v = 0; v < n; ++v) {
    cg.wvert[map[v]] += g.wvert[v];
    for (std::uint32_t e = g.off[v]; e < g.off[v + 1]; ++e) {
      const std::uint32_t cu = map[g.adj[e]], cv = map[v];
      if (cu != cv)
        nbr[cv][cu] += g.wedge[e];
      else
        absorbed += g.wedge[e];
    }
  }
  set_adjacency(cg, nbr);

  if (ml_audit_enabled()) {
    // Conservation invariants: a supernode weighs exactly what its
    // constituents weighed, and cross-supernode edge weight is the fine
    // total minus what the matching absorbed. A drop here silently
    // unbalances every coarser level's partition.
    PLSIM_ASSERT(cg.total_vertex_weight() == g.total_vertex_weight());
    PLSIM_ASSERT(cg.total_edge_weight() + absorbed == g.total_edge_weight());
  }
  return cg;
}

std::uint64_t side_weight(const MlGraph& g, const std::vector<std::uint8_t>& side,
                          std::uint8_t which) {
  std::uint64_t w = 0;
  for (std::size_t v = 0; v < g.n(); ++v)
    if (side[v] == which) w += g.wvert[v];
  return w;
}

/// Refinement gain of every vertex: the edge-cut reduction from moving it to
/// the other side.
std::vector<std::int64_t> cut_gains(const MlGraph& g,
                                    const std::vector<std::uint8_t>& side) {
  std::vector<std::int64_t> gain(g.n(), 0);
  for (std::size_t v = 0; v < g.n(); ++v)
    for (std::uint32_t e = g.off[v]; e < g.off[v + 1]; ++e)
      gain[v] += (side[g.adj[e]] != side[v])
                     ? static_cast<std::int64_t>(g.wedge[e])
                     : -static_cast<std::int64_t>(g.wedge[e]);
  return gain;
}

/// Moves `v` to the other side and keeps every gain exact: each edge at `v`
/// switches between cut and uncut, so gain[v] changes sign and each
/// neighbour's gain moves by twice the edge weight. With `heap` (the two
/// per-side heaps; `v` already off its own), each neighbour is re-sifted
/// right after its gain changes — sifting only after all of them changed
/// would break heap order. Roll-backs pass no heap.
void flip(const MlGraph& g, std::uint32_t v, std::vector<std::uint8_t>& side,
          std::vector<std::int64_t>& gain, GainHeap* heap = nullptr) {
  side[v] = 1 - side[v];
  gain[v] = -gain[v];
  for (std::uint32_t e = g.off[v]; e < g.off[v + 1]; ++e) {
    const std::uint32_t u = g.adj[e];
    gain[u] += (side[u] == side[v]) ? -2 * static_cast<std::int64_t>(g.wedge[e])
                                    : 2 * static_cast<std::int64_t>(g.wedge[e]);
    if (heap != nullptr) heap[side[u]].update(u);
  }
}

/// Boundary FM refinement on the graph edge-cut. `ratio` = target weight
/// share of side 0. Every move is the highest-gain admissible vertex, ties
/// to the lowest index, taken from one gain heap per side. Gains are
/// computed once per call; flip() keeps them exact from then on.
void refine(const MlGraph& g, double ratio, std::vector<std::uint8_t>& side) {
  const std::size_t n = g.n();
  std::uint64_t total = 0;
  std::uint64_t maxw = 1;
  for (std::size_t v = 0; v < n; ++v) {
    total += g.wvert[v];
    maxw = std::max<std::uint64_t>(maxw, g.wvert[v]);
  }
  const double target0 = ratio * static_cast<double>(total);
  const double tol = std::max<double>(static_cast<double>(maxw),
                                      0.03 * static_cast<double>(total));
  const double lo = target0 - tol, hi = target0 + tol;

  std::vector<std::int64_t> gain = cut_gains(g, side);
  GainHeap heap[2] = {GainHeap(gain), GainHeap(gain)};
  std::vector<std::uint32_t> members[2];
  std::uint64_t wmin[2], wmax[2];
  // Puts every vertex on its side's heap and returns side 0's weight. The
  // weight range per side feeds the O(1) filter that skips a side no move
  // off it can keep balanced.
  const auto fill_heaps = [&] {
    std::uint64_t w0 = 0;
    for (std::uint8_t s : {0, 1}) {
      members[s].clear();
      wmin[s] = std::numeric_limits<std::uint64_t>::max();
      wmax[s] = 0;
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::uint8_t s = side[v];
      members[s].push_back(v);
      wmin[s] = std::min(wmin[s], g.wvert[v]);
      wmax[s] = std::max(wmax[s], g.wvert[v]);
      if (s == 0) w0 += g.wvert[v];
    }
    heap[0].build(members[0]);
    heap[1].build(members[1]);
    return w0;
  };

  // Balance restoration. The FM passes below only accept moves that LAND
  // inside the tolerance window, so a partition that arrives outside it —
  // the BFS base case can overshoot by most of a heavy supernode, and a
  // projected coarse partition inherits imbalance the finer tolerance no
  // longer covers — would be stuck forever. Walk it back first: repeatedly
  // move the highest-gain vertex off the heavy side, accepting only moves
  // that strictly shrink the imbalance, until the window is reached. Every
  // quantity involved scales linearly with a uniform vertex-weight factor,
  // so uniform activity still reproduces the unit-weight partition exactly.
  // This fires with unit gate weights too: coarse levels carry supernode
  // weights, so a projected partition can sit outside the finer window.
  // The pre-heap goldens in tests/partition_test.cpp pin this path.
  {
    std::uint64_t w0 = side_weight(g, side, 0);
    const auto outside = [&] {
      return static_cast<double>(w0) > hi || static_cast<double>(w0) < lo;
    };
    if (outside()) {
      fill_heaps();
      do {
        const std::uint8_t heavy = static_cast<double>(w0) > target0 ? 0 : 1;
        const double gap = heavy == 0 ? static_cast<double>(w0) - target0
                                      : target0 - static_cast<double>(w0);
        // Strictly shrink |w0 - target0|: oversized vertices that would
        // overshoot past the mirror imbalance are skipped.
        const std::uint32_t best = heap[heavy].best_if([&](std::uint32_t v) {
          return !(static_cast<double>(g.wvert[v]) >= 2.0 * gap);
        });
        if (best == GainHeap::kNone) break;
        heap[heavy].erase(best);
        w0 = heavy == 0 ? w0 - g.wvert[best] : w0 + g.wvert[best];
        flip(g, best, side, gain, heap);
      } while (outside());
    }
  }

  for (int pass = 0; pass < 4; ++pass) {
    if (ml_audit_enabled()) {
      // Gains carried through every flip() since the last full count —
      // restoration, the previous pass and its roll-back — must still be
      // exact: a drift here silently changes which move comes next.
      PLSIM_ASSERT(gain == cut_gains(g, side));
    }
    // On a heap = not yet moved this pass.
    BalanceWindow window{fill_heaps(), lo, hi};
    const auto admitted = [&](std::uint32_t v) {
      return window.admits(g.wvert[v], side[v]);
    };
    std::vector<std::uint32_t> moves;
    std::vector<std::int64_t> cumulative;
    std::int64_t acc = 0;

    const std::size_t max_moves = std::min<std::size_t>(n, 32 + n / 16);
    for (std::size_t step = 0; step < max_moves; ++step) {
      std::uint32_t best = GainHeap::kNone;
      for (std::uint8_t s : {0, 1})
        if (window.may_admit(wmin[s], wmax[s], s))
          best = heap[s].best_if(admitted, best);
      if (best == GainHeap::kNone) break;
      heap[side[best]].erase(best);
      if (side[best] == 0)
        window.w0 -= g.wvert[best];
      else
        window.w0 += g.wvert[best];
      acc += gain[best];
      moves.push_back(best);
      cumulative.push_back(acc);
      flip(g, best, side, gain, heap);
    }

    std::size_t best_prefix = 0;
    std::int64_t best_acc = 0;
    for (std::size_t i = 0; i < cumulative.size(); ++i) {
      if (cumulative[i] > best_acc) {
        best_acc = cumulative[i];
        best_prefix = i + 1;
      }
    }
    for (std::size_t i = moves.size(); i > best_prefix; --i)
      flip(g, moves[i - 1], side, gain);
    if (best_acc <= 0) break;
  }
}

void ml_bisect(const MlGraph& g, double ratio, Rng& rng,
               std::vector<std::uint8_t>& side) {
  constexpr std::size_t kCoarseEnough = 128;
  if (g.n() <= kCoarseEnough) {
    // Base case: greedy BFS growth from a random seed until side 0 is full.
    side.assign(g.n(), 1);
    std::uint64_t total = 0;
    for (std::size_t v = 0; v < g.n(); ++v) total += g.wvert[v];
    const double target0 = ratio * static_cast<double>(total);
    std::vector<std::uint32_t> frontier{
        static_cast<std::uint32_t>(rng.uniform(g.n()))};
    double grown = 0;
    std::vector<std::uint8_t> seen(g.n(), 0);
    seen[frontier[0]] = 1;
    while (!frontier.empty() && grown < target0) {
      const std::uint32_t v = frontier.back();
      frontier.pop_back();
      side[v] = 0;
      grown += g.wvert[v];
      for (std::uint32_t e = g.off[v]; e < g.off[v + 1]; ++e) {
        if (!seen[g.adj[e]]) {
          seen[g.adj[e]] = 1;
          frontier.push_back(g.adj[e]);
        }
      }
      if (frontier.empty() && grown < target0) {
        // Disconnected: restart from any vertex still on side 1.
        for (std::uint32_t u = 0; u < g.n(); ++u)
          if (side[u] == 1 && !seen[u]) {
            seen[u] = 1;
            frontier.push_back(u);
            break;
          }
        if (frontier.empty()) break;
      }
    }
    refine(g, ratio, side);
    return;
  }

  std::vector<std::uint32_t> map;
  const MlGraph coarse = coarsen(g, rng, map);
  if (coarse.n() >= g.n() * 95 / 100) {
    // Matching stalled (star-like graph); fall back to the base case logic.
    side.assign(g.n(), 1);
    for (std::size_t v = 0; v < g.n(); ++v) side[v] = rng.uniform(2) != 0;
    refine(g, ratio, side);
    return;
  }
  std::vector<std::uint8_t> coarse_side;
  ml_bisect(coarse, ratio, rng, coarse_side);
  side.resize(g.n());
  for (std::size_t v = 0; v < g.n(); ++v) side[v] = coarse_side[map[v]];
  refine(g, ratio, side);
}

void ml_recursive(const Circuit& c, std::span<const std::uint64_t> gate_w,
                  std::span<const std::uint64_t> net_w,
                  std::vector<GateId>& cells, std::uint32_t k,
                  std::uint32_t first_block, Rng& rng, Partition& p) {
  if (k == 1) {
    for (GateId g : cells) p.block_of[g] = first_block;
    return;
  }
  const std::uint32_t k0 = k / 2, k1 = k - k0;
  std::vector<std::uint32_t> local_of(c.gate_count(),
                                      static_cast<std::uint32_t>(-1));
  for (std::size_t i = 0; i < cells.size(); ++i)
    local_of[cells[i]] = static_cast<std::uint32_t>(i);
  const MlGraph g = from_circuit(c, cells, local_of, gate_w, net_w);
  std::vector<std::uint8_t> side;
  ml_bisect(g, static_cast<double>(k0) / static_cast<double>(k), rng, side);

  std::vector<GateId> left, right;
  for (std::size_t i = 0; i < cells.size(); ++i)
    (side[i] == 0 ? left : right).push_back(cells[i]);
  if (left.empty() && !right.empty()) {
    left.push_back(right.back());
    right.pop_back();
  }
  if (right.empty() && left.size() > 1) {
    right.push_back(left.back());
    left.pop_back();
  }
  ml_recursive(c, gate_w, net_w, left, k0, first_block, rng, p);
  ml_recursive(c, gate_w, net_w, right, k1, first_block + k0, rng, p);
}

}  // namespace

Partition partition_multilevel(const Circuit& c, std::uint32_t k,
                               std::uint64_t seed) {
  return partition_multilevel(c, k, seed, {}, {});
}

Partition partition_multilevel(const Circuit& c, std::uint32_t k,
                               std::uint64_t seed,
                               std::span<const std::uint32_t> weights,
                               std::span<const std::uint32_t> net_weights) {
  PLSIM_CHECK(k >= 1, "partition_multilevel: k must be >= 1");
  PLSIM_CHECK(weights.empty() || weights.size() == c.gate_count(),
              "partition_multilevel: weight span size " +
                  std::to_string(weights.size()) + " != gate count " +
                  std::to_string(c.gate_count()));
  PLSIM_CHECK(net_weights.empty() || net_weights.size() == c.gate_count(),
              "partition_multilevel: net-weight span size " +
                  std::to_string(net_weights.size()) + " != gate count " +
                  std::to_string(c.gate_count()));
  Rng rng(seed);
  Partition p;
  p.n_blocks = k;
  p.block_of.assign(c.gate_count(), 0);

  // 1 + activity: inactive gates keep a placement cost (and edges of silent
  // nets keep a tie-break weight), widened before the add so a UINT32_MAX
  // count cannot wrap to zero.
  std::vector<std::uint64_t> gw, nw;
  if (!weights.empty()) {
    gw.resize(c.gate_count());
    for (GateId g = 0; g < c.gate_count(); ++g)
      gw[g] = 1 + static_cast<std::uint64_t>(weights[g]);
  }
  if (!net_weights.empty()) {
    nw.resize(c.gate_count());
    for (GateId g = 0; g < c.gate_count(); ++g)
      nw[g] = 1 + static_cast<std::uint64_t>(net_weights[g]);
  }

  std::vector<GateId> all(c.gate_count());
  for (GateId g = 0; g < c.gate_count(); ++g) all[g] = g;
  ml_recursive(c, gw, nw, all, k, 0, rng, p);
  fix_empty_blocks(c, p);
  return p;
}

}  // namespace plsim
