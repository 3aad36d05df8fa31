#include "netlist/builder.hpp"

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "util/error.hpp"

namespace plsim {

namespace {

// "name" or "#id" when the netlist carried no name — for diagnostics.
std::string proto_label(const std::string& name, GateId g) {
  return name.empty() ? "#" + std::to_string(g) : name;
}

}  // namespace

GateId NetlistBuilder::add_gate(GateType type, std::vector<GateId> fanins,
                                std::string name) {
  for (GateId f : fanins)
    PLSIM_CHECK(f < gates_.size(),
                "add_gate: fanin " + std::to_string(f) +
                    " does not name an existing gate (create gates before "
                    "referencing them; wire feedback with set_fanins)");
  gates_.push_back(
      Proto{type, 1, std::move(fanins), std::move(name), false, 0});
  return static_cast<GateId>(gates_.size() - 1);
}

void NetlistBuilder::set_fanins(GateId g, std::vector<GateId> fanins) {
  PLSIM_CHECK(g < gates_.size(), "set_fanins: no such gate");
  for (GateId f : fanins)
    PLSIM_CHECK(f < gates_.size(), "set_fanins: fanin " + std::to_string(f) +
                                       " does not name an existing gate");
  gates_[g].fanins = std::move(fanins);
}

void NetlistBuilder::set_const_onset(GateId g, Tick onset) {
  PLSIM_CHECK(g < gates_.size(), "set_const_onset: no such gate");
  PLSIM_CHECK(gates_[g].type == GateType::Const0 ||
                  gates_[g].type == GateType::Const1,
              "set_const_onset: gate is not a constant");
  gates_[g].const_onset = onset;
}

std::vector<GateId> NetlistBuilder::find_combinational_cycle() const {
  // Iterative DFS over the combinational edges (fanin f -> gate g for every
  // non-DFF g; dangling fanins are skipped so this also works on netlists
  // analyze_netlist tolerates). Colors: 0 = white, 1 = on stack, 2 = done.
  const std::size_t n = gates_.size();
  std::vector<std::uint8_t> color(n, 0);
  std::vector<GateId> parent(n, kNoGate);
  struct Frame {
    GateId g;
    std::size_t next_fanin;
  };
  std::vector<Frame> stack;
  for (GateId root = 0; root < n; ++root) {
    if (color[root] != 0 || gates_[root].type == GateType::Dff) continue;
    stack.push_back(Frame{root, 0});
    color[root] = 1;
    while (!stack.empty()) {
      Frame& fr = stack.back();
      const auto& fi = gates_[fr.g].fanins;
      if (fr.next_fanin < fi.size()) {
        const GateId f = fi[fr.next_fanin++];
        if (f >= n || gates_[f].type == GateType::Dff) continue;
        if (color[f] == 1) {
          // Found a back edge g -> f: the cycle is f .. g along parents,
          // reported in fanin-to-fanout order (f drives the next gate).
          // parent[x] is a fanout of x, so walking parents from g up to f
          // already lists the cycle in signal-flow order: g drives
          // parent[g] drives ... drives f, and f drives g.
          std::vector<GateId> cycle;
          for (GateId x = fr.g; x != f; x = parent[x]) cycle.push_back(x);
          cycle.push_back(f);
          return cycle;
        }
        if (color[f] == 0) {
          color[f] = 1;
          parent[f] = fr.g;
          stack.push_back(Frame{f, 0});
        }
      } else {
        color[fr.g] = 2;
        stack.pop_back();
      }
    }
  }
  return {};
}

void NetlistBuilder::set_delay(GateId g, std::uint32_t delay) {
  PLSIM_CHECK(g < gates_.size(), "set_delay: no such gate");
  PLSIM_CHECK(delay >= 1, "set_delay: gate delays must be >= 1 tick");
  gates_[g].delay = delay;
}

void NetlistBuilder::mark_output(GateId g) {
  PLSIM_CHECK(g < gates_.size(), "mark_output: no such gate");
  if (!gates_[g].is_output) {
    gates_[g].is_output = true;
    output_order_.push_back(g);
  }
}

Circuit NetlistBuilder::build() {
  const std::size_t n = gates_.size();
  PLSIM_CHECK(n > 0, "build: empty netlist");

  std::unordered_set<std::string> seen_names;
  seen_names.reserve(n);
  for (const auto& p : gates_) {
    if (!p.name.empty()) {
      PLSIM_CHECK(seen_names.insert(p.name).second,
                  "build: duplicate gate name '" + p.name + "'");
    }
    const FaninArity arity = gate_arity(p.type);
    const int k = static_cast<int>(p.fanins.size());
    PLSIM_CHECK(k >= arity.min && (arity.max < 0 || k <= arity.max),
                "build: illegal fanin count for " +
                    std::string(gate_type_name(p.type)));
    for (GateId f : p.fanins)
      PLSIM_CHECK(f < n, "build: fanin references missing gate");
  }

  Circuit c;
  c.types_.reserve(n);
  c.delays_.reserve(n);
  c.names_.reserve(n);
  c.is_output_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& p = gates_[i];
    c.types_.push_back(p.type);
    c.delays_.push_back(p.delay);
    c.names_.push_back(p.name);
    if (p.is_output) c.is_output_[i] = 1;
    switch (p.type) {
      case GateType::Input: c.inputs_.push_back(static_cast<GateId>(i)); break;
      case GateType::Dff: c.dffs_.push_back(static_cast<GateId>(i)); break;
      default: break;
    }
  }

  c.outputs_ = output_order_;

  // CSR fanin.
  c.fanin_off_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    c.fanin_off_[i + 1] = c.fanin_off_[i] +
                          static_cast<std::uint32_t>(gates_[i].fanins.size());
  c.fanin_list_.reserve(c.fanin_off_[n]);
  for (const auto& p : gates_)
    c.fanin_list_.insert(c.fanin_list_.end(), p.fanins.begin(), p.fanins.end());

  // CSR fanout (transpose).
  c.fanout_off_.assign(n + 1, 0);
  for (GateId f : c.fanin_list_) ++c.fanout_off_[f + 1];
  for (std::size_t i = 0; i < n; ++i) c.fanout_off_[i + 1] += c.fanout_off_[i];
  c.fanout_list_.resize(c.fanin_list_.size());
  {
    std::vector<std::uint32_t> cursor(c.fanout_off_.begin(),
                                      c.fanout_off_.end() - 1);
    for (std::size_t g = 0; g < n; ++g)
      for (GateId f : gates_[g].fanins)
        c.fanout_list_[cursor[f]++] = static_cast<GateId>(g);
  }

  // Levelize the combinational core (Kahn). DFF outputs and sources are
  // level 0; a DFF's D input does not constrain its own level, which is what
  // breaks sequential feedback loops.
  c.levels_.assign(n, 0);
  std::vector<std::uint32_t> pending(n, 0);
  std::queue<GateId> ready;
  for (std::size_t g = 0; g < n; ++g) {
    const GateType t = c.types_[g];
    if (t == GateType::Input || t == GateType::Dff || t == GateType::Const0 ||
        t == GateType::Const1) {
      ready.push(static_cast<GateId>(g));
    } else {
      pending[g] = static_cast<std::uint32_t>(gates_[g].fanins.size());
      if (pending[g] == 0) ready.push(static_cast<GateId>(g));
    }
  }
  c.level_order_.reserve(n);
  while (!ready.empty()) {
    const GateId g = ready.front();
    ready.pop();
    c.level_order_.push_back(g);
    for (GateId s : c.fanouts(g)) {
      if (c.types_[s] == GateType::Dff) continue;  // sequential edge
      c.levels_[s] = std::max(c.levels_[s], c.levels_[g] + 1);
      if (--pending[s] == 0) ready.push(s);
    }
  }
  if (c.level_order_.size() != n) {
    std::string msg =
        "build: combinational cycle detected (feedback must pass through a "
        "DFF)";
    const std::vector<GateId> cycle = find_combinational_cycle();
    if (!cycle.empty()) {
      msg += ": ";
      for (GateId g : cycle) msg += proto_label(gates_[g].name, g) + " -> ";
      msg += proto_label(gates_[cycle.front()].name, cycle.front());
    }
    raise(msg);
  }
  std::stable_sort(c.level_order_.begin(), c.level_order_.end(),
                   [&](GateId a, GateId b) { return c.levels_[a] < c.levels_[b]; });
  c.depth_ = 0;
  for (auto lv : c.levels_) c.depth_ = std::max(c.depth_, lv);

  c.min_delay_ = c.delays_.empty() ? 1 : *std::min_element(c.delays_.begin(),
                                                           c.delays_.end());

  // Deferred constant onsets: only materialized when some onset is nonzero,
  // so untouched circuits keep their zero-cost empty vector.
  if (std::any_of(gates_.begin(), gates_.end(),
                  [](const Proto& p) { return p.const_onset != 0; })) {
    c.const_onsets_.reserve(n);
    for (const auto& p : gates_) c.const_onsets_.push_back(p.const_onset);
  }

  gates_.clear();
  output_order_.clear();
  return c;
}

}  // namespace plsim
