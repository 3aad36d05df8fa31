#include "analyze/opt.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "netlist/builder.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace plsim {
namespace {

// Saturating tick addition (local twin of plsim::tick_add — src/analyze
// sits below src/core in the module graph and onsets are ordinary Ticks).
Tick onset_add(Tick a, Tick b) {
  const Tick s = a + b;
  return s < a ? kTickInf : s;
}

std::vector<std::uint8_t> mask_of(std::size_t n, std::span<const GateId> ids) {
  std::vector<std::uint8_t> m(n, 0);
  for (GateId g : ids)
    if (g < n) m[g] = 1;
  return m;
}

struct StructuralKeyHash {
  std::size_t operator()(const std::vector<std::uint64_t>& key) const {
    std::uint64_t h = key.size();
    for (std::uint64_t x : key) h = hash_combine(h, x);
    return static_cast<std::size_t>(h);
  }
};

bool commutative(GateType t) {
  switch (t) {
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor:
    case GateType::Xor:
    case GateType::Xnor:
      return true;
    default:
      return false;  // Buf/Not are unary; Mux is positional
  }
}

}  // namespace

std::string_view plan_opt_name(PlanOpt o) {
  switch (o) {
    case PlanOpt::None: return "none";
    case PlanOpt::Safe: return "safe";
    case PlanOpt::Aggressive: return "aggressive";
  }
  return "?";
}

PlanOpt plan_opt_from_name(std::string_view name) {
  if (name == "none") return PlanOpt::None;
  if (name == "safe") return PlanOpt::Safe;
  if (name == "aggressive") return PlanOpt::Aggressive;
  raise("unknown optimization level '" + std::string(name) +
        "' (expected none|safe|aggressive)");
}

std::string OptStats::summary() const {
  std::ostringstream os;
  os << gates_before << " -> " << gates_after << " gates (" << folded
     << " folded, " << merged << " merged, " << removed << " removed)";
  return os.str();
}

ConstFold fold_constants(const Circuit& c, const OptOptions& opts) {
  const std::size_t n = c.gate_count();
  const bool aggressive = opts.level == PlanOpt::Aggressive;
  const auto opaque = mask_of(n, opts.opaque);

  ConstFold r;
  // Optimistic sequential analysis: assume every DFF holds its reset value
  // F forever, demote the ones whose D input cannot be shown to settle to F
  // before every sampling edge, and iterate. Sound because DFFs
  // unconditionally start at F (the induction base): if all D inputs read F
  // at every edge up to k, all Q outputs still hold F after edge k.
  std::vector<std::uint8_t> dff_const(n, 0);
  const bool seq_fold = aggressive && opts.clock_period > 0;
  if (seq_fold)
    for (GateId ff : c.flip_flops()) dff_const[ff] = 1;

  std::vector<Logic4> ins;
  for (;;) {
    r.is_const.assign(n, 0);
    r.value.assign(n, Logic4::X);
    r.onset.assign(n, 0);

    for (GateId g : c.level_order()) {
      const GateType t = c.type(g);
      if (t == GateType::Input) continue;  // varying
      if (t == GateType::Const0 || t == GateType::Const1) {
        r.is_const[g] = 1;
        r.value[g] = t == GateType::Const0 ? Logic4::F : Logic4::T;
        r.onset[g] = c.const_onset(g);
        continue;
      }
      if (t == GateType::Dff) {
        if (dff_const[g]) {
          r.is_const[g] = 1;
          r.value[g] = Logic4::F;
          r.onset[g] = 0;
        }
        continue;
      }
      if (opaque[g]) continue;  // fault site: assume nothing

      const auto fi = c.fanins(g);
      ins.assign(fi.size(), Logic4::X);
      bool all_const = true;
      for (std::size_t i = 0; i < fi.size(); ++i) {
        if (r.is_const[fi[i]])
          ins[i] = r.value[fi[i]];
        else
          all_const = false;
      }
      if (!all_const && !aggressive) continue;

      const Logic4 v = eval_gate4(t, ins);

      if (all_const) {
        // Exact fold: the output commits at the first fanin arrival that
        // determines it (monotone inputs + monotone function => exactly
        // one committed transition X -> v).
        r.is_const[g] = 1;
        r.value[g] = v;
        if (v == Logic4::X || v == Logic4::Z) {
          r.value[g] = Logic4::X;
          r.onset[g] = kTickInf;  // never commits: a constant-X source
          continue;
        }
        std::vector<Tick> arrivals;
        arrivals.reserve(fi.size());
        for (GateId f : fi)
          if (r.onset[f] != kTickInf) arrivals.push_back(r.onset[f]);
        std::sort(arrivals.begin(), arrivals.end());
        Tick commit = kTickInf;
        for (Tick at : arrivals) {
          for (std::size_t i = 0; i < fi.size(); ++i)
            ins[i] = (r.is_const[fi[i]] && r.onset[fi[i]] <= at)
                         ? r.value[fi[i]]
                         : Logic4::X;
          const Logic4 vt = eval_gate4(t, ins);
          if (vt != Logic4::X && vt != Logic4::Z) {
            commit = onset_add(at, c.delay(g));
            break;
          }
        }
        r.onset[g] = commit;
        if (commit == kTickInf) {  // unreachable for binary v; be safe
          r.value[g] = Logic4::X;
        }
      } else if (v == Logic4::F || v == Logic4::T) {
        // Controlling-value fold (Aggressive): the constant fanins alone
        // determine the output — monotone functions extend f(..,X,..) = v
        // to every valuation of the varying fanins. Committed no later
        // than the latest constant-fanin arrival + delay; exact only once
        // the cone has settled (the Aggressive contract).
        Tick latest = 0;
        for (std::size_t i = 0; i < fi.size(); ++i)
          if (r.is_const[fi[i]] && r.onset[fi[i]] != kTickInf)
            latest = std::max(latest, r.onset[fi[i]]);
        r.is_const[g] = 1;
        r.value[g] = v;
        r.onset[g] = onset_add(latest, c.delay(g));
      }
    }

    if (!seq_fold) break;
    bool demoted = false;
    for (GateId ff : c.flip_flops()) {
      if (!dff_const[ff]) continue;
      const auto fi = c.fanins(ff);
      const GateId d = fi.empty() ? kNoGate : fi[0];
      const bool ok = d != kNoGate && r.is_const[d] &&
                      r.value[d] == Logic4::F &&
                      r.onset[d] < opts.clock_period;
      if (!ok) {
        dff_const[ff] = 0;
        demoted = true;
      }
    }
    if (!demoted) break;
  }
  return r;
}

OptimizedCircuit optimize_circuit(const Circuit& c, const OptOptions& opts) {
  PLSIM_CHECK(opts.level != PlanOpt::None,
              "optimize_circuit: level must be Safe or Aggressive");
  const std::size_t n = c.gate_count();
  OptimizedCircuit out;
  out.stats.gates_before = n;

  // Keep-set: primary inputs (stimulus binds by position), primary outputs,
  // DFFs, watched signals, fault sites.
  auto keep = mask_of(n, opts.keep);
  const auto opaque = mask_of(n, opts.opaque);
  for (GateId g = 0; g < n; ++g)
    if (opaque[g] || c.type(g) == GateType::Input ||
        c.type(g) == GateType::Dff || c.is_primary_output(g))
      keep[g] = 1;
  const bool any_root =
      std::any_of(keep.begin(), keep.end(), [](std::uint8_t k) { return k; });

  // ---- Pass 1: constant propagation ------------------------------------
  const ConstFold fold = fold_constants(c, opts);

  // Fold decisions. A gate folds when its output is a statically known
  // binary constant with a finite commit time; it is rewritten to
  // Const0/Const1 carrying that onset. Constant-X gates keep their
  // structure (they never commit; rewriting them has nothing to announce).
  std::vector<std::uint8_t> folded(n, 0);
  if (any_root) {
    for (GateId g = 0; g < n; ++g) {
      const GateType t = c.type(g);
      if (!fold.is_const[g] || opaque[g]) continue;
      if (t == GateType::Input || t == GateType::Const0 ||
          t == GateType::Const1)
        continue;
      if (fold.value[g] == Logic4::X || fold.onset[g] == kTickInf) continue;
      folded[g] = 1;
    }
  }

  // Post-fold view of every gate.
  auto vtype = [&](GateId g) {
    return folded[g] ? (fold.value[g] == Logic4::F ? GateType::Const0
                                                   : GateType::Const1)
                     : c.type(g);
  };
  auto vonset = [&](GateId g) {
    return folded[g] ? fold.onset[g] : c.const_onset(g);
  };
  auto vfanins = [&](GateId g) {
    return folded[g] ? std::span<const GateId>{} : c.fanins(g);
  };

  // ---- Pass 2: structural hashing --------------------------------------
  // Two gates with the same post-fold (type, delay, onset-if-constant,
  // substituted fanin tuple) produce identical event streams. Processed in
  // level order so representatives are final before their consumers hash;
  // the first gate to insert a key is its representative, so the table's
  // own iteration order never matters.
  std::vector<GateId> repl(n);
  for (GateId g = 0; g < n; ++g) repl[g] = g;
  if (any_root) {
    std::unordered_map<std::vector<std::uint64_t>, GateId, StructuralKeyHash>
        table;
    table.reserve(n);
    std::vector<std::uint64_t> key;
    for (GateId g : c.level_order()) {
      const GateType t = vtype(g);
      if (t == GateType::Input || t == GateType::Dff) continue;
      if (opaque[g]) continue;  // fault sites: neither victim nor rep
      key.clear();
      key.push_back(static_cast<std::uint64_t>(t));
      key.push_back(c.delay(g));
      key.push_back(t == GateType::Const0 || t == GateType::Const1
                        ? vonset(g)
                        : 0);
      const std::size_t fanin_start = key.size();
      for (GateId f : vfanins(g)) key.push_back(repl[f]);
      if (commutative(t))
        std::sort(key.begin() + static_cast<std::ptrdiff_t>(fanin_start),
                  key.end());
      auto [it, inserted] = table.try_emplace(key, g);
      if (!inserted && !keep[g]) {
        repl[g] = it->second;
        ++out.stats.merged;
      }
    }
  }

  // ---- Pass 3: dead-gate sweep -----------------------------------------
  // Backward reachability from the keep-set through the substituted fanin
  // edges; everything unreached cannot influence a kept gate.
  std::vector<std::uint8_t> live(n, 0);
  if (!any_root) {
    // Nothing is observable (no outputs, DFFs or watched gates): there is
    // no sound notion of "dead", so keep everything and change nothing.
    live.assign(n, 1);
  } else {
    std::vector<GateId> stack;
    for (GateId g = 0; g < n; ++g)
      if (keep[g]) {
        live[g] = 1;
        stack.push_back(g);
      }
    while (!stack.empty()) {
      const GateId g = stack.back();
      stack.pop_back();
      for (GateId f : vfanins(g)) {
        const GateId rf = repl[f];
        if (!live[rf]) {
          live[rf] = 1;
          stack.push_back(rf);
        }
      }
    }
  }

  // ---- Pass 4: renumber ------------------------------------------------
  out.old_to_new.assign(n, kNoGate);
  out.removed_value.assign(n, Logic4::X);
  out.removed_onset.assign(n, kTickInf);
  NetlistBuilder nb;
  for (GateId g = 0; g < n; ++g) {
    if (repl[g] != g) continue;  // merged victim, mapped below
    if (!live[g]) {
      if (folded[g]) ++out.stats.folded;
      else ++out.stats.removed;
      continue;
    }
    if (folded[g]) ++out.stats.folded;
    const GateId ng = nb.add_gate(vtype(g), {}, c.name(g));
    nb.set_delay(ng, c.delay(g));
    const GateType t = vtype(g);
    if ((t == GateType::Const0 || t == GateType::Const1) && vonset(g) != 0)
      nb.set_const_onset(ng, vonset(g));
    out.old_to_new[g] = ng;
    out.new_to_old.push_back(g);
  }
  for (GateId g = 0; g < n; ++g) {
    if (repl[g] == g || out.old_to_new[g] != kNoGate) continue;
    out.old_to_new[g] = out.old_to_new[repl[g]];
  }
  for (GateId g = 0; g < n; ++g) {
    const GateId ng = (repl[g] == g && live[g]) ? out.old_to_new[g] : kNoGate;
    if (ng == kNoGate) continue;
    std::vector<GateId> nf;
    const auto fi = vfanins(g);
    nf.reserve(fi.size());
    for (GateId f : fi) nf.push_back(out.old_to_new[repl[f]]);
    if (!nf.empty()) nb.set_fanins(ng, std::move(nf));
  }
  for (GateId po : c.primary_outputs()) nb.mark_output(out.old_to_new[po]);

  // Settled value of everything that ends up without a new id (folded-away
  // cones report their constant; plain dead logic reports X).
  for (GateId g = 0; g < n; ++g)
    if (out.old_to_new[g] == kNoGate && fold.is_const[g]) {
      out.removed_value[g] = fold.value[g];
      out.removed_onset[g] = fold.onset[g];
    }

  out.circuit = nb.build();
  out.stats.gates_after = out.circuit.gate_count();
  return out;
}

}  // namespace plsim
