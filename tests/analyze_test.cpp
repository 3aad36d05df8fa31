// Static analyzer (src/analyze): diagnostics on malformed/sloppy netlists,
// the optimizing passes' exactness contract (opt.hpp header comment), and
// the differential fuzz sweep proving Safe/Aggressive optimization preserves
// every observable signal against the unoptimized golden oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/opt.hpp"
#include "engines/engine.hpp"
#include "fault/fault.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/builtin.hpp"
#include "netlist/generators.hpp"
#include "partition/algorithms.hpp"
#include "seq/golden.hpp"
#include "seq/oblivious.hpp"
#include "stim/stimulus.hpp"

namespace plsim {
namespace {

const Finding* find_rule(const AnalysisReport& r, std::string_view rule) {
  for (const auto& f : r.findings)
    if (f.rule == rule) return &f;
  return nullptr;
}

/// Observable signals: the gates whose values define circuit behavior and
/// which every optimization level must keep intact (opt.hpp keep-set).
std::vector<GateId> observables(const Circuit& c) {
  std::vector<GateId> obs;
  for (GateId g : c.primary_inputs()) obs.push_back(g);
  for (GateId g : c.primary_outputs()) obs.push_back(g);
  for (GateId g : c.flip_flops()) obs.push_back(g);
  std::sort(obs.begin(), obs.end());
  obs.erase(std::unique(obs.begin(), obs.end()), obs.end());
  return obs;
}

// ---------------------------------------------------------------------------
// Diagnostics layer

TEST(AnalyzeDiagnostics, CleanCircuitHasNoFindings) {
  NetlistBuilder b;
  const GateId a = b.add_input("a");
  const GateId x = b.add_input("x");
  const GateId d0 = b.add_gate(GateType::Xor, {a, x}, "d0");
  const GateId q0 = b.add_gate(GateType::Dff, {d0}, "q0");
  const GateId d1 = b.add_gate(GateType::Xnor, {q0, a}, "d1");
  const GateId q1 = b.add_gate(GateType::Dff, {d1}, "q1");
  b.mark_output(q1);

  const AnalysisReport r = analyze_netlist(b, "clean");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.stats.gates, 6u);
  EXPECT_EQ(r.stats.inputs, 2u);
  EXPECT_EQ(r.stats.outputs, 1u);
  EXPECT_EQ(r.stats.dffs, 2u);
}

TEST(AnalyzeDiagnostics, CombinationalCycleReportsFullPath) {
  NetlistBuilder b;
  const GateId a = b.add_input("a");
  const GateId x = b.add_gate(GateType::And, {}, "x");
  const GateId y = b.add_gate(GateType::Buf, {x}, "y");
  b.set_fanins(x, {a, y});
  const GateId f = b.add_gate(GateType::Or, {a, x}, "f");
  b.mark_output(f);

  const AnalysisReport r = analyze_netlist(b, "cyclic");
  EXPECT_FALSE(r.ok());
  const Finding* cyc = find_rule(r, "comb-cycle");
  ASSERT_NE(cyc, nullptr);
  EXPECT_EQ(cyc->severity, Severity::Error);
  // The full closed path through gate names, in either rotation.
  const bool names_path =
      cyc->message.find("x -> y -> x") != std::string::npos ||
      cyc->message.find("y -> x -> y") != std::string::npos;
  EXPECT_TRUE(names_path) << cyc->message;
  EXPECT_EQ(cyc->gates.size(), 2u);

  // The same netlist is rejected by build() — the analyzer exists to
  // diagnose exactly what build() refuses to construct.
  NetlistBuilder copy = b;
  EXPECT_THROW(copy.build(), Error);
}

TEST(AnalyzeDiagnostics, DffFeedbackIsNotACycle) {
  NetlistBuilder b;
  const GateId en = b.add_input("en");
  const GateId q = b.add_gate(GateType::Dff, {}, "q");
  const GateId d = b.add_gate(GateType::Xor, {q, en}, "d");
  b.set_fanins(q, {d});
  b.mark_output(q);

  const AnalysisReport r = analyze_netlist(b, "lfsr1");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(find_rule(r, "comb-cycle"), nullptr);
}

TEST(AnalyzeDiagnostics, FloatingGateAndArityViolation) {
  NetlistBuilder b;
  const GateId a = b.add_input("a");
  b.add_gate(GateType::And, {}, "orphan");     // fanins never wired
  const GateId n = b.add_gate(GateType::Not, {a}, "n");
  b.set_fanins(n, {a, a});                     // Not takes exactly one fanin
  b.mark_output(n);

  const AnalysisReport r = analyze_netlist(b, "broken");
  EXPECT_FALSE(r.ok());
  const Finding* fl = find_rule(r, "floating-gate");
  ASSERT_NE(fl, nullptr);
  EXPECT_EQ(fl->gates.size(), 1u);
  const Finding* ar = find_rule(r, "arity");
  ASSERT_NE(ar, nullptr);
  EXPECT_EQ(ar->gates, std::vector<GateId>{n});
  // The never-wired gate can never leave X.
  const Finding* cx = find_rule(r, "const-x");
  ASSERT_NE(cx, nullptr);
  EXPECT_FALSE(cx->gates.empty());
}

TEST(AnalyzeDiagnostics, DanglingBenchReferenceThrowsAtParse) {
  // Fanin validation is eager (netlist/builder.hpp), so a dangling
  // reference can no longer exist inside a builder; the .bench route
  // reports it as a parse error naming the signal.
  EXPECT_THROW(
      {
        parse_bench_builder_string("INPUT(a)\nOUTPUT(f)\nf = And(a, ghost)\n");
      },
      Error);
  try {
    parse_bench_builder_string("INPUT(a)\nOUTPUT(f)\nf = And(a, ghost)\n");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
  }
}

TEST(AnalyzeDiagnostics, SloppyNetlistWarningsAndInfos) {
  const NetlistBuilder b = parse_bench_builder_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(f)\n"
      "zero = Const0()\n"
      "inv = Not(zero)\n"
      "g1 = And(a, b)\n"
      "g2 = And(b, a)\n"
      "spare = Xor(g1, g2)\n"
      "f = Or(g1, inv)\n");
  const AnalysisReport r = analyze_netlist(b, "sloppy");
  EXPECT_TRUE(r.ok());

  const Finding* dark = find_rule(r, "unobservable");
  ASSERT_NE(dark, nullptr);
  EXPECT_EQ(dark->severity, Severity::Warning);
  EXPECT_EQ(dark->gates.size(), 2u);  // g2, spare

  const Finding* cg = find_rule(r, "const-gate");
  ASSERT_NE(cg, nullptr);
  EXPECT_EQ(cg->gates.size(), 1u);  // inv

  const Finding* dup = find_rule(r, "duplicate-gate");
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup->gates.size(), 1u);  // g2 (representative g1 survives)
}

TEST(AnalyzeDiagnostics, JsonReportCarriesSchemaAndFindings) {
  const NetlistBuilder b = parse_bench_builder_string(
      "INPUT(a)\nOUTPUT(f)\nzero = Const0()\nf = Or(a, zero)\n");
  std::vector<AnalysisReport> reports{analyze_netlist(b, "tiny")};
  const std::string json = analysis_set_to_json(reports).dump(2);
  EXPECT_NE(json.find("\"plsim-analyze-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"tiny\""), std::string::npos);
  EXPECT_NE(json.find("\"findings\""), std::string::npos);
  EXPECT_NE(json.find("\"stats\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Optimization passes: unit-level exactness

Circuit sloppy_circuit() {
  return parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(f)\n"
      "zero = Const0()\n"
      "inv = Not(zero)\n"
      "g1 = And(a, b)\n"
      "g2 = And(b, a)\n"
      "spare = Xor(g1, g2)\n"
      "f = Or(g1, inv)\n");
}

GateId by_name(const Circuit& c, std::string_view name) {
  for (GateId g = 0; g < c.gate_count(); ++g)
    if (c.name(g) == name) return g;
  throw Error("no gate named " + std::string(name));
}

TEST(AnalyzeOpt, FoldsConstantConeWithOnset) {
  const Circuit c = sloppy_circuit();
  const GateId zero = by_name(c, "zero"), inv = by_name(c, "inv");

  const ConstFold fold = fold_constants(c, {});
  EXPECT_TRUE(fold.is_const[zero]);
  EXPECT_EQ(fold.value[zero], Logic4::F);
  EXPECT_TRUE(fold.is_const[inv]);
  EXPECT_EQ(fold.value[inv], Logic4::T);
  // Not(zero) commits one gate delay after zero's commit at tick 0.
  EXPECT_EQ(fold.onset[inv], Tick{c.delay(inv)});
}

TEST(AnalyzeOpt, PassPipelineShrinksSloppyCircuit) {
  const Circuit c = sloppy_circuit();
  const OptimizedCircuit o = optimize_circuit(c, {});

  EXPECT_EQ(o.stats.gates_before, 8u);
  EXPECT_EQ(o.stats.gates_after, 5u);
  EXPECT_EQ(o.stats.folded, 1u);   // inv -> Const1
  EXPECT_EQ(o.stats.merged, 1u);   // g2 -> g1
  EXPECT_EQ(o.stats.removed, 2u);  // zero, spare

  // Merged victim maps to its representative; dead gates map to kNoGate.
  const GateId g1 = by_name(c, "g1"), g2 = by_name(c, "g2");
  EXPECT_EQ(o.old_to_new[g2], o.old_to_new[g1]);
  EXPECT_EQ(o.old_to_new[by_name(c, "spare")], kNoGate);
  // The folded-away constant records its settled value.
  EXPECT_EQ(o.old_to_new[by_name(c, "zero")], kNoGate);
  EXPECT_EQ(o.removed_value[by_name(c, "zero")], Logic4::F);
  // Plain dead logic reads X.
  EXPECT_EQ(o.removed_value[by_name(c, "spare")], Logic4::X);

  // Primary-input binding order is preserved.
  ASSERT_EQ(o.circuit.primary_inputs().size(), c.primary_inputs().size());
  for (std::size_t i = 0; i < c.primary_inputs().size(); ++i)
    EXPECT_EQ(o.new_to_old[o.circuit.primary_inputs()[i]],
              c.primary_inputs()[i]);
}

TEST(AnalyzeOpt, KeepSetAndOpacityBlockTransforms) {
  const Circuit c = sloppy_circuit();
  const GateId spare = by_name(c, "spare"), inv = by_name(c, "inv");

  const std::vector<GateId> keep{spare};
  OptOptions keep_opts;
  keep_opts.keep = keep;
  const OptimizedCircuit kept = optimize_circuit(c, keep_opts);
  EXPECT_NE(kept.old_to_new[spare], kNoGate);

  const std::vector<GateId> opaque{inv};
  OptOptions fault_opts;
  fault_opts.level = PlanOpt::Aggressive;
  fault_opts.opaque = opaque;
  const OptimizedCircuit op = optimize_circuit(c, fault_opts);
  const GateId ninv = op.old_to_new[inv];
  ASSERT_NE(ninv, kNoGate);
  // Opaque site survives as the original gate, not a folded constant.
  EXPECT_EQ(op.circuit.type(ninv), GateType::Not);
}

TEST(AnalyzeOpt, SurvivingGateWaveformsExactUnderSafe) {
  const Circuit c = sloppy_circuit();
  const Stimulus s = random_stimulus(c, 20, 0.5, 11);
  const OptimizedCircuit o = optimize_circuit(c, {});
  ASSERT_TRUE(o.changed());

  GoldenOptions gopt;
  gopt.record_trace = true;
  const RunResult before = simulate_golden(c, s, gopt);
  const RunResult after = simulate_golden(o.circuit, s, gopt);

  // Committed event streams keyed by original id: Safe optimization must
  // reproduce the stream of every representative tick-for-tick, and a merge
  // victim's original stream must be identical to its representative's
  // (that identity is what justifies the merge — opt.hpp contract).
  using Events = std::vector<std::pair<Tick, Logic4>>;
  std::map<GateId, Events> original, got;
  for (const ChangeRecord& cr : before.trace)
    original[cr.gate].emplace_back(cr.time, cr.value);
  for (const ChangeRecord& cr : after.trace)
    got[o.new_to_old[cr.gate]].emplace_back(cr.time, cr.value);
  std::map<GateId, Events> want;
  for (GateId g = 0; g < c.gate_count(); ++g) {
    const GateId ng = o.old_to_new[g];
    if (ng == kNoGate) continue;
    const GateId rep = o.new_to_old[ng];
    if (rep == g) {
      if (auto it = original.find(g); it != original.end())
        want[g] = it->second;
    } else {
      EXPECT_EQ(original[g], original[rep])
          << "merge victim " << c.name(g) << " vs rep " << c.name(rep);
    }
  }
  EXPECT_EQ(got, want);

  for (GateId g = 0; g < c.gate_count(); ++g) {
    if (o.old_to_new[g] != kNoGate) {
      EXPECT_EQ(after.final_values[o.old_to_new[g]], before.final_values[g])
          << "gate " << c.name(g);
    }
  }
}

// ---------------------------------------------------------------------------
// Differential fuzz sweep: >= 20 circuits x {Safe, Aggressive} against the
// unoptimized golden oracle, compared on every observable signal.

struct FuzzCase {
  std::string name;
  Circuit circuit;
};

std::vector<FuzzCase> fuzz_corpus() {
  std::vector<FuzzCase> cases;
  cases.push_back({"c17", builtin_circuit("c17")});
  cases.push_back({"s27", builtin_circuit("s27")});
  cases.push_back({"adder4", ripple_adder(4)});
  cases.push_back({"adder8", ripple_adder(8)});
  cases.push_back({"mult3", array_multiplier(3)});
  cases.push_back({"mult4", array_multiplier(4)});
  cases.push_back({"counter6", counter(6)});
  cases.push_back({"lfsr8", lfsr(8, {7, 5, 4, 3})});
  cases.push_back({"pipeline", pipeline(6, 3, 5)});
  cases.push_back({"modules", module_array(4, 60, 9)});
  cases.push_back({"iscas_c880", iscas_profile_circuit("c880", 3)});
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RandomCircuitSpec spec;
    spec.n_gates = 250;
    spec.n_inputs = 12;
    spec.n_outputs = 12;
    spec.dff_fraction = (seed % 2) ? 0.15 : 0.0;
    spec.seed = seed;
    cases.push_back({"rand" + std::to_string(seed), random_circuit(spec)});
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RandomCircuitSpec spec;
    spec.n_gates = 300;
    spec.n_inputs = 10;
    spec.n_outputs = 10;
    spec.dff_fraction = 0.1;
    spec.delay_mode = DelayMode::Uniform;
    spec.delay_spread = 4;
    spec.seed = 100 + seed;
    cases.push_back({"randdelay" + std::to_string(seed),
                     random_circuit(spec)});
  }
  return cases;
}

/// Period covering the longest settling chain — the synchronous-design
/// contract under which Aggressive transforms are exact (opt.hpp).
Tick settling_period(const Circuit& c) {
  Tick worst = 0;
  for (GateId g = 0; g < c.gate_count(); ++g)
    worst = std::max<Tick>(worst, c.delay(g));
  return std::max<Tick>(10, worst * (c.depth() + 1) + 1);
}

TEST(AnalyzeFuzz, OptimizedGoldenMatchesOracleOnObservables) {
  const std::vector<FuzzCase> corpus = fuzz_corpus();
  ASSERT_GE(corpus.size(), 20u);
  for (const FuzzCase& fc : corpus) {
    const Stimulus s =
        random_stimulus(fc.circuit, 15, 0.4, 77, settling_period(fc.circuit));
    const RunResult oracle = simulate_golden(fc.circuit, s);
    const std::vector<GateId> obs = observables(fc.circuit);
    for (PlanOpt level : {PlanOpt::Safe, PlanOpt::Aggressive}) {
      OptOptions oo;
      oo.level = level;
      oo.clock_period = s.period;
      const OptimizedCircuit o = optimize_circuit(fc.circuit, oo);
      const RunResult run = simulate_golden(o.circuit, s);
      for (GateId g : obs) {
        const GateId ng = o.old_to_new[g];
        ASSERT_NE(ng, kNoGate)
            << fc.name << "/" << plan_opt_name(level)
            << ": observable gate " << g << " eliminated";
        EXPECT_EQ(run.final_values[ng], oracle.final_values[g])
            << fc.name << "/" << plan_opt_name(level) << " gate "
            << fc.circuit.name(g) << " (#" << g << ")";
      }
    }
  }
}

TEST(AnalyzeFuzz, EngineDefaultSafeMatchesOracleOnObservables) {
  // The engines' plan_opt=Safe default end to end: partition remapping,
  // plan compilation and merge_results translation back to original ids.
  const std::vector<FuzzCase> corpus = fuzz_corpus();
  std::size_t idx = 0;
  for (const FuzzCase& fc : corpus) {
    const Stimulus s =
        random_stimulus(fc.circuit, 12, 0.4, 31, settling_period(fc.circuit));
    const RunResult oracle = simulate_golden(fc.circuit, s);
    const Partition p = partition_fm(fc.circuit, 3, 17);
    const auto engines = standard_engines();
    const NamedEngine& eng = engines[idx++ % engines.size()];
    EngineConfig cfg;  // plan_opt defaults to Safe
    const RunResult run = eng.run(fc.circuit, s, p, cfg);
    ASSERT_EQ(run.final_values.size(), fc.circuit.gate_count());
    for (GateId g : observables(fc.circuit))
      EXPECT_EQ(run.final_values[g], oracle.final_values[g])
          << fc.name << "/" << eng.name << " gate " << fc.circuit.name(g)
          << " (#" << g << ")";
  }
}

TEST(AnalyzeFuzz, FaultDetectionCountsUnchangedByOptimization) {
  std::vector<FuzzCase> cases;
  cases.push_back({"adder4", ripple_adder(4)});
  cases.push_back({"c17", builtin_circuit("c17")});
  {
    RandomCircuitSpec spec;
    spec.n_gates = 150;
    spec.n_inputs = 10;
    spec.n_outputs = 8;
    spec.dff_fraction = 0.0;
    spec.seed = 5;
    cases.push_back({"randcomb", random_circuit(spec)});
  }
  for (const FuzzCase& fc : cases) {
    const Stimulus s = random_stimulus(fc.circuit, 24, 0.5, 13);
    const std::vector<Fault> faults = enumerate_faults(fc.circuit);
    const FaultSimResult base = fault_simulate_serial(
        fc.circuit, s, faults, FaultKernel::Compiled, PlanOpt::None);
    for (PlanOpt level : {PlanOpt::Safe, PlanOpt::Aggressive}) {
      const FaultSimResult serial = fault_simulate_serial(
          fc.circuit, s, faults, FaultKernel::Compiled, level);
      EXPECT_EQ(serial.detected, base.detected)
          << fc.name << "/" << plan_opt_name(level);
      EXPECT_EQ(serial.detected_mask, base.detected_mask)
          << fc.name << "/" << plan_opt_name(level);
      const FaultSimResult par = fault_simulate_parallel(
          fc.circuit, s, faults, FaultKernel::Compiled, level);
      EXPECT_EQ(par.detected_mask, base.detected_mask)
          << fc.name << "/" << plan_opt_name(level) << " (parallel)";
    }
  }
}

TEST(AnalyzeFuzz, NineValuedObservablesAgreeAfterSafeOptimization) {
  std::vector<FuzzCase> cases;
  cases.push_back({"sloppy", sloppy_circuit()});
  cases.push_back({"adder4", ripple_adder(4)});
  cases.push_back({"s27", builtin_circuit("s27")});
  for (const FuzzCase& fc : cases) {
    const Stimulus s = random_stimulus(fc.circuit, 16, 0.5, 23);
    const Oblivious9Result before = simulate_oblivious9(fc.circuit, s);
    const OptimizedCircuit o = optimize_circuit(fc.circuit, {});
    const Oblivious9Result after = simulate_oblivious9(o.circuit, s);
    for (GateId g : observables(fc.circuit)) {
      const GateId ng = o.old_to_new[g];
      ASSERT_NE(ng, kNoGate);
      EXPECT_EQ(to_logic4(after.final_values[ng]),
                to_logic4(before.final_values[g]))
          << fc.name << " gate " << fc.circuit.name(g);
    }
  }
}

// ---------------------------------------------------------------------------
// Representative choice

struct RepresentativeGolden {
  const char* family;
  std::uint64_t a, b, seed;  // scaled: (gates, seed, -); modules: (n, size, seed)
  PlanOpt level;
  std::uint64_t old_to_new_sig;
  std::size_t merged, gates_after;
};

TEST(AnalyzeOpt, RepresentativeChoiceMatchesOrderedTableGoldens) {
  // Structural hashing keeps the first gate (in level order) to insert a
  // key as the representative and maps later duplicates onto it. These
  // signatures of old_to_new were captured while the table was an ordered
  // std::map; a hashed table must reproduce them, since the mapping feeds
  // the partition remap, routing and every digest downstream.
  static constexpr RepresentativeGolden kGoldens[] = {
      {"scaled", 6000, 1, 0, PlanOpt::Safe, 0x69626e4cc67ef201ull, 33, 4822},
      {"scaled", 6000, 1, 0, PlanOpt::Aggressive, 0xfeaee5b997e0a4abull, 88,
       4753},
      {"scaled", 6000, 2, 0, PlanOpt::Safe, 0xc21193854a83575aull, 28, 4796},
      {"scaled", 6000, 2, 0, PlanOpt::Aggressive, 0x50ecf1a3a2d57757ull, 64,
       4754},
      {"modules", 8, 500, 3, PlanOpt::Safe, 0xdffc992280678695ull, 16, 2826},
      {"modules", 8, 500, 3, PlanOpt::Aggressive, 0xd33d0255934b1540ull, 17,
       2823},
      {"modules", 16, 250, 5, PlanOpt::Safe, 0xe6b0aa9c6ab57e1dull, 21, 2512},
      {"modules", 16, 250, 5, PlanOpt::Aggressive, 0x42c2634aaa1ec874ull, 23,
       2505},
  };
  for (const RepresentativeGolden& g : kGoldens) {
    const Circuit c =
        std::string_view(g.family) == "scaled"
            ? scaled_circuit(static_cast<std::size_t>(g.a), g.b)
            : module_array(static_cast<std::uint32_t>(g.a),
                           static_cast<std::size_t>(g.b), g.seed);
    OptOptions oo;
    oo.level = g.level;
    if (g.level == PlanOpt::Aggressive) oo.clock_period = settling_period(c);
    const OptimizedCircuit o = optimize_circuit(c, oo);
    std::uint64_t sig = 1469598103934665603ull;  // FNV-1a over old_to_new
    for (GateId ng : o.old_to_new) {
      sig ^= ng;
      sig *= 1099511628211ull;
    }
    const std::string row = std::string(g.family) + " " +
                            std::to_string(g.a) + "/" + std::to_string(g.b) +
                            "/" + std::to_string(g.seed) + " " +
                            std::string(plan_opt_name(g.level));
    EXPECT_EQ(sig, g.old_to_new_sig) << row;
    EXPECT_EQ(o.stats.merged, g.merged) << row;
    EXPECT_EQ(o.stats.gates_after, g.gates_after) << row;
  }
}

}  // namespace
}  // namespace plsim
