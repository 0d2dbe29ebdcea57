/**
 * @file
 * Symbolic equivalence check (X-based co-simulation on the product
 * netlist): the symbolic twin of SatEquiv's corrupted-design test, a
 * corruption visible only on the memory bus during stores, and
 * verdicts and counts that repeat exactly at any thread setting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/analysis/activity_analysis.hh"
#include "src/bespoke/equiv_check.hh"
#include "src/cpu/bsp430.hh"
#include "src/sat/equiv_prover.hh"
#include "src/transform/pass_pipeline.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{
namespace
{

/** Corrupt a design by inverting the driver of one OUTPUT port. */
Netlist
invertOutput(const Netlist &nl, const std::string &port)
{
    Netlist bad = nl;
    GateId out = bad.port(port);
    GateId inv = bad.addGate(CellType::INV, Module::Glue,
                             bad.gate(out).in[0]);
    bad.setFanin(out, 0, inv);
    bad.validate();
    return bad;
}

void
expectNamesMismatch(const EquivResult &eq, const std::string &port)
{
    EXPECT_FALSE(eq.equivalent) << port;
    EXPECT_NE(eq.firstMismatch.find("output '" + port + "'"),
              std::string::npos)
        << eq.firstMismatch;
    EXPECT_NE(eq.firstMismatch.find(" at cycle "), std::string::npos)
        << eq.firstMismatch;
    EXPECT_NE(eq.firstMismatch.find("(pc 0x"), std::string::npos)
        << eq.firstMismatch;
}

/**
 * Every output inversion of the mult core that the SAT miter refutes
 * (SatEquiv.CorruptedDesignRefutedWithConfirmedWitness's depth), the
 * symbolic check refutes too, naming that port.
 */
TEST(SymbolicEquiv, RefutesEveryOutputInversionSatRefutes)
{
    Netlist core = buildBsp430();
    AsmProgram prog = workloadByName("mult").assembleProgram();
    std::vector<std::string> outs;
    for (const auto &[name, id] : core.ports()) {
        if (core.gate(id).type == CellType::OUTPUT)
            outs.push_back(name);
    }
    std::sort(outs.begin(), outs.end());
    size_t refuted = 0;
    for (const std::string &port : outs) {
        Netlist bad = invertOutput(core, port);
        sat::SatEquivOptions so;
        so.depth = 8;
        if (sat::proveEquivalentSat(core, bad, prog, so).verdict !=
            sat::SatEquivVerdict::NotEquivalent)
            continue;
        refuted++;
        expectNamesMismatch(checkSymbolicEquivalence(core, bad, prog),
                            port);
    }
    EXPECT_GT(refuted, 0u);
}

/**
 * A corruption visible only while the core stores: mem_wdata[0] is
 * flipped exactly when byte lane 0 is written. Both cores share one
 * memory, so only the per-cycle bus compare can see it. binSearch
 * stores known data (mult stores only input-derived, X data, which
 * no known-vs-known compare can refute).
 */
TEST(SymbolicEquiv, RefutesStoreDataCorruption)
{
    Netlist core = buildBsp430();
    AsmProgram prog = workloadByName("binSearch").assembleProgram();
    Netlist bad = core;
    GateId out = bad.port("mem_wdata[0]");
    GateId flip =
        bad.addGate(CellType::XOR2, Module::Glue, bad.gate(out).in[0],
                    bad.gate(bad.port("mem_wen[0]")).in[0]);
    bad.setFanin(out, 0, flip);
    bad.validate();
    EquivResult eq = checkSymbolicEquivalence(core, bad, prog);
    expectNamesMismatch(eq, "mem_wdata[0]");
    EXPECT_TRUE(eq.completed);
}

Netlist
tailored(const Netlist &core, const AsmProgram &prog)
{
    AnalysisResult ar = analyzeActivity(core, prog);
    EXPECT_TRUE(ar.completed);
    PassPipelineOptions popts;
    PassEnv env;
    return runTailorPipeline(core, ar.activity.get(), popts, env);
}

bool
sameResult(const EquivResult &a, const EquivResult &b)
{
    return a.equivalent == b.equivalent && a.completed == b.completed &&
           a.pathsExplored == b.pathsExplored &&
           a.cyclesChecked == b.cyclesChecked &&
           a.outputsCompared == b.outputsCompared &&
           a.firstMismatch == b.firstMismatch;
}

/**
 * The check runs on one worker whatever the thread knobs say, so its
 * verdict and every count repeat exactly: threads 1 vs 4, under
 * BESPOKE_ANALYSIS_THREADS=4, and run to run — on forking apps, for
 * the tailored design and its corrupted twin.
 */
TEST(SymbolicEquiv, ResultIsThreadIndependentAndRepeatable)
{
    Netlist core = buildBsp430();
    for (const char *app : {"viterbi", "irq", "inSort"}) {
        AsmProgram prog = workloadByName(app).assembleProgram();
        Netlist design = tailored(core, prog);
        AnalysisOptions one;
        EquivResult ref = checkSymbolicEquivalence(core, design, prog, one);
        EXPECT_TRUE(ref.equivalent) << app << ": " << ref.firstMismatch;
        EXPECT_TRUE(ref.completed) << app;
        EXPECT_GT(ref.pathsExplored, 1u) << app;

        AnalysisOptions four;
        four.threads = 4;
        EXPECT_TRUE(sameResult(
            ref, checkSymbolicEquivalence(core, design, prog, four)))
            << app;
        EXPECT_TRUE(sameResult(
            ref, checkSymbolicEquivalence(core, design, prog, one)))
            << app;
        ::setenv("BESPOKE_ANALYSIS_THREADS", "4", 1);
        EquivResult env = checkSymbolicEquivalence(core, design, prog, one);
        ::unsetenv("BESPOKE_ANALYSIS_THREADS");
        EXPECT_TRUE(sameResult(ref, env)) << app;

        // The refutation (the first mismatch included) repeats too.
        Netlist twin = invertOutput(design, "gpio_out[0]");
        EquivResult r1 = checkSymbolicEquivalence(core, twin, prog);
        EquivResult r4 = checkSymbolicEquivalence(core, twin, prog, four);
        EXPECT_FALSE(r1.equivalent) << app;
        EXPECT_TRUE(sameResult(r1, r4)) << app << ": " << r1.firstMismatch
                                        << " vs " << r4.firstMismatch;
    }
}

} // namespace
} // namespace bespoke
