/**
 * @file
 * Integration tests of the end-to-end bespoke flow: tailored designs
 * shrink, still execute their application exactly (ISS cross-check and
 * symbolic equivalence), multi-application designs contain their
 * members' designs, and the coarse-grained module baseline is never
 * smaller than the fine-grained design.
 */

#include <gtest/gtest.h>

#include "src/bespoke/equiv_check.hh"
#include "src/bespoke/flow.hh"
#include "src/verify/runner.hh"
#include "src/workloads/workloads_impl.hh"

namespace bespoke
{
namespace
{

BespokeFlow &
flow()
{
    static BespokeFlow f = [] {
        FlowOptions opts;
        opts.powerInputsPerWorkload = 1;
        return BespokeFlow(opts);
    }();
    return f;
}

TEST(BespokeFlow, TailoredDesignShrinksAndStillRuns)
{
    for (const char *name : {"div", "binSearch", "convEn"}) {
        const Workload &w = workloadByName(name);
        BespokeDesign d = flow().tailor(w);
        DesignMetrics base = flow().measureBaseline({&w});

        EXPECT_LT(d.metrics.gates, base.gates) << name;
        EXPECT_LT(d.metrics.areaUm2, base.areaUm2) << name;
        EXPECT_LT(d.metrics.powerNominal.totalUW(),
                  base.powerNominal.totalUW())
            << name;
        // No performance cost: same clock, and the design still meets
        // it (slack can only be exposed, never lost).
        EXPECT_LE(d.metrics.criticalPathPs, flow().clockPeriodPs())
            << name;

        AsmProgram prog = w.assembleProgram();
        Rng rng(17);
        for (int t = 0; t < 2; t++) {
            WorkloadInput in = w.genInput(rng);
            IssRun ir = runWorkloadIss(w, in);
            GateRun gr = runWorkloadGate(d.netlist, w, prog, in);
            RunDiff diff = compareRuns(ir, gr, w);
            EXPECT_TRUE(diff.ok) << name << ": " << diff.detail;
            // Identical cycle count: zero performance degradation.
            GateRun gr_base =
                runWorkloadGate(flow().baseline(), w, prog, in);
            EXPECT_EQ(gr.cycles, gr_base.cycles) << name;
        }
    }
}

TEST(BespokeFlow, SymbolicEquivalenceOfTailoredDesigns)
{
    for (const char *name : {"intAVG", "mult"}) {
        const Workload &w = workloadByName(name);
        BespokeDesign d = flow().tailor(w);
        AsmProgram prog = w.assembleProgram();
        EquivResult eq = checkSymbolicEquivalence(flow().baseline(),
                                                  d.netlist, prog);
        EXPECT_TRUE(eq.equivalent) << name << ": " << eq.firstMismatch;
        EXPECT_TRUE(eq.completed) << name;
        EXPECT_GT(eq.outputsCompared, 1000u) << name;
    }
}

TEST(BespokeFlow, MultiAppDesignCoversMembers)
{
    const Workload &a = workloadByName("div");
    const Workload &b = workloadByName("tHold");
    BespokeDesign da = flow().tailor(a);
    BespokeDesign db = flow().tailor(b);
    BespokeDesign dm = flow().tailorMulti({&a, &b});

    // Union design is at least as large as each member and no larger
    // than the baseline.
    EXPECT_GE(dm.metrics.gates,
              std::max(da.metrics.gates, db.metrics.gates));
    EXPECT_LE(dm.metrics.gates, flow().baseline().numCells());

    // It runs BOTH applications correctly.
    Rng rng(5);
    for (const Workload *w : {&a, &b}) {
        AsmProgram prog = w->assembleProgram();
        WorkloadInput in = w->genInput(rng);
        IssRun ir = runWorkloadIss(*w, in);
        GateRun gr = runWorkloadGate(dm.netlist, *w, prog, in);
        RunDiff diff = compareRuns(ir, gr, *w);
        EXPECT_TRUE(diff.ok) << w->name << ": " << diff.detail;
    }
}

TEST(BespokeFlow, CoarseNeverSmallerThanFine)
{
    for (const char *name : {"binSearch", "tea8"}) {
        const Workload &w = workloadByName(name);
        BespokeDesign fine = flow().tailor(w);
        BespokeDesign coarse = flow().tailorCoarse(w);
        EXPECT_GE(coarse.metrics.gates, fine.metrics.gates) << name;
        EXPECT_GE(coarse.metrics.areaUm2, fine.metrics.areaUm2)
            << name;
        // The coarse design must also still run the application.
        AsmProgram prog = w.assembleProgram();
        Rng rng(23);
        WorkloadInput in = w.genInput(rng);
        IssRun ir = runWorkloadIss(w, in);
        GateRun gr = runWorkloadGate(coarse.netlist, w, prog, in);
        EXPECT_TRUE(compareRuns(ir, gr, w).ok) << name;
    }
}

TEST(BespokeFlow, VminNeverAboveNominalAndSlackConsistent)
{
    const Workload &w = workloadByName("binSearch");
    BespokeDesign d = flow().tailor(w);
    EXPECT_LE(d.metrics.vmin, 1.0);
    EXPECT_GE(d.metrics.vmin, 0.5);
    EXPECT_GE(d.metrics.slackFraction, 0.0);
    EXPECT_LE(d.metrics.powerAtVmin.totalUW(),
              d.metrics.powerNominal.totalUW());
}

TEST(BespokeFlow, EquivalenceCheckerDetectsRealDifferences)
{
    // Negative test: tailor to app A but check equivalence against a
    // DIFFERENT app whose execution needs gates A never uses. The
    // checker must flag non-equivalence (or at minimum not certify
    // equivalence with full completion and zero mismatches while the
    // designs produce different known outputs).
    const Workload &a = workloadByName("binSearch");
    const Workload &b = workloadByName("mult");
    BespokeDesign da = flow().tailor(a);
    AsmProgram prog_b = b.assembleProgram();
    EquivResult eq = checkSymbolicEquivalence(flow().baseline(),
                                              da.netlist, prog_b);
    EXPECT_FALSE(eq.equivalent && eq.completed)
        << "binSearch-tailored core cannot be equivalent to the "
           "baseline when running mult";
}

/**
 * Two loop iterations, each forking on an input bit. At
 * concreteVisits 2 the lane engine explores about half the serial
 * engine's cycles, so its cyclesSimulated is not the horizon.
 */
Workload
forkLoop()
{
    return Workload{"forkLoop", "input-dependent branch in a loop",
                    wrapWorkload(R"(
        mov &IN, r10
        clr r5
        mov #2, r4
lp:     bit #1, r10
        jz s1
        nop
s1:     dec r4
        jnz lp
        mov r5, &OUT
)"),
                    WorkloadClass::Unit,
                    1,
                    [](Rng &rng) {
                        WorkloadInput in;
                        in.ramWords.push_back(rng.word());
                        return in;
                    },
                    4000};
}

FlowOptions
forkLoopSatOptions(int lanes)
{
    FlowOptions opts;
    opts.powerInputsPerWorkload = 1;
    opts.analysis.concreteVisits = 2;
    opts.analysis.laneWidth = lanes;
    opts.passes.satNeverToggle = true;
    return opts;
}

/**
 * The SAT never-toggle pass's auto depth (sat.depth 0) resolves from
 * the serial schedule, so the tailored design does not depend on the
 * lane width that ran the analysis — the "design" checkpoint key
 * excludes it.
 */
TEST(BespokeFlow, SatAutoDepthIsLaneWidthIndependent)
{
    Workload w = forkLoop();
    AsmProgram prog = w.assembleProgram();

    uint64_t hash[2] = {};
    uint64_t cycles[2] = {};
    for (int i = 0; i < 2; i++) {
        FlowOptions opts = forkLoopSatOptions(i == 0 ? 1 : 64);
        BespokeFlow f(opts);
        BespokeDesign d = f.tailor(w);
        hash[i] = d.netlist.contentHash();
        cycles[i] = d.analysis.cyclesSimulated;
        EXPECT_EQ(serialAnalysisHorizon(f.baseline(), prog, opts.analysis),
                  cycles[0]);
    }
    ASSERT_NE(cycles[0], cycles[1]);  // the lane schedule differs
    EXPECT_EQ(hash[0], hash[1]);
}

/**
 * A cycle cap the lane run fits under but the serial schedule exceeds:
 * the analysis completes, yet the auto depth has no horizon, so the
 * SAT pass is skipped rather than proving over a capped count.
 */
TEST(BespokeFlow, SatAutoDepthSkipsPassWhenSerialHorizonCapped)
{
    Workload w = forkLoop();
    AsmProgram prog = w.assembleProgram();
    FlowOptions opts = forkLoopSatOptions(64);
    uint64_t serial = 0;
    uint64_t lane = 0;
    uint64_t uncapped_hash = 0;
    {
        BespokeFlow f(opts);
        serial = serialAnalysisHorizon(f.baseline(), prog, opts.analysis);
        lane = f.analyze(w).cyclesSimulated;
        uncapped_hash = f.tailor(w).netlist.contentHash();
    }
    ASSERT_LT(lane, serial);
    opts.analysis.maxTotalCycles = (lane + serial) / 2;

    BespokeFlow with_sat(opts);
    EXPECT_EQ(serialAnalysisHorizon(with_sat.baseline(), prog,
                                    opts.analysis),
              0u);
    BespokeDesign d = with_sat.tailor(w);
    ASSERT_TRUE(d.analysis.completed);

    FlowOptions no_sat_opts = opts;
    no_sat_opts.passes.satNeverToggle = false;
    BespokeFlow no_sat(no_sat_opts);
    uint64_t no_sat_hash = no_sat.tailor(w).netlist.contentHash();
    ASSERT_NE(uncapped_hash, no_sat_hash);  // the pass does cut here
    EXPECT_EQ(d.netlist.contentHash(), no_sat_hash);
}

} // namespace
} // namespace bespoke
