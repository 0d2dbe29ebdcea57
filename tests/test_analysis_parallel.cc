/**
 * @file
 * Tests for the parallel path-exploration engine behind
 * analyzeActivity():
 *
 *  - threads=1 at laneWidth 1 reproduces the pre-refactor serial
 *    engine bit for bit (path/cycle/fork/merge counters and the
 *    untoggled-cell count are pinned to values captured from the
 *    monolithic AnalysisEngine before the decomposition);
 *  - threads>1 and the 64-lane engine yield the identical
 *    untoggled-cell set (the widening fixpoint is schedule-independent
 *    on these workloads);
 *  - the library defaults (AnalysisOptions, FlowOptions, JobScheduler
 *    jobs) resolve the 64-lane engine and match the scalar fixpoint;
 *  - serialAnalysisHorizon() is lane-width and thread independent,
 *    and 0 when the serial schedule hits its caps;
 *  - exploration caps produce completed=false with a still-usable
 *    (conservative) tracker, on one thread and on many;
 *  - BESPOKE_ANALYSIS_THREADS overrides AnalysisOptions::threads;
 *  - the observability fields are internally consistent.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "src/analysis/activity_analysis.hh"
#include "src/bespoke/flow.hh"
#include "src/cpu/bsp430.hh"
#include "src/service/job_scheduler.hh"
#include "src/util/worker_pool.hh"

namespace bespoke
{
namespace
{

const Netlist &
core()
{
    static Netlist nl = buildBsp430();
    return nl;
}

AnalysisResult
analyze(const char *workload, int threads, AnalysisOptions opts = {})
{
    opts.threads = threads;
    return analyzeActivity(core(), workloadByName(workload), opts);
}

/** The scalar A/B setting: the serial schedule's golden counters are
 *  only valid at lane width 1. */
AnalysisOptions
scalarOpts()
{
    AnalysisOptions opts;
    opts.laneWidth = 1;
    return opts;
}

/** Same may-toggle flags, and the same proven constants. */
void
expectSameUntoggledSet(const ActivityTracker &got,
                       const ActivityTracker &want)
{
    ASSERT_EQ(got.netlist().size(), want.netlist().size());
    for (GateId i = 0; i < want.netlist().size(); i++) {
        ASSERT_EQ(got.toggled(i), want.toggled(i)) << "gate " << i;
        if (!want.toggled(i)) {
            ASSERT_EQ(got.initialValue(i), want.initialValue(i))
                << "gate " << i;
        }
    }
}

/** Golden counters captured from the serial engine pre-decomposition. */
struct Golden
{
    const char *workload;
    uint64_t paths, cycles, forks, merges;
    size_t untoggled;
};

constexpr Golden kGolden[] = {
    {"div", 181, 2956, 90, 3, 3708},
    {"tHold", 385, 7837, 192, 44, 3537},
    {"rle", 279, 5959, 139, 24, 1424},
    {"binSearch", 65, 1269, 32, 0, 3747},
    {"intFilt", 1, 2265, 0, 0, 3101},
};

TEST(AnalysisParallel, SerialMatchesPreRefactorGolden)
{
    for (const Golden &g : kGolden) {
        SCOPED_TRACE(g.workload);
        AnalysisResult r = analyze(g.workload, 1, scalarOpts());
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.pathsExplored, g.paths);
        EXPECT_EQ(r.cyclesSimulated, g.cycles);
        EXPECT_EQ(r.forks, g.forks);
        EXPECT_EQ(r.merges, g.merges);
        EXPECT_EQ(r.untoggledCells(), g.untoggled);
        EXPECT_EQ(r.threadsUsed, 1);
        EXPECT_EQ(r.lanesUsed, 1);
    }
}

TEST(AnalysisParallel, ThreadedMatchesSerialUntoggledSet)
{
    // tHold and rle exercise the widening tables the hardest (44 and
    // 24 merges); div is fork-heavy with almost no widening.
    for (const char *name : {"div", "tHold", "rle"}) {
        SCOPED_TRACE(name);
        AnalysisResult serial = analyze(name, 1, scalarOpts());
        ASSERT_TRUE(serial.completed);
        for (int threads : {2, 8}) {
            SCOPED_TRACE(threads);
            AnalysisResult par = analyze(name, threads, scalarOpts());
            ASSERT_TRUE(par.completed);
            EXPECT_EQ(par.threadsUsed, threads);
            expectSameUntoggledSet(*par.activity, *serial.activity);
        }
    }
}

TEST(AnalysisParallel, LaneBatchedMatchesSerialUntoggledSet)
{
    // The 64-lane bit-plane engine (AnalysisOptions::laneWidth) takes
    // a different schedule through the widening tables, so the
    // path/cycle counters legitimately differ from the serial golden
    // values — but the toggle fixpoint must be identical, alone and
    // combined with worker threads.
    for (const char *name : {"div", "tHold", "rle", "binSearch"}) {
        SCOPED_TRACE(name);
        AnalysisResult serial = analyze(name, 1, scalarOpts());
        ASSERT_TRUE(serial.completed);
        for (int threads : {1, 4}) {
            SCOPED_TRACE(threads);
            AnalysisOptions opts;
            opts.laneWidth = 64;
            AnalysisResult lane = analyze(name, threads, opts);
            ASSERT_TRUE(lane.completed);
            EXPECT_EQ(lane.lanesUsed, 64);
            EXPECT_GT(lane.gatesEvaluated, 0u);
            expectSameUntoggledSet(*lane.activity, *serial.activity);
        }
    }
}

TEST(AnalysisParallel, LaneEnvVarOverridesLaneWidth)
{
    AnalysisOptions opts;
    opts.laneWidth = 1;

    ::setenv("BESPOKE_ANALYSIS_LANES", "64", 1);
    EXPECT_EQ(resolveAnalysisLanes(opts), 64);
    AnalysisResult r =
        analyzeActivity(core(), workloadByName("binSearch"), opts);
    EXPECT_EQ(r.lanesUsed, 64);

    // Out-of-range values clamp; garbage is ignored with a warning.
    ::setenv("BESPOKE_ANALYSIS_LANES", "1000", 1);
    EXPECT_EQ(resolveAnalysisLanes(opts), 64);
    ::setenv("BESPOKE_ANALYSIS_LANES", "wide", 1);
    EXPECT_EQ(resolveAnalysisLanes(opts), 1);

    ::unsetenv("BESPOKE_ANALYSIS_LANES");
    opts.laneWidth = 7;
    EXPECT_EQ(resolveAnalysisLanes(opts), 7);
}

/** The exploration engines the cap tests cover. */
struct Engine
{
    int lanes, threads;
};
constexpr Engine kEngines[] = {{1, 1}, {1, 4}, {64, 1}, {64, 4}};

TEST(AnalysisParallel, PathCapYieldsIncompleteButUsableResult)
{
    AnalysisResult full = analyze("div", 1, scalarOpts());
    for (const Engine &e : kEngines) {
        SCOPED_TRACE(testing::Message() << e.lanes << " lanes, "
                                        << e.threads << " threads");
        AnalysisOptions opts;
        opts.laneWidth = e.lanes;
        opts.maxPaths = 20;  // div needs 181 serially
        AnalysisResult r = analyze("div", e.threads, opts);
        EXPECT_FALSE(r.completed);
        EXPECT_LE(r.pathsExplored, opts.maxPaths);
        ASSERT_NE(r.activity, nullptr);
        EXPECT_TRUE(r.activity->initialCaptured());
        // The partial result is conservative: it can only claim MORE
        // untoggled gates than the full exploration, never a gate the
        // full exploration proves toggleable... in the other direction:
        // anything the capped run saw toggle really does toggle.
        for (GateId i = 0; i < core().size(); i++) {
            if (r.activity->toggled(i)) {
                EXPECT_TRUE(full.activity->toggled(i)) << "gate " << i;
            }
        }
        EXPECT_GE(r.untoggledCells(), full.untoggledCells());
    }
}

TEST(AnalysisParallel, CycleCapYieldsIncompleteResult)
{
    for (const Engine &e : kEngines) {
        SCOPED_TRACE(testing::Message() << e.lanes << " lanes, "
                                        << e.threads << " threads");
        AnalysisOptions opts;
        opts.laneWidth = e.lanes;
        opts.maxTotalCycles = 500;  // div needs 2956 serially
        AnalysisResult r = analyze("div", e.threads, opts);
        EXPECT_FALSE(r.completed);
        ASSERT_NE(r.activity, nullptr);
        EXPECT_TRUE(r.activity->initialCaptured());
    }
}

TEST(AnalysisParallel, EnvVarOverridesThreadCount)
{
    AnalysisOptions opts;
    opts.threads = 1;

    ::setenv("BESPOKE_ANALYSIS_THREADS", "3", 1);
    EXPECT_EQ(resolveAnalysisThreads(opts), 3);
    AnalysisResult r =
        analyzeActivity(core(), workloadByName("binSearch"), opts);
    EXPECT_EQ(r.threadsUsed, 3);
    EXPECT_EQ(r.workerStats.size(), 3u);

    // 0 means "all cores", from the env var just like from the field.
    ::setenv("BESPOKE_ANALYSIS_THREADS", "0", 1);
    EXPECT_EQ(resolveAnalysisThreads(opts),
              WorkerPool::defaultThreadCount());

    // Garbage is ignored with a warning; the field wins.
    ::setenv("BESPOKE_ANALYSIS_THREADS", "lots", 1);
    EXPECT_EQ(resolveAnalysisThreads(opts), 1);

    ::unsetenv("BESPOKE_ANALYSIS_THREADS");
    EXPECT_EQ(resolveAnalysisThreads(opts), 1);
}

TEST(AnalysisParallel, ObservabilityFieldsAreConsistent)
{
    for (int threads : {1, 2}) {
        SCOPED_TRACE(threads);
        AnalysisResult r = analyze("div", threads);
        EXPECT_EQ(r.threadsUsed, threads);
        EXPECT_GT(r.frontierPeak, 0u);
        EXPECT_GT(r.maxForkDepth, 0u);  // div forks (90 times serially)
        ASSERT_EQ(r.workerStats.size(),
                  static_cast<size_t>(threads));
        uint64_t paths = 0, cycles = 0;
        for (const WorkerStats &ws : r.workerStats) {
            paths += ws.pathsExplored;
            cycles += ws.cyclesSimulated;
        }
        EXPECT_EQ(paths, r.pathsExplored);
        EXPECT_EQ(cycles, r.cyclesSimulated);
    }
}

/** True when the environment override pins the lane width. */
bool
laneEnvSet()
{
    return std::getenv("BESPOKE_ANALYSIS_LANES") != nullptr;
}

SchedulerOptions
schedulerOpts(int lanes)
{
    SchedulerOptions sopts;
    sopts.jobThreads = 2;
    sopts.workerThreads = 2;
    sopts.flow.analysis.laneWidth = lanes;
    sopts.flow.powerInputsPerWorkload = 1;
    return sopts;
}

std::vector<JobResult>
runTailorJobs(const std::vector<std::string> &apps, SchedulerOptions sopts)
{
    JobScheduler sched(std::move(sopts));
    for (const std::string &app : apps) {
        JobSpec spec;
        spec.id = "tailor-" + app;
        spec.kind = "tailor";
        spec.apps = {app};
        sched.submit(spec);
    }
    return sched.finish();
}

TEST(LaneDefault, LibraryDefaultsResolveSixtyFourLanes)
{
    if (laneEnvSet())
        GTEST_SKIP() << "BESPOKE_ANALYSIS_LANES overrides the default";
    EXPECT_EQ(resolveAnalysisLanes(AnalysisOptions{}), 64);
    EXPECT_EQ(analyzeActivity(core(), workloadByName("binSearch"))
                  .lanesUsed,
              64);

    FlowOptions fopts;
    fopts.powerInputsPerWorkload = 1;
    EXPECT_EQ(resolveAnalysisLanes(fopts.analysis), 64);
    BespokeFlow flow(fopts);
    EXPECT_EQ(flow.analyze(workloadByName("binSearch")).lanesUsed, 64);

    EXPECT_EQ(resolveAnalysisLanes(SchedulerOptions{}.flow.analysis), 64);
}

TEST(LaneDefault, DefaultsMatchScalarUntoggledSetOnGoldenApps)
{
    FlowOptions fopts;
    fopts.powerInputsPerWorkload = 1;
    BespokeFlow default_flow(fopts);
    fopts.analysis.laneWidth = 1;
    BespokeFlow scalar_flow(fopts);
    std::vector<std::string> apps;
    for (const Golden &g : kGolden) {
        SCOPED_TRACE(g.workload);
        apps.push_back(g.workload);
        const Workload &w = workloadByName(g.workload);
        AnalysisResult scalar = analyze(g.workload, 1, scalarOpts());
        expectSameUntoggledSet(*analyzeActivity(core(), w).activity,
                               *scalar.activity);
        expectSameUntoggledSet(*default_flow.analyze(w).activity,
                               *scalar_flow.analyze(w).activity);
    }

    // Same cut, metrics and payload from a default scheduler as from
    // one pinned to the scalar engine.
    std::vector<JobResult> lane = runTailorJobs(apps, schedulerOpts(64));
    std::vector<JobResult> scalar = runTailorJobs(apps, schedulerOpts(1));
    ASSERT_EQ(lane.size(), scalar.size());
    for (size_t i = 0; i < lane.size(); i++) {
        EXPECT_TRUE(scalar[i].ok) << scalar[i].error;
        EXPECT_EQ(lane[i].deterministicJson().dump(),
                  scalar[i].deterministicJson().dump())
            << "job " << lane[i].id;
    }
}

TEST(LaneDefault, SerialHorizonIsLaneAndThreadIndependent)
{
    const Golden &div = kGolden[0];
    ASSERT_STREQ(div.workload, "div");
    AsmProgram prog = workloadByName(div.workload).assembleProgram();
    AnalysisOptions lanes;
    lanes.laneWidth = 64;
    // Precondition: lane batching changes div's explored cycle count,
    // so a horizon read from cyclesSimulated would move with it.
    ASSERT_NE(analyze(div.workload, 1, lanes).cyclesSimulated, div.cycles);

    lanes.threads = 4;
    EXPECT_EQ(serialAnalysisHorizon(core(), prog, lanes), div.cycles);
    EXPECT_EQ(serialAnalysisHorizon(core(), prog, scalarOpts()),
              div.cycles);
    ::setenv("BESPOKE_ANALYSIS_LANES", "64", 1);
    ::setenv("BESPOKE_ANALYSIS_THREADS", "3", 1);
    EXPECT_EQ(serialAnalysisHorizon(core(), prog, scalarOpts()),
              div.cycles);
    ::unsetenv("BESPOKE_ANALYSIS_LANES");
    ::unsetenv("BESPOKE_ANALYSIS_THREADS");
}

TEST(LaneDefault, SerialHorizonIsZeroWhenCapped)
{
    AsmProgram prog = workloadByName("div").assembleProgram();
    AnalysisOptions paths;
    paths.maxPaths = 20;  // div needs 181 serially
    EXPECT_EQ(serialAnalysisHorizon(core(), prog, paths), 0u);
    AnalysisOptions cycles;
    cycles.maxTotalCycles = 500;  // div needs 2956 serially
    EXPECT_EQ(serialAnalysisHorizon(core(), prog, cycles), 0u);
}

} // namespace
} // namespace bespoke
