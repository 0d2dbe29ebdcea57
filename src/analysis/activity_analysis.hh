/**
 * @file
 * Input-independent gate activity analysis (paper Section 3.1,
 * Algorithm 1).
 *
 * The analysis symbolically executes the application binary on the
 * gate-level netlist with every input (GPIO pins, IRQ line, initial RAM
 * contents) set to X. It reports, for every gate, whether any input
 * assignment could ever toggle it; untoggled gates (with their proven
 * constant values) feed cutting & stitching (src/transform).
 *
 * Control decisions that depend on X (conditional-branch condition,
 * interrupt accept) fork the execution tree: the decision net is forced
 * to 0 and to 1 and both futures are explored. Termination for
 * unbounded control structures follows the paper's conservative-state
 * scheme: a table keyed by (instruction PC, decision kind) records the
 * most conservative machine state observed; a revisited state that is a
 * substate is pruned, otherwise the table entry is widened (differing
 * state bits -> X) and exploration continues from the widened state.
 *
 * One refinement over the bare algorithm: widening only begins after a
 * key has been visited `concreteVisits` times (exact-state revisits are
 * always pruned). This lets bounded concrete loops (e.g. a 16-iteration
 * shift-subtract divide) run to completion concretely, which the paper's
 * multi-hour per-benchmark analyses achieve by brute force, while still
 * guaranteeing termination on input-dependent or unbounded loops.
 */

#ifndef BESPOKE_ANALYSIS_ACTIVITY_ANALYSIS_HH
#define BESPOKE_ANALYSIS_ACTIVITY_ANALYSIS_HH

#include <memory>
#include <vector>

#include "src/sim/soc.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{

/** Full machine state: netlist flops + behavioral environment. */
struct MachineState
{
    SeqState seq;
    EnvState env;
    uint16_t lastFetchPc = 0;

    bool substateOf(const MachineState &c) const;
    static MachineState merge(const MachineState &a,
                              const MachineState &b);
    uint64_t hash() const;
};

struct AnalysisOptions
{
    /** Visits of one merge key before widening begins. */
    int concreteVisits = 64;
    /** Hard cap on total simulated cycles across all paths. */
    uint64_t maxTotalCycles = 40'000'000;
    /** Hard cap on explored paths. */
    uint64_t maxPaths = 200'000;
    /** Drive the external IRQ line with X (paper footnote 1). */
    bool irqLineUnknown = true;
    /** Gate evaluator strategy for the exploration Soc. */
    GateSim::EvalMode simMode = GateSim::defaultMode();
    /**
     * Path-exploration worker threads. 1 (the default) reproduces the
     * historical serial engine bit for bit; 0 means one worker per
     * hardware thread. The BESPOKE_ANALYSIS_THREADS environment
     * variable, when set, overrides this field process-wide (same
     * spirit as BESPOKE_FULL_EVAL).
     */
    int threads = 1;
    /**
     * Frontier states simulated at once per worker, on the bit-plane
     * packed LaneSim (1..64). The default 64 batches independent
     * frontier states into uint64_t lanes and hands a lane back to the
     * scalar engine only when it reaches a fork or merge point; 1 is
     * the scalar A/B setting, keeping every path on the scalar engine
     * and reproducing the serial schedule bit for bit. The toggle
     * fixpoint is the same either way (pinned by tests); path/cycle
     * counters differ from the serial schedule (see
     * serialAnalysisHorizon() for the lane-independent horizon). The
     * BESPOKE_ANALYSIS_LANES environment variable, when set, overrides
     * this field process-wide.
     */
    int laneWidth = 64;
    /**
     * Lane-plane width in bits for the batched engine (64/128/256/512;
     * 0 resolves through BESPOKE_PLANE_BITS, defaulting to 64). Widths
     * above 64 widen each worker's batch to one frontier state per
     * plane bit, amortizing the per-gate-visit fixed costs across more
     * lanes. Like laneWidth/threads this is an execution knob, not an
     * input: the toggle fixpoint is width-independent, so it is
     * excluded from hashAnalysisOptions.
     */
    int planeBits = 0;
};

/**
 * The worker count analyzeActivity() will actually use for `opts`:
 * applies the BESPOKE_ANALYSIS_THREADS override, then resolves 0 to
 * the hardware thread count.
 */
int resolveAnalysisThreads(const AnalysisOptions &opts);

/**
 * The lane width analyzeActivity() will actually use for `opts`:
 * applies the BESPOKE_ANALYSIS_LANES override, clamped to [1, 64].
 */
int resolveAnalysisLanes(const AnalysisOptions &opts);

/** Per-worker share of one analysis, for load-balance observability. */
struct WorkerStats
{
    uint64_t pathsExplored = 0;
    uint64_t cyclesSimulated = 0;
};

struct AnalysisResult
{
    /** May-toggle flags for every gate; untoggled gates are provably
     *  constant for all inputs. */
    std::unique_ptr<ActivityTracker> activity;
    uint64_t pathsExplored = 0;
    uint64_t cyclesSimulated = 0;
    uint64_t merges = 0;
    uint64_t forks = 0;
    bool completed = false;  ///< false if a cap was hit
    double seconds = 0.0;

    /** @name Exploration observability */
    /// @{
    int threadsUsed = 1;
    /** Resolved LaneSim batch width (1 = pure scalar exploration). */
    int lanesUsed = 1;
    /**
     * Gate evaluations across all workers: scalar evaluations plus
     * lane-sim gate visits (one visit evaluates every lane at once).
     */
    uint64_t gatesEvaluated = 0;
    /** Full 64-lane evaluation sweeps performed. */
    uint64_t laneSweeps = 0;
    /** Lane-cycles simulated on the lane engine (sum of popcounts of
     *  the active-lane mask over all sweeps). */
    uint64_t laneCycles = 0;
    /** High-water mark of the pending-work frontier. */
    uint64_t frontierPeak = 0;
    /** Deepest fork nesting reached by any explored path. */
    uint32_t maxForkDepth = 0;
    /** One entry per worker; sums match the totals above. */
    std::vector<WorkerStats> workerStats;
    /// @}

    /** Untoggled real-cell count. */
    size_t untoggledCells() const
    {
        return activity->untoggledCellCount();
    }
};

/**
 * Run the analysis for one application on a netlist (the original
 * core, or a bespoke one during verification).
 */
AnalysisResult analyzeActivity(const Netlist &netlist,
                               const AsmProgram &prog,
                               const AnalysisOptions &opts = {});

/** Convenience overload assembling a workload. */
AnalysisResult analyzeActivity(const Netlist &netlist, const Workload &w,
                               const AnalysisOptions &opts = {});

/**
 * Cycles the serial scalar schedule (one worker, laneWidth 1, the
 * BESPOKE_ANALYSIS_THREADS/LANES overrides ignored) simulates for
 * `prog` under `opts`'s exploration knobs (concreteVisits, caps, IRQ
 * line). Unlike AnalysisResult::cyclesSimulated, which grows with lane
 * batching and varies with the thread schedule, this depends only on
 * inputs the checkpoint keys hash, so it is the horizon the SAT
 * never-toggle pass's auto depth (SatNeverToggleOptions::depth == 0)
 * resolves to. Runs one scalar analysis. Returns 0 (no horizon: the
 * SAT pass then skips) when that serial run hits maxPaths or
 * maxTotalCycles, so a capped count never becomes a proof depth.
 */
uint64_t serialAnalysisHorizon(const Netlist &netlist,
                               const AsmProgram &prog,
                               const AnalysisOptions &opts);

} // namespace bespoke

#endif // BESPOKE_ANALYSIS_ACTIVITY_ANALYSIS_HH
