/**
 * @file
 * One worker of the activity-analysis exploration engine.
 *
 * A PathExplorer owns everything one worker needs to simulate paths
 * of the execution tree without synchronizing with anyone: its own
 * Soc (stamped out cheaply from the shared per-netlist SocContext),
 * its own ActivityTracker (merged into the final result via
 * ActivityTracker::mergeFrom, which is commutative), and its own
 * path/cycle/fork counters. Everything shared — the work frontier,
 * the conservative-widening tables, the global budgets — lives behind
 * the Frontier, which is the only object workers touch concurrently.
 *
 * run() is the worker loop: pop a state, explore the path until it
 * halts / forks continuations back onto the frontier / is pruned at a
 * merge point, repeat until the frontier reports the exploration is
 * over. With one worker this reproduces the historical serial engine
 * bit for bit (same LIFO order, same table discipline, same budget
 * checks at the same points).
 *
 * Every evaluated cycle goes to one observer slot, chosen by the
 * context: without a stop net the worker accumulates gate activity in
 * its ActivityTracker (the analysis); with one it tests that net
 * instead and stops the whole exploration the first time it reads One
 * (the symbolic equivalence check's miter, src/bespoke/equiv_check.hh).
 */

#ifndef BESPOKE_ANALYSIS_PATH_EXPLORER_HH
#define BESPOKE_ANALYSIS_PATH_EXPLORER_HH

#include <array>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/analysis/frontier.hh"
#include "src/sim/lane_sim.hh"
#include "src/sim/sim_context.hh"

namespace bespoke
{

/**
 * Read-only state shared by all workers of one analysis: the resolved
 * per-netlist simulation context, the program, the options, the
 * resolved lane width, and the sorted halt-address table.
 */
struct ExplorationContext
{
    ExplorationContext(const Netlist &netlist, const AsmProgram &prog,
                       const AnalysisOptions &opts, int lanes);
    /** On a pre-built context (e.g. a product netlist's); see stopNet. */
    ExplorationContext(std::shared_ptr<const SocContext> soc,
                       const AsmProgram &prog, const AnalysisOptions &opts,
                       int lanes, GateId stop_net = kNoGate);

    std::shared_ptr<const SocContext> soc;
    const AsmProgram &prog;
    AnalysisOptions opts;
    /** Resolved LaneSim batch width (1 = scalar-only exploration). */
    int lanes;
    /** Resolved plane width in bits (64/128/256/512). */
    int planeWidth;
    /**
     * Frontier states one worker batches per sweep: `lanes` on 64-bit
     * planes, the full plane width above (a wider word exists to carry
     * more states; capping it at `lanes` would just simulate dead
     * lanes).
     */
    int batchLanes;
    /** Sorted `jmp .` addresses; membership via binary search. */
    std::vector<uint16_t> haltAddrs;
    /**
     * kNoGate: workers track gate activity. Otherwise workers track
     * nothing and stop the exploration at the first evaluation where
     * this net is One (PathExplorer::stopPoint()).
     */
    GateId stopNet = kNoGate;

    bool isHaltPc(uint16_t pc) const;
};

class PathExplorer
{
  public:
    PathExplorer(const ExplorationContext &ctx, Frontier &frontier,
                 int worker_id);

    /**
     * Drive the Soc to the analysis entry state (all inputs X, IRQ
     * line per options, reset) and capture the reset-time values in
     * this worker's tracker. Deterministic: every worker captures the
     * identical initial state.
     */
    void prepare();

    /** The root work item (reset state, PC 0); push exactly one. */
    WorkItem initialItem();

    /** Worker loop: explore paths until the frontier is exhausted. */
    void run();

    /** The gate activity seen (contexts without a stop net only). */
    ActivityTracker &tracker() { return *tracker_; }

    /** Where the stop net first read One. */
    struct StopPoint
    {
        std::vector<uint8_t> values;  ///< byte-coded Logic per net
        uint64_t cycle = 0;   ///< cycles since reset on its path
        uint16_t pc = 0;      ///< last fetch PC of the path
    };
    /** Set once this worker stopped the exploration. */
    const std::optional<StopPoint> &stopPoint() const { return stop_; }

    /** @name Per-worker statistics */
    /// @{
    int workerId() const { return workerId_; }
    uint64_t pathsExplored() const { return paths_; }
    uint64_t cyclesSimulated() const { return cycles_; }
    uint64_t forks() const { return forks_; }
    /** Scalar gate evaluations plus lane-sim gate visits. */
    uint64_t gatesEvaluated() const;
    uint64_t laneSweeps() const { return laneSweeps_; }
    uint64_t laneCycles() const { return laneCycles_; }
    /** Evaluations observed: scalar evaluations plus lane-cycles. */
    uint64_t observations() const { return observations_; }
    /// @}

  private:
    MachineState capture() const;
    void restore(const MachineState &s);

    /**
     * Feed the current scalar evaluation to the observer slot. False
     * means the stop net fired: the caller abandons its path.
     */
    bool observe();
    /** Lane form of observe(), over the lanes in `active`. */
    template <int W>
    bool observeLanes(const LaneSocT<W> &ls, const LaneMask<W> &active,
                      const uint64_t *lane_cycle);
    void stopAt(std::vector<uint8_t> values, uint64_t cycle, uint16_t pc);

    /**
     * First decision that is X after evaluation, if any: the net(s) to
     * force (the follower's too on a product netlist, else kNoGate).
     */
    struct XDec
    {
        std::array<GateId, 2> nets;
        uint8_t kind;  ///< DecKind, part of the merge-table key
    };
    std::optional<XDec> firstXDecision() const;
    bool resolveDecisions(bool &forked);
    void forkRec(const MachineState &pre,
                 const std::vector<std::pair<GateId, Logic>> &forces);
    /** The follower's fetch PC (`pc` itself on a single core). */
    SWord followerPc(SWord pc) const;
    template <int W>
    SWord followerPc(const LaneSocT<W> &ls, int lane, SWord pc) const;
    void enumerateSymbolicPc(SWord pc, SWord fpc,
                             const MachineState &base, uint32_t depth);
    void runPath(const MachineState &start);

    /** @name Lane-batched exploration (ctx.lanes > 1) */
    /// @{
    /**
     * Worker loop popping whole batches onto a lane engine whose
     * plane width is chosen per batch: the narrowest instantiated
     * width that fits the popped batch, capped by ctx.planeWidth.
     * Empty lanes cost plane words regardless of occupancy, so a
     * shallow frontier runs on 64-bit planes even at --plane-bits 512;
     * wide planes engage exactly when the frontier is deep enough to
     * fill them. Engines are built lazily and reused across batches.
     */
    void runLanes();
    /** Simulate one batch of frontier states lane-parallel. */
    template <int W>
    void laneSweep(LaneSocT<W> &ls, std::vector<WorkItem> batch);
    /**
     * Continue a path that was widened at a ctl-xfer merge point:
     * replays the scalar engine's post-widening tail (re-evaluate,
     * resolve any surfaced decisions, finish the cycle) and pushes the
     * post-latch state back to the frontier instead of looping inline.
     */
    void continueWidened(const MachineState &cur, uint32_t depth);
    /// @}

    /** Simulated one cycle to completion: charge both budgets. */
    void chargeCycle()
    {
        cycles_++;
        curCycle_++;
        frontier_.chargeCycle();
    }

    const ExplorationContext &ctx_;
    Frontier &frontier_;
    const int workerId_;
    Soc soc_;
    /** The observer slot: a tracker, or (empty) the stop net. */
    std::optional<ActivityTracker> tracker_;
    std::optional<StopPoint> stop_;
    bool stopped_ = false;
    uint64_t observations_ = 0;
    /** Gate visits of this worker's (already destroyed) lane engine. */
    uint64_t laneGateVisits_ = 0;
    uint16_t lastFetchPc_ = 0;
    uint32_t curDepth_ = 0;  ///< fork depth of the current path
    uint64_t curCycle_ = 0;  ///< cycles since reset on the current path
    uint64_t paths_ = 0;
    uint64_t cycles_ = 0;
    uint64_t forks_ = 0;
    uint64_t laneSweeps_ = 0;
    uint64_t laneCycles_ = 0;
};

/**
 * Explore `ctx`'s execution tree from the reset state with `threads`
 * workers (inline when 1) until `frontier` is exhausted, capped or
 * stopped. Returns the workers, for their trackers, counters and
 * stop points.
 */
std::vector<std::unique_ptr<PathExplorer>>
explore(const ExplorationContext &ctx, Frontier &frontier, int threads);

} // namespace bespoke

#endif // BESPOKE_ANALYSIS_PATH_EXPLORER_HH
