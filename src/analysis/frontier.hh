/**
 * @file
 * Shared state of one activity-analysis exploration: the work frontier
 * (unexplored machine states), the conservative-widening tables, and
 * the global exploration budgets. Many PathExplorer workers drive one
 * Frontier concurrently; everything here is internally synchronized.
 *
 * Structure:
 *  - The frontier proper is a LIFO stack guarded by one mutex + condvar
 *    (paths are thousands of cycles long, so pop/push contention is
 *    negligible). LIFO keeps single-worker exploration order identical
 *    to the historical serial engine, which the determinism tests pin.
 *  - The merge tables (exact-seen hashes, concrete-visit counts, and
 *    the conservative widened state per (PC, decision-kind) key) are
 *    sharded by key: all three tables for one key live in one shard,
 *    so a mergePoint() call takes exactly one shard lock and the
 *    serial per-key discipline is preserved verbatim under
 *    concurrency.
 *  - Budgets (maxPaths, maxTotalCycles) are atomics. Paths are charged
 *    at pop time under the frontier lock; cycles are charged by
 *    workers as they simulate. The first worker to observe a blown
 *    budget stops the exploration for everyone.
 *
 * Widening discipline under concurrency: MachineState::merge is
 * commutative and associative, and a conservative entry only ever
 * widens (bits go to X, never back), so the table converges to the
 * same fixpoint regardless of worker interleaving. Races between
 * pruning and widening can change HOW MANY paths are explored — a
 * state may be pruned against an entry that another worker just
 * widened past what the serial schedule would have seen — but never
 * soundness: a pruned state is always a substate of a widened entry
 * whose exploration (by whichever worker widened it) observes a
 * superset of the pruned state's toggles.
 */

#ifndef BESPOKE_ANALYSIS_FRONTIER_HH
#define BESPOKE_ANALYSIS_FRONTIER_HH

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/analysis/activity_analysis.hh"

namespace bespoke
{

/** One unit of exploration work: a machine state to continue from. */
struct WorkItem
{
    MachineState state;
    /** Forks (decision or symbolic-PC) between the root and here. */
    uint32_t depth = 0;
};

class Frontier
{
  public:
    explicit Frontier(const AnalysisOptions &opts);

    /** @name Work distribution */
    /// @{
    void push(WorkItem item);

    /**
     * Pop the next state to explore. Blocks while the stack is empty
     * but other workers may still push continuations. Returns false
     * when the exploration is over: all work done, or a budget was
     * hit (capped() distinguishes the two). A true return must be
     * balanced by finishItem() once the path has been explored.
     */
    bool pop(WorkItem &out);

    /** Mark the last popped item fully explored. */
    void finishItem();

    /**
     * Blocking batch pop: clears `out`, waits like pop() until work is
     * available (or the exploration is over — same false-return
     * conditions), then drains up to `max` items in one critical
     * section, in exact LIFO order. At threads = 1 this is identical
     * to pop() followed by popMore(max - 1); under concurrency it
     * fixes the under-fill those two separate lock acquisitions had at
     * the quiescence edge, where a second batching worker could wake
     * between them and leave both workers holding splinter batches of
     * a frontier that fit entirely in one (pinned, with drain order,
     * by tests/test_frontier_batch.cc). Every popped item must be
     * balanced by finishItem().
     */
    bool popBatch(size_t max, std::vector<WorkItem> &out);

    /**
     * Non-blocking bulk pop, used by lane-batching workers to refill
     * lanes freed mid-sweep (they hold live lanes, so they cannot
     * block): appends up to `max` items to `out`, stopping early when
     * the stack drains or a budget is reached (the next blocking
     * popBatch() then declares the cap, exactly as in the serial
     * engine). Every popped item must be balanced by finishItem().
     */
    size_t popMore(size_t max, std::vector<WorkItem> &out);
    /// @}

    /** @name Budgets */
    /// @{
    /** Charge one simulated cycle against the global budget. */
    void chargeCycle()
    {
        cycles_.fetch_add(1, std::memory_order_relaxed);
    }
    /** Charge n simulated cycles (one lane sweep charges per lane). */
    void chargeCycles(uint64_t n)
    {
        cycles_.fetch_add(n, std::memory_order_relaxed);
    }
    uint64_t cycles() const
    {
        return cycles_.load(std::memory_order_relaxed);
    }
    /** True once a budget stopped the exploration early. */
    bool capped() const
    {
        return capped_.load(std::memory_order_relaxed);
    }
    /**
     * Record that the cycle budget stopped the exploration. pop()
     * declares the cap on its own when work is still queued; a
     * lane-batching worker whose batch drained the stack must declare
     * it explicitly when it abandons in-flight lanes, or the frontier
     * would report a clean quiescent finish.
     */
    void declareCycleCap();
    /**
     * End the exploration early without a cap: an observer found
     * what it was looking for (the equivalence miter fired). Every pop
     * returns false from now on and capped() stays false.
     */
    void stop();
    /// @}

    /**
     * Consult/update the conservative table for one merge key (the
     * serial engine's discipline, atomically per key). Returns true if
     * the path is subsumed (prune). May replace `cur` with a widened
     * state (the caller must restore() it and re-evaluate).
     */
    bool mergePoint(uint32_t key, MachineState &cur, bool &widened);

    /** @name Exploration statistics */
    /// @{
    uint64_t pathsExplored() const { return paths_; }
    uint64_t merges() const
    {
        return merges_.load(std::memory_order_relaxed);
    }
    uint64_t frontierPeak() const { return peak_; }
    uint32_t maxForkDepth() const { return maxDepth_; }
    /// @}

  private:
    /** All widening state for one (PC, decision-kind) key. */
    struct KeyState
    {
        std::unordered_set<uint64_t> exactSeen;
        int visits = 0;
        bool hasConservative = false;
        MachineState conservative;
    };

    struct Shard
    {
        std::mutex m;
        std::unordered_map<uint32_t, KeyState> keys;
    };

    static constexpr uint32_t kShards = 64;

    const uint64_t maxPaths_;
    const uint64_t maxTotalCycles_;
    const int concreteVisits_;

    // Frontier stack + termination detection.
    std::mutex m_;
    std::condition_variable cv_;
    std::vector<WorkItem> stack_;
    int active_ = 0;          ///< popped-but-unfinished items
    bool stopped_ = false;
    uint64_t paths_ = 0;      ///< pops so far (= paths explored)
    uint64_t peak_ = 0;       ///< stack high-water mark
    uint32_t maxDepth_ = 0;   ///< deepest item ever pushed

    std::atomic<uint64_t> cycles_{0};
    std::atomic<uint64_t> merges_{0};
    std::atomic<bool> capped_{false};

    std::vector<Shard> shards_{kShards};
};

} // namespace bespoke

#endif // BESPOKE_ANALYSIS_FRONTIER_HH
