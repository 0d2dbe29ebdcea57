#include "src/analysis/activity_analysis.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "src/analysis/path_explorer.hh"
#include "src/util/logging.hh"
#include "src/util/worker_pool.hh"

namespace bespoke
{

namespace
{

uint64_t
mixHash(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

} // namespace

bool
MachineState::substateOf(const MachineState &c) const
{
    if (lastFetchPc != c.lastFetchPc)
        return false;
    if (seq.size() != c.seq.size())
        return false;
    for (size_t i = 0; i < seq.size(); i++) {
        if (c.seq[i] == static_cast<uint8_t>(Logic::X))
            continue;
        if (seq[i] != c.seq[i])
            return false;
    }
    return env.substateOf(c.env);
}

MachineState
MachineState::merge(const MachineState &a, const MachineState &b)
{
    bespoke_assert(a.seq.size() == b.seq.size());
    MachineState m;
    m.lastFetchPc = a.lastFetchPc;
    m.seq.resize(a.seq.size());
    for (size_t i = 0; i < a.seq.size(); i++) {
        m.seq[i] = a.seq[i] == b.seq[i]
                       ? a.seq[i]
                       : static_cast<uint8_t>(Logic::X);
    }
    m.env = EnvState::merge(a.env, b.env);
    return m;
}

uint64_t
MachineState::hash() const
{
    uint64_t h = lastFetchPc;
    for (size_t i = 0; i < seq.size(); i++)
        h = mixHash(h, seq[i] + 3 * i);
    for (const SWord &w : env.ram)
        h = mixHash(h, (static_cast<uint64_t>(w.val) << 16) | w.known);
    h = mixHash(h, (static_cast<uint64_t>(env.rdata.val) << 16) |
                       env.rdata.known);
    return h;
}

int
resolveAnalysisThreads(const AnalysisOptions &opts)
{
    int threads = opts.threads;
    if (const char *env = std::getenv("BESPOKE_ANALYSIS_THREADS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 0) {
            threads = static_cast<int>(std::min(v, 4096l));
        } else {
            bespoke_warn("ignoring invalid BESPOKE_ANALYSIS_THREADS=",
                         env);
        }
    }
    if (threads <= 0)
        threads = WorkerPool::defaultThreadCount();
    // More workers than this would only contend on the frontier.
    return std::min(threads, 256);
}

int
resolveAnalysisLanes(const AnalysisOptions &opts)
{
    int lanes = opts.laneWidth;
    if (const char *env = std::getenv("BESPOKE_ANALYSIS_LANES")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1) {
            lanes = static_cast<int>(std::min(v, 64l));
        } else {
            bespoke_warn("ignoring invalid BESPOKE_ANALYSIS_LANES=",
                         env);
        }
    }
    return std::clamp(lanes, 1, 64);
}

namespace
{

/** analyzeActivity() at an already-resolved worker count and width. */
AnalysisResult
runAnalysis(const Netlist &netlist, const AsmProgram &prog,
            const AnalysisOptions &opts, int threads, int lanes)
{
    auto t0 = std::chrono::steady_clock::now();
    ExplorationContext ctx(netlist, prog, opts, lanes);
    Frontier frontier(opts);
    std::vector<std::unique_ptr<PathExplorer>> workers =
        explore(ctx, frontier, threads);

    // Toggle observations are commutative ORs, so merging the
    // per-worker trackers in any order yields the same result.
    for (int i = 1; i < threads; i++)
        workers[0]->tracker().mergeFrom(workers[i]->tracker());

    AnalysisResult res;
    res.activity = std::make_unique<ActivityTracker>(
        std::move(workers[0]->tracker()));
    res.pathsExplored = frontier.pathsExplored();
    res.cyclesSimulated = frontier.cycles();
    res.merges = frontier.merges();
    res.completed = !frontier.capped();
    res.threadsUsed = threads;
    res.lanesUsed = ctx.lanes;
    res.frontierPeak = frontier.frontierPeak();
    res.maxForkDepth = frontier.maxForkDepth();
    res.workerStats.reserve(threads);
    for (auto &w : workers) {
        res.forks += w->forks();
        res.gatesEvaluated += w->gatesEvaluated();
        res.laneSweeps += w->laneSweeps();
        res.laneCycles += w->laneCycles();
        res.workerStats.push_back(
            WorkerStats{w->pathsExplored(), w->cyclesSimulated()});
    }
    res.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    bespoke_inform("activity analysis: ", res.pathsExplored, " paths, ",
                   res.cyclesSimulated, " cycles, ", res.forks,
                   " forks, ", res.merges, " merges on ", threads,
                   " thread(s) in ", res.seconds,
                   " s (frontier peak ", res.frontierPeak,
                   ", max fork depth ", res.maxForkDepth,
                   res.completed ? ")" : ", CAPPED)");
    return res;
}

} // namespace

AnalysisResult
analyzeActivity(const Netlist &netlist, const AsmProgram &prog,
                const AnalysisOptions &opts)
{
    return runAnalysis(netlist, prog, opts, resolveAnalysisThreads(opts),
                       resolveAnalysisLanes(opts));
}

uint64_t
serialAnalysisHorizon(const Netlist &netlist, const AsmProgram &prog,
                      const AnalysisOptions &opts)
{
    AnalysisResult r = runAnalysis(netlist, prog, opts, 1, 1);
    if (!r.completed) {
        bespoke_warn("serial analysis horizon hit its caps after ",
                     r.cyclesSimulated, " cycles; no horizon");
        return 0;
    }
    return r.cyclesSimulated;
}

AnalysisResult
analyzeActivity(const Netlist &netlist, const Workload &w,
                const AnalysisOptions &opts)
{
    AsmProgram prog = w.assembleProgram();
    return analyzeActivity(netlist, prog, opts);
}

} // namespace bespoke
