#include "src/analysis/path_explorer.hh"

#include <algorithm>
#include <bit>

#include "src/util/logging.hh"
#include "src/verify/runner.hh"

namespace bespoke
{

namespace
{

/** Decision kinds, part of the conservative-table key. */
enum class DecKind : uint8_t
{
    Branch = 0,
    Irq0,
    Irq1,
    CtlXfer,
};

uint32_t
tableKey(uint16_t pc, DecKind kind)
{
    return (static_cast<uint32_t>(pc) << 2) |
           static_cast<uint32_t>(kind);
}

} // namespace

ExplorationContext::ExplorationContext(const Netlist &netlist,
                                       const AsmProgram &prog,
                                       const AnalysisOptions &opts,
                                       int lanes)
    : soc(SocContext::make(netlist)), prog(prog), opts(opts),
      lanes(lanes),
      planeWidth(resolvePlaneBits(opts.planeBits)),
      batchLanes(lanes <= 1      ? 1
                 : planeWidth > 64 ? planeWidth
                                   : lanes),
      haltAddrs(haltAddresses(prog))
{
    std::sort(haltAddrs.begin(), haltAddrs.end());
}

bool
ExplorationContext::isHaltPc(uint16_t pc) const
{
    return std::binary_search(haltAddrs.begin(), haltAddrs.end(), pc);
}

PathExplorer::PathExplorer(const ExplorationContext &ctx,
                           Frontier &frontier, int worker_id)
    : ctx_(ctx), frontier_(frontier), workerId_(worker_id),
      soc_(ctx.soc, ctx.prog, /*ram_unknown=*/true, ctx.opts.simMode),
      tracker_(ctx.soc->netlist)
{
}

void
PathExplorer::prepare()
{
    soc_.setGpioIn(SWord::allX());
    soc_.setIrqExt(ctx_.opts.irqLineUnknown ? Logic::X : Logic::Zero);
    soc_.reset();
    tracker_.captureInitial(soc_.sim());
}

WorkItem
PathExplorer::initialItem()
{
    MachineState init = capture();
    init.lastFetchPc = 0;
    return WorkItem{std::move(init), 0};
}

void
PathExplorer::run()
{
    if (ctx_.lanes > 1) {
        runLanes();
        return;
    }
    WorkItem item;
    while (frontier_.pop(item)) {
        paths_++;
        curDepth_ = item.depth;
        runPath(item.state);
        frontier_.finishItem();
    }
}

uint64_t
PathExplorer::gatesEvaluated() const
{
    return soc_.sim().gatesEvaluatedTotal() + laneGateVisits_;
}

MachineState
PathExplorer::capture() const
{
    MachineState s;
    s.seq = soc_.sim().seqState();
    s.env = soc_.envState();
    s.lastFetchPc = lastFetchPc_;
    return s;
}

void
PathExplorer::restore(const MachineState &s)
{
    soc_.sim().restoreSeqState(s.seq);
    soc_.restoreEnvState(s.env);
    lastFetchPc_ = s.lastFetchPc;
}

std::optional<PathExplorer::XDec>
PathExplorer::firstXDecision() const
{
    if (soc_.decIrq0() == Logic::X) {
        return XDec{soc_.decIrq0Net(),
                    static_cast<uint8_t>(DecKind::Irq0)};
    }
    if (soc_.decIrq1() == Logic::X) {
        return XDec{soc_.decIrq1Net(),
                    static_cast<uint8_t>(DecKind::Irq1)};
    }
    if (soc_.decBranch() == Logic::X) {
        return XDec{soc_.decBranchNet(),
                    static_cast<uint8_t>(DecKind::Branch)};
    }
    return std::nullopt;
}

/**
 * Resolve X decisions for the current (already evaluated) cycle.
 * Returns false if the whole path was pruned at a merge point;
 * returns true with `forked` set if continuations were pushed.
 */
bool
PathExplorer::resolveDecisions(bool &forked)
{
    forked = false;
    auto d = firstXDecision();
    if (!d)
        return true;

    // Merge-check at the fork point.
    MachineState cur = capture();
    bool widened;
    if (frontier_.mergePoint(
            tableKey(lastFetchPc_, static_cast<DecKind>(d->kind)), cur,
            widened)) {
        return false;
    }
    if (widened) {
        restore(cur);
        soc_.evalOnly();
        tracker_.observe(soc_.sim());
    }

    // Fork: explore both decision values (recursively resolving
    // any further X decisions under each forcing).
    forks_++;
    forked = true;
    forkRec(cur, {});
    return true;
}

/**
 * Recursive forcing over the X decisions of this one cycle.
 * Invariant: with `forces` applied, evaluation leaves at least one
 * decision net at X.
 */
void
PathExplorer::forkRec(const MachineState &pre,
                      const std::vector<std::pair<GateId, Logic>> &forces)
{
    for (Logic v : {Logic::Zero, Logic::One}) {
        restore(pre);
        soc_.sim().clearForces();
        for (auto [g, val] : forces)
            soc_.sim().force(g, val);
        soc_.evalOnly();
        auto d = firstXDecision();
        bespoke_assert(d, "fork invariant violated");
        soc_.sim().force(d->net, v);
        soc_.evalOnly();
        tracker_.observe(soc_.sim());
        if (firstXDecision()) {
            std::vector<std::pair<GateId, Logic>> f = forces;
            f.push_back({d->net, v});
            soc_.sim().clearForces();
            forkRec(pre, f);
            continue;
        }
        // Decision complete: finish the cycle and enqueue the
        // post-latch continuation state.
        soc_.finishCycle();
        chargeCycle();
        soc_.sim().clearForces();
        frontier_.push(WorkItem{capture(), curDepth_ + 1});
    }
}

/**
 * Fetch-time PC with X bits: fork one continuation per concrete
 * candidate (known bits fixed, X bits enumerated), keeping only
 * candidates that are instruction heads of the binary. Patching
 * only the PC while the correlated state stays X is a sound
 * over-approximation.
 */
void
PathExplorer::enumerateSymbolicPc(SWord pc, const MachineState &base,
                                  uint32_t depth)
{
    const std::vector<int> &pc_seq_index = ctx_.soc->pcSeqIndex;
    int x_bits = 0;
    for (int b = 0; b < 16; b++) {
        if (pc.bit(b) == Logic::X) {
            x_bits++;
            bespoke_assert(pc_seq_index[b] >= 0,
                           "X PC bit ", b,
                           " is not a flop output; cannot "
                           "enumerate");
        }
    }
    auto push_candidate = [&](uint16_t cand) {
        // Candidate must be a real instruction head.
        if ((cand & 1) || !ctx_.prog.addrToLine.count(cand))
            return;
        MachineState s = base;
        for (int b = 0; b < 16; b++) {
            s.seq[pc_seq_index[b]] = static_cast<uint8_t>(
                (cand >> b) & 1 ? Logic::One : Logic::Zero);
        }
        s.lastFetchPc = cand;
        frontier_.push(WorkItem{std::move(s), depth + 1});
    };

    if (x_bits <= 8) {
        for (uint32_t combo = 0; combo < (1u << x_bits); combo++) {
            uint16_t cand = pc.val;
            int xi = 0;
            for (int b = 0; b < 16; b++) {
                if (pc.bit(b) != Logic::X)
                    continue;
                if (combo & (1u << xi))
                    cand |= static_cast<uint16_t>(1u << b);
                xi++;
            }
            push_candidate(cand);
        }
    } else {
        // Wide X PC (e.g. a fully merged return address): every
        // instruction head consistent with the known bits is a
        // possible successor.
        for (const auto &[addr, line] : ctx_.prog.addrToLine) {
            if (((addr ^ pc.val) & pc.known) == 0)
                push_candidate(addr);
        }
    }
}

void
PathExplorer::runPath(const MachineState &start)
{
    restore(start);
    while (true) {
        if (frontier_.cycles() >= ctx_.opts.maxTotalCycles)
            return;
        soc_.evalOnly();
        tracker_.observe(soc_.sim());

        // Track instruction boundaries and halting.
        if (soc_.stFetch() == Logic::One) {
            SWord pc = soc_.pc();
            if (!pc.fullyKnown()) {
                // Algorithm 1, line 29: enumerate the possible
                // concrete PCs (e.g. a merged return address on
                // the stack) and fork the tree per candidate.
                enumerateSymbolicPc(pc, capture(), curDepth_);
                return;
            }
            lastFetchPc_ = pc.val;
            if (ctx_.isHaltPc(pc.val)) {
                // Observe the steady halt loop, then end the path.
                for (int i = 0; i < 6; i++) {
                    soc_.finishCycle();
                    chargeCycle();
                    soc_.evalOnly();
                    tracker_.observe(soc_.sim());
                }
                return;
            }
        }

        bool forked = false;
        if (!resolveDecisions(forked))
            return;  // pruned
        if (forked)
            return;  // continuations pushed

        // Known control transfer: conservative-table discipline.
        if (soc_.ctlXfer() == Logic::One) {
            MachineState cur = capture();
            bool widened;
            if (frontier_.mergePoint(
                    tableKey(lastFetchPc_, DecKind::CtlXfer), cur,
                    widened)) {
                return;
            }
            if (widened) {
                // Re-evaluate from the widened state; widening can
                // surface new X decisions this very cycle.
                restore(cur);
                soc_.evalOnly();
                tracker_.observe(soc_.sim());
                bool forked2 = false;
                if (!resolveDecisions(forked2))
                    return;
                if (forked2)
                    return;
            }
        } else if (soc_.ctlXfer() == Logic::X) {
            bespoke_fatal("ctl_xfer is X outside a decision fork");
        }

        soc_.finishCycle();
        chargeCycle();
    }
}

void
PathExplorer::runLanes()
{
    const size_t cap = static_cast<size_t>(ctx_.batchLanes);
    // One lazily built engine per plane width; reused across batches
    // (construction allocates four planes per net).
    std::unique_ptr<LaneSocT<64>> ls64;
    std::unique_ptr<LaneSocT<128>> ls128;
    std::unique_ptr<LaneSocT<256>> ls256;
    std::unique_ptr<LaneSocT<512>> ls512;
    auto sweep = [&]<int W>(std::unique_ptr<LaneSocT<W>> &ls,
                            std::vector<WorkItem> b) {
        if (!ls) {
            ls = std::make_unique<LaneSocT<W>>(ctx_.soc, ctx_.prog);
            ls->setGpioIn(SWord::allX());
            ls->setIrqExt(ctx_.opts.irqLineUnknown ? Logic::X
                                                   : Logic::Zero);
        }
        laneSweep<W>(*ls, std::move(b));
    };
    std::vector<WorkItem> batch;
    while (frontier_.popBatch(cap, batch)) {
        paths_ += batch.size();
        if (batch.size() == 1) {
            // A lone state gains nothing from plane packing; the
            // scalar event-driven engine is faster for it.
            curDepth_ = batch[0].depth;
            runPath(batch[0].state);
            frontier_.finishItem();
            continue;
        }
        // Narrowest width that fits the batch (cap already limits the
        // batch to ctx.planeWidth, so the else arm is well-bounded).
        const size_t need = batch.size();
        if (need <= 64)
            sweep(ls64, std::move(batch));
        else if (need <= 128)
            sweep(ls128, std::move(batch));
        else if (need <= 256)
            sweep(ls256, std::move(batch));
        else
            sweep(ls512, std::move(batch));
    }
    laneGateVisits_ += (ls64 ? ls64->sim().gateVisitsTotal() : 0) +
                       (ls128 ? ls128->sim().gateVisitsTotal() : 0) +
                       (ls256 ? ls256->sim().gateVisitsTotal() : 0) +
                       (ls512 ? ls512->sim().gateVisitsTotal() : 0);
}

/**
 * Simulate a batch of independent frontier states, one per LaneSim
 * lane, until every lane has retired. Straight-line cycles (the vast
 * majority) run fully lane-parallel; the moment a lane reaches
 * anything that needs the fork/merge discipline — a symbolic PC, an X
 * decision, a taken control transfer that prunes or widens — its state
 * is captured and the event is handled by the exact scalar machinery,
 * so the exploration discipline is shared with the serial engine
 * rather than reimplemented. Freed lanes are refilled from the
 * frontier at the end of every cycle.
 */
template <int W>
void
PathExplorer::laneSweep(LaneSocT<W> &ls, std::vector<WorkItem> batch)
{
    using Mask = LaneMask<W>;
    // Refill up to this engine's own lane count (the batch may have
    // been sized for a wider plane than the one it landed on).
    const size_t width =
        std::min<size_t>(W, static_cast<size_t>(ctx_.batchLanes));
    std::array<uint32_t, W> depth{};
    std::array<int, W> haltCnt{};
    Mask active{};   ///< lanes being simulated and observed
    Mask control{};  ///< active lanes not in a halt countdown

    auto load = [&](int lane, WorkItem &it) {
        ls.loadLane(lane, it.state.seq, it.state.env,
                    it.state.lastFetchPc);
        depth[lane] = it.depth;
        haltCnt[lane] = -1;
        laneSet(active, lane);
        laneSet(control, lane);
    };
    for (size_t i = 0; i < batch.size(); i++)
        load(static_cast<int>(i), batch[i]);

    // Retiring a lane = this worker stops simulating it; whatever
    // continuation it has was already pushed to the frontier or run to
    // completion on the scalar engine.
    auto retire = [&](int lane) {
        laneClear(active, lane);
        laneClear(control, lane);
        frontier_.finishItem();
    };

    auto captureLane = [&](int lane) {
        MachineState s;
        s.seq = ls.seqLane(lane);
        s.env = ls.envLane(lane);
        s.lastFetchPc = ls.lastFetchPc(lane);
        return s;
    };

    while (laneAny(active)) {
        if (frontier_.cycles() >= ctx_.opts.maxTotalCycles) {
            // Abandon every in-flight lane. The batch may have drained
            // the whole stack, in which case nobody would be left to
            // notice the blown budget — declare it here.
            frontier_.declareCycleCap();
            const Mask doomed = active;  // retire() edits `active`
            forEachLane(doomed, [&](int lane) { retire(lane); });
            return;
        }

        ls.evalOnly();
        tracker_.observe(ls.sim(), active);
        laneSweeps_++;

        // Lanes whose 6-cycle halt observation window just completed
        // (the scalar engine observes the final eval and returns
        // without finishing that cycle; so do we).
        const Mask halting = active & ~control;
        forEachLane(halting, [&](int lane) {
            if (haltCnt[lane] == 0)
                retire(lane);
        });

        // Instruction fetch: symbolic PCs fork one continuation per
        // candidate; halt addresses start the observation countdown.
        const Mask fetch = ls.stFetchOneMask() & control;
        forEachLane(fetch, [&](int lane) {
            SWord pc = ls.pc(lane);
            if (!pc.fullyKnown()) {
                enumerateSymbolicPc(pc, captureLane(lane),
                                    depth[lane]);
                retire(lane);
                return;
            }
            ls.setLastFetchPc(lane, pc.val);
            if (ctx_.isHaltPc(pc.val)) {
                haltCnt[lane] = 6;
                laneClear(control, lane);
            }
        });

        // X control decisions: hand the lane over to the scalar
        // engine, which owns the fork/merge-table discipline.
        // runPath() restores and re-evaluates the captured state, so
        // it sees exactly what the lane saw (the repeated observation
        // is an idempotent OR into the toggle set) and carries the
        // path through fork resolution and beyond.
        const Mask deciding = ls.decisionXMask() & control;
        forEachLane(deciding, [&](int lane) {
            MachineState s = captureLane(lane);
            curDepth_ = depth[lane];
            runPath(s);
            retire(lane);
        });

        if (laneAny(ls.ctlXferXMask() & control))
            bespoke_fatal("ctl_xfer is X outside a decision fork");

        // Taken control transfers: the conservative-table discipline,
        // one shard-locked mergePoint per lane, same as serial.
        const Mask xfer = ls.ctlXferOneMask() & control;
        forEachLane(xfer, [&](int lane) {
            MachineState cur = captureLane(lane);
            bool widened;
            if (frontier_.mergePoint(
                    tableKey(ls.lastFetchPc(lane), DecKind::CtlXfer),
                    cur, widened)) {
                retire(lane);  // subsumed: prune
                return;
            }
            if (widened) {
                continueWidened(cur, depth[lane]);
                retire(lane);
            }
            // Neither pruned nor widened: the lane simply continues.
        });

        if (!laneAny(active))
            break;

        ls.finishCycle(active);
        uint64_t n = laneCount(active);
        cycles_ += n;
        laneCycles_ += n;
        frontier_.chargeCycles(n);
        const Mask counting = active & ~control;
        forEachLane(counting, [&](int lane) {
            if (haltCnt[lane] > 0)
                haltCnt[lane]--;
        });

        // Refill freed lanes so the batch stays as wide as the
        // frontier allows.
        size_t free = width - laneCount(active);
        if (free > 0) {
            batch.clear();
            frontier_.popMore(free, batch);
            paths_ += batch.size();
            int lane = 0;
            for (WorkItem &it : batch) {
                while (laneTest(active, lane))
                    lane++;
                load(lane, it);
            }
        }
    }
}

void
PathExplorer::continueWidened(const MachineState &cur, uint32_t depth)
{
    curDepth_ = depth;
    restore(cur);
    soc_.sim().clearForces();
    soc_.evalOnly();
    tracker_.observe(soc_.sim());
    bool forked = false;
    if (!resolveDecisions(forked))
        return;
    if (forked)
        return;
    // The scalar engine would loop straight into the next cycle here;
    // deferring the post-latch state through the frontier is the same
    // computation (work items are self-describing machine states).
    soc_.finishCycle();
    chargeCycle();
    frontier_.push(WorkItem{capture(), depth});
}

} // namespace bespoke
