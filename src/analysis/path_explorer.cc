#include "src/analysis/path_explorer.hh"

#include <algorithm>
#include <bit>

#include "src/util/logging.hh"
#include "src/util/worker_pool.hh"
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
    : ExplorationContext(SocContext::make(netlist), prog, opts, lanes)
{
}

ExplorationContext::ExplorationContext(
    std::shared_ptr<const SocContext> soc, const AsmProgram &prog,
    const AnalysisOptions &opts, int lanes, GateId stop_net)
    : soc(std::move(soc)), prog(prog), opts(opts), lanes(lanes),
      planeWidth(resolvePlaneBits(opts.planeBits)),
      batchLanes(lanes <= 1      ? 1
                 : planeWidth > 64 ? planeWidth
                                   : lanes),
      haltAddrs(haltAddresses(prog)), stopNet(stop_net)
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
      soc_(ctx.soc, ctx.prog, /*ram_unknown=*/true, ctx.opts.simMode)
{
    if (ctx.stopNet == kNoGate)
        tracker_.emplace(ctx.soc->netlist);
}

void
PathExplorer::prepare()
{
    soc_.setGpioIn(SWord::allX());
    soc_.setIrqExt(ctx_.opts.irqLineUnknown ? Logic::X : Logic::Zero);
    soc_.reset();
    if (tracker_)
        tracker_->captureInitial(soc_.sim());
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

bool
PathExplorer::observe()
{
    observations_++;
    if (tracker_) {
        tracker_->observe(soc_.sim());
        return true;
    }
    if (soc_.sim().value(ctx_.stopNet) != Logic::One)
        return true;
    stopAt(soc_.sim().values(), lastFetchPc_);
    return false;
}

template <int W>
bool
PathExplorer::observeLanes(const LaneSocT<W> &ls,
                           const LaneMask<W> &active)
{
    observations_ += laneCount(active);
    if (tracker_) {
        tracker_->observe(ls.sim(), active);
        return true;
    }
    const LaneMask<W> hit = ls.sim().oneMask(ctx_.stopNet) & active;
    if (!laneAny(hit))
        return true;
    int lane = 0;
    while (!laneTest(hit, lane))
        lane++;
    std::vector<uint8_t> values;
    ls.sim().laneValues(lane, values);
    stopAt(std::move(values), ls.lastFetchPc(lane));
    return false;
}

void
PathExplorer::stopAt(std::vector<uint8_t> values, uint16_t pc)
{
    stop_ = StopPoint{std::move(values), frontier_.cycles(), pc};
    stopped_ = true;
    frontier_.stop();
}

std::optional<PathExplorer::XDec>
PathExplorer::firstXDecision() const
{
    // On a product netlist a decision forks when either core's is X,
    // and the fork forces both cores' nets to the same value.
    const SocContext &c = *ctx_.soc;
    const SocContext::Follower *f = c.follower ? &*c.follower : nullptr;
    auto x = [&](GateId port) {
        return soc_.sim().value(port) == Logic::X;
    };
    auto dec = [](DecKind kind, GateId src, GateId fsrc) {
        return XDec{{src, fsrc}, static_cast<uint8_t>(kind)};
    };
    if (x(c.pDecIrq0) || (f && x(f->pDecIrq0)))
        return dec(DecKind::Irq0, c.decIrq0Src, f ? f->decIrq0Src : kNoGate);
    if (x(c.pDecIrq1) || (f && x(f->pDecIrq1)))
        return dec(DecKind::Irq1, c.decIrq1Src, f ? f->decIrq1Src : kNoGate);
    if (x(c.pDecBranch) || (f && x(f->pDecBranch))) {
        return dec(DecKind::Branch, c.decBranchSrc,
                   f ? f->decBranchSrc : kNoGate);
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
        if (!observe())
            return false;
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
        std::vector<std::pair<GateId, Logic>> f = forces;
        for (GateId net : d->nets) {
            if (net != kNoGate) {
                soc_.sim().force(net, v);
                f.push_back({net, v});
            }
        }
        soc_.evalOnly();
        if (!observe()) {
            soc_.sim().clearForces();
            return;
        }
        if (firstXDecision()) {
            soc_.sim().clearForces();
            forkRec(pre, f);
            if (stopped_)
                return;
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

SWord
PathExplorer::followerPc(SWord pc) const
{
    const auto &f = ctx_.soc->follower;
    return f ? soc_.sim().busWord(f->pPcOut) : pc;
}

template <int W>
SWord
PathExplorer::followerPc(const LaneSocT<W> &ls, int lane, SWord pc) const
{
    const auto &f = ctx_.soc->follower;
    return f ? ls.sim().busWord(f->pPcOut, lane) : pc;
}

/**
 * Fetch-time PC with X bits: fork one continuation per concrete
 * candidate (known bits fixed, X bits enumerated), keeping only
 * candidates that are instruction heads of the binary. Patching
 * only the PC while the correlated state stays X is a sound
 * over-approximation. On a product netlist `fpc` is the follower's
 * PC: candidates agree with the bits either core knows, and both
 * cores' PC flops are patched.
 */
void
PathExplorer::enumerateSymbolicPc(SWord pc, SWord fpc,
                                  const MachineState &base,
                                  uint32_t depth)
{
    const SocContext &c = *ctx_.soc;
    const SWord both(
        static_cast<uint16_t>(pc.val | (fpc.val & ~pc.known)),
        static_cast<uint16_t>(pc.known | fpc.known));
    int x_bits = 0;
    for (int b = 0; b < 16; b++) {
        if (both.bit(b) == Logic::X)
            x_bits++;
        if (pc.bit(b) == Logic::X) {
            bespoke_assert(c.pcSeqIndex[b] >= 0,
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
        auto patch = [&](const std::vector<int> &pc_seq_index) {
            for (int b = 0; b < 16; b++) {
                if (pc_seq_index[b] >= 0) {
                    s.seq[pc_seq_index[b]] = static_cast<uint8_t>(
                        (cand >> b) & 1 ? Logic::One : Logic::Zero);
                }
            }
        };
        patch(c.pcSeqIndex);
        if (c.follower)
            patch(c.follower->pcSeqIndex);
        s.lastFetchPc = cand;
        frontier_.push(WorkItem{std::move(s), depth + 1});
    };

    if (x_bits <= 8) {
        for (uint32_t combo = 0; combo < (1u << x_bits); combo++) {
            uint16_t cand = both.val;
            int xi = 0;
            for (int b = 0; b < 16; b++) {
                if (both.bit(b) != Logic::X)
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
            if (((addr ^ both.val) & both.known) == 0)
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
        if (!observe())
            return;

        // Track instruction boundaries and halting.
        if (soc_.stFetch() == Logic::One) {
            SWord pc = soc_.pc();
            SWord fpc = followerPc(pc);
            if (!pc.fullyKnown() || !fpc.fullyKnown()) {
                // Algorithm 1, line 29: enumerate the possible
                // concrete PCs (e.g. a merged return address on
                // the stack) and fork the tree per candidate.
                enumerateSymbolicPc(pc, fpc, capture(), curDepth_);
                return;
            }
            lastFetchPc_ = pc.val;
            if (ctx_.isHaltPc(pc.val)) {
                // Observe the steady halt loop, then end the path.
                for (int i = 0; i < 6; i++) {
                    soc_.finishCycle();
                    chargeCycle();
                    soc_.evalOnly();
                    if (!observe())
                        return;
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
                if (!observe())
                    return;
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

    // Stop simulating every in-flight lane (budget blown, or the
    // observer stopped the exploration).
    auto abandon = [&] {
        const Mask doomed = active;  // retire() edits `active`
        forEachLane(doomed, [&](int lane) { retire(lane); });
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
            // The batch may have drained the whole stack, in which
            // case nobody would be left to notice the blown budget —
            // declare it here.
            frontier_.declareCycleCap();
            abandon();
            return;
        }

        ls.evalOnly();
        laneSweeps_++;
        if (!observeLanes(ls, active)) {
            abandon();
            return;
        }

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
            SWord fpc = followerPc(ls, lane, pc);
            if (!pc.fullyKnown() || !fpc.fullyKnown()) {
                enumerateSymbolicPc(pc, fpc, captureLane(lane),
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
            if (stopped_)
                return;
            MachineState s = captureLane(lane);
            curDepth_ = depth[lane];
            runPath(s);
            retire(lane);
        });
        if (stopped_) {
            abandon();
            return;
        }

        if (laneAny(ls.ctlXferXMask() & control))
            bespoke_fatal("ctl_xfer is X outside a decision fork");

        // Taken control transfers: the conservative-table discipline,
        // one shard-locked mergePoint per lane, same as serial.
        const Mask xfer = ls.ctlXferOneMask() & control;
        forEachLane(xfer, [&](int lane) {
            if (stopped_)
                return;
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
        if (stopped_) {
            abandon();
            return;
        }

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
    if (!observe())
        return;
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

std::vector<std::unique_ptr<PathExplorer>>
explore(const ExplorationContext &ctx, Frontier &frontier, int threads)
{
    std::vector<std::unique_ptr<PathExplorer>> workers;
    workers.reserve(threads);
    for (int i = 0; i < threads; i++)
        workers.push_back(
            std::make_unique<PathExplorer>(ctx, frontier, i));
    for (auto &w : workers)
        w->prepare();

    frontier.push(workers[0]->initialItem());
    if (threads == 1) {
        // Run inline: bit-identical to the historical serial engine,
        // with no pool threads to perturb timing-sensitive callers.
        workers[0]->run();
    } else {
        WorkerPool pool(threads);
        pool.runPerWorker([&](int i) { workers[i]->run(); });
    }
    return workers;
}

} // namespace bespoke
