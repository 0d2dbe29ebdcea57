/**
 * @file
 * Width-generic lane-parallel bit-plane gate simulator.
 *
 * LaneSimT<W> evaluates up to W *independent scenarios* of one netlist
 * per gate visit. Each net stores two lane planes — val and known —
 * with lane i in bit i; a lane's three-valued signal is decoded as X
 * when its known bit is 0, else its val bit (val is kept masked by
 * known, the same canonical form SWord uses). All cell functions are
 * composed from bitwise plane operations implementing exact Kleene
 * semantics (src/sim/plane.hh), so every lane is bit-identical to a
 * scalar GateSim run of the same scenario (pinned by
 * tests/test_lane_sim.cc and the tests/diff_harness.hh lockstep
 * fixture at every width).
 *
 * Supported widths are 64/128/256/512 (explicitly instantiated in
 * lane_sim.cc; select a runtime width with withPlaneBits). At W = 64
 * the plane is one uint64_t — the historical LaneSim, still available
 * under that alias. Wider planes amortize the per-gate fixed costs
 * (dispatch, fanin indexing, force checks) over W/64 words, which is
 * where the gate·lane/s win comes from (bench/micro_kernels.cc tells
 * the story across widths).
 *
 * Unlike GateSim there is no event-driven mode: one full topological
 * sweep evaluates all W lanes at once, so the per-lane cost of a
 * sweep is 1/W of a scalar full pass — far below the event-driven
 * scalar cost whenever a handful of lanes are occupied. Callers batch
 * scenarios (activity-analysis frontier states, workload replays,
 * mutants) onto lanes and mask out finished lanes.
 *
 * Forcing supports per-lane masks: force(id, lanes, value) overrides
 * the gate's output only in the given lanes, and clearForces(lanes)
 * releases only those lanes — the lane-parallel analogue of the
 * scalar force()/clearForces() used for execution-tree forks.
 */

#ifndef BESPOKE_SIM_LANE_SIM_HH
#define BESPOKE_SIM_LANE_SIM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/isa/assembler.hh"
#include "src/sim/gate_sim.hh"
#include "src/sim/plane.hh"
#include "src/sim/soc.hh"

namespace bespoke
{

template <int W>
class LaneSimT
{
  public:
    static constexpr int kLanes = W;
    using Mask = LaneMask<W>;

    explicit LaneSimT(const Netlist &netlist,
                      std::shared_ptr<const SimPrep> prep = nullptr);

    const Netlist &netlist() const { return nl_; }
    const std::shared_ptr<const SimPrep> &prep() const { return prep_; }

    /** Reset every lane: ties driven, flops at reset value, rest X. */
    void reset();

    /** @name Value access */
    /// @{
    void setInput(GateId id, int lane, Logic v);
    /** Drive one input to the same value in every lane. */
    void setInputAll(GateId id, Logic v);
    /** Drive one input's raw planes (val must be masked by known). */
    void setInputPlanes(GateId id, const Mask &val, const Mask &known);
    Logic value(GateId id, int lane) const
    {
        if (!laneTest(known_[id], lane))
            return Logic::X;
        return laneTest(val_[id], lane) ? Logic::One : Logic::Zero;
    }
    /** Collect a bus into one lane's symbolic word (LSB-first ids). */
    SWord busWord(const std::vector<GateId> &bus_ids, int lane) const;
    const Mask &valPlane(GateId id) const { return val_[id]; }
    const Mask &knownPlane(GateId id) const { return known_[id]; }
    /** Raw plane arrays (one mask per net), for bulk observers. */
    const std::vector<Mask> &valPlanes() const { return val_; }
    const std::vector<Mask> &knownPlanes() const { return known_; }
    /** Lanes where the net is known One. */
    const Mask &oneMask(GateId id) const { return val_[id]; }
    /** Lanes where the net is X. */
    Mask xMask(GateId id) const { return ~known_[id]; }
    /// @}

    /** @name Cycle phases (all lanes at once) */
    /// @{
    void evalComb();
    void latchSequential();
    /// @}

    /** @name Per-lane forcing */
    /// @{
    /** Override a net in the given lanes; value bit i is the forced
     *  value of lane i (bits outside `lanes` are ignored). */
    void force(GateId id, const Mask &lanes, const Mask &value);
    /** Release forces in the given lanes only. */
    void clearForces(const Mask &lanes);
    void clearAllForces() { clearForces(laneOnes<Mask>()); }
    /// @}

    /** @name Per-lane sequential state */
    /// @{
    /** Load a scalar SeqState snapshot into one lane. */
    void restoreSeqLane(int lane, const SeqState &s);
    SeqState seqStateLane(int lane) const;
    const std::vector<GateId> &seqIds() const { return prep_->seqIds; }
    /// @}

    /** Extract one lane's full value vector (byte-coded Logic per
     *  gate), the currency of ToggleCounter run traces. */
    void laneValues(int lane, std::vector<uint8_t> &out) const;

    /** Lifetime gate visits (each visit evaluates all W lanes). */
    uint64_t gateVisitsTotal() const { return gateVisitsTotal_; }

  private:
    const Netlist &nl_;
    std::shared_ptr<const SimPrep> prep_;
    std::vector<Mask> val_;    ///< lane val plane per net
    std::vector<Mask> known_;  ///< lane known plane per net
    std::vector<Mask> forceMask_;  ///< lanes forced per net
    std::vector<Mask> forceVal_;   ///< forced values per net
    std::vector<GateId> forcedIds_;
    bool anyForce_ = false;
    uint64_t gateVisitsTotal_ = 0;
    /** latchSequential pre-edge scratch (avoids a per-cycle alloc). */
    std::vector<PlanesT<Mask>> latchNext_;
};

/** The historical 64-lane engine (single-word planes). */
using LaneSim = LaneSimT<64>;

/**
 * Lane-parallel SoC: LaneSimT plus one behavioral environment (RAM,
 * memory read port, last fetch PC) per lane. The scenario loaded into
 * a lane is a full MachineState, exactly the currency of the
 * activity-analysis frontier. GPIO and the IRQ line default to
 * uniform values (the activity analysis drives them identically), but
 * support per-lane overrides for scenario batching (verify runs with
 * distinct inputs per lane); the program ROM is shared unless a lane
 * is given its own image (mutant-per-lane sweeps).
 *
 * Memory behavior per lane is delegated to the same sampleMemory()
 * helper the scalar Soc uses, so symbolic-address conservatism is
 * identical by construction.
 */
template <int W>
class LaneSocT
{
  public:
    static constexpr int kLanes = W;
    using Mask = LaneMask<W>;

    LaneSocT(std::shared_ptr<const SocContext> ctx,
             const AsmProgram &prog);

    LaneSimT<W> &sim() { return sim_; }
    const LaneSimT<W> &sim() const { return sim_; }

    void setGpioIn(SWord w);
    void setIrqExt(Logic v);
    /** Per-lane overrides (scenario batching). */
    void setGpioInLane(int lane, SWord w);
    void setIrqExtLane(int lane, Logic v);
    /** Give one lane its own program ROM (mutant overlays). The image
     *  must outlive the LaneSoc; null restores the shared program. */
    void setProgLane(int lane, const AsmProgram *prog)
    {
        progLane_[lane] = prog ? prog : &prog_;
    }
    const AsmProgram &progForLane(int lane) const
    {
        return *progLane_[lane];
    }

    /** @name Lane lifecycle */
    /// @{
    /** Load one scenario (the fields of a MachineState) into a lane. */
    void loadLane(int lane, const SeqState &seq, const EnvState &env,
                  uint16_t last_fetch_pc);
    const EnvState &envLane(int lane) const { return env_[lane]; }
    SeqState seqLane(int lane) const
    {
        return sim_.seqStateLane(lane);
    }
    uint16_t lastFetchPc(int lane) const { return lastFetchPc_[lane]; }
    void setLastFetchPc(int lane, uint16_t pc)
    {
        lastFetchPc_[lane] = pc;
    }
    /// @}

    /** @name Cycle phases */
    /// @{
    /** Drive all lanes' inputs and evaluate (no latch). */
    void evalOnly();
    /** Sample memory requests for the given lanes, then latch. */
    void finishCycle(const Mask &lanes);
    /// @}

    /** @name Lane-vector observability */
    /// @{
    const Mask &stFetchOneMask() const
    {
        return sim_.oneMask(ctx_->pStFetch);
    }
    /** Lanes where any decision net is X (either core's on a
     *  product netlist). */
    Mask decisionXMask() const
    {
        Mask m = sim_.xMask(ctx_->pDecIrq0) | sim_.xMask(ctx_->pDecIrq1) |
                 sim_.xMask(ctx_->pDecBranch);
        if (const auto &f = ctx_->follower) {
            m |= sim_.xMask(f->pDecIrq0) | sim_.xMask(f->pDecIrq1) |
                 sim_.xMask(f->pDecBranch);
        }
        return m;
    }
    const Mask &ctlXferOneMask() const
    {
        return sim_.oneMask(ctx_->pCtlXfer);
    }
    Mask ctlXferXMask() const { return sim_.xMask(ctx_->pCtlXfer); }
    SWord pc(int lane) const
    {
        return sim_.busWord(ctx_->pPcOut, lane);
    }
    SWord gpioOut(int lane) const
    {
        return sim_.busWord(ctx_->pGpioOut, lane);
    }
    /// @}

  private:
    std::shared_ptr<const SocContext> ctx_;
    const AsmProgram &prog_;
    LaneSimT<W> sim_;
    std::vector<EnvState> env_;
    std::vector<uint16_t> lastFetchPc_;
    std::vector<const AsmProgram *> progLane_;
    /** GPIO / IRQ input planes, maintained by the setters so evalOnly
     *  pays no per-cycle transpose for them (rdata, which changes
     *  every cycle, is transposed on the fly). */
    std::vector<Mask> gpioV_, gpioK_;
    Mask irqV_{}, irqK_{};
};

/** The historical 64-lane SoC (single-word planes). */
using LaneSoc = LaneSocT<64>;

} // namespace bespoke

#endif // BESPOKE_SIM_LANE_SIM_HH
