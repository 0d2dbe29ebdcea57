/**
 * @file
 * Immutable per-netlist simulation context, shareable across threads.
 *
 * Building a GateSim used to recompute the levelized evaluation order
 * and the event-propagation structures (topological levels, fanout
 * CSR) from scratch, and every Soc re-resolved its port ids. That was
 * fine when one simulator lived for a whole analysis, but the parallel
 * path-exploration engine constructs one Soc per worker; the read-only
 * prep is hoisted here so N workers share one copy.
 *
 * Everything in this file is computed once from a const Netlist and
 * never mutated afterwards, so concurrent readers need no locking. The
 * context holds a reference to the netlist: the netlist must outlive
 * every context/simulator built on it (same rule GateSim always had).
 */

#ifndef BESPOKE_SIM_SIM_CONTEXT_HH
#define BESPOKE_SIM_SIM_CONTEXT_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/netlist/netlist.hh"

namespace bespoke
{

/**
 * Evaluation-order and event-propagation data for one netlist (the
 * part of GateSim's setup that does not depend on simulator state).
 *
 * Beyond the order/levels/fanout CSR, the prep carries a *compiled
 * eval program*: a flat SoA image of the combinational netlist that
 * the simulators execute without touching Netlist at all. Per gate
 * there is one opcode byte (the CellType) and three fanin net ids
 * (unused pins padded with pin 0 so the inner loop is branch-free);
 * the cell functions themselves are folded into a 27-entry lookup
 * table per opcode (3 Kleene values ^ 3 pins, padded to 32 entries so
 * the row index is a shift). The tables are built by exhaustively
 * calling evalCell(), so table-driven evaluation is bit-identical to
 * the switch-based reference by construction.
 */
struct SimPrep
{
    explicit SimPrep(const Netlist &netlist);

    std::vector<GateId> order;    ///< combinational topological order
    std::vector<GateId> seqIds;   ///< DFF/DFFE ids, SeqState order
    std::vector<uint32_t> level;  ///< topological level per comb gate
    std::vector<uint8_t> isComb;  ///< 1 if the gate appears in order
    std::vector<uint32_t> foHead; ///< CSR index into foData (size n+1)
    std::vector<GateId> foData;   ///< combinational consumers per net
    uint32_t numLevels = 1;       ///< bucket count (max level + 1)

    /** @name Compiled eval program */
    /// @{
    /** CellType per gate, the opcode of the eval program. */
    std::vector<uint8_t> opcode;
    /** 3 fanin net ids per gate, flat at fanin[3*id]; pins beyond the
     *  cell's fanin count repeat pin 0 (the LUT ignores them). */
    std::vector<uint32_t> fanin;
    /** Kleene truth tables: lut[(op << kLutShift) | (a*9 + b*3 + c)]
     *  with a/b/c the byte-coded Logic values of pins 0..2. */
    std::vector<uint8_t> lut;
    static constexpr int kLutShift = 5;  ///< 27 entries padded to 32
    /** CSR over `order` by topological level: gates of level l occupy
     *  order[levelHead[l] .. levelHead[l+1]). Levels 0 (sources) are
     *  empty; size numLevels + 1. */
    std::vector<uint32_t> levelHead;
    /**
     * Same-opcode segments of `order` (which is opcode-sorted within
     * each level): run r covers order[pos .. pos+len) where pos is the
     * running sum of earlier lengths, and every gate in it has opcode
     * `op`. Lets plane evaluation dispatch once per segment and run a
     * tight per-opcode loop instead of switching per gate. Runs never
     * span a level boundary.
     */
    struct EvalRun
    {
        uint8_t op;
        uint32_t len;
    };
    std::vector<EvalRun> evalRuns;
    /// @}
};

/**
 * SimPrep plus the resolved bsp430 port/bus ids a Soc needs, and the
 * PC-flop index map the activity analysis uses to enumerate symbolic
 * fetch addresses. Requires the standard core ports (see bsp430.hh);
 * valid on original and transformed netlists alike.
 */
struct SocContext
{
    /**
     * @param follower_prefix non-empty on a product netlist (two cores
     *        side by side, src/bespoke/product_netlist.hh): the port
     *        name prefix of the second core, whose decision nets and
     *        PC flops are then resolved into `follower`.
     */
    explicit SocContext(const Netlist &netlist,
                        const std::string &follower_prefix = {});

    /** Build a shareable context (the common spelling at call sites). */
    static std::shared_ptr<const SocContext>
    make(const Netlist &netlist, const std::string &follower_prefix = {})
    {
        return std::make_shared<const SocContext>(netlist,
                                                  follower_prefix);
    }

    const Netlist &netlist;
    std::shared_ptr<const SimPrep> prep;

    // Port / bus ids (names as in bsp430.hh).
    std::vector<GateId> pMemRdata, pGpioIn, pMemAddr, pMemWdata;
    std::vector<GateId> pPcOut, pGpioOut;
    GateId pIrqExt, pMemEn, pMemWen0, pMemWen1;
    GateId pStFetch, pCtlXfer, pDecBranch, pDecIrq0, pDecIrq1;
    GateId decBranchSrc, decIrq0Src, decIrq1Src;

    /**
     * For each pc_out bit, the index of its driving flop in SeqState
     * order, or -1 if the bit is not driven by a flop (in which case
     * the analysis cannot enumerate an X value for it).
     */
    std::vector<int> pcSeqIndex;

    /**
     * The second core of a product netlist. The ports above name the
     * first core (the leader), which drives the behavioral memory;
     * the follower shares its inputs. Path exploration treats a
     * decision as X when either core's is, forces both cores' decision
     * nets together, and patches both cores' PC flops when it
     * enumerates a symbolic fetch PC.
     */
    struct Follower
    {
        GateId pDecBranch, pDecIrq0, pDecIrq1;
        GateId decBranchSrc, decIrq0Src, decIrq1Src;
        std::vector<GateId> pPcOut;
        /** As pcSeqIndex, for the follower's pc_out bits. */
        std::vector<int> pcSeqIndex;
    };
    std::optional<Follower> follower;
};

} // namespace bespoke

#endif // BESPOKE_SIM_SIM_CONTEXT_HH
