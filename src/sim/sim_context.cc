#include "src/sim/sim_context.hh"

#include <algorithm>

#include "src/util/logging.hh"

namespace bespoke
{

SimPrep::SimPrep(const Netlist &netlist)
    : order(netlist.levelize()), seqIds(netlist.sequentialIds())
{
    const std::vector<Gate> &gates = netlist.gates();
    size_t n = netlist.size();
    isComb.assign(n, 0);
    for (GateId id : order)
        isComb[id] = 1;

    // Topological levels: sources (INPUT/TIE/DFF/DFFE) are level 0,
    // a combinational gate is one past its deepest combinational fanin.
    level.assign(n, 0);
    uint32_t max_level = 0;
    for (GateId id : order) {
        const Gate &g = gates[id];
        uint32_t lvl = 0;
        int ni = g.numInputs();
        for (int p = 0; p < ni; p++)
            lvl = std::max(lvl, level[g.in[p]]);
        level[id] = lvl + 1;
        max_level = std::max(max_level, lvl + 1);
    }
    numLevels = max_level + 1;

    // CSR fanout lists restricted to combinational consumers; source
    // cells re-read their fanins only at latch time and need no events.
    foHead.assign(n + 1, 0);
    for (GateId id : order) {
        const Gate &g = gates[id];
        int ni = g.numInputs();
        for (int p = 0; p < ni; p++)
            foHead[g.in[p] + 1]++;
    }
    for (size_t i = 0; i < n; i++)
        foHead[i + 1] += foHead[i];
    foData.resize(foHead[n]);
    std::vector<uint32_t> cursor(foHead.begin(), foHead.end() - 1);
    for (GateId id : order) {
        const Gate &g = gates[id];
        int ni = g.numInputs();
        for (int p = 0; p < ni; p++)
            foData[cursor[g.in[p]]++] = id;
    }

    // Compiled eval program: opcode byte + padded fanin triple per
    // gate. Pins past the cell's fanin count repeat pin 0 (any valid
    // net id works — the truth table is insensitive to them), keeping
    // the evaluation loop free of a per-gate fanin-count branch.
    opcode.resize(n);
    fanin.resize(3 * n);
    for (GateId id = 0; id < n; id++) {
        const Gate &g = gates[id];
        opcode[id] = static_cast<uint8_t>(g.type);
        int ni = g.numInputs();
        for (int p = 0; p < 3; p++)
            fanin[3 * id + p] = p < ni ? g.in[p] : (ni ? g.in[0] : id);
    }

    // Kleene truth tables, one 27-entry row per cell type (padded to
    // 32 so the row index is a shift). Rows are filled by exhaustive
    // calls to the reference evalCell(), so the table-driven kernel
    // cannot diverge from the switch-based semantics. Sequential and
    // INPUT pseudo-cells never reach the eval loop; their rows are X.
    lut.assign(static_cast<size_t>(kNumCellTypes) << kLutShift,
               static_cast<uint8_t>(Logic::X));
    for (int t = 0; t < kNumCellTypes; t++) {
        CellType type = static_cast<CellType>(t);
        if (type == CellType::INPUT || cellSequential(type))
            continue;
        for (int a = 0; a < 3; a++) {
            for (int b = 0; b < 3; b++) {
                for (int c = 0; c < 3; c++) {
                    Logic in[3] = {static_cast<Logic>(a),
                                   static_cast<Logic>(b),
                                   static_cast<Logic>(c)};
                    lut[(static_cast<size_t>(t) << kLutShift) |
                        static_cast<size_t>(a * 9 + b * 3 + c)] =
                        static_cast<uint8_t>(evalCell(type, in));
                }
            }
        }
    }

    // Level buckets over the evaluation order. levelize() emits gates
    // in breadth-first (level-ascending) order; assert that here since
    // the bucketed kernels depend on it.
    levelHead.assign(numLevels + 1, 0);
    for (GateId id : order)
        levelHead[level[id] + 1]++;
    for (uint32_t l = 0; l < numLevels; l++)
        levelHead[l + 1] += levelHead[l];
    {
        uint32_t prev = 0;
        for (GateId id : order) {
            bespoke_assert(level[id] >= prev,
                           "levelize() order is not level-grouped");
            prev = level[id];
        }
    }

    // Within a level no gate reads another's output, so each bucket
    // can be reordered without changing any evaluated value. Sort
    // buckets by opcode (gate id as the deterministic tie-break): the
    // eval kernels' per-gate dispatch then sees long same-opcode runs
    // instead of a random sequence, which the branch predictor
    // rewards, most visibly on the multi-word plane kernels.
    for (uint32_t l = 0; l < numLevels; l++) {
        std::sort(order.begin() + levelHead[l],
                  order.begin() + levelHead[l + 1],
                  [&](GateId a, GateId b) {
                      return opcode[a] != opcode[b]
                                 ? opcode[a] < opcode[b]
                                 : a < b;
                  });
    }

    // Segment the sorted order into same-opcode runs (never crossing
    // a level boundary) for the once-per-segment plane dispatch.
    for (uint32_t l = 0; l < numLevels; l++) {
        uint32_t i = levelHead[l];
        const uint32_t end = levelHead[l + 1];
        while (i < end) {
            const uint8_t op = opcode[order[i]];
            uint32_t j = i + 1;
            while (j < end && opcode[order[j]] == op)
                j++;
            evalRuns.push_back({op, j - i});
            i = j;
        }
    }
}

namespace
{

/** SeqState index of the flop driving each pc_out bit (-1 if none). */
std::vector<int>
pcFlopIndex(const Netlist &nl, const SimPrep &prep,
            const std::vector<GateId> &pc_out)
{
    std::vector<int> index(pc_out.size(), -1);
    for (size_t b = 0; b < pc_out.size(); b++) {
        GateId src = nl.gate(pc_out[b]).in[0];
        for (size_t i = 0; i < prep.seqIds.size(); i++) {
            if (prep.seqIds[i] == src) {
                index[b] = static_cast<int>(i);
                break;
            }
        }
    }
    return index;
}

} // namespace

SocContext::SocContext(const Netlist &nl,
                       const std::string &follower_prefix)
    : netlist(nl), prep(std::make_shared<const SimPrep>(nl))
{
    pMemRdata = nl.bus("mem_rdata", 16);
    pGpioIn = nl.bus("gpio_in", 16);
    pMemAddr = nl.bus("mem_addr", 16);
    pMemWdata = nl.bus("mem_wdata", 16);
    pPcOut = nl.bus("pc_out", 16);
    pGpioOut = nl.bus("gpio_out", 16);
    pIrqExt = nl.port("irq_ext");
    pMemEn = nl.port("mem_en");
    pMemWen0 = nl.port("mem_wen[0]");
    pMemWen1 = nl.port("mem_wen[1]");
    pStFetch = nl.port("st_fetch");
    pCtlXfer = nl.port("ctl_xfer");
    pDecBranch = nl.port("dec_branch");
    pDecIrq0 = nl.port("dec_irq0");
    pDecIrq1 = nl.port("dec_irq1");
    decBranchSrc = nl.gate(pDecBranch).in[0];
    decIrq0Src = nl.gate(pDecIrq0).in[0];
    decIrq1Src = nl.gate(pDecIrq1).in[0];

    // Locate the PC flops through the pc_out port; the activity
    // analysis patches these SeqState slots when it enumerates the
    // concrete candidates of a partially-known fetch PC.
    pcSeqIndex = pcFlopIndex(nl, *prep, pPcOut);

    if (follower_prefix.empty())
        return;
    const std::string &p = follower_prefix;
    Follower f;
    f.pDecBranch = nl.port(p + "dec_branch");
    f.pDecIrq0 = nl.port(p + "dec_irq0");
    f.pDecIrq1 = nl.port(p + "dec_irq1");
    f.decBranchSrc = nl.gate(f.pDecBranch).in[0];
    f.decIrq0Src = nl.gate(f.pDecIrq0).in[0];
    f.decIrq1Src = nl.gate(f.pDecIrq1).in[0];
    f.pPcOut = nl.bus(p + "pc_out", 16);
    f.pcSeqIndex = pcFlopIndex(nl, *prep, f.pPcOut);
    follower = std::move(f);
}

} // namespace bespoke
