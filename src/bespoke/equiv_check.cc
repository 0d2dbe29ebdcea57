#include "src/bespoke/equiv_check.hh"

#include <sstream>

#include "src/analysis/path_explorer.hh"
#include "src/bespoke/product_netlist.hh"

namespace bespoke
{

EquivResult
checkSymbolicEquivalence(const Netlist &original,
                         const Netlist &bespoke_nl,
                         const AsmProgram &prog,
                         const AnalysisOptions &opts)
{
    ProductNetlist product = buildProductNetlist(original, bespoke_nl);
    ExplorationContext ctx(
        SocContext::make(product.netlist, kFollowerPrefix), prog, opts,
        resolveAnalysisLanes(opts), product.miter);
    Frontier frontier(opts);
    // One worker, whatever opts.threads says (see the header).
    std::vector<std::unique_ptr<PathExplorer>> workers =
        explore(ctx, frontier, 1);
    const PathExplorer &w = *workers[0];

    EquivResult res;
    res.completed = !frontier.capped();
    res.pathsExplored = frontier.pathsExplored();
    res.cyclesChecked = frontier.cycles();
    res.outputsCompared = w.observations() * product.pairs.size();
    if (const auto &stop = w.stopPoint()) {
        res.equivalent = false;
        for (const ProductPortPair &pp : product.pairs) {
            Logic va = static_cast<Logic>(stop->values[pp.leader]);
            Logic vb = static_cast<Logic>(stop->values[pp.follower]);
            if (!isKnown(va) || !isKnown(vb) || va == vb)
                continue;
            std::ostringstream os;
            os << "output '" << pp.name << "' differs at cycle "
               << stop->cycle << " (pc 0x" << std::hex << stop->pc
               << "): original=" << logicChar(va)
               << " bespoke=" << logicChar(vb);
            res.firstMismatch = os.str();
            break;
        }
    }
    return res;
}

} // namespace bespoke
