/**
 * @file
 * Product netlist: two bsp430 cores side by side in one netlist, with
 * a miter net that flags any known output difference between them.
 * The symbolic equivalence check (equiv_check.hh) explores it with the
 * activity analysis' own path explorer.
 *
 * Layout:
 *  - The leader (the original core) is copied verbatim, so its gate
 *    ids and port names are unchanged and SocContext, Soc and LaneSoc
 *    drive it like any core: the behavioral memory serves the leader's
 *    memory port.
 *  - The follower (the bespoke core) is appended. Its INPUT ports that
 *    the leader also has (gpio_in, irq_ext, mem_rdata) are the
 *    leader's nets, so both cores read one memory. Its other ports are
 *    registered under kFollowerPrefix.
 *  - For every OUTPUT port both cores have, an XOR of the two drivers
 *    feeds an OR tree that ends in the `miter` output. In Kleene logic
 *    the miter is One exactly when some pair is known and differs; X
 *    against a known value never fires. Comparing the memory bus every
 *    cycle stands in for comparing two memories.
 *
 * The SAT leg (src/sat/equiv_prover.hh) builds its miter on its own
 * and shares no code with this builder.
 */

#ifndef BESPOKE_BESPOKE_PRODUCT_NETLIST_HH
#define BESPOKE_BESPOKE_PRODUCT_NETLIST_HH

#include <string>
#include <vector>

#include "src/netlist/netlist.hh"

namespace bespoke
{

/** Port-name prefix of the follower core inside a product netlist. */
inline const std::string kFollowerPrefix = "follower.";

/** One compared output port. */
struct ProductPortPair
{
    std::string name;
    GateId leader;    ///< the leader's OUTPUT gate in the product
    GateId follower;  ///< the follower's OUTPUT gate in the product
};

struct ProductNetlist
{
    Netlist netlist;
    /** The `miter` OUTPUT gate. */
    GateId miter = kNoGate;
    /** Compared ports, sorted by name. */
    std::vector<ProductPortPair> pairs;
};

/** Build the product of `leader` and `follower` (see file comment). */
ProductNetlist buildProductNetlist(const Netlist &leader,
                                   const Netlist &follower);

} // namespace bespoke

#endif // BESPOKE_BESPOKE_PRODUCT_NETLIST_HH
