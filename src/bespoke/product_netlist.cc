#include "src/bespoke/product_netlist.hh"

#include <algorithm>

#include "src/util/logging.hh"

namespace bespoke
{

ProductNetlist
buildProductNetlist(const Netlist &leader, const Netlist &follower)
{
    ProductNetlist p;
    p.netlist = leader;
    Netlist &nl = p.netlist;
    const GateId base = static_cast<GateId>(leader.size());

    std::vector<std::string> port_name(follower.size());
    for (const auto &[name, id] : follower.ports())
        port_name[id] = name;
    auto leader_input = [&](const std::string &name) {
        return !name.empty() && leader.hasPort(name) &&
               leader.gate(leader.port(name)).type == CellType::INPUT;
    };

    // Follower gate -> product net: a shared input is the leader's
    // port, every other gate is appended in id order.
    std::vector<GateId> map(follower.size());
    GateId next = base;
    for (GateId i = 0; i < follower.size(); i++) {
        if (follower.gate(i).type == CellType::INPUT &&
            leader_input(port_name[i])) {
            map[i] = leader.port(port_name[i]);
        } else {
            map[i] = next++;
        }
    }
    for (GateId i = 0; i < follower.size(); i++) {
        if (map[i] < base)
            continue;
        Gate g = follower.gate(i);
        for (int pin = 0; pin < g.numInputs(); pin++)
            g.in[pin] = map[g.in[pin]];
        GateId id = nl.addGate(g.type, g.module, g.in[0], g.in[1],
                               g.in[2]);
        bespoke_assert(id == map[i]);
        nl.gateRef(id) = g;
        if (!port_name[i].empty())
            nl.registerPort(kFollowerPrefix + port_name[i], id);
    }

    // Miter over the OUTPUT ports both cores have.
    for (const auto &[name, id] : leader.ports()) {
        if (leader.gate(id).type != CellType::OUTPUT ||
            !follower.hasPort(name))
            continue;
        GateId fid = follower.port(name);
        if (follower.gate(fid).type == CellType::OUTPUT)
            p.pairs.push_back({name, id, map[fid]});
    }
    std::sort(p.pairs.begin(), p.pairs.end(),
              [](const ProductPortPair &a, const ProductPortPair &b) {
                  return a.name < b.name;
              });
    std::vector<GateId> terms;
    for (const ProductPortPair &pp : p.pairs) {
        terms.push_back(nl.addGate(CellType::XOR2, Module::Glue,
                                   nl.gate(pp.leader).in[0],
                                   nl.gate(pp.follower).in[0]));
    }
    if (terms.empty())
        terms.push_back(nl.tie(false));
    while (terms.size() > 1) {
        std::vector<GateId> next_terms;
        for (size_t i = 0; i + 1 < terms.size(); i += 2) {
            next_terms.push_back(nl.addGate(CellType::OR2, Module::Glue,
                                            terms[i], terms[i + 1]));
        }
        if (terms.size() % 2)
            next_terms.push_back(terms.back());
        terms = std::move(next_terms);
    }
    p.miter = nl.addOutput("miter", terms[0]);
    return p;
}

} // namespace bespoke
