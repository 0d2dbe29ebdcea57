/**
 * @file
 * Product netlist (two cores side by side plus an output miter): ports
 * pair up by name, one-sided ports are skipped, the follower reads the
 * leader's inputs, the miter fires only on known differences, and the
 * simulation context resolves both cores' decision nets and PC flops.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "src/analysis/activity_analysis.hh"
#include "src/bespoke/equiv_check.hh"
#include "src/bespoke/product_netlist.hh"
#include "src/cpu/bsp430.hh"
#include "src/sim/gate_sim.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{
namespace
{

/** A core with one extra output (and optionally input) port. */
Netlist
coreWithExtraPorts(const std::string &out, const std::string &in = "")
{
    Netlist nl = buildBsp430();
    nl.addOutput(out, nl.gate(nl.port("st_fetch")).in[0]);
    if (!in.empty())
        nl.addInput(in);
    return nl;
}

TEST(ProductNetlist, PortsPairByNameAndOneSidedPortsAreSkipped)
{
    Netlist leader = coreWithExtraPorts("lead_only");
    Netlist follower = coreWithExtraPorts("follow_only", "follow_in");
    ProductNetlist p = buildProductNetlist(leader, follower);

    std::vector<std::string> common;
    for (const auto &[name, id] : leader.ports()) {
        if (leader.gate(id).type == CellType::OUTPUT &&
            follower.hasPort(name))
            common.push_back(name);
    }
    std::sort(common.begin(), common.end());
    std::vector<std::string> paired;
    for (const ProductPortPair &pp : p.pairs) {
        paired.push_back(pp.name);
        EXPECT_EQ(pp.leader, p.netlist.port(pp.name));
        EXPECT_EQ(pp.follower, p.netlist.port(kFollowerPrefix + pp.name));
    }
    EXPECT_EQ(paired, common);
    EXPECT_EQ(std::count(paired.begin(), paired.end(), "lead_only"), 0);
    EXPECT_EQ(std::count(paired.begin(), paired.end(), "follow_only"), 0);
    EXPECT_GT(paired.size(), 50u);  // buses, strobes, decision nets

    // One-sided ports survive, the follower's under its prefix.
    EXPECT_TRUE(p.netlist.hasPort("lead_only"));
    EXPECT_TRUE(p.netlist.hasPort(kFollowerPrefix + "follow_only"));
    EXPECT_TRUE(p.netlist.hasPort(kFollowerPrefix + "follow_in"));
}

TEST(ProductNetlist, FollowerReadsLeaderInputsAndValidates)
{
    Netlist core = buildBsp430();
    ProductNetlist p = buildProductNetlist(core, core);
    p.netlist.validate();

    // Leader ids are unchanged; shared inputs exist once.
    for (const auto &[name, id] : core.ports())
        EXPECT_EQ(p.netlist.port(name), id) << name;
    EXPECT_EQ(p.netlist.inputIds().size(), core.inputIds().size());
    for (GateId in : core.inputIds()) {
        const std::string &name = core.name(in);
        EXPECT_FALSE(p.netlist.hasPort(kFollowerPrefix + name)) << name;
    }

    // Every input now feeds both cores: twice the consumers.
    auto consumers = [](const Netlist &nl, GateId net) {
        size_t n = 0;
        for (const Gate &g : nl.gates()) {
            for (int pin = 0; pin < g.numInputs(); pin++)
                n += g.in[pin] == net;
        }
        return n;
    };
    for (const char *name : {"gpio_in[3]", "irq_ext", "mem_rdata[0]"}) {
        GateId id = core.port(name);
        EXPECT_EQ(consumers(p.netlist, id), 2 * consumers(core, id))
            << name;
    }

    // Leader, follower (minus the shared inputs), XORs, ORs, miter.
    size_t n = p.pairs.size();
    EXPECT_EQ(p.netlist.size(),
              2 * core.size() - core.inputIds().size() + n + (n - 1) + 1);
}

/** leader: o = a, p = a.  follower: o = a, p = NOT a. */
TEST(ProductNetlist, MiterFiresOnlyOnKnownDifferences)
{
    Netlist leader;
    GateId a = leader.addInput("a");
    leader.addOutput("o", a);
    leader.addOutput("p", a);
    Netlist follower;
    GateId fa = follower.addInput("a");
    follower.addOutput("o", fa);
    follower.addOutput("p", follower.addGate(CellType::INV, Module::Glue,
                                             fa));
    ProductNetlist prod = buildProductNetlist(leader, follower);
    prod.netlist.validate();
    ASSERT_EQ(prod.pairs.size(), 2u);

    GateSim sim(prod.netlist);
    sim.reset();
    for (Logic v : {Logic::Zero, Logic::One}) {
        sim.setInput(prod.netlist.port("a"), v);
        sim.evalComb();
        EXPECT_EQ(sim.value(prod.miter), Logic::One);
    }
    sim.setInput(prod.netlist.port("a"), Logic::X);
    sim.evalComb();
    EXPECT_EQ(sim.value(prod.miter), Logic::X);

    // X against a known value never fires: follower p is constant.
    Netlist tied;
    tied.addInput("a");
    tied.addOutput("p", tied.tie(true));
    ProductNetlist xk = buildProductNetlist(leader, tied);
    GateSim xs(xk.netlist);
    xs.reset();
    xs.setInput(xk.netlist.port("a"), Logic::X);
    xs.evalComb();
    EXPECT_NE(xs.value(xk.miter), Logic::One);
    xs.setInput(xk.netlist.port("a"), Logic::One);
    xs.evalComb();
    EXPECT_EQ(xs.value(xk.miter), Logic::Zero);
    xs.setInput(xk.netlist.port("a"), Logic::Zero);
    xs.evalComb();
    EXPECT_EQ(xs.value(xk.miter), Logic::One);
}

TEST(ProductNetlist, SocContextBuildsOnTheProduct)
{
    Netlist core = buildBsp430();
    ProductNetlist p = buildProductNetlist(core, core);
    SocContext base(core);

    // Without a prefix the product is an ordinary core: the leader's.
    SocContext plain(p.netlist);
    EXPECT_EQ(plain.pMemAddr, base.pMemAddr);
    EXPECT_EQ(plain.pDecBranch, base.pDecBranch);
    EXPECT_EQ(plain.decIrq0Src, base.decIrq0Src);
    EXPECT_EQ(plain.pcSeqIndex, base.pcSeqIndex);
    EXPECT_FALSE(plain.follower.has_value());

    // With it, the follower's decision nets and PC flops resolve too.
    SocContext both(p.netlist, kFollowerPrefix);
    ASSERT_TRUE(both.follower.has_value());
    const SocContext::Follower &f = *both.follower;
    EXPECT_EQ(f.pDecBranch, p.netlist.port(kFollowerPrefix + "dec_branch"));
    EXPECT_EQ(f.decBranchSrc, p.netlist.gate(f.pDecBranch).in[0]);
    EXPECT_NE(f.decBranchSrc, both.decBranchSrc);
    EXPECT_NE(f.decIrq0Src, both.decIrq0Src);
    EXPECT_NE(f.decIrq1Src, both.decIrq1Src);
    for (int b = 0; b < 16; b++) {
        EXPECT_GE(f.pcSeqIndex[b], 0) << b;
        EXPECT_NE(f.pcSeqIndex[b], both.pcSeqIndex[b]) << b;
    }
}

/**
 * Forcing a decision forces both cores: on two identical cores the
 * product exploration mirrors the single-core analysis path for path.
 * Were only the leader forced, the follower's PC would go X after the
 * first fork and every later fetch would enumerate extra paths.
 */
TEST(ProductNetlist, ForkingForcesBothCores)
{
    Netlist core = buildBsp430();
    for (const char *app : {"binSearch", "irq"}) {
        AsmProgram prog = workloadByName(app).assembleProgram();
        for (int lanes : {1, 64}) {
            AnalysisOptions opts;
            opts.laneWidth = lanes;
            AnalysisResult ar = analyzeActivity(core, prog, opts);
            ASSERT_GT(ar.forks, 0u) << app;
            EquivResult eq =
                checkSymbolicEquivalence(core, core, prog, opts);
            EXPECT_TRUE(eq.equivalent) << app << ": " << eq.firstMismatch;
            EXPECT_TRUE(eq.completed) << app;
            EXPECT_EQ(eq.pathsExplored, ar.pathsExplored)
                << app << " lanes " << lanes;
            EXPECT_EQ(eq.cyclesChecked, ar.cyclesSimulated)
                << app << " lanes " << lanes;
        }
    }
}

} // namespace
} // namespace bespoke
