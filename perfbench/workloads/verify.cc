/**
 * @file
 * `verify` workload: set-up tailors all 15 designs; each op brings one
 * app's design, and then its corrupted twin (one OUTPUT port's input
 * inverted), to a verdict with both `--verify` legs at 4 threads: the
 * symbolic check, then the SAT miter with conflict budget 200000. The
 * twin shares the op with its design: as ops of their own, the 15
 * early-exit refutations took the fast half of the latency list, and
 * its median sat on the gap between refutations and proofs. Oracle:
 * tailored designs are Equivalent on both legs; every twin is refuted
 * by the symbolic leg and never proved Equivalent by SAT.
 */

#include <algorithm>

#include "workloads/common.hh"
#include "src/bespoke/equiv_check.hh"
#include "src/sat/equiv_prover.hh"

namespace perfbench
{

using namespace bespoke;

namespace
{

constexpr int kVerifyThreads = 4;

/** Corrupt a design by inverting the input of its first OUTPUT port. */
Netlist
corruptedTwin(const Netlist &nl)
{
    std::vector<std::string> outs;
    for (const auto &[name, id] : nl.ports()) {
        if (nl.gate(id).type == CellType::OUTPUT)
            outs.push_back(name);
    }
    std::sort(outs.begin(), outs.end());
    Netlist bad = nl;
    GateId out = bad.port(outs.at(0));
    GateId inv =
        bad.addGate(CellType::INV, Module::Glue, bad.gate(out).in[0]);
    bad.setFanin(out, 0, inv);
    bad.validate();
    return bad;
}

struct Verdicts
{
    EquivResult eq;
    sat::SatEquivResult sat;
    double eqSeconds = 0.0;
};

Verdicts
bothLegs(Tracer &tr, const Netlist &original, const Netlist &candidate,
         const AsmProgram &prog, int64_t op)
{
    AnalysisOptions aopts;
    aopts.threads = kVerifyThreads;
    sat::SatEquivOptions sopts;
    sopts.conflictBudget = 200000;
    sopts.threads = kVerifyThreads;
    Verdicts v;
    {
        Tracer::Scope s(tr, "checkSymbolicEquivalence", op);
        double t0 = nowSeconds();
        v.eq = checkSymbolicEquivalence(original, candidate, prog, aopts);
        v.eqSeconds = nowSeconds() - t0;
    }
    {
        Tracer::Scope s(tr, "sat::proveEquivalentSat", op);
        v.sat = sat::proveEquivalentSat(original, candidate, prog, sopts);
    }
    return v;
}

/** Both legs on an app's design, then on its twin. */
struct AppVerdicts
{
    Verdicts design, twin;
};

AppVerdicts
verifyApp(Tracer &tr, const Netlist &original, const Netlist &design,
          const Netlist &twin, const AsmProgram &prog, int64_t op)
{
    Tracer::Scope whole(tr, "op:verify", op);
    return {bothLegs(tr, original, design, prog, op),
            bothLegs(tr, original, twin, prog, op)};
}

std::string
oracleMismatch(const AppVerdicts &v)
{
    std::string why;
    if (!v.design.eq.equivalent || !v.design.eq.completed)
        why += " symbolic leg: " + v.design.eq.firstMismatch;
    if (v.design.sat.verdict != sat::SatEquivVerdict::Equivalent)
        why += " SAT leg: " + v.design.sat.detail;
    if (v.twin.eq.equivalent)
        why += " symbolic leg did not refute the twin";
    if (v.twin.sat.verdict == sat::SatEquivVerdict::Equivalent)
        why += " SAT proved the twin Equivalent";
    return why;
}

/** The counts that must repeat exactly, in a fixed order. */
std::vector<std::pair<const char *, double>>
verdictCounts(const Verdicts &v)
{
    auto d = [](uint64_t x) { return static_cast<double>(x); };
    return {{"bespoke.equiv_paths", d(v.eq.pathsExplored)},
            {"bespoke.equiv_cycles", d(v.eq.cyclesChecked)},
            {"bespoke.equiv_outputs", d(v.eq.outputsCompared)},
            {"sat.vars", d(v.sat.vars)},
            {"sat.clauses", d(v.sat.clauses)},
            {"sat.conflicts", d(v.sat.conflicts)},
            {"sat.propagations", d(v.sat.propagations)},
            {"sat.queries", d(v.sat.queries)}};
}

} // namespace

void
runVerify(Run &run)
{
    const std::vector<Workload> &apps = workloads();
    std::unique_ptr<BespokeFlow> flow;
    std::vector<Netlist> designs, twins;
    std::vector<AsmProgram> progs;
    timedSetups(run, [&] {
        FlowOptions fopts;
        fopts.analysis.threads = kVerifyThreads;
        flow = std::make_unique<BespokeFlow>(fopts);
        designs.clear();
        twins.clear();
        progs.clear();
        run.areaSavingPct.clear();
        run.powerSavingPct.clear();
        for (const Workload &w : apps) {
            DesignMetrics base = flow->measureBaseline({&w});
            BespokeDesign d = flow->tailor(w);
            run.areaSavingPct.push_back(
                savingPct(base.areaUm2, d.metrics.areaUm2));
            run.powerSavingPct.push_back(
                savingPct(base.powerNominal.totalUW(),
                          d.metrics.powerNominal.totalUW()));
            twins.push_back(corruptedTwin(d.netlist));
            designs.push_back(std::move(d.netlist));
            progs.push_back(w.assembleProgram());
        }
    });

    run.expectedDominant = "bespoke.equiv_s";
    Tracer untraced(false);
    forRounds(run, [&](int round) {
        for (size_t i : roundOrder(run.cfg, apps.size(), round)) {
            std::string key = "verify/" + apps[i].name;
            int64_t op = static_cast<int64_t>(run.latencies.size());
            double t0 = nowSeconds();
            AppVerdicts v = verifyApp(untraced, flow->baseline(), designs[i],
                                      twins[i], progs[i], op);
            double lat = nowSeconds() - t0;
            run.addLatency(key, lat);

            std::string why = oracleMismatch(v);
            if (run.cfg.trace) {
                double t1 = nowSeconds();
                AppVerdicts tv = verifyApp(run.tracer, flow->baseline(),
                                           designs[i], twins[i], progs[i],
                                           op);
                run.untracedOpSeconds += lat;
                run.tracedOpSeconds += nowSeconds() - t1;
                auto compare = [&](const Verdicts &t, const Verdicts &u,
                                   const std::string &which) {
                    if (verdictCounts(t) != verdictCounts(u) ||
                        t.eq.equivalent != u.eq.equivalent ||
                        t.sat.verdict != u.sat.verdict)
                        why += " traced run differs on " + which;
                    for (const auto &[name, value] : verdictCounts(t)) {
                        run.count(name, value);
                        run.determinism.record(key + "/" + which, name,
                                               value);
                    }
                    if (t.sat.verdict == sat::SatEquivVerdict::Unknown)
                        run.count("sat.unknown", 1);
                };
                compare(tv.design, v.design, "design");
                compare(tv.twin, v.twin, "twin");
                run.count("bespoke.refute_s", tv.twin.eqSeconds);
            }
            run.ledger.check(why.empty(), key + ":" + why);
        }
    });
}

} // namespace perfbench
