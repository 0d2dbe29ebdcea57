/**
 * @file
 * `tailor` workload: BespokeFlow::tailor on each of the 15 Table-1
 * apps at library defaults (1 analysis thread, lanes 1, default passes,
 * 2 power inputs) — what a `bespoke_io tailor` user gets. Set-up builds
 * the flow and measures the baseline core per app. Oracle: every
 * design matches its row of bench/baselines/fig11_savings.full.json.
 */

#include "workloads/common.hh"
#include "src/timing/sta.hh"

namespace perfbench
{

using namespace bespoke;

namespace
{

/** BespokeFlow::tailor broken down into spans around its public calls. */
BespokeDesign
tracedTailor(Run &run, BespokeFlow &flow, const Workload &w, int64_t op)
{
    Tracer &tr = run.tracer;
    Tracer::Scope tailor(tr, "BespokeFlow::tailor", op);
    BespokeDesign d;
    {
        Tracer::Scope s(tr, "BespokeFlow::analyze", op);
        d.analysis = flow.analyze(w);
    }
    AsmProgram prog = w.assembleProgram();
    PassEnv env;
    env.timing = &flow.options().timing;
    env.power = &flow.options().power;
    env.clockPeriodPs = flow.clockPeriodPs();
    env.program = &prog;
    {
        Tracer::Scope s(tr, "runTailorPipeline", op);
        d.netlist = runTailorPipeline(flow.baseline(),
                                      d.analysis.activity.get(),
                                      flow.options().passes, env, &d.cut,
                                      &d.pipeline);
    }
    {
        Tracer::Scope s(tr, "sizeForLoads", op);
        sizeForLoads(d.netlist, flow.options().timing);
    }
    d.metrics = tracedMeasure(run, flow, d.netlist, {&w}, op);
    return d;
}

void
recordAnalysis(Run &run, const std::string &key, const AnalysisResult &a)
{
    run.count("analysis.calls", 1);
    run.count("analysis.paths", static_cast<double>(a.pathsExplored));
    run.count("analysis.cycles", static_cast<double>(a.cyclesSimulated));
    run.count("analysis.gate_evals", static_cast<double>(a.gatesEvaluated));
    run.count("analysis.forks", static_cast<double>(a.forks));
    run.count("analysis.merges", static_cast<double>(a.merges));
    run.count("analysis.lane_cycles", static_cast<double>(a.laneCycles));
    run.count("analysis.lane_slots",
              static_cast<double>(a.laneSweeps) * a.lanesUsed);
    run.determinism.record(key, "analysis.paths",
                           static_cast<double>(a.pathsExplored));
    run.determinism.record(key, "analysis.cycles",
                           static_cast<double>(a.cyclesSimulated));
    run.determinism.record(key, "analysis.gate_evals",
                           static_cast<double>(a.gatesEvaluated));
}

} // namespace

void
runTailor(Run &run)
{
    std::map<std::string, Fig11Row> golden;
    std::string err;
    if (!loadFig11Rows(run.cfg.root, &golden, &err))
        throw std::runtime_error(err);
    const std::vector<Workload> &apps = workloads();

    std::unique_ptr<BespokeFlow> flow;
    std::vector<DesignMetrics> base;
    timedSetups(run, [&] {
        flow = std::make_unique<BespokeFlow>(FlowOptions{});
        base.clear();
        for (const Workload &w : apps)
            base.push_back(flow->measureBaseline({&w}));
    });

    run.expectedDominant = "analysis.busy_s";
    forRounds(run, [&](int round) {
        for (size_t i : roundOrder(run.cfg, apps.size(), round)) {
            const Workload &w = apps[i];
            int64_t op = static_cast<int64_t>(run.latencies.size());
            double t0 = nowSeconds();
            BespokeDesign d = flow->tailor(w);
            double lat = nowSeconds() - t0;
            run.addLatency(w.name, lat);

            auto row = golden.find(w.name);
            std::string why =
                row == golden.end()
                    ? "no fig11 golden row"
                    : fig11Mismatch(row->second,
                                    static_cast<double>(d.metrics.gates),
                                    d.metrics.areaUm2,
                                    d.metrics.powerNominal.totalUW(),
                                    static_cast<double>(base[i].gates),
                                    base[i].areaUm2,
                                    base[i].powerNominal.totalUW());
            if (run.cfg.trace) {
                double cycles0 = run.counters["verify.replay_cycles"];
                double t1 = nowSeconds();
                BespokeDesign td = tracedTailor(run, *flow, w, op);
                run.untracedOpSeconds += lat;
                run.tracedOpSeconds += nowSeconds() - t1;
                if (td.netlist.contentHash() != d.netlist.contentHash() ||
                    !sameMetrics(td.metrics, d.metrics))
                    why += " traced breakdown differs from tailor()";
                std::string key = "tailor/" + w.name;
                recordAnalysis(run, key, td.analysis);
                run.count("transform.gates_in",
                          static_cast<double>(td.cut.gatesBefore));
                run.count("transform.gates_out",
                          static_cast<double>(td.cut.gatesAfter));
                run.determinism.record(key, "transform.gates_in",
                                       static_cast<double>(td.cut.gatesBefore));
                run.determinism.record(key, "transform.gates_out",
                                       static_cast<double>(td.cut.gatesAfter));
                run.determinism.record(
                    key, "verify.replay_cycles",
                    run.counters["verify.replay_cycles"] - cycles0);
            }
            run.ledger.check(why.empty(), "tailor " + w.name + ":" + why);
            run.areaSavingPct.push_back(
                savingPct(base[i].areaUm2, d.metrics.areaUm2));
            run.powerSavingPct.push_back(
                savingPct(base[i].powerNominal.totalUW(),
                          d.metrics.powerNominal.totalUW()));
        }
    });
}

} // namespace perfbench
