#include "workloads/common.hh"

#include <fstream>
#include <sstream>

#include "src/sim/sim_context.hh"
#include "src/timing/sta.hh"
#include "src/util/rng.hh"
#include "src/util/table.hh"
#include "src/verify/runner.hh"

namespace perfbench
{

using namespace bespoke;

std::vector<size_t>
roundOrder(const RunConfig &cfg, size_t n, int round)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; i++)
        order[i] = i;
    Rng rng(cfg.seed * 1000003ull + static_cast<uint64_t>(round));
    for (size_t i = n; i > 1; i--)
        std::swap(order[i - 1], order[rng.below(static_cast<uint32_t>(i))]);
    return order;
}

double
savingPct(double base, double value)
{
    return base > 0.0 ? 100.0 * (base - value) / base : 0.0;
}

namespace
{

bool
samePower(const PowerReport &a, const PowerReport &b)
{
    return a.switchingUW == b.switchingUW && a.clockUW == b.clockUW &&
           a.leakageUW == b.leakageUW;
}

} // namespace

bool
sameMetrics(const DesignMetrics &a, const DesignMetrics &b)
{
    return a.gates == b.gates && a.flops == b.flops &&
           a.areaUm2 == b.areaUm2 && a.criticalPathPs == b.criticalPathPs &&
           a.slackFraction == b.slackFraction &&
           samePower(a.powerNominal, b.powerNominal) && a.vmin == b.vmin &&
           samePower(a.powerAtVmin, b.powerAtVmin);
}

DesignMetrics
tracedMeasure(Run &run, const BespokeFlow &flow, const Netlist &nl,
              const std::vector<const Workload *> &apps, int64_t op)
{
    Tracer &tr = run.tracer;
    const FlowOptions &opts = flow.options();
    Tracer::Scope measure(tr, "BespokeFlow::measure", op);
    run.count("bespoke.measure_calls", 1);

    DesignMetrics m;
    NetlistStats stats = nl.stats();
    m.gates = stats.numCells;
    m.flops = stats.numSequential;
    m.areaUm2 = stats.area;

    TimingReport rep;
    {
        Tracer::Scope s(tr, "analyzeTiming", op);
        rep = analyzeTiming(nl, opts.timing);
    }
    m.criticalPathPs = rep.criticalPathPs;
    m.slackFraction =
        (flow.clockPeriodPs() - rep.criticalPathPs) / flow.clockPeriodPs();

    std::shared_ptr<const SocContext> ctx;
    {
        Tracer::Scope s(tr, "SocContext::make", op);
        ctx = SocContext::make(nl);
    }
    ToggleCounter toggles(nl);
    GateBatchObservers obs;
    obs.toggles = &toggles;
    Rng rng(opts.powerSeed);
    for (const Workload *w : apps) {
        AsmProgram prog = w->assembleProgram();
        std::vector<WorkloadInput> inputs;
        for (int i = 0; i < opts.powerInputsPerWorkload; i++)
            inputs.push_back(w->genInput(rng));
        std::vector<GateRun> runs;
        {
            Tracer::Scope s(tr, "runWorkloadGateBatch", op);
            runs = runWorkloadGateBatch(nl, *w, prog, inputs, opts.planeBits,
                                        obs, ctx);
        }
        run.count("verify.replay_runs", static_cast<double>(runs.size()));
        if (inputs.size() >= kMinLaneBatch)
            run.count("verify.replay_batched_runs",
                      static_cast<double>(runs.size()));
        for (const GateRun &g : runs) {
            run.count("verify.replay_cycles", static_cast<double>(g.cycles));
            if (!g.halted)
                run.count("verify.replay_unhalted", 1);
        }
    }
    {
        Tracer::Scope s(tr, "computePower", op);
        m.powerNominal = computePower(nl, toggles, opts.power, opts.timing);
    }
    m.vmin = vminForPeriod(rep.criticalPathPs, flow.clockPeriodPs(),
                           opts.timing);
    m.powerAtVmin = scaleToVoltage(m.powerNominal, m.vmin, opts.power);
    return m;
}

bool
readJson(const std::string &path, JsonValue *out, std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        *err = "cannot read " + path;
        return false;
    }
    std::stringstream ss;
    ss << is.rdbuf();
    std::string perr;
    if (!JsonValue::parse(ss.str(), *out, perr)) {
        *err = path + ": " + perr;
        return false;
    }
    return true;
}

bool
loadFig11Rows(const std::string &root, std::map<std::string, Fig11Row> *out,
              std::string *err)
{
    JsonValue doc;
    std::string path = root + "/bench/baselines/fig11_savings.full.json";
    if (!readJson(path, &doc, err))
        return false;
    const JsonValue *tables = doc.find("tables");
    const JsonValue *savings = tables ? tables->find("savings") : nullptr;
    const JsonValue *rows = savings ? savings->find("rows") : nullptr;
    if (!rows || !rows->isArray()) {
        *err = path + ": no tables.savings.rows";
        return false;
    }
    for (const JsonValue &r : rows->items()) {
        if (!r.isArray() || r.items().size() != 7)
            continue;
        const auto &c = r.items();
        (*out)[c[0].asString()] = {c[1].asString(), c[2].asString(),
                                   c[3].asString(), c[4].asString(),
                                   c[5].asString(), c[6].asString()};
    }
    return true;
}

std::string
fig11Mismatch(const Fig11Row &row, double gates, double area, double power,
              double base_gates, double base_area, double base_power)
{
    Fig11Row got{formatFixed(savingPct(base_gates, gates), 1),
                 formatFixed(savingPct(base_area, area), 1),
                 formatFixed(savingPct(base_power, power), 1),
                 formatFixed(gates, 0),
                 formatFixed(area, 0),
                 formatFixed(power, 1)};
    std::ostringstream os;
    auto cmp = [&](const char *what, const std::string &want,
                   const std::string &have) {
        if (want != have)
            os << " " << what << " " << have << " (golden " << want << ")";
    };
    cmp("gate savings", row.gateSavings, got.gateSavings);
    cmp("area savings", row.areaSavings, got.areaSavings);
    cmp("power savings", row.powerSavings, got.powerSavings);
    cmp("gates", row.gates, got.gates);
    cmp("area", row.area, got.area);
    cmp("power", row.power, got.power);
    return os.str();
}

} // namespace perfbench
