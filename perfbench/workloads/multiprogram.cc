/**
 * @file
 * `multiprogram` workload, the Fig. 13 design-space user: set-up
 * analyzes every app once through BespokeFlow::analyze. Each op is one
 * sweep, a point of Fig. 13: for one combination size it merges the
 * activities of every combination of that size the seed picked, cuts,
 * re-sizes and measures each design at the default 2 power inputs per
 * app. The seed picks each round's combinations (see roundSweeps) and
 * orders the sweeps. Oracle: gates and area never exceed the baseline,
 * and a combination listed in perfbench/expected/multiprogram.json
 * reproduces its recorded gates, area and power.
 */

#include <algorithm>
#include <fstream>

#include "workloads/common.hh"
#include "src/timing/sta.hh"

namespace perfbench
{

using namespace bespoke;

namespace
{

/** Sizes of the cyclic windows that make up the op list. */
const std::vector<size_t> kWindowSizes = {2, 3, 5};

/**
 * The apps in three strata of five by the cost of their power replay
 * (heaviest first), measured on the baseline core. The seed shuffles
 * apps only within a stratum, so it cannot cluster the expensive apps.
 */
const std::vector<std::vector<std::string>> kStrata = {
    {"viterbi", "FFT", "autocorr", "intFilt", "inSort"},
    {"tea8", "convEn", "intAVG", "rle", "tHold"},
    {"irq", "binSearch", "div", "mult", "dbg"},
};

/** One op: the designs of every combination of one sweep. */
struct Sweep
{
    std::string kind;
    std::vector<std::vector<size_t>> combos;
};

/**
 * The sweeps of one round. For each window size the seed arranges the
 * apps on a circle of its own, strata interleaved (position p holds a
 * stratum p % 3 app), and every window of that many consecutive apps
 * is one combination of the size's sweep: 15 per size. The all-apps
 * design is a sweep of its own. Each app sits in `size` windows of a
 * sweep and each window holds the same strata, whatever the seed, so a
 * sweep's work stays put while the seed decides which apps share a
 * design. Each round draws fresh circles. App indices within a
 * combination are ascending.
 */
std::vector<Sweep>
roundSweeps(const RunConfig &cfg, const std::vector<Workload> &apps,
            int round)
{
    std::vector<Sweep> sweeps;
    int stream = 0;
    for (size_t size : kWindowSizes) {
        std::vector<size_t> circle(apps.size());
        for (size_t s = 0; s < kStrata.size(); s++) {
            // Negative rounds give the circles seeded streams of their
            // own, apart from the ones that order the sweeps.
            std::vector<size_t> order = roundOrder(
                cfg, kStrata[s].size(),
                -1 - (round * static_cast<int>(kWindowSizes.size() *
                                               kStrata.size()) +
                      stream++));
            for (size_t i = 0; i < order.size(); i++) {
                const std::string &name = kStrata[s][order[i]];
                size_t idx = 0;
                while (apps.at(idx).name != name)
                    idx++;
                circle.at(i * kStrata.size() + s) = idx;
            }
        }
        Sweep sw{"size-" + std::to_string(size), {}};
        for (size_t start = 0; start < circle.size(); start++) {
            std::vector<size_t> c;
            for (size_t i = 0; i < size; i++)
                c.push_back(circle[(start + i) % circle.size()]);
            std::sort(c.begin(), c.end());
            sw.combos.push_back(std::move(c));
        }
        sweeps.push_back(std::move(sw));
    }
    std::vector<size_t> all(apps.size());
    for (size_t i = 0; i < all.size(); i++)
        all[i] = i;
    sweeps.push_back({"all-" + std::to_string(apps.size()), {all}});
    return sweeps;
}

struct Built
{
    Netlist netlist;
    CutStats cut;
    DesignMetrics metrics;
};

Built
buildCombo(Run *traced, BespokeFlow &flow,
           const std::vector<AnalysisResult> &acts,
           const std::vector<size_t> &combo,
           const std::vector<const Workload *> &members, int64_t op)
{
    Tracer untraced(false);
    Tracer &tr = traced ? traced->tracer : untraced;
    Tracer::Scope whole(tr, "op:multiprogram", op);
    Built b;
    ActivityTracker merged = *acts[combo[0]].activity;
    {
        Tracer::Scope s(tr, "ActivityTracker::mergeFrom", op);
        for (size_t k = 1; k < combo.size(); k++)
            merged.mergeFrom(*acts[combo[k]].activity);
    }
    {
        Tracer::Scope s(tr, "cutAndStitch", op);
        b.netlist = cutAndStitch(flow.baseline(), merged, &b.cut);
    }
    {
        Tracer::Scope s(tr, "sizeForLoads", op);
        sizeForLoads(b.netlist, flow.options().timing);
    }
    b.metrics = traced ? tracedMeasure(*traced, flow, b.netlist, members, op)
                       : flow.measure(b.netlist, members);
    return b;
}

JsonValue
designJson(const DesignMetrics &m)
{
    JsonValue o = JsonValue::object();
    o.set("gates", JsonValue::number(static_cast<double>(m.gates)));
    o.set("area_um2", JsonValue::number(m.areaUm2));
    o.set("power_uw", JsonValue::number(m.powerNominal.totalUW()));
    return o;
}

} // namespace

void
runMultiprogram(Run &run)
{
    const std::vector<Workload> &apps = workloads();
    JsonValue expected;
    std::string err;
    bool recording = !run.cfg.recordPath.empty();
    if (!recording &&
        !readJson(run.cfg.root + "/perfbench/expected/multiprogram.json",
                  &expected, &err))
        throw std::runtime_error(err);
    const JsonValue *recorded = expected.find("designs");
    JsonValue record = JsonValue::object();

    std::unique_ptr<BespokeFlow> flow;
    std::vector<AnalysisResult> acts;
    DesignMetrics base;
    timedSetups(run, [&] {
        flow = std::make_unique<BespokeFlow>(FlowOptions{});
        acts.clear();
        for (const Workload &w : apps)
            acts.push_back(flow->analyze(w));
        std::vector<const Workload *> all;
        for (const Workload &w : apps)
            all.push_back(&w);
        base = flow->measureBaseline(all);
    });

    run.expectedDominant = "verify.replay_s";
    forRounds(run, [&](int round) {
        std::vector<Sweep> sweeps = roundSweeps(run.cfg, apps, round);
        for (size_t k : roundOrder(run.cfg, sweeps.size(), round)) {
            const Sweep &sw = sweeps[k];
            int64_t op = static_cast<int64_t>(run.latencies.size());
            double sweep_seconds = 0.0;
            std::string why;
            for (const std::vector<size_t> &combo : sw.combos) {
                std::vector<const Workload *> members;
                std::string key;
                for (size_t i : combo) {
                    members.push_back(&apps[i]);
                    key += (key.empty() ? "" : "+") + apps[i].name;
                }
                double t0 = nowSeconds();
                Built b =
                    buildCombo(nullptr, *flow, acts, combo, members, op);
                double lat = nowSeconds() - t0;
                sweep_seconds += lat;

                const DesignMetrics &m = b.metrics;
                if (m.gates > base.gates || m.areaUm2 > base.areaUm2)
                    why += " " + key + " exceeds the baseline";
                const JsonValue *want =
                    recorded ? recorded->find(key) : nullptr;
                if (want && want->dump() != designJson(m).dump())
                    why += " " + key + " recorded " + want->dump() +
                           ", got " + designJson(m).dump();
                if (recording)
                    record.set(key, designJson(m));
                if (run.cfg.trace) {
                    double cycles0 = run.counters["verify.replay_cycles"];
                    double t1 = nowSeconds();
                    Built tb =
                        buildCombo(&run, *flow, acts, combo, members, op);
                    run.untracedOpSeconds += lat;
                    run.tracedOpSeconds += nowSeconds() - t1;
                    if (tb.netlist.contentHash() != b.netlist.contentHash() ||
                        !sameMetrics(tb.metrics, m))
                        why += " " + key +
                               " traced breakdown differs from measure()";
                    std::string dkey = "multiprogram/" + key;
                    run.count("transform.gates_in",
                              static_cast<double>(tb.cut.gatesBefore));
                    run.count("transform.gates_out",
                              static_cast<double>(tb.cut.gatesAfter));
                    run.determinism.record(
                        dkey, "transform.gates_out",
                        static_cast<double>(tb.cut.gatesAfter));
                    run.determinism.record(
                        dkey, "verify.replay_cycles",
                        run.counters["verify.replay_cycles"] - cycles0);
                }
                run.areaSavingPct.push_back(
                    savingPct(base.areaUm2, m.areaUm2));
                run.powerSavingPct.push_back(
                    savingPct(base.powerNominal.totalUW(),
                              m.powerNominal.totalUW()));
            }
            run.addLatency(sw.kind, sweep_seconds);
            run.ledger.check(why.empty(),
                             "multiprogram " + sw.kind + ":" + why);
        }
    });

    if (recording) {
        JsonValue doc = JsonValue::object();
        doc.set("seed", JsonValue::number(static_cast<double>(run.cfg.seed)));
        doc.set("designs", std::move(record));
        std::ofstream os(run.cfg.recordPath);
        os << doc.dump(2) << "\n";
        if (!os)
            throw std::runtime_error("cannot write " + run.cfg.recordPath);
    }
}

} // namespace perfbench
