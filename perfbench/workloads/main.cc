/**
 * @file
 * Benchmark program: runs one workload and prints, as its last stdout
 * line, {"correct", "attempted", "failed", "metrics"}. Untraced runs
 * (--trace 0) report the end-to-end metrics; traced runs (--trace 1)
 * report the per-layer metrics from the spans and counts the workload
 * recorded. perfbench/run.py builds this binary and forwards its flags;
 * see perfbench/README.md.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--root DIR] [--work-dir DIR] [--record FILE]
 */

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "workloads/common.hh"
#include "src/util/logging.hh"

using namespace perfbench;
using bespoke::JsonValue;

namespace
{

struct Metric
{
    const char *name;
    const char *unit;
};

const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},
    {"latency_p50_s", "s"},     {"latency_p90_s", "s"},
    {"ok_share", "share"},      {"peak_rss_mb", "MB"},
    {"area_saving_pct", "%"},   {"power_saving_pct", "%"},
};

const std::vector<Metric> kPerLayer = {
    {"analysis.busy_s", "s"},
    {"analysis.calls", "count"},
    {"analysis.paths", "count"},
    {"analysis.cycles", "count"},
    {"analysis.gate_evals", "count"},
    {"analysis.forks", "count"},
    {"analysis.merges", "count"},
    {"analysis.cycles_per_s", "1/s"},
    {"analysis.lane_occupancy", "share"},
    {"transform.busy_s", "s"},
    {"transform.gates_in", "count"},
    {"transform.gates_out", "count"},
    {"timing.busy_s", "s"},
    {"timing.calls", "count"},
    {"power.busy_s", "s"},
    {"sim.context_builds", "count"},
    {"sim.context_s", "s"},
    {"verify.replay_s", "s"},
    {"verify.replay_runs", "count"},
    {"verify.replay_cycles", "count"},
    {"verify.replay_cycles_per_s", "1/s"},
    {"verify.replay_batched_share", "share"},
    {"verify.replay_unhalted", "count"},
    {"bespoke.measure_s", "s"},
    {"bespoke.measure_self_s", "s"},
    {"bespoke.measure_calls", "count"},
    {"bespoke.equiv_s", "s"},
    {"bespoke.equiv_paths", "count"},
    {"bespoke.equiv_cycles", "count"},
    {"bespoke.equiv_outputs", "count"},
    {"bespoke.refute_s", "s"},
    {"sat.equiv_s", "s"},
    {"sat.vars", "count"},
    {"sat.clauses", "count"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"sat.queries", "count"},
    {"sat.unknown", "count"},
    {"sat.never_toggle_proven", "count"},
    {"service.queue_wait_s", "s"},
    {"service.job_s", "s"},
    {"service.failed_jobs", "count"},
    {"checkpoint.hits", "count"},
    {"checkpoint.misses", "count"},
    {"checkpoint.hit_ratio", "share"},
    {"mutation.mutants", "count"},
    {"mutation.detected", "count"},
    {"mutation.sweep_job_s", "s"},
    {"op.self_s", "s"},
    {"trace.overhead_share", "share"},
    {"trace.spans", "count"},
    {"determinism.checked", "count"},
    {"determinism.drifts", "count"},
};

/** Span name -> the per-layer busy-time metric it feeds. */
const std::map<std::string, std::string> kSpanLayer = {
    {"BespokeFlow::analyze", "analysis.busy_s"},
    {"runTailorPipeline", "transform.busy_s"},
    {"cutAndStitch", "transform.busy_s"},
    {"sizeForLoads", "timing.busy_s"},
    {"analyzeTiming", "timing.busy_s"},
    {"computePower", "power.busy_s"},
    {"SocContext::make", "sim.context_s"},
    {"runWorkloadGateBatch", "verify.replay_s"},
    {"BespokeFlow::measure", "bespoke.measure_s"},
    {"checkSymbolicEquivalence", "bespoke.equiv_s"},
    {"sat::proveEquivalentSat", "sat.equiv_s"},
};

/** Leaf layers compared when naming the dominant one. */
const std::vector<std::string> kLeafLayers = {
    "analysis.busy_s", "transform.busy_s", "timing.busy_s",
    "power.busy_s",    "sim.context_s",    "verify.replay_s",
    "bespoke.equiv_s", "sat.equiv_s",
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** FNV-1a of this executable: determinism ledgers are per build. */
std::string
executableHash()
{
    std::ifstream is("/proc/self/exe", std::ios::binary);
    uint64_t h = 1469598103934665603ull;
    char buf[1 << 16];
    while (is.read(buf, sizeof(buf)) || is.gcount() > 0) {
        for (std::streamsize i = 0; i < is.gcount(); i++) {
            h ^= static_cast<unsigned char>(buf[i]);
            h *= 1099511628211ull;
        }
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

std::map<std::string, double>
endToEnd(const Run &run)
{
    Percentile p50 = run.latencyPercentile(50);
    Percentile p90 = run.latencyPercentile(90);
    return {
        {"setup_s", median(run.setupSeconds)},
        {"ops_per_s", median(run.roundRates)},
        {"latency_p50_s", p50.value},
        {"latency_p90_s", p90.value},
        {"ok_share", 1.0 - run.ledger.failedShare()},
        {"peak_rss_mb", peakRssMb()},
        {"area_saving_pct", mean(run.areaSavingPct)},
        {"power_saving_pct", mean(run.powerSavingPct)},
    };
}

std::map<std::string, double>
perLayer(const Run &run)
{
    std::map<std::string, double> m = run.counters;
    std::vector<Span> spans = run.tracer.spans();
    std::vector<double> self = selfTimes(spans);
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        auto it = kSpanLayer.find(s.name);
        if (it != kSpanLayer.end())
            m[it->second] += s.end - s.start;
        if (s.name == "sizeForLoads" || s.name == "analyzeTiming")
            m["timing.calls"] += 1;
        if (s.name == "SocContext::make")
            m["sim.context_builds"] += 1;
        if (s.name == "BespokeFlow::measure")
            m["bespoke.measure_self_s"] += self[i];
        if (s.parent < 0)
            m["op.self_s"] += self[i];
    }
    m["analysis.cycles_per_s"] =
        ratio(m["analysis.cycles"], m["analysis.busy_s"]);
    m["analysis.lane_occupancy"] =
        ratio(m["analysis.lane_cycles"], m["analysis.lane_slots"]);
    m["verify.replay_cycles_per_s"] =
        ratio(m["verify.replay_cycles"], m["verify.replay_s"]);
    m["verify.replay_batched_share"] =
        ratio(m["verify.replay_batched_runs"], m["verify.replay_runs"]);
    m["checkpoint.hit_ratio"] =
        ratio(m["checkpoint.hits"],
              m["checkpoint.hits"] + m["checkpoint.misses"]);
    m["trace.overhead_share"] =
        ratio(run.tracedOpSeconds, run.untracedOpSeconds) - 1.0;
    m["trace.spans"] = static_cast<double>(spans.size());
    m["determinism.checked"] =
        static_cast<double>(run.determinism.checked());
    m["determinism.drifts"] =
        static_cast<double>(run.determinism.drifts().size());
    return m;
}

JsonValue
metricsJson(const std::vector<Metric> &names,
            std::map<std::string, double> values)
{
    JsonValue out = JsonValue::object();
    for (const Metric &mt : names) {
        JsonValue v = JsonValue::object();
        v.set("value", JsonValue::number(values[mt.name]));
        v.set("unit", JsonValue::str(mt.unit));
        out.set(mt.name, std::move(v));
    }
    return out;
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload tailor|verify|multiprogram|"
                 "service --seed N --seconds S --trace 0|1 [--root DIR] "
                 "[--work-dir DIR] [--record FILE]\n";
    std::exit(2);
}

RunConfig
parseArgs(int argc, char **argv)
{
    RunConfig cfg;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        std::string v = argv[++i];
        try {
            if (arg == "--workload")
                cfg.workload = v;
            else if (arg == "--seed")
                cfg.seed = std::stoull(v);
            else if (arg == "--seconds")
                cfg.seconds = std::stod(v);
            else if (arg == "--trace")
                cfg.trace = std::stoi(v) != 0;
            else if (arg == "--root")
                cfg.root = v;
            else if (arg == "--work-dir")
                cfg.workDir = v;
            else if (arg == "--record")
                cfg.recordPath = v;
            else
                usage("unknown flag " + arg);
        } catch (const std::exception &) {
            usage("bad value '" + v + "' for " + arg);
        }
    }
    if (cfg.workload.empty())
        usage("--workload is required");
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    bespoke::setVerbose(false);
    RunConfig cfg = parseArgs(argc, argv);
    const std::map<std::string, void (*)(Run &)> workloads = {
        {"tailor", runTailor},
        {"verify", runVerify},
        {"multiprogram", runMultiprogram},
        {"service", runService},
    };
    auto entry = workloads.find(cfg.workload);
    if (entry == workloads.end())
        usage("unknown workload '" + cfg.workload + "'");

    Run run(cfg);
    std::filesystem::create_directories(cfg.workDir);
    std::string ledger_path = cfg.workDir + "/determinism-" +
                              executableHash() + "-" + cfg.workload + ".json";
    try {
        std::string err;
        if (cfg.trace && !run.determinism.load(ledger_path, &err))
            throw std::runtime_error(err);
        entry->second(run);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << cfg.workload << ": " << e.what()
                  << "\n";
        return 1;
    }

    Percentile p50 = run.latencyPercentile(50);
    Percentile p90 = run.latencyPercentile(90);
    std::printf("workload %s seed %llu: %zu ops in %zu rounds, %.3f s, "
                "latency p50 %.4f s / p90 %.4f s over %zu samples of %zu "
                "op kinds (%s), setup median of %zu\n",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed),
                run.latencies.size(), run.roundRates.size(),
                run.measuredSeconds, p50.value, p90.value, p90.samples,
                run.latenciesByKind.size(),
                run.pooledLatency ? "pooled" : "per-kind medians",
                run.setupSeconds.size());
    for (const std::string &f : run.ledger.failures())
        std::printf("FAILED %s\n", f.c_str());

    JsonValue metrics;
    if (cfg.trace) {
        std::map<std::string, double> layers = perLayer(run);
        std::string dominant;
        for (const std::string &l : kLeafLayers) {
            if (dominant.empty() || layers[l] > layers[dominant])
                dominant = l;
        }
        std::printf("dominant layer: %s (expected %s)\n", dominant.c_str(),
                    run.expectedDominant.empty()
                        ? "none named"
                        : run.expectedDominant.c_str());
        for (const std::string &d : run.determinism.drifts())
            std::printf("DRIFT %s\n", d.c_str());
        std::string trace_path = cfg.workDir + "/trace-" + cfg.workload +
                                 "-" + std::to_string(cfg.seed) + ".json";
        if (!run.tracer.writeJson(trace_path) ||
            !run.determinism.save(ledger_path)) {
            std::cerr << "perfbench: cannot write to " << cfg.workDir
                      << "\n";
            return 1;
        }
        std::printf("spans written to %s\n", trace_path.c_str());
        metrics = metricsJson(kPerLayer, layers);
    } else {
        metrics = metricsJson(kEndToEnd, endToEnd(run));
    }

    JsonValue result = JsonValue::object();
    result.set("correct",
               JsonValue::boolean(run.ledger.failed() == 0 &&
                                  run.determinism.drifts().empty()));
    result.set("attempted", JsonValue::number(
                                static_cast<double>(run.ledger.attempted())));
    result.set("failed",
               JsonValue::number(static_cast<double>(run.ledger.failed())));
    result.set("metrics", std::move(metrics));
    std::printf("%s\n", result.dump().c_str());
    return 0;
}
