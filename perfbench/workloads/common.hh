/**
 * @file
 * State shared by the four benchmark workloads: the run configuration,
 * what a run measured, the broken-down (traced) replica of
 * BespokeFlow::measure, and the oracle/metric helpers.
 *
 * Every workload follows one shape. It sets up kSetups times (the
 * median is `setup_s`), then repeats its op list in whole rounds until
 * `--seconds` have passed, and at least kMinRounds times. Throughput is
 * the median over rounds and latency percentiles are taken over each
 * op kind's median (or over all samples, see Run::pooledLatency), so a
 * burst of load on the host that slows one round moves neither. The
 * seed only orders the ops of a round and picks multiprogram
 * combinations; the library sees the generated inputs and nothing
 * else. With `--trace 1` every op also runs as a broken-down,
 * span-wrapped replica whose result must equal the untraced call bit
 * for bit.
 */

#ifndef PERFBENCH_WORKLOADS_COMMON_HH
#define PERFBENCH_WORKLOADS_COMMON_HH

#include <map>
#include <string>
#include <vector>

#include "harness/harness.hh"
#include "src/bespoke/flow.hh"
#include "src/util/json.hh"

namespace perfbench
{

/** Timed set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;

/** Fewest op rounds per run, so per-kind medians have 3 samples. */
constexpr int kMinRounds = 3;

struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Repository root: reads bench/baselines from here. */
    std::string root = ".";
    /** Scratch directory for checkpoints, traces and ledgers. */
    std::string workDir = ".bench_build/perfbench-work";
    /** When set, the multiprogram workload writes its results here
     *  instead of checking them (re-recording expected values). */
    std::string recordPath;
};

/** Everything one run measured. */
struct Run
{
    explicit Run(RunConfig c) : cfg(std::move(c)), tracer(cfg.trace) {}

    RunConfig cfg;
    Tracer tracer;
    OpLedger ledger;
    DeterminismLedger determinism;

    std::vector<double> setupSeconds;
    std::vector<double> latencies;  ///< one per op, seconds
    /** The same latencies by op kind (app, combination or job). */
    std::map<std::string, std::vector<double>> latenciesByKind;
    std::vector<double> roundRates; ///< ops per second of each round
    /**
     * Take latency percentiles over every sample rather than over each
     * kind's median. Set where an op's latency depends on its place in
     * the round (queueing on `service`), so that a kind's samples spread
     * widely and its median is itself noisy.
     */
    bool pooledLatency = false;
    double measuredSeconds = 0.0;   ///< wall time of the op rounds
    std::vector<double> areaSavingPct;
    std::vector<double> powerSavingPct;

    /** Per-layer counts recorded by the workloads (traced runs). */
    std::map<std::string, double> counters;
    /** Untraced vs traced op time, for the tracing overhead. */
    double untracedOpSeconds = 0.0;
    double tracedOpSeconds = 0.0;
    /** Layer the trace must show as dominant ("" = none named). */
    std::string expectedDominant;

    void count(const std::string &name, double v) { counters[name] += v; }

    /** The p-th latency percentile of the run (see pooledLatency). */
    Percentile latencyPercentile(double p) const
    {
        return pooledLatency ? percentile(latencies, p)
                             : percentileOfMedians(latenciesByKind, p);
    }

    /** Record one op's latency under its kind. */
    void addLatency(const std::string &kind, double seconds)
    {
        latencies.push_back(seconds);
        latenciesByKind[kind].push_back(seconds);
    }
};

/** Time `fn` kSetups times into run.setupSeconds; the last result wins. */
template <typename Fn>
void
timedSetups(Run &run, Fn &&fn)
{
    for (int i = 0; i < kSetups; i++) {
        double t0 = nowSeconds();
        fn();
        run.setupSeconds.push_back(nowSeconds() - t0);
    }
}

/**
 * Repeat `round(r)` for r = 0, 1, ... until the configured seconds
 * have passed and at least kMinRounds rounds ran; rounds always
 * complete, so every run measures whole op lists. Sets
 * run.measuredSeconds and records each round's ops per second.
 */
template <typename Fn>
void
forRounds(Run &run, Fn &&round)
{
    double t0 = nowSeconds();
    int r = 0;
    do {
        size_t ops = run.latencies.size();
        double r0 = nowSeconds();
        round(r++);
        run.roundRates.push_back(
            static_cast<double>(run.latencies.size() - ops) /
            (nowSeconds() - r0));
    } while (r < kMinRounds || nowSeconds() - t0 < run.cfg.seconds);
    run.measuredSeconds = nowSeconds() - t0;
}

/** Seeded permutation of 0..n-1 for one round. */
std::vector<size_t> roundOrder(const RunConfig &cfg, size_t n, int round);

/** Percentage reduction of `value` relative to `base`. */
double savingPct(double base, double value);

/** True iff every DesignMetrics field matches bit for bit. */
bool sameMetrics(const bespoke::DesignMetrics &a,
                 const bespoke::DesignMetrics &b);

/**
 * BespokeFlow::measure() broken down into its public calls, each in a
 * span (analyzeTiming, SocContext::make, runWorkloadGateBatch,
 * computePower), recording replay counters. Must equal flow.measure()
 * on the same inputs; the workloads check that it does.
 */
bespoke::DesignMetrics tracedMeasure(
    Run &run, const bespoke::BespokeFlow &flow, const bespoke::Netlist &nl,
    const std::vector<const bespoke::Workload *> &apps, int64_t op);

/** One row of bench/baselines/fig11_savings.full.json. */
struct Fig11Row
{
    std::string gateSavings, areaSavings, powerSavings;
    std::string gates, area, power;
};

/** Load the Fig. 11 golden rows, keyed by app name. */
bool loadFig11Rows(const std::string &root,
                   std::map<std::string, Fig11Row> *out, std::string *err);

/**
 * Compare a tailored design against its Fig. 11 row, formatting the
 * measured values as the bench does. Returns "" on a match, else what
 * differs.
 */
std::string fig11Mismatch(const Fig11Row &row, double gates, double area,
                          double power, double base_gates,
                          double base_area, double base_power);

/** Load a JSON document from a file. */
bool readJson(const std::string &path, bespoke::JsonValue *out,
              std::string *err);

/** The workloads, one entry point each (perfbench/workloads/<name>.cc). */
void runTailor(Run &run);
void runVerify(Run &run);
void runMultiprogram(Run &run);
void runService(Run &run);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_COMMON_HH
