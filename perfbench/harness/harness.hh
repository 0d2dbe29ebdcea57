/**
 * @file
 * Measurement harness of the repository benchmark: latency
 * percentiles with their sample count, the op ledger behind
 * `failed`/`attempted`, an in-memory span tracer with self times, and
 * the determinism ledger for counts that must repeat
 * exactly. Nothing here knows about the bespoke flow; the workloads
 * (perfbench/workloads) put spans around the calls they make into
 * the library's public entry points.
 */

#ifndef PERFBENCH_HARNESS_HARNESS_HH
#define PERFBENCH_HARNESS_HARNESS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Seconds on the steady clock since an arbitrary fixed epoch. */
double nowSeconds();

/** A percentile and the number of samples it was taken over. */
struct Percentile
{
    double value = 0.0;
    size_t samples = 0;
};

/**
 * Nearest-rank percentile: the smallest sample with at least p% of the
 * samples at or below it (p in (0, 100]). No samples give {0, 0}.
 */
Percentile percentile(std::vector<double> samples, double p);

/** Median (mean of the two middle samples when the count is even). */
double median(std::vector<double> samples);

/**
 * Percentile over ops that repeat: the median of each op kind's
 * samples, then the nearest-rank percentile p over those medians. A
 * sample slowed by a burst of load on the host moves its kind's median
 * little, so the figure is steadier than a percentile over the pooled
 * samples. `samples` counts every sample of every kind.
 */
Percentile percentileOfMedians(
    const std::map<std::string, std::vector<double>> &byKind, double p);

/**
 * Attempted ops and the ones that failed their oracle, hit a cap or
 * were rejected. Each failure keeps its reason for the report.
 */
class OpLedger
{
  public:
    void pass() { attempted_++; }
    void fail(const std::string &why);
    /** pass() if ok, else fail(why); returns ok. */
    bool check(bool ok, const std::string &why);

    size_t attempted() const { return attempted_; }
    size_t failed() const { return failures_.size(); }
    /** failed / attempted (0 when nothing was attempted). */
    double failedShare() const;
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    size_t attempted_ = 0;
    std::vector<std::string> failures_;
};

/** One traced interval. Times are nowSeconds() values. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;   ///< index of the enclosing span, -1 = root
    int64_t op = -1;   ///< op the span belongs to, -1 = none
};

/**
 * In-memory span recorder. Spans opened with a Scope nest on the
 * calling thread's stack; add() records a finished span measured
 * elsewhere (e.g. a job that ran on a scheduler thread). A disabled
 * tracer records nothing and costs one branch per scope.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** RAII span: opened on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, const std::string &name, int64_t op);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int id_ = -1;
    };

    /** Record a finished span; returns its index (-1 when disabled). */
    int add(const std::string &name, double start, double end, int parent,
            int64_t op);
    /** Index of the innermost open scope on this thread, -1 if none. */
    int current() const;

    std::vector<Span> spans() const;
    /** Write every span as one JSON array (name/start/end/parent/op). */
    bool writeJson(const std::string &path) const;

  private:
    int open(const std::string &name, int64_t op);
    void close(int id);

    bool enabled_;
    mutable std::mutex m_;
    std::vector<Span> spans_;  ///< guarded by m_
};

/**
 * Self time of every span in `spans` (same indexing): its duration
 * minus the union of its children's intervals inside it, so children
 * that ran in parallel are not subtracted twice.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/**
 * Counts that must repeat exactly between runs of the same code, keyed
 * by op identity (e.g. "tailor/viterbi") and counter name. record()
 * compares against what the same key held before, in this run or in
 * a ledger file an earlier run of the same build left behind, and
 * keeps every mismatch as a drift.
 */
class DeterminismLedger
{
  public:
    /** Load earlier counts; a missing file is an empty ledger. */
    bool load(const std::string &path, std::string *err);
    bool save(const std::string &path) const;

    void record(const std::string &key, const std::string &counter,
                double value);

    size_t checked() const { return checked_; }
    const std::vector<std::string> &drifts() const { return drifts_; }

  private:
    std::map<std::string, std::map<std::string, double>> counts_;
    size_t checked_ = 0;
    std::vector<std::string> drifts_;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HARNESS_HH
