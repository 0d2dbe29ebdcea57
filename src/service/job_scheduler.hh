/**
 * @file
 * Concurrent tailoring job scheduler ("tailoring as a service",
 * ROADMAP item; DESIGN.md section 11 has the full semantics).
 *
 * A JobSpec is a small JSON document naming one unit of flow work —
 * tailor / verify / check / mutant_sweep on a workload, against the
 * built-in core or an imported netlist. The scheduler runs submitted
 * specs on a fixed set of runner threads (`jobThreads`), with three
 * isolation/fairness properties:
 *
 *  - Per-job isolation: every job gets its own BespokeFlow (own
 *    FlowOptions, own CheckpointStore instance), so one job's options
 *    or failure never leak into another, and per-job checkpoint
 *    hit/miss counters are exact.
 *
 *  - Cross-job dedup: all stores share one checkpoint directory and
 *    one CheckpointCoordinator, and artifacts are keyed purely by
 *    content hashes — identical jobs (same netlist, program, options)
 *    land on the same stage artifacts. In-flight dedup is "first
 *    runner computes, the rest block in lockStage() then load the
 *    saved artifact", so concurrent duplicates cost one computation.
 *
 *  - Fair thread sharing: jobs lease their analysis workers from one
 *    global ThreadBudget (strict FIFO) instead of each spawning its
 *    own `--threads`; a wide job cannot be starved and the process
 *    never oversubscribes the budget.
 *
 * Results carry a deterministic payload — bit-identical across
 * jobThreads/workerThreads schedules, which is what the
 * serial-vs-concurrent tests pin — separated from volatile
 * observability (wall clock, checkpoint hits, computed stages).
 * A failed job (bad spec, unreadable netlist, capped analysis,
 * inequivalence) is reported in its result; it never aborts the queue.
 */

#ifndef BESPOKE_SERVICE_JOB_SCHEDULER_HH
#define BESPOKE_SERVICE_JOB_SCHEDULER_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/bespoke/flow.hh"
#include "src/util/json.hh"
#include "src/util/worker_pool.hh"

namespace bespoke
{

/** One unit of flow work, parsed from a JSON job spec. */
struct JobSpec
{
    std::string id;    ///< defaults to "<kind>-<submit index>"
    std::string kind;  ///< tailor | verify | check | mutant_sweep
    /** Workloads by name; one entry for all kinds but multi-tailor. */
    std::vector<std::string> apps;
    /** Baseline netlist file (.v/.json); "" = build the core. */
    std::string netlist;
    /** Inline canonical-JSON netlist document text; "" = none. */
    std::string netlistInline;
    /** Core flavor when no netlist is given: "" | default | extended. */
    std::string core;
    /** check only: reference netlist file ("" = build the core). */
    std::string against;
    /** Analysis workers to lease from the budget (0 = whole budget).
     *  check jobs always lease one: the symbolic check runs on one
     *  worker. */
    int threads = 1;
    /** Flow overrides; 0 keeps the scheduler's base FlowOptions. */
    int powerInputs = 0;
    uint64_t powerSeed = 0;
    /** mutant_sweep knobs; 0 = MutantSweepOptions defaults / all. */
    int inputsPerMutant = 0;
    uint64_t mutantSeed = 0;
    int maxMutants = 0;
    /** tailor/verify: pass list override (parsePassList names);
     *  "" keeps the scheduler's base FlowOptions pass selection. */
    std::string passes;
    /** SAT never-toggle unrolling depth override (0 = keep base). */
    int satDepth = 0;
    /** SAT prover worker threads (0 = the job's leased analysis
     *  workers; explicit values are capped by the lease). Verdicts are
     *  thread-count-independent, so this never affects the
     *  deterministic payload. */
    int satThreads = 0;
};

/**
 * Parse one job-spec JSON object. Unknown keys and type mismatches
 * fail with a diagnostic; semantic checks (does the workload exist,
 * is the file readable) happen when the job runs.
 */
bool parseJobSpec(const JsonValue &doc, JobSpec *out, std::string *err);

/**
 * Parse a batch file: either a JSON array of specs or an object with
 * a "jobs" array member.
 */
bool parseJobList(const std::string &text, std::vector<JobSpec> *out,
                  std::string *err);

/** One flow stage a job actually computed (checkpoint hits skip it). */
struct JobStage
{
    std::string stage;
    double seconds = 0.0;
};

struct JobResult
{
    std::string id;
    std::string kind;
    bool ok = false;
    std::string error;  ///< empty iff ok
    /**
     * Kind-specific result payload. Deterministic by construction:
     * bit-identical for the same spec at any jobThreads/workerThreads
     * setting (schedule-dependent counters live in the fields below).
     */
    JsonValue payload;

    /** @name Volatile observability (excluded from deterministicJson) */
    /// @{
    double seconds = 0.0;
    size_t checkpointHits = 0;
    size_t checkpointMisses = 0;
    int threadsUsed = 0;        ///< analysis workers actually leased
    std::vector<JobStage> stages;
    /// @}

    /** id/kind/ok/error/payload only — the bit-stable comparison key. */
    JsonValue deterministicJson() const;
    /** Everything, including the volatile fields. */
    JsonValue toJson() const;
};

struct SchedulerOptions
{
    /** Concurrent jobs (runner threads). */
    int jobThreads = 1;
    /** Global analysis-worker budget (0 = one per hardware thread). */
    int workerThreads = 0;
    /** Shared stage-artifact directory ("" disables checkpointing). */
    std::string checkpointDir;
    uint64_t checkpointMaxBytes = 0;
    /** Base flow configuration every job starts from. */
    FlowOptions flow;
    /**
     * Backpressure cap: maximum outstanding (queued + running) jobs a
     * trySubmit() may add. 0 = unlimited. submit() ignores the cap
     * (batch mode loads a whole file deliberately); serve mode uses
     * trySubmit() so a fast producer on stdin cannot queue unbounded
     * memory.
     */
    size_t maxQueued = 0;
    /**
     * Structured progress stream: one JSON object per event
     * (job_start / stage / job_done). Serialized — invoked under a
     * lock, never concurrently. Null disables.
     */
    std::function<void(const JsonValue &event)> progress;
    /**
     * Invoked (serialized) as each job completes, in completion
     * order — the serve mode's result stream. Null disables.
     */
    std::function<void(const JobResult &result)> onResult;
};

/**
 * Structured result for a submission refused by the backpressure cap:
 * ok == false, empty payload, and an error naming the cap so stream
 * consumers can tell a rejection from a job that ran and failed. This
 * is the result line `bespoke_io serve` emits for a trySubmit()
 * refusal (`fallback_id` labels specs that carried no id).
 */
JobResult backpressureRejection(const std::string &id,
                                const std::string &kind,
                                size_t max_queued,
                                const std::string &fallback_id);

class JobScheduler
{
  public:
    explicit JobScheduler(SchedulerOptions opts);
    /** Drains outstanding jobs, then joins the runners. */
    ~JobScheduler();

    JobScheduler(const JobScheduler &) = delete;
    JobScheduler &operator=(const JobScheduler &) = delete;

    /**
     * Enqueue a job; returns its id (spec.id, or the generated
     * default). Safe from any thread, including while running.
     */
    std::string submit(JobSpec spec);

    /**
     * Enqueue a job unless the maxQueued backpressure cap is reached.
     * Returns false (and does not take the job) when outstanding jobs
     * are at the cap; otherwise behaves like submit(), storing the id
     * in *id_out when given.
     */
    bool trySubmit(JobSpec spec, std::string *id_out = nullptr);

    /**
     * Block until every submitted job has completed and return all
     * results so far, in submission order. The scheduler stays usable:
     * more jobs may be submitted afterwards (serve mode drains once
     * per EOF, batch mode once per file).
     */
    std::vector<JobResult> finish();

    const SchedulerOptions &options() const { return opts_; }
    /** Jobs whose results so far have ok == false. */
    size_t failures() const;

  private:
    void runnerLoop();
    JobResult runJob(const JobSpec &spec);
    void emitProgress(const JsonValue &event);
    /** Shared submit body; caller holds m_ and notifies wake_. */
    std::string submitLocked(JobSpec spec);

    SchedulerOptions opts_;
    std::shared_ptr<CheckpointCoordinator> coord_;
    ThreadBudget budget_;
    std::vector<std::thread> runners_;

    mutable std::mutex m_;
    std::condition_variable wake_;  ///< runners: work available / stop
    std::condition_variable idle_;  ///< finish(): everything completed
    std::deque<size_t> queue_;      ///< indices into specs_
    std::vector<JobSpec> specs_;
    std::vector<JobResult> results_;  ///< results_[i] <-> specs_[i]
    std::vector<bool> resultReady_;
    size_t outstanding_ = 0;  ///< queued + running
    bool stop_ = false;

    std::mutex progressM_;  ///< serializes progress/onResult callbacks
};

} // namespace bespoke

#endif // BESPOKE_SERVICE_JOB_SCHEDULER_HH
