/**
 * @file
 * Job-scheduler throughput: jobs/min on a mixed queue.
 *
 * Exercises the serving layer end to end the way `bespoke_io batch`
 * does: a queue of tailor jobs (every paper benchmark) plus one
 * mutant-sweep job, run concurrently on 4 runner threads with analysis
 * workers leased from a shared budget and stage artifacts in a shared
 * checkpoint store. The queue runs twice against the same store —
 * cold (every stage computed) and warm (every flow stage a checkpoint
 * hit) — which is the dedup path repeated and resumed batches take.
 *
 * Deterministic results (per-job ok + payload summaries, and
 * warm == cold payload equality) are pinned by the golden baselines;
 * throughput (jobs/min, wall seconds, warm hit counts) is recorded as
 * counters/volatile columns, never diffed.
 */

#include <unistd.h>

#include <filesystem>

#include "bench/bench_common.hh"
#include "src/service/job_scheduler.hh"

using namespace bespoke;

namespace
{

/** One queue of specs: every selected workload tailored + one sweep. */
std::vector<JobSpec>
buildQueue(bool quick)
{
    std::vector<JobSpec> queue;
    size_t limit = quick ? 6 : workloads().size();
    size_t n = 0;
    for (const Workload &w : workloads()) {
        if (n++ == limit)
            break;
        JobSpec spec;
        spec.id = "tailor-" + w.name;
        spec.kind = "tailor";
        spec.apps = {w.name};
        queue.push_back(std::move(spec));
    }
    JobSpec sweep;
    sweep.id = "sweep-mult";
    sweep.kind = "mutant_sweep";
    sweep.apps = {"mult"};
    sweep.maxMutants = quick ? 6 : 24;
    sweep.inputsPerMutant = 2;
    queue.push_back(std::move(sweep));
    return queue;
}

std::vector<JobResult>
runQueue(const std::vector<JobSpec> &queue, const std::string &dir,
         const BenchIO &io, double *seconds)
{
    SchedulerOptions sopts;
    sopts.jobThreads = 4;
    sopts.workerThreads = io.threads();
    sopts.checkpointDir = dir;
    sopts.flow = io.flowOptions();
    sopts.flow.powerInputsPerWorkload = 1;
    JobScheduler sched(std::move(sopts));
    auto t0 = std::chrono::steady_clock::now();
    for (const JobSpec &spec : queue)
        sched.submit(spec);
    std::vector<JobResult> results = sched.finish();
    *seconds = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    return results;
}

/** Deterministic one-cell summary of a job's payload. */
std::string
resultCell(const JobResult &r)
{
    if (!r.ok)
        return "error: " + r.error;
    if (r.kind == "mutant_sweep") {
        const JsonValue *d = r.payload.find("detected");
        const JsonValue *m = r.payload.find("mutants");
        return formatFixed(d->asNumber(), 0) + "/" +
               formatFixed(m->asNumber(), 0) + " detected";
    }
    const JsonValue *g = r.payload.find("gates_after");
    const JsonValue *p = r.payload.find("power_vmin_uw");
    return formatFixed(g->asNumber(), 0) + " gates, " +
           formatFixed(p->asNumber(), 2) + " uW";
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "jobs_throughput");
    banner("Tailoring job scheduler throughput",
           "the Fig. 5 flow as a service");

    std::string dir = std::filesystem::temp_directory_path() /
                      ("bespoke_jobs_throughput_" +
                       std::to_string(static_cast<long>(getpid())));
    std::filesystem::remove_all(dir);

    std::vector<JobSpec> queue = buildQueue(io.quick());
    double cold_secs = 0.0, warm_secs = 0.0;
    std::vector<JobResult> cold =
        runQueue(queue, dir, io, &cold_secs);
    std::vector<JobResult> warm =
        runQueue(queue, dir, io, &warm_secs);
    std::filesystem::remove_all(dir);

    Table table({"job", "kind", "ok", "result", "cold (s)",
                 "warm (s)"});
    size_t ok_count = 0;
    size_t warm_matches = 0;
    size_t warm_hits = 0;
    for (size_t i = 0; i < cold.size(); i++) {
        const JobResult &r = cold[i];
        ok_count += r.ok;
        warm_matches += warm[i].deterministicJson().dump() ==
                        r.deterministicJson().dump();
        warm_hits += warm[i].checkpointHits;
        table.row()
            .add(r.id)
            .add(r.kind)
            .add(r.ok ? "yes" : "no")
            .add(resultCell(r))
            .add(r.seconds, 3)
            .add(warm[i].seconds, 3);
    }
    // Wall-clock columns are machine speed, not results.
    io.table("jobs", table, "Mixed job queue (cold vs warm store)",
             {4, 5});

    io.metric("jobs_total", static_cast<double>(cold.size()));
    io.metric("jobs_ok", static_cast<double>(ok_count));
    // Warm results must be bit-identical to cold ones: same payloads,
    // recomputed nothing (pinned exactly — a dedup regression flips it).
    io.metric("warm_matches_cold", static_cast<double>(warm_matches));

    io.counter("cold_seconds", cold_secs);
    io.counter("warm_seconds", warm_secs);
    io.counter("jobs_per_min_cold", 60.0 * cold.size() / cold_secs);
    io.counter("jobs_per_min_warm", 60.0 * warm.size() / warm_secs);
    io.counter("warm_checkpoint_hits",
               static_cast<double>(warm_hits));

    std::printf("\ncold: %.2fs (%.1f jobs/min)   warm: %.2fs "
                "(%.1f jobs/min)\n",
                cold_secs, 60.0 * cold.size() / cold_secs, warm_secs,
                60.0 * warm.size() / warm_secs);
    return io.finish();
}
