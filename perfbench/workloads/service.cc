/**
 * @file
 * `service` workload: one closed batch per round, submitted all at
 * once to a JobScheduler (jobThreads 2, workerThreads 2) over a fresh
 * checkpoint directory. The batch mixes default tailor jobs (some
 * repeated, so checkpoint writes sit beside checkpoint hits), one
 * tailor job with passes `all,sat-never-toggle`, verify jobs, a check
 * job and a mutant_sweep job; the seed orders the submissions. Latency
 * runs from submit to the onResult callback. Oracle: default tailor
 * jobs match their Fig. 11 rows, the cost-driven job cuts below the
 * baseline and gives every SAT candidate a verdict, verify/check jobs
 * prove equivalence, and the sweep reports its mutants.
 */

#include <filesystem>
#include <mutex>
#include <unistd.h>

#include "workloads/common.hh"
#include "src/service/job_scheduler.hh"

namespace perfbench
{

using namespace bespoke;

namespace
{

struct ServiceJob
{
    const char *kind;
    const char *app;
    const char *passes = "";
    int maxMutants = 0;
};

/** The batch of every round; the seed only permutes it. */
const std::vector<ServiceJob> kBatch = {
    {"tailor", "intAVG"},      {"tailor", "tHold"},
    {"tailor", "binSearch"},   {"tailor", "div"},
    {"tailor", "convEn"},      {"tailor", "dbg"},
    {"tailor", "intAVG"},      {"tailor", "binSearch"},
    {"tailor", "convEn"},      {"tailor", "dbg", "all,sat-never-toggle"},
    {"verify", "div"},         {"verify", "intFilt"},
    {"check", "mult"},         {"mutant_sweep", "tHold", "", 16},
};

/** When each job was submitted, started and reported, by job id. */
struct JobTimes
{
    std::mutex m;
    std::map<std::string, double> submit, start, done;  ///< guarded by m
};

struct Batch
{
    std::vector<JobSpec> specs;
    std::vector<JobResult> results;  ///< submission order
    /** Per job, submission order: submitted, started, reported. */
    std::vector<double> submitAt, startAt, doneAt;
    double seconds = 0.0;

    double latency(size_t i) const { return doneAt[i] - submitAt[i]; }
    double queueWait(size_t i) const { return startAt[i] - submitAt[i]; }
};

Batch
runBatch(const RunConfig &cfg, int round, const std::string &dir)
{
    Batch b;
    for (size_t k : roundOrder(cfg, kBatch.size(), round)) {
        const ServiceJob &j = kBatch[k];
        JobSpec s;
        s.id = std::string(j.kind) + "-" + j.app + "-" + std::to_string(k);
        s.kind = j.kind;
        s.apps = {j.app};
        s.passes = j.passes;
        s.maxMutants = j.maxMutants;
        b.specs.push_back(std::move(s));
    }
    JobTimes times;
    SchedulerOptions so;
    so.jobThreads = 2;
    so.workerThreads = 2;
    so.checkpointDir = dir;
    so.progress = [&](const JsonValue &ev) {
        const JsonValue *kind = ev.find("event");
        if (kind && kind->asString() == "job_start") {
            std::lock_guard<std::mutex> g(times.m);
            times.start[ev.find("job")->asString()] = nowSeconds();
        }
    };
    so.onResult = [&](const JobResult &r) {
        std::lock_guard<std::mutex> g(times.m);
        times.done[r.id] = nowSeconds();
    };
    double t0 = nowSeconds();
    {
        JobScheduler sched(so);
        for (const JobSpec &s : b.specs) {
            {
                std::lock_guard<std::mutex> g(times.m);
                times.submit[s.id] = nowSeconds();
            }
            sched.submit(s);
        }
        b.results = sched.finish();
    }
    b.seconds = nowSeconds() - t0;
    std::lock_guard<std::mutex> g(times.m);
    for (const JobSpec &s : b.specs) {
        b.submitAt.push_back(times.submit[s.id]);
        b.startAt.push_back(times.start[s.id]);
        b.doneAt.push_back(times.done[s.id]);
    }
    return b;
}

double
payloadNumber(const JobResult &r, const char *key)
{
    const JsonValue *v = r.payload.find(key);
    return v && v->isNumber() ? v->asNumber() : -1.0;
}

/** Oracle of the cost-driven + SAT-pass tailor job: a design smaller
 *  than the baseline, and every SAT candidate given a verdict. */
std::string
satPassMismatch(const JobResult &r, const DesignMetrics &base)
{
    std::string why;
    if (payloadNumber(r, "gates_after") >= static_cast<double>(base.gates))
        why += " design is not smaller than the baseline";
    const JsonValue *sat = r.payload.find("sat_never_toggle");
    auto n = [&](const char *k) {
        const JsonValue *v = sat ? sat->find(k) : nullptr;
        return v && v->isNumber() ? v->asNumber() : -1.0;
    };
    if (!sat || n("candidates") < 0 ||
        n("candidates") != n("proven") + n("refuted") + n("unknown"))
        why += " SAT pass report incomplete";
    return why;
}

} // namespace

void
runService(Run &run)
{
    std::map<std::string, Fig11Row> golden;
    std::string err;
    if (!loadFig11Rows(run.cfg.root, &golden, &err))
        throw std::runtime_error(err);

    std::unique_ptr<BespokeFlow> flow;
    std::map<std::string, DesignMetrics> base;
    timedSetups(run, [&] {
        flow = std::make_unique<BespokeFlow>(FlowOptions{});
        base.clear();
        for (const ServiceJob &j : kBatch) {
            if (!base.count(j.app))
                base[j.app] =
                    flow->measureBaseline({&workloadByName(j.app)});
        }
    });

    std::string root = run.cfg.workDir + "/service-" +
                       std::to_string(static_cast<long>(getpid()));
    auto fresh_dir = [&](int round, const char *tag) {
        std::string dir = root + "/" + tag + std::to_string(round);
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        return dir;
    };

    // A job's latency is mostly its place in the queue, which the seed
    // draws afresh each round: pool the samples.
    run.pooledLatency = true;
    forRounds(run, [&](int round) {
        Batch b = runBatch(run.cfg, round, fresh_dir(round, "untraced-"));
        for (size_t i = 0; i < b.specs.size(); i++) {
            const JobSpec &s = b.specs[i];
            const JobResult &r = b.results[i];
            const std::string &app = s.apps[0];
            const DesignMetrics &bm = base[app];
            run.addLatency(s.id, b.latency(i));
            std::string why = r.ok ? "" : " failed: " + r.error;
            if (r.ok && s.kind == "tailor") {
                double gates = payloadNumber(r, "gates_after");
                double area = payloadNumber(r, "area_um2");
                double power = payloadNumber(r, "power_nominal_uw");
                if (s.passes.empty())
                    why += fig11Mismatch(golden.at(app), gates, area, power,
                                         static_cast<double>(bm.gates),
                                         bm.areaUm2,
                                         bm.powerNominal.totalUW());
                else
                    why += satPassMismatch(r, bm);
                run.areaSavingPct.push_back(savingPct(bm.areaUm2, area));
                run.powerSavingPct.push_back(
                    savingPct(bm.powerNominal.totalUW(), power));
            } else if (r.ok && (s.kind == "verify" || s.kind == "check")) {
                const JsonValue *eq = r.payload.find("equivalent");
                if (!eq || !eq->asBool())
                    why += " not proven equivalent";
            } else if (r.ok && s.kind == "mutant_sweep") {
                double mutants = payloadNumber(r, "mutants");
                double detected = payloadNumber(r, "detected");
                if (mutants < 1 || mutants > s.maxMutants || detected < 0 ||
                    detected > mutants)
                    why += " sweep reported " + r.payload.dump();
            }
            run.ledger.check(why.empty(), "service " + s.id + ":" + why);
        }
        if (!run.cfg.trace)
            return;

        // Traced replay of the same batch: one span per job (submit to
        // result) under one batch span; deterministic payloads must
        // match the untraced batch.
        double t1 = nowSeconds();
        Batch tb = runBatch(run.cfg, round, fresh_dir(round, "traced-"));
        double t2 = nowSeconds();
        int batch_span =
            run.tracer.add("JobScheduler::batch", t1, t2, -1, -1);
        run.untracedOpSeconds += b.seconds;
        run.tracedOpSeconds += t2 - t1;
        for (size_t i = 0; i < tb.specs.size(); i++) {
            const JobResult &r = tb.results[i];
            int64_t op = static_cast<int64_t>(round * kBatch.size() + i);
            run.tracer.add("JobScheduler::job", tb.submitAt[i], tb.doneAt[i],
                           batch_span, op);
            if (r.deterministicJson().dump() !=
                b.results[i].deterministicJson().dump())
                run.ledger.fail("service " + r.id +
                                ": traced batch result differs");
            run.count("service.queue_wait_s", tb.queueWait(i));
            run.count("service.job_s", r.seconds);
            run.count("service.failed_jobs", r.ok ? 0 : 1);
            run.count("checkpoint.hits", static_cast<double>(r.checkpointHits));
            run.count("checkpoint.misses",
                      static_cast<double>(r.checkpointMisses));
            for (const JobStage &st : r.stages) {
                if (st.stage == "analysis") {
                    run.count("analysis.busy_s", st.seconds);
                    run.count("analysis.calls", 1);
                } else if (st.stage == "design") {
                    run.count("transform.busy_s", st.seconds);
                } else if (st.stage == "metrics") {
                    run.count("bespoke.measure_s", st.seconds);
                    run.count("bespoke.measure_calls", 1);
                } else if (st.stage == "verify" || st.stage == "check") {
                    run.count("bespoke.equiv_s", st.seconds);
                }
            }
            if (r.kind == "mutant_sweep") {
                run.count("mutation.mutants", payloadNumber(r, "mutants"));
                run.count("mutation.detected", payloadNumber(r, "detected"));
                run.count("mutation.sweep_job_s", r.seconds);
                run.determinism.record("service/" + r.id, "mutation.detected",
                                       payloadNumber(r, "detected"));
            }
            if (const JsonValue *sat = r.payload.find("sat_never_toggle")) {
                run.count("sat.never_toggle_proven",
                          sat->find("proven")->asNumber());
                run.determinism.record("service/" + r.id,
                                       "sat.never_toggle_proven",
                                       sat->find("proven")->asNumber());
                run.determinism.record("service/" + r.id, "sat.conflicts",
                                       sat->find("conflicts")->asNumber());
            }
        }
    });
    std::filesystem::remove_all(root);
}

} // namespace perfbench
