/**
 * @file
 * Job scheduler: spec parsing, the determinism contract (per-job
 * deterministic payloads bit-identical between a serial run and a
 * concurrent one with leased workers and a shared checkpoint store),
 * cross-job in-flight dedup ("first runner computes, the rest wait"),
 * queue resilience (a failing job never aborts the queue), and a
 * many-small-jobs stress run that the TSan CI shard executes under
 * the race detector.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/cpu/bsp430.hh"
#include "src/io/netlist_file.hh"
#include "src/io/netlist_json.hh"
#include "src/sat/equiv_prover.hh"
#include "src/service/job_scheduler.hh"

namespace fs = std::filesystem;

namespace bespoke
{
namespace
{

std::string
freshDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "bespoke_" + name;
    fs::remove_all(dir);
    return dir;
}

JobSpec
tailorSpec(const std::string &app, const std::string &id = "")
{
    JobSpec spec;
    spec.id = id;
    spec.kind = "tailor";
    spec.apps = {app};
    return spec;
}

SchedulerOptions
fastOpts(int job_threads, int worker_threads,
         const std::string &dir = "")
{
    SchedulerOptions sopts;
    sopts.jobThreads = job_threads;
    sopts.workerThreads = worker_threads;
    sopts.checkpointDir = dir;
    sopts.flow.powerInputsPerWorkload = 1;
    return sopts;
}

std::vector<JobResult>
runQueue(const std::vector<JobSpec> &queue, SchedulerOptions sopts)
{
    JobScheduler sched(std::move(sopts));
    for (const JobSpec &spec : queue)
        sched.submit(spec);
    return sched.finish();
}

JobSpec
parseOk(const std::string &text)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(JsonValue::parse(text, doc, err)) << err;
    JobSpec spec;
    EXPECT_TRUE(parseJobSpec(doc, &spec, &err)) << err;
    return spec;
}

std::string
parseErr(const std::string &text)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(JsonValue::parse(text, doc, err)) << err;
    JobSpec spec;
    EXPECT_FALSE(parseJobSpec(doc, &spec, &err));
    EXPECT_FALSE(err.empty());
    return err;
}

TEST(JobScheduler, ParseAcceptsEveryField)
{
    JobSpec spec = parseOk(
        R"({"id": "j1", "kind": "tailor", "apps": ["mult", "div"],
            "core": "extended", "threads": 3, "power_inputs": 5,
            "power_seed": 77, "inputs_per_mutant": 2,
            "mutant_seed": 9, "max_mutants": 10, "out": "b.v"})");
    EXPECT_EQ(spec.id, "j1");
    EXPECT_EQ(spec.kind, "tailor");
    EXPECT_EQ(spec.apps, (std::vector<std::string>{"mult", "div"}));
    EXPECT_EQ(spec.core, "extended");
    EXPECT_EQ(spec.threads, 3);
    EXPECT_EQ(spec.powerInputs, 5);
    EXPECT_EQ(spec.powerSeed, 77u);
    EXPECT_EQ(spec.inputsPerMutant, 2);
    EXPECT_EQ(spec.mutantSeed, 9u);
    EXPECT_EQ(spec.maxMutants, 10);
    EXPECT_EQ(spec.out, "b.v");

    JobSpec check = parseOk(
        R"({"kind": "check", "app": "mult", "netlist": "cand.json",
            "against": "ref.v"})");
    EXPECT_EQ(check.netlist, "cand.json");
    EXPECT_EQ(check.against, "ref.v");

    JobSpec inl = parseOk(
        R"({"kind": "check", "app": "mult",
            "netlist_json": {"format": "bespoke-netlist"}})");
    EXPECT_NE(inl.netlistInline.find("bespoke-netlist"),
              std::string::npos);
}

TEST(JobScheduler, ParseRejectsBadSpecs)
{
    EXPECT_NE(parseErr(R"({"app": "mult"})").find("kind"),
              std::string::npos);
    EXPECT_NE(parseErr(R"({"kind": "frob", "app": "mult"})")
                  .find("frob"),
              std::string::npos);
    EXPECT_NE(parseErr(R"({"kind": "tailor"})").find("app"),
              std::string::npos);
    EXPECT_NE(parseErr(R"({"kind": "tailor", "app": 5})")
                  .find("string"),
              std::string::npos);
    EXPECT_NE(parseErr(R"({"kind": "tailor", "app": "mult",
                           "bogus": 1})")
                  .find("bogus"),
              std::string::npos);
    EXPECT_NE(parseErr(R"({"kind": "tailor", "app": "mult",
                           "threads": -2})")
                  .find("non-negative"),
              std::string::npos);
    // Only multi-app tailor fans a workload set into one design.
    EXPECT_NE(parseErr(R"({"kind": "verify",
                           "apps": ["mult", "div"]})")
                  .find("exactly one"),
              std::string::npos);
    // check compares a *given* candidate; there is nothing to check
    // when both sides would be freshly built cores.
    EXPECT_NE(parseErr(R"({"kind": "check", "app": "mult"})")
                  .find("netlist"),
              std::string::npos);
    JobSpec spec;
    std::string err;
    EXPECT_FALSE(parseJobSpec(JsonValue::number(3), &spec, &err));
}

TEST(JobScheduler, ParseJobListBothShapes)
{
    std::vector<JobSpec> specs;
    std::vector<JobResult> invalid;
    std::string err;
    ASSERT_TRUE(parseJobList(
        R"([{"kind": "tailor", "app": "mult"}])", &specs, &invalid, &err))
        << err;
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].apps[0], "mult");
    EXPECT_TRUE(invalid.empty());

    ASSERT_TRUE(parseJobList(
        R"({"jobs": [{"kind": "tailor", "app": "mult"},
                     {"kind": "mutant_sweep", "app": "div"}]})",
        &specs, &invalid, &err))
        << err;
    EXPECT_EQ(specs.size(), 2u);

    EXPECT_FALSE(parseJobList(R"({"nope": []})", &specs, &invalid, &err));
    EXPECT_NE(err.find("'jobs' array"), std::string::npos);
    EXPECT_FALSE(parseJobList("[", &specs, &invalid, &err));

    // A malformed entry fails on its own; the rest of the queue still
    // parses, and the failed result names the entry.
    ASSERT_TRUE(parseJobList(
        R"([{"kind": "tailor", "app": "mult"}, {"kind": "bad"}])",
        &specs, &invalid, &err))
        << err;
    ASSERT_EQ(specs.size(), 1u);
    ASSERT_EQ(invalid.size(), 1u);
    EXPECT_EQ(invalid[0].id, "job-1");
    EXPECT_EQ(invalid[0].kind, "invalid");
    EXPECT_FALSE(invalid[0].ok);
    EXPECT_NE(invalid[0].error.find("bad"), std::string::npos);
}

/**
 * The acceptance contract: a concurrent scheduler (4 runner threads,
 * leased workers, shared checkpoint store) produces per-job
 * deterministic results bit-identical to a serial no-checkpoint run.
 * The queue mixes kinds and includes a failing job.
 */
TEST(JobScheduler, ConcurrentResultsBitIdenticalToSerial)
{
    std::vector<JobSpec> queue;
    queue.push_back(tailorSpec("mult", "t-mult"));
    queue.push_back(tailorSpec("div", "t-div"));
    JobSpec multi;
    multi.id = "t-multi";
    multi.kind = "tailor";
    multi.apps = {"mult", "div"};
    queue.push_back(multi);
    JobSpec sweep;
    sweep.id = "sweep";
    sweep.kind = "mutant_sweep";
    sweep.apps = {"mult"};
    sweep.maxMutants = 4;
    sweep.inputsPerMutant = 2;
    queue.push_back(sweep);
    queue.push_back(tailorSpec("no_such_app", "bad"));

    std::vector<JobResult> serial =
        runQueue(queue, fastOpts(1, 1));
    std::string dir = freshDir("sched_concurrent");
    std::vector<JobSpec> wide = queue;
    for (JobSpec &spec : wide)
        spec.threads = 2;
    std::vector<JobResult> conc =
        runQueue(wide, fastOpts(4, 4, dir));

    ASSERT_EQ(serial.size(), conc.size());
    for (size_t i = 0; i < serial.size(); i++) {
        EXPECT_EQ(serial[i].deterministicJson().dump(),
                  conc[i].deterministicJson().dump())
            << "job " << serial[i].id;
    }
    EXPECT_FALSE(serial[4].ok);
    EXPECT_NE(serial[4].error.find("no_such_app"), std::string::npos);
    fs::remove_all(dir);
}

/**
 * Two identical jobs under one store: every shared stage is computed
 * exactly once (stage records only appear when a job *computes* a
 * stage — hits and lock-waits record nothing).
 */
TEST(JobScheduler, IdenticalConcurrentJobsComputeStagesOnce)
{
    std::string dir = freshDir("sched_dedup");
    std::vector<JobSpec> queue;
    queue.push_back(tailorSpec("mult", "a"));
    queue.push_back(tailorSpec("mult", "b"));
    std::vector<JobResult> results =
        runQueue(queue, fastOpts(2, 2, dir));

    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_TRUE(results[1].ok);
    EXPECT_EQ(results[0].payload.dump(), results[1].payload.dump());
    // analysis + design + metrics: three computations total across
    // both jobs, however the schedule interleaved them.
    size_t computed =
        results[0].stages.size() + results[1].stages.size();
    EXPECT_EQ(computed, 3u);
    // ...and whoever did not compute a stage loaded it.
    EXPECT_GE(results[0].checkpointHits + results[1].checkpointHits,
              3u);
    fs::remove_all(dir);
}

/**
 * Backpressure: trySubmit() refuses work beyond the cap while
 * submit() (batch mode) deliberately ignores it. One runner thread and
 * two immediate trySubmit() calls make the refusal deterministic: the
 * first job cannot have drained the queue between two back-to-back
 * enqueues.
 */
TEST(JobScheduler, TrySubmitEnforcesBackpressureCap)
{
    SchedulerOptions sopts = fastOpts(1, 1);
    sopts.maxQueued = 2;
    JobScheduler sched(std::move(sopts));
    std::string id;
    EXPECT_TRUE(sched.trySubmit(tailorSpec("mult", "a"), &id));
    EXPECT_EQ(id, "a");
    EXPECT_TRUE(sched.trySubmit(tailorSpec("div", "b")));
    EXPECT_FALSE(sched.trySubmit(tailorSpec("binSearch", "c")));
    // Batch submission bypasses the cap by design.
    sched.submit(tailorSpec("mult", "d"));
    std::vector<JobResult> results = sched.finish();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].id, "a");
    EXPECT_EQ(results[1].id, "b");
    EXPECT_EQ(results[2].id, "d");
    for (const JobResult &r : results)
        EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
    // Once drained, the same scheduler accepts again.
    EXPECT_TRUE(sched.trySubmit(tailorSpec("mult", "e")));
    EXPECT_TRUE(sched.finish().back().ok);
}

/** The serve-mode rejection line: shape pinned for stream consumers. */
TEST(JobScheduler, BackpressureRejectionResultShape)
{
    JobResult r = backpressureRejection("j7", "tailor", 3, "line-12");
    EXPECT_EQ(r.id, "j7");
    EXPECT_EQ(r.kind, "tailor");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "rejected: backpressure (3 outstanding jobs)");
    // Specs without an id get the caller's fallback label.
    EXPECT_EQ(backpressureRejection("", "verify", 1, "line-4").id,
              "line-4");
    JsonValue j = r.deterministicJson();
    EXPECT_EQ(j.find("id")->asString(), "j7");
    EXPECT_FALSE(j.find("ok")->asBool());
    EXPECT_NE(j.find("error")->asString().find("rejected: backpressure"),
              std::string::npos);
}

/**
 * The SAT never-toggle pass running inside concurrent scheduler jobs
 * (the TSan shard executes this under the race detector): verdicts and
 * payloads must be bit-identical to a serial run, at any thread count.
 */
TEST(JobScheduler, SatPassInsideConcurrentJobsMatchesSerial)
{
    auto satSpec = [](const std::string &id) {
        JobSpec spec = tailorSpec("mult", id);
        spec.passes = "default,sat-never-toggle";
        spec.satDepth = 12;  // keep the bounded check cheap here
        return spec;
    };
    std::vector<JobSpec> queue = {satSpec("s1"), satSpec("s2")};
    std::vector<JobResult> serial = runQueue(queue, fastOpts(1, 1));
    std::vector<JobSpec> wide = queue;
    for (JobSpec &spec : wide)
        spec.threads = 2;
    std::vector<JobResult> conc = runQueue(wide, fastOpts(2, 2));
    ASSERT_EQ(serial.size(), conc.size());
    for (size_t i = 0; i < serial.size(); i++) {
        EXPECT_TRUE(serial[i].ok) << serial[i].error;
        EXPECT_EQ(serial[i].deterministicJson().dump(),
                  conc[i].deterministicJson().dump())
            << "job " << serial[i].id;
    }
    // The payload carries the SAT verdict block.
    const JsonValue *sat =
        serial[0].payload.find("sat_never_toggle");
    ASSERT_NE(sat, nullptr);
    EXPECT_NE(sat->find("candidates"), nullptr);
    EXPECT_NE(sat->find("proven"), nullptr);
}

TEST(JobScheduler, FailedJobDoesNotAbortQueue)
{
    std::vector<JobSpec> queue;
    queue.push_back(tailorSpec("no_such_app", "bad-app"));
    JobSpec badfile;
    badfile.id = "bad-file";
    badfile.kind = "tailor";
    badfile.apps = {"mult"};
    badfile.netlist = "/nonexistent/netlist.json";
    queue.push_back(badfile);
    queue.push_back(tailorSpec("mult", "good"));

    JobScheduler sched(fastOpts(1, 1));
    for (const JobSpec &spec : queue)
        sched.submit(spec);
    std::vector<JobResult> results = sched.finish();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("cannot read"),
              std::string::npos);
    EXPECT_TRUE(results[2].ok);
    EXPECT_EQ(sched.failures(), 2u);
}

/**
 * A check job's symbolic leg runs on one worker, so it leases one
 * thread even when its spec asks for the whole budget, leaving the
 * rest for queued jobs.
 */
TEST(JobScheduler, CheckJobLeasesOneThread)
{
    JobSpec check;
    check.kind = "check";
    check.apps = {"mult"};
    check.netlistInline = netlistToJsonText(buildBsp430());
    check.threads = 0;
    JobSpec tailor = tailorSpec("mult");
    tailor.threads = 0;

    std::vector<JobResult> results = runQueue({check, tailor},
                                              fastOpts(1, 4));
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(results[0].threadsUsed, 1);
    EXPECT_EQ(results[1].threadsUsed, 4);
}

/**
 * A verify job runs both proof legs: its payload carries the symbolic
 * verdict and the SAT cross-check's, and the netlist it writes to
 * `out` is the one BespokeFlow::tailor builds. A write failure fails
 * its own job only.
 */
TEST(JobScheduler, VerifyJobRunsBothLegsAndWritesOut)
{
    std::string dir = freshDir("sched_verify_out");
    fs::create_directories(dir);
    JobSpec verify;
    verify.kind = "verify";
    verify.apps = {"div"};
    verify.out = dir + "/div.json";
    JobSpec unwritable = verify;
    unwritable.out = dir + "/missing/div.json";
    std::vector<JobResult> results =
        runQueue({verify, unwritable}, fastOpts(1, 1));
    ASSERT_EQ(results.size(), 2u);

    const JobResult &r = results[0];
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.payload.find("equivalent")->asBool());
    EXPECT_GT(r.payload.find("outputs_compared")->asNumber(), 0.0);
    const JsonValue *sat = r.payload.find("sat_cross_check");
    ASSERT_NE(sat, nullptr);
    EXPECT_EQ(sat->find("verdict")->asString(), "equivalent");
    EXPECT_EQ(sat->find("depth")->asNumber(),
              sat::SatEquivOptions{}.depth);

    FlowOptions fo;
    fo.powerInputsPerWorkload = 1;
    BespokeDesign d = BespokeFlow(fo).tailor(workloadByName("div"));
    Netlist written;
    std::string err;
    ASSERT_TRUE(readNetlistFile(verify.out, &written, &err)) << err;
    EXPECT_EQ(written.contentHash(), d.netlist.contentHash());
    char hash[17];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(d.netlist.contentHash()));
    EXPECT_EQ(r.payload.find("netlist_hash")->asString(), hash);

    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("cannot write"), std::string::npos);
    fs::remove_all(dir);
}

/**
 * A job leases the larger of its analysis and SAT worker asks, so an
 * explicit sat_threads above threads is granted rather than capped.
 */
TEST(JobScheduler, LeaseCoversSatThreads)
{
    JobSpec spec = tailorSpec("mult");
    spec.threads = 1;
    spec.satThreads = 3;
    std::vector<JobResult> results = runQueue({spec}, fastOpts(1, 4));
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(results[0].threadsUsed, 3);
}

/**
 * Stress for the TSan shard: many small jobs hammering the shared
 * store, coordinator, and budget from 4 runners, with the serialized
 * progress stream on. Event accounting must balance exactly.
 */
TEST(JobScheduler, StressManySmallJobsUnderSharedStore)
{
    std::string dir = freshDir("sched_stress");
    SchedulerOptions sopts = fastOpts(4, 2, dir);
    std::atomic<size_t> started{0}, done{0};
    size_t events_unlocked = 0;  // mutated under the progress lock
    sopts.progress = [&](const JsonValue &ev) {
        const std::string &kind = ev.find("event")->asString();
        started += kind == "job_start";
        done += kind == "job_done";
        events_unlocked++;  // races iff the callback is not serialized
    };
    const char *apps[] = {"mult", "div", "binSearch"};
    size_t n = 0;
    std::vector<JobResult> results;
    {
        JobScheduler sched(std::move(sopts));
        for (int round = 0; round < 4; round++) {
            for (const char *app : apps) {
                sched.submit(tailorSpec(
                    app, std::string(app) + "-" +
                             std::to_string(round)));
                n++;
            }
        }
        results = sched.finish();
    }
    ASSERT_EQ(results.size(), n);
    for (const JobResult &r : results)
        EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
    EXPECT_EQ(started.load(), n);
    EXPECT_EQ(done.load(), n);
    EXPECT_GE(events_unlocked, 2 * n);
    // 3 distinct apps -> 9 stage computations however the 12 jobs
    // interleaved; everything else deduped onto the store.
    size_t computed = 0;
    for (const JobResult &r : results)
        computed += r.stages.size();
    EXPECT_EQ(computed, 9u);
    fs::remove_all(dir);
}

} // namespace
} // namespace bespoke
