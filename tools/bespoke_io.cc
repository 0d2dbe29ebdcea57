/**
 * @file
 * Netlist interchange and tailoring command-line tool.
 *
 * Moves gate-level netlists across the system boundary in both
 * directions and runs the bespoke flow on imported ones. `tailor` and
 * `check` each build one job spec and run it on the job scheduler
 * (src/service/job_scheduler.hh, DESIGN.md section 11), the executor
 * behind `batch` and `serve`, so the CLI and a service job compute,
 * verify and report alike. Each command accepts exactly the flags of
 * its synopsis in kCommands (which is also the usage text); any other
 * flag is a usage error. Netlist formats go by file extension: .v
 * structural Verilog, anything else canonical JSON.
 *
 *   export      Build the core (--core default|extended) and write it.
 *   convert     Import (validating), then re-export in the other format.
 *   hash        Print the canonical content hash.
 *   tailor      One `tailor` job (`verify` with --verify) on the imported
 *               netlist; writes the bespoke netlist to -o and prints the
 *               analysis, the cut, one line per pass and the verdicts.
 *               --passes lists pipeline passes ("default",
 *               "rewrite-search", "clock-gating", "sat-never-toggle",
 *               "all" = the cost-driven ones, comma-separated);
 *               --sat-depth bounds the SAT pass (0 = the serial analysis
 *               horizon). --verify runs both proof legs: the symbolic
 *               check, then a bounded CDCL miter whose exhausted budget
 *               is reported, not fatal (`prove` runs deeper miters).
 *               --threads sets the analysis workers and --sat-threads
 *               the SAT prover's (0 = all hardware threads); both are
 *               granted. --status-json writes the job's result document
 *               (JobResult::toJson(), as `batch` writes per job).
 *               --checkpoint-dir caches the flow's stage artifacts.
 *   check       One `check` job: symbolic equivalence of -i against the
 *               core (or --against FILE) for one application. It runs on
 *               one lane-batched worker, so it takes no --threads.
 *   prove       Independent SAT equivalence check (src/sat/): bounded
 *               miter over the CNF unrolling, incrementally deepened on
 *               one CDCL solver, any witness confirmed by concrete
 *               3-valued replay — a separate prover over a different
 *               value domain from `check`. --sat-threads races the
 *               deterministic config portfolio (relevant only when the
 *               conflict budget can exhaust); the verdict is identical
 *               at any thread count. Prints solver counters.
 *   export-cnf  Dump the Tseitin CNF of the unrolled design (or, with
 *               --miter, of the equivalence miter between -i and the
 *               reference) as DIMACS or bit-blasted SMT2 (.smt2).
 *   batch       Run a queue of JSON job specs concurrently through the
 *               job scheduler. Every job runs to completion even when
 *               others fail, and a malformed entry fails on its own;
 *               --status-json writes every job's result document.
 *   serve       Job server: one JSON job spec per stdin line, one JSON
 *               result line per completed job on stdout (completion
 *               order); exits after EOF once the queue drains.
 *               --max-queued bounds the outstanding (queued + running)
 *               jobs; excess submissions get an immediate structured
 *               "rejected: backpressure" result line instead of
 *               buffering unbounded stdin input in memory.
 *
 * Exit codes: 0 success, 1 validation/equivalence/job failure
 * (the batch/serve queue always runs to completion first), 2 usage.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>

#include "src/cpu/bsp430.hh"
#include "src/io/netlist_file.hh"
#include "src/sat/cdcl.hh"
#include "src/sat/equiv_prover.hh"
#include "src/service/job_scheduler.hh"
#include "src/timing/sta.hh"
#include "src/util/worker_pool.hh"
#include "src/workloads/workload.hh"

using namespace bespoke;

namespace
{

struct Args
{
    std::string in;
    std::string out;
    std::string against;
    std::string app;
    std::string core;
    std::string checkpointDir;
    std::string jobs;
    std::string statusJson;
    std::string passes;
    bool verify = false;
    bool progress = false;
    bool miter = false;
    int threads = 1;
    int jobThreads = 1;
    int workerThreads = 0;
    int satDepth = 0;    ///< 0 = per-command default
    int satThreads = 1;  ///< 0 = all hardware threads
    size_t maxQueued = 0;
    uint64_t checkpointMaxBytes = 0;
};

[[noreturn]] void usage(const std::string &msg = "");

[[noreturn]] void
fail(const std::string &msg)
{
    std::fprintf(stderr, "bespoke_io: %s\n", msg.c_str());
    std::exit(1);
}

/** Import a netlist file, failing with its diagnostic. */
Netlist
loadNetlist(const std::string &path)
{
    Netlist nl;
    std::string err;
    if (!readNetlistFile(path, &nl, &err))
        fail(err);
    return nl;
}

/** The named core, drive-sized as `export` writes it. */
Netlist
sizedCore(const std::string &name)
{
    Netlist nl;
    std::string err;
    if (!buildCoreByName(name, &nl, &err))
        usage(err);
    sizeForLoads(nl);
    return nl;
}

void
saveNetlist(const Netlist &nl, const std::string &path,
            const std::string &module_name)
{
    std::string err;
    if (!writeNetlistFile(nl, path, module_name, &err))
        fail(err);
}

void
writeJson(const std::string &path, const JsonValue &doc)
{
    std::ofstream os(path);
    if (!os)
        fail("cannot write '" + path + "'");
    os << doc.dump(2) << "\n";
    if (!os)
        fail("write to '" + path + "' failed");
}

void
printStats(const char *label, const Netlist &nl)
{
    NetlistStats s = nl.stats();
    std::printf("%s: %zu cells (%zu flops), %.0f um^2, hash %016llx\n",
                label, s.numCells, s.numSequential, s.area,
                static_cast<unsigned long long>(nl.contentHash()));
}

int
cmdExport(const Args &a)
{
    if (a.out.empty())
        usage("export needs -o FILE");
    Netlist nl = sizedCore(a.core);
    saveNetlist(nl, a.out, "bsp430_core");
    printStats(a.out.c_str(), nl);
    return 0;
}

int
cmdConvert(const Args &a)
{
    if (a.in.empty() || a.out.empty())
        usage("convert needs -i FILE and -o FILE");
    Netlist nl = loadNetlist(a.in);
    saveNetlist(nl, a.out, "bespoke_core");
    printStats(a.out.c_str(), nl);
    return 0;
}

int
cmdHash(const Args &a)
{
    Netlist nl = a.in.empty() ? sizedCore(a.core) : loadNetlist(a.in);
    std::printf("%016llx\n",
                static_cast<unsigned long long>(nl.contentHash()));
    return 0;
}

/**
 * Run one job spec on a one-runner scheduler. The spec is given as
 * JSON so the CLI's flags are validated exactly like a batch entry.
 */
JobResult
runJobSpec(const JsonValue &doc, SchedulerOptions sopts)
{
    JobSpec spec;
    std::string err;
    if (!parseJobSpec(doc, &spec, &err))
        usage(err);
    JobScheduler sched(std::move(sopts));
    sched.submit(std::move(spec));
    return sched.finish().at(0);
}

/** Number `key` of a result object (-1 when absent). */
double
num(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v && v->isNumber() ? v->asNumber() : -1.0;
}

/**
 * The tailor summary, printed from the job's result: analysis, cut, one
 * line per pass, the verdicts and the exported netlist. The rewrite,
 * clock-gating and SAT never-toggle reports are in --status-json.
 */
void
printTailorResult(const JobResult &r, const std::string &out)
{
    const JsonValue &p = r.payload;
    if (!p.find("passes"))
        return;  // no design was built
    std::printf("analysis: %.0f cells provably untoggled\n",
                num(p, "untoggled_cells"));
    std::printf("cut: %.0f -> %.0f cells\n", num(p, "gates_before"),
                num(p, "gates_after"));

    // Per-pass wall times exist when this run computed the design.
    const JsonValue *times = nullptr;
    for (const JobStage &st : r.stages) {
        if (st.stage == "design" && st.detail.isObject())
            times = st.detail.find("passes");
    }
    const std::vector<JsonValue> &passes = p.find("passes")->items();
    for (size_t i = 0; i < passes.size(); i++) {
        const JsonValue &s = passes[i];
        char dpower[32] = "-";
        char ddepth[32] = "-";
        char wall[32] = "";
        if (num(s, "power_before_uw") >= 0 && num(s, "power_after_uw") >= 0)
            std::snprintf(dpower, sizeof(dpower), "%+.2f uW",
                          num(s, "power_after_uw") -
                              num(s, "power_before_uw"));
        if (num(s, "depth_before_ps") >= 0 && num(s, "depth_after_ps") >= 0)
            std::snprintf(ddepth, sizeof(ddepth), "%+.0f ps",
                          num(s, "depth_after_ps") -
                              num(s, "depth_before_ps"));
        if (times)
            std::snprintf(wall, sizeof(wall), ", %.1f ms",
                          num(times->items().at(i), "wall_ms"));
        std::printf("pass %-14s %5.0f changes, %.0f -> %.0f gates,"
                    " dpower %s, ddepth %s%s\n",
                    s.find("name")->asString().c_str(), num(s, "changes"),
                    num(s, "gates_before"), num(s, "gates_after"), dpower,
                    ddepth, wall);
    }
    const JsonValue *eq = p.find("equivalent");
    if (eq && eq->asBool() && p.find("completed")->asBool()) {
        std::printf("verified: %.0f outputs compared across %.0f paths\n",
                    num(p, "outputs_compared"), num(p, "paths_explored"));
    }
    if (const JsonValue *sc = p.find("sat_cross_check")) {
        const std::string &verdict = sc->find("verdict")->asString();
        std::printf("sat cross-check (depth %.0f): %s\n", num(*sc, "depth"),
                    verdict == "equivalent"
                        ? "equivalent"
                        : sc->find("detail")->asString().c_str());
    }
    if (r.ok) {
        std::printf("%s: %.0f cells (%.0f flops), %.0f um^2, hash %s\n",
                    out.c_str(), num(p, "gates_after"), num(p, "flops"),
                    num(p, "area_um2"),
                    p.find("netlist_hash")->asString().c_str());
    }
}

int
cmdTailor(const Args &a)
{
    if (a.in.empty() || a.out.empty() || a.app.empty())
        usage("tailor needs -i FILE, --app NAME, and -o FILE");
    // Both worker counts are granted exactly (JobSpec::satThreads).
    const int hw = WorkerPool::defaultThreadCount();
    const int threads = a.threads == 0 ? hw : a.threads;
    const int sat_threads = a.satThreads == 0 ? hw : a.satThreads;
    JsonValue doc = JsonValue::object();
    doc.set("kind", JsonValue::str(a.verify ? "verify" : "tailor"));
    doc.set("app", JsonValue::str(a.app));
    doc.set("netlist", JsonValue::str(a.in));
    doc.set("out", JsonValue::str(a.out));
    doc.set("passes", JsonValue::str(a.passes));
    doc.set("sat_depth", JsonValue::number(a.satDepth));
    doc.set("threads", JsonValue::number(threads));
    doc.set("sat_threads", JsonValue::number(sat_threads));

    SchedulerOptions sopts;
    sopts.workerThreads = std::max(threads, sat_threads);
    sopts.checkpointDir = a.checkpointDir;
    sopts.flow.passes.collectMetrics = true;
    JobResult r = runJobSpec(doc, std::move(sopts));
    printTailorResult(r, a.out);
    if (!a.statusJson.empty())
        writeJson(a.statusJson, r.toJson());
    if (!r.ok)
        fail(r.error);
    return 0;
}

int
cmdCheck(const Args &a)
{
    if (a.in.empty() || a.app.empty())
        usage("check needs -i FILE and --app NAME");
    JsonValue doc = JsonValue::object();
    doc.set("kind", JsonValue::str("check"));
    doc.set("app", JsonValue::str(a.app));
    doc.set("netlist", JsonValue::str(a.in));
    doc.set("against", JsonValue::str(a.against));
    doc.set("core", JsonValue::str(a.core));
    JobResult r = runJobSpec(doc, SchedulerOptions{});
    if (!r.ok)
        fail("'" + a.app + "': " + r.error);
    std::printf("equivalent for '%s': %.0f outputs compared across"
                " %.0f paths\n",
                a.app.c_str(), num(r.payload, "outputs_compared"),
                num(r.payload, "paths_explored"));
    return 0;
}

int
cmdProve(const Args &a)
{
    if (a.in.empty() || a.app.empty())
        usage("prove needs -i FILE and --app NAME");
    Netlist candidate = loadNetlist(a.in);
    Netlist reference =
        a.against.empty() ? sizedCore(a.core) : loadNetlist(a.against);

    const Workload &app = workloadByName(a.app);
    AsmProgram prog = app.assembleProgram();
    sat::SatEquivOptions so;
    if (a.satDepth > 0)
        so.depth = a.satDepth;
    // Finite (if generous) budget so a pathological miter fails with
    // an "undecided" diagnosis instead of spinning forever.
    so.conflictBudget = 5000000;
    so.threads = a.satThreads;
    sat::SatEquivResult sr =
        sat::proveEquivalentSat(reference, candidate, prog, so);
    std::printf("sat prove (depth %d): %llu vars, %llu clauses,"
                " %llu conflicts\n",
                sr.depth, static_cast<unsigned long long>(sr.vars),
                static_cast<unsigned long long>(sr.clauses),
                static_cast<unsigned long long>(sr.conflicts));
    std::printf("sat prove: %llu chunk quer%s, %llu propagations,"
                " %llu learned (%llu kept), %llu db reduction(s),"
                " %llu restarts, config %d\n",
                static_cast<unsigned long long>(sr.queries),
                sr.queries == 1 ? "y" : "ies",
                static_cast<unsigned long long>(sr.propagations),
                static_cast<unsigned long long>(sr.learnedClauses),
                static_cast<unsigned long long>(sr.keptClauses),
                static_cast<unsigned long long>(sr.dbReductions),
                static_cast<unsigned long long>(sr.restarts),
                sr.config);
    if (sr.verdict == sat::SatEquivVerdict::Equivalent) {
        std::printf("equivalent for '%s': %s\n", a.app.c_str(),
                    sr.detail.c_str());
        return 0;
    }
    if (sr.verdict == sat::SatEquivVerdict::NotEquivalent)
        fail("NOT equivalent for '" + a.app + "': " + sr.detail);
    fail("undecided for '" + a.app + "': " + sr.detail);
}

int
cmdExportCnf(const Args &a)
{
    if (a.app.empty() || a.out.empty())
        usage("export-cnf needs --app NAME and -o FILE");
    if (a.miter && a.in.empty())
        usage("export-cnf --miter needs -i FILE (the candidate)");
    const Workload &app = workloadByName(a.app);
    AsmProgram prog = app.assembleProgram();
    int depth = a.satDepth > 0 ? a.satDepth : 8;

    sat::Cnf cnf;
    sat::UnrollOptions uo;
    Netlist leader;
    Netlist follower;
    if (a.miter) {
        leader = a.against.empty() ? sizedCore(a.core)
                                   : loadNetlist(a.against);
        follower = loadNetlist(a.in);
    } else {
        leader = a.in.empty() ? sizedCore(a.core) : loadNetlist(a.in);
    }
    sat::SocUnroller un(leader, prog, cnf, uo);
    if (a.miter) {
        un.attachFollower(follower);
        sat::Lit bad = sat::encodeMiter(un, leader, follower, depth);
        cnf.comment("miter: reference vs '" + a.in + "' for app '" +
                    a.app + "', depth " +
                    std::to_string(depth));
        cnf.comment("satisfiable iff a shared output can diverge");
        cnf.unit(bad);
    } else {
        for (int f = 0; f < depth; f++)
            un.addFrame();
        cnf.comment("unrolling of app '" + a.app + "', depth " +
                    std::to_string(depth) + " (no property asserted)");
    }
    // Name the free variables so witnesses are readable.
    for (const sat::FreeVarInfo &fv : un.freeVars()) {
        const char *kind = nullptr;
        switch (fv.kind) {
          case sat::FreeVarInfo::Kind::GpioIn:   kind = "gpio_in"; break;
          case sat::FreeVarInfo::Kind::IrqExt:   kind = "irq_ext"; break;
          case sat::FreeVarInfo::Kind::RamInit:  kind = "ram_init"; break;
          case sat::FreeVarInfo::Kind::InitRdata: kind = "rdata0"; break;
          default: break;  // scratch kinds stay unnamed
        }
        if (!kind)
            continue;
        cnf.nameVar(fv.var, std::string(kind) + "[f" +
                                std::to_string(fv.frame) + ",i" +
                                std::to_string(fv.index) + ",b" +
                                std::to_string(fv.bit) + "]");
    }

    std::ofstream os(a.out, std::ios::binary);
    if (!os)
        fail("cannot write '" + a.out + "'");
    if (a.out.size() >= 5 &&
        a.out.compare(a.out.size() - 5, 5, ".smt2") == 0)
        cnf.writeSmt2(os);
    else
        cnf.writeDimacs(os);
    if (!os)
        fail("write to '" + a.out + "' failed");
    std::printf("%s: %zu vars, %zu clauses, depth %d%s\n",
                a.out.c_str(), cnf.numVars(), cnf.numClauses(), depth,
                a.miter ? " (miter)" : "");
    return 0;
}

SchedulerOptions
schedulerOptions(const Args &a)
{
    SchedulerOptions sopts;
    sopts.jobThreads = a.jobThreads;
    sopts.workerThreads = a.workerThreads;
    sopts.checkpointDir = a.checkpointDir;
    sopts.checkpointMaxBytes = a.checkpointMaxBytes;
    if (a.progress) {
        sopts.progress = [](const JsonValue &ev) {
            std::fprintf(stderr, "%s\n", ev.dump().c_str());
        };
    }
    return sopts;
}

/**
 * Write the status summary of a finished queue (failures included),
 * print one line per job, and map "any failure" to exit code 1.
 */
int
reportJobs(const std::vector<JobResult> &results, const Args &a)
{
    size_t failed = 0;
    JsonValue jobs = JsonValue::array();
    for (const JobResult &r : results) {
        if (!r.ok)
            failed++;
        jobs.push(r.toJson());
        std::printf("%-12s %-14s %s%s%s\n", r.id.c_str(),
                    r.kind.c_str(), r.ok ? "ok" : "FAILED",
                    r.ok ? "" : ": ", r.ok ? "" : r.error.c_str());
    }
    auto count = [](size_t n) {
        return JsonValue::number(static_cast<double>(n));
    };
    JsonValue status = JsonValue::object();
    status.set("total", count(results.size()));
    status.set("ok", count(results.size() - failed));
    status.set("failed", count(failed));
    status.set("jobs", std::move(jobs));
    if (!a.statusJson.empty())
        writeJson(a.statusJson, status);
    std::printf("%zu job(s): %zu ok, %zu failed\n", results.size(),
                results.size() - failed, failed);
    return failed == 0 ? 0 : 1;
}

int
cmdBatch(const Args &a)
{
    if (a.jobs.empty())
        usage("batch needs --jobs FILE");
    std::string text;
    std::string err;
    if (!readTextFile(a.jobs, &text, &err))
        fail(err);
    std::vector<JobSpec> specs;
    std::vector<JobResult> invalid;
    if (!parseJobList(text, &specs, &invalid, &err))
        usage(a.jobs + ": " + err);
    std::vector<JobResult> results;
    {
        JobScheduler sched(schedulerOptions(a));
        for (JobSpec &spec : specs)
            sched.submit(std::move(spec));
        results = sched.finish();
    }
    for (JobResult &r : invalid)
        results.push_back(std::move(r));
    return reportJobs(results, a);
}

int
cmdServe(const Args &a)
{
    std::mutex out_m;
    auto reply = [&out_m](const JobResult &r) {
        std::lock_guard<std::mutex> lk(out_m);
        std::printf("%s\n", r.toJson().dump().c_str());
        std::fflush(stdout);
    };
    SchedulerOptions sopts = schedulerOptions(a);
    sopts.maxQueued = a.maxQueued;
    sopts.onResult = reply;
    JobScheduler sched(std::move(sopts));

    size_t invalid = 0;
    size_t rejected = 0;
    size_t lineno = 0;
    std::string line;
    while (std::getline(std::cin, line)) {
        lineno++;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        JsonValue doc;
        JobSpec spec;
        std::string err;
        if (!JsonValue::parse(line, doc, err) ||
            !parseJobSpec(doc, &spec, &err)) {
            JobResult bad;
            bad.id = "line-" + std::to_string(lineno);
            bad.kind = "invalid";
            bad.error = err;
            bad.payload = JsonValue::object();
            invalid++;
            reply(bad);
            continue;
        }
        // Bounded admission: a producer outrunning the runners gets a
        // structured rejection instead of queueing unbounded memory.
        std::string kind = spec.kind;
        std::string id = spec.id;
        if (!sched.trySubmit(std::move(spec))) {
            rejected++;
            reply(backpressureRejection(
                id, kind, a.maxQueued,
                "line-" + std::to_string(lineno)));
        }
    }
    sched.finish();
    return sched.failures() + invalid + rejected == 0 ? 0 : 1;
}

struct Command
{
    const char *name;
    int (*run)(const Args &);
    /** Usage synopsis; every word starting with '-' (after any '[')
     *  is a flag the command consumes. */
    const char *synopsis;
};

const Command kCommands[] = {
    {"export", cmdExport, "[--core default|extended] -o FILE"},
    {"convert", cmdConvert, "-i FILE -o FILE"},
    {"hash", cmdHash, "-i FILE | --core default|extended"},
    {"tailor", cmdTailor,
     "-i FILE --app NAME -o FILE [--checkpoint-dir DIR] [--verify]"
     " [--threads N] [--passes LIST] [--status-json FILE]"
     " [--sat-depth N] [--sat-threads N]"},
    {"check", cmdCheck,
     "-i FILE --app NAME [--against FILE] [--core default|extended]"},
    {"prove", cmdProve,
     "-i FILE --app NAME [--against FILE] [--core default|extended]"
     " [--sat-depth N] [--sat-threads N]"},
    {"export-cnf", cmdExportCnf,
     "--app NAME -o FILE[.cnf|.smt2] [-i FILE] [--miter [--against FILE]]"
     " [--core default|extended] [--sat-depth N]"},
    {"batch", cmdBatch,
     "--jobs FILE [--job-threads N] [--worker-threads N]"
     " [--checkpoint-dir DIR] [--checkpoint-max-bytes N]"
     " [--status-json FILE] [--progress]"},
    {"serve", cmdServe,
     "[--job-threads N] [--worker-threads N] [--checkpoint-dir DIR]"
     " [--checkpoint-max-bytes N] [--progress] [--max-queued N]"},
};

void
usage(const std::string &msg)
{
    if (!msg.empty())
        std::fprintf(stderr, "bespoke_io: %s\n", msg.c_str());
    std::fprintf(stderr, "usage:\n");
    for (const Command &c : kCommands)
        std::fprintf(stderr, "  bespoke_io %-10s %s\n", c.name, c.synopsis);
    std::fprintf(stderr, "formats are chosen by file extension: .v"
                         " structural Verilog, .json canonical JSON\n");
    std::exit(2);
}

/** Does `cmd`'s synopsis list `flag`? */
bool
takesFlag(const Command &cmd, const std::string &flag)
{
    std::istringstream words(cmd.synopsis);
    std::string w;
    while (words >> w) {
        w.erase(0, w.find_first_not_of('['));
        w.erase(w.find_last_not_of(']') + 1);
        if (w == flag)
            return true;
    }
    return false;
}

Args
parseArgs(int argc, char **argv, const Command &cmd)
{
    Args a;
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--in")
            arg = "-i";
        else if (arg == "--out")
            arg = "-o";
        if (arg.empty() || arg[0] != '-')
            usage("unexpected argument '" + arg + "'");
        if (!takesFlag(cmd, arg))
            usage(std::string(cmd.name) + " takes no " + arg);
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("flag '" + arg + "' needs a value");
            return argv[++i];
        };
        if (arg == "-i")
            a.in = value();
        else if (arg == "-o")
            a.out = value();
        else if (arg == "--against")
            a.against = value();
        else if (arg == "--app")
            a.app = value();
        else if (arg == "--core")
            a.core = value();
        else if (arg == "--checkpoint-dir")
            a.checkpointDir = value();
        else if (arg == "--checkpoint-max-bytes")
            a.checkpointMaxBytes =
                std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--jobs")
            a.jobs = value();
        else if (arg == "--status-json")
            a.statusJson = value();
        else if (arg == "--passes")
            a.passes = value();
        else if (arg == "--verify")
            a.verify = true;
        else if (arg == "--progress")
            a.progress = true;
        else if (arg == "--miter")
            a.miter = true;
        else if (arg == "--sat-depth")
            a.satDepth = std::atoi(value().c_str());
        else if (arg == "--sat-threads")
            a.satThreads = std::atoi(value().c_str());
        else if (arg == "--max-queued")
            a.maxQueued = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--threads")
            a.threads = std::atoi(value().c_str());
        else if (arg == "--job-threads")
            a.jobThreads = std::atoi(value().c_str());
        else if (arg == "--worker-threads")
            a.workerThreads = std::atoi(value().c_str());
        else
            usage("unknown flag '" + arg + "'");
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string name = argv[1];
    for (const Command &cmd : kCommands) {
        if (name == cmd.name)
            return cmd.run(parseArgs(argc, argv, cmd));
    }
    usage("unknown command '" + name + "'");
}
