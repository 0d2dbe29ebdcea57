#include "src/service/job_scheduler.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "src/bespoke/equiv_check.hh"
#include "src/cpu/bsp430.hh"
#include "src/io/netlist_file.hh"
#include "src/io/netlist_json.hh"
#include "src/mutation/mutant_sweep.hh"
#include "src/sat/equiv_prover.hh"
#include "src/timing/sta.hh"
#include "src/util/logging.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

bool
knownKind(const std::string &kind)
{
    return kind == "tailor" || kind == "verify" || kind == "check" ||
           kind == "mutant_sweep";
}

/**
 * The baseline a job's spec names: inline JSON, a netlist file, or a
 * freshly built core. The netlist is returned unsized; flow-based
 * kinds size it in the BespokeFlow constructor.
 */
bool
loadBaseline(const JobSpec &spec, Netlist *out, std::string *err)
{
    if (!spec.netlistInline.empty()) {
        NetlistJsonResult res = netlistFromJsonText(spec.netlistInline);
        if (!res.ok) {
            *err = "netlist_json: " + res.error;
            return false;
        }
        *out = std::move(res.netlist);
        return true;
    }
    if (!spec.netlist.empty())
        return readNetlistFile(spec.netlist, out, err);
    return buildCoreByName(spec.core, out, err);
}

JsonValue
count(uint64_t n)
{
    return JsonValue::number(static_cast<double>(n));
}

/**
 * The deterministic payload of a tailored design: the design's size,
 * timing and power, what the pipeline did (cut, per-pass stats,
 * rewrites, clock-gating plan, SAT never-toggle verdicts when that pass
 * ran), and the content hash of the exported netlist.
 */
void
setDesignPayload(JsonValue &p, const std::vector<const Workload *> &apps,
                 const BespokeDesign &d, bool sat_pass)
{
    JsonValue names = JsonValue::array();
    for (const Workload *w : apps)
        names.push(JsonValue::str(w->name));
    p.set("apps", std::move(names));
    p.set("gates_before", count(d.cut.gatesBefore));
    p.set("gates_after", count(d.cut.gatesAfter));
    p.set("flops", count(d.metrics.flops));
    p.set("area_um2", JsonValue::number(d.metrics.areaUm2));
    p.set("critical_path_ps", JsonValue::number(d.metrics.criticalPathPs));
    p.set("vmin", JsonValue::number(d.metrics.vmin));
    p.set("power_nominal_uw",
          JsonValue::number(d.metrics.powerNominal.totalUW()));
    p.set("power_vmin_uw",
          JsonValue::number(d.metrics.powerAtVmin.totalUW()));
    char hash[17];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(d.netlist.contentHash()));
    p.set("netlist_hash", JsonValue::str(hash));
    p.set("untoggled_cells", count(d.analysis.untoggledCells()));

    JsonValue cut = JsonValue::object();
    cut.set("gates_before", count(d.cut.gatesBefore));
    cut.set("gates_cut_direct", count(d.cut.gatesCutDirect));
    cut.set("gates_after", count(d.cut.gatesAfter));
    p.set("cut", std::move(cut));

    const PipelineReport &rep = d.pipeline;
    JsonValue passes = JsonValue::array();
    for (const PassStats &s : rep.passes) {
        // Power and depth are -1 unless the base FlowOptions collect
        // pipeline metrics; wall_ms is volatile (the "design" stage).
        JsonValue jp = JsonValue::object();
        jp.set("name", JsonValue::str(s.name));
        jp.set("changes", count(s.changes));
        jp.set("gates_before", count(s.gatesBefore));
        jp.set("gates_after", count(s.gatesAfter));
        jp.set("power_before_uw", JsonValue::number(s.powerBeforeUW));
        jp.set("power_after_uw", JsonValue::number(s.powerAfterUW));
        jp.set("depth_before_ps", JsonValue::number(s.depthBeforePs));
        jp.set("depth_after_ps", JsonValue::number(s.depthAfterPs));
        passes.push(std::move(jp));
    }
    p.set("passes", std::move(passes));
    p.set("rewritten_instances", count(rep.rewrittenInstances));
    JsonValue gating = JsonValue::object();
    gating.set("candidate_banks", count(rep.gating.candidateBanks));
    gating.set("gated_banks", count(rep.gating.banks.size()));
    gating.set("gated_flops", count(rep.gating.gatedFlops()));
    gating.set("saved_clock_uw", JsonValue::number(rep.gating.savedClockUW));
    p.set("gating", std::move(gating));

    if (sat_pass) {
        // Solver counters are shard-deterministic and
        // thread-count-independent, so they belong in the bit-stable
        // payload with the verdict counts.
        JsonValue sat = JsonValue::object();
        sat.set("candidates", count(rep.satCandidates));
        sat.set("proven", count(rep.satProven));
        sat.set("refuted", count(rep.satRefuted));
        sat.set("unknown", count(rep.satUnknown));
        sat.set("shards", count(rep.satShards));
        sat.set("conflicts", count(rep.satConflicts));
        sat.set("propagations", count(rep.satPropagations));
        sat.set("learned_clauses", count(rep.satLearned));
        sat.set("kept_clauses", count(rep.satKept));
        sat.set("db_reductions", count(rep.satReductions));
        sat.set("restarts", count(rep.satRestarts));
        p.set("sat_never_toggle", std::move(sat));
    }
}

/** Per-pass wall times, the volatile detail of a computed "design". */
void
setPassTimes(std::vector<JobStage> &stages, const PipelineReport &rep)
{
    for (JobStage &st : stages) {
        if (st.stage != "design")
            continue;
        JsonValue passes = JsonValue::array();
        for (const PassStats &s : rep.passes) {
            JsonValue jp = JsonValue::object();
            jp.set("name", JsonValue::str(s.name));
            jp.set("wall_ms", JsonValue::number(s.wallMs));
            passes.push(std::move(jp));
        }
        st.detail = JsonValue::object();
        st.detail.set("passes", std::move(passes));
    }
}

/** Symbolic-check payload fields; the failure message ("" = pass). */
std::string
setEquivPayload(JsonValue &p, const EquivResult &eq)
{
    p.set("equivalent", JsonValue::boolean(eq.equivalent));
    p.set("completed", JsonValue::boolean(eq.completed));
    p.set("outputs_compared", count(eq.outputsCompared));
    p.set("paths_explored", count(eq.pathsExplored));
    if (!eq.completed)
        return "equivalence check hit its caps";
    if (!eq.equivalent)
        return "not equivalent: " + eq.firstMismatch;
    return "";
}

const char *
satVerdictName(sat::SatEquivVerdict v)
{
    switch (v) {
      case sat::SatEquivVerdict::Equivalent: return "equivalent";
      case sat::SatEquivVerdict::NotEquivalent: return "not_equivalent";
      default: return "unknown";
    }
}

} // namespace

bool
parseJobSpec(const JsonValue &doc, JobSpec *out, std::string *err)
{
    if (!doc.isObject()) {
        *err = "job spec must be a JSON object";
        return false;
    }
    JobSpec spec;
    auto want = [&](const JsonValue &v, JsonValue::Kind kind,
                    const std::string &key, const char *what) {
        if (v.kind() == kind)
            return true;
        *err = "job key '" + key + "' must be " + what;
        return false;
    };
    auto uintField = [&](const JsonValue &v, const std::string &key,
                         uint64_t *dst) {
        if (!want(v, JsonValue::Kind::Number, key,
                  "a non-negative integer"))
            return false;
        double n = v.asNumber();
        if (n < 0 || n != static_cast<double>(
                              static_cast<uint64_t>(n))) {
            *err = "job key '" + key +
                   "' must be a non-negative integer";
            return false;
        }
        *dst = static_cast<uint64_t>(n);
        return true;
    };
    for (const auto &[key, v] : doc.members()) {
        uint64_t u = 0;
        if (key == "id") {
            if (!want(v, JsonValue::Kind::String, key, "a string"))
                return false;
            spec.id = v.asString();
        } else if (key == "kind") {
            if (!want(v, JsonValue::Kind::String, key, "a string"))
                return false;
            spec.kind = v.asString();
        } else if (key == "app") {
            if (!want(v, JsonValue::Kind::String, key, "a string"))
                return false;
            spec.apps.push_back(v.asString());
        } else if (key == "apps") {
            if (!want(v, JsonValue::Kind::Array, key,
                      "an array of strings"))
                return false;
            for (const JsonValue &e : v.items()) {
                if (!want(e, JsonValue::Kind::String, key,
                          "an array of strings"))
                    return false;
                spec.apps.push_back(e.asString());
            }
        } else if (key == "netlist") {
            if (!want(v, JsonValue::Kind::String, key, "a string"))
                return false;
            spec.netlist = v.asString();
        } else if (key == "netlist_json") {
            if (!want(v, JsonValue::Kind::Object, key,
                      "an inline netlist object"))
                return false;
            spec.netlistInline = v.dump();
        } else if (key == "core") {
            if (!want(v, JsonValue::Kind::String, key, "a string"))
                return false;
            spec.core = v.asString();
        } else if (key == "against") {
            if (!want(v, JsonValue::Kind::String, key, "a string"))
                return false;
            spec.against = v.asString();
        } else if (key == "threads") {
            if (!uintField(v, key, &u))
                return false;
            spec.threads = static_cast<int>(u);
        } else if (key == "power_inputs") {
            if (!uintField(v, key, &u))
                return false;
            spec.powerInputs = static_cast<int>(u);
        } else if (key == "power_seed") {
            if (!uintField(v, key, &spec.powerSeed))
                return false;
        } else if (key == "inputs_per_mutant") {
            if (!uintField(v, key, &u))
                return false;
            spec.inputsPerMutant = static_cast<int>(u);
        } else if (key == "mutant_seed") {
            if (!uintField(v, key, &spec.mutantSeed))
                return false;
        } else if (key == "max_mutants") {
            if (!uintField(v, key, &u))
                return false;
            spec.maxMutants = static_cast<int>(u);
        } else if (key == "passes") {
            if (!want(v, JsonValue::Kind::String, key, "a string"))
                return false;
            spec.passes = v.asString();
            PassPipelineOptions probe;
            std::string perr;
            if (!parsePassList(spec.passes, &probe, &perr)) {
                *err = "job key 'passes': " + perr;
                return false;
            }
        } else if (key == "sat_depth") {
            if (!uintField(v, key, &u))
                return false;
            spec.satDepth = static_cast<int>(u);
        } else if (key == "sat_threads") {
            if (!uintField(v, key, &u))
                return false;
            spec.satThreads = static_cast<int>(u);
        } else if (key == "out") {
            if (!want(v, JsonValue::Kind::String, key, "a string"))
                return false;
            spec.out = v.asString();
        } else {
            *err = "unknown job key '" + key + "'";
            return false;
        }
    }
    if (!knownKind(spec.kind)) {
        *err = spec.kind.empty()
                   ? "job needs a 'kind' (tailor | verify | check | "
                     "mutant_sweep)"
                   : "unknown job kind '" + spec.kind + "'";
        return false;
    }
    if (spec.apps.empty()) {
        *err = "job needs an 'app' (or 'apps') workload name";
        return false;
    }
    if (spec.kind != "tailor" && spec.apps.size() != 1) {
        *err = "kind '" + spec.kind + "' takes exactly one app";
        return false;
    }
    if (spec.kind == "check" && spec.netlist.empty() &&
        spec.netlistInline.empty()) {
        *err = "check needs a 'netlist' (or 'netlist_json') candidate";
        return false;
    }
    *out = std::move(spec);
    return true;
}

bool
parseJobList(const std::string &text, std::vector<JobSpec> *specs,
             std::vector<JobResult> *invalid, std::string *err)
{
    JsonValue doc;
    if (!JsonValue::parse(text, doc, *err))
        return false;
    const JsonValue *jobs = &doc;
    if (doc.isObject()) {
        jobs = doc.find("jobs");
        if (!jobs) {
            *err = "batch object needs a 'jobs' array";
            return false;
        }
    }
    if (!jobs->isArray()) {
        *err = "batch file must be a JSON array of job specs (or an "
               "object with a 'jobs' array)";
        return false;
    }
    specs->clear();
    invalid->clear();
    for (size_t i = 0; i < jobs->items().size(); i++) {
        JobSpec spec;
        std::string perr;
        if (parseJobSpec(jobs->items()[i], &spec, &perr)) {
            specs->push_back(std::move(spec));
        } else {
            JobResult bad;
            bad.id = "job-" + std::to_string(i);
            bad.kind = "invalid";
            bad.error = perr;
            bad.payload = JsonValue::object();
            invalid->push_back(std::move(bad));
        }
    }
    return true;
}

JsonValue
JobResult::deterministicJson() const
{
    JsonValue d = JsonValue::object();
    d.set("id", JsonValue::str(id));
    d.set("kind", JsonValue::str(kind));
    d.set("ok", JsonValue::boolean(ok));
    d.set("error", JsonValue::str(error));
    d.set("payload", payload);
    return d;
}

JsonValue
JobResult::toJson() const
{
    JsonValue d = deterministicJson();
    d.set("seconds", JsonValue::number(seconds));
    d.set("checkpoint_hits", count(checkpointHits));
    d.set("checkpoint_misses", count(checkpointMisses));
    d.set("threads_used", JsonValue::number(threadsUsed));
    JsonValue st = JsonValue::array();
    for (const JobStage &s : stages) {
        JsonValue e = JsonValue::object();
        e.set("stage", JsonValue::str(s.stage));
        e.set("seconds", JsonValue::number(s.seconds));
        if (s.detail.kind() != JsonValue::Kind::Null)
            e.set("detail", s.detail);
        st.push(std::move(e));
    }
    d.set("stages", std::move(st));
    return d;
}

JobScheduler::JobScheduler(SchedulerOptions opts)
    : opts_(std::move(opts)),
      coord_(std::make_shared<CheckpointCoordinator>()),
      budget_(opts_.workerThreads)
{
    int n = opts_.jobThreads <= 0 ? 1 : opts_.jobThreads;
    runners_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; i++)
        runners_.emplace_back([this] { runnerLoop(); });
}

JobScheduler::~JobScheduler()
{
    finish();
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : runners_)
        t.join();
}

std::string
JobScheduler::submit(JobSpec spec)
{
    std::string id;
    {
        std::lock_guard<std::mutex> lk(m_);
        bespoke_assert(!stop_, "submit() on a stopping JobScheduler");
        id = submitLocked(std::move(spec));
    }
    wake_.notify_one();
    return id;
}

JobResult
backpressureRejection(const std::string &id, const std::string &kind,
                      size_t max_queued, const std::string &fallback_id)
{
    JobResult res;
    res.id = id.empty() ? fallback_id : id;
    res.kind = kind;
    res.ok = false;
    res.error = "rejected: backpressure (" +
                std::to_string(max_queued) + " outstanding jobs)";
    res.payload = JsonValue::object();
    return res;
}

bool
JobScheduler::trySubmit(JobSpec spec, std::string *id_out)
{
    {
        std::lock_guard<std::mutex> lk(m_);
        bespoke_assert(!stop_, "trySubmit() on a stopping JobScheduler");
        if (opts_.maxQueued > 0 && outstanding_ >= opts_.maxQueued)
            return false;
        std::string id = submitLocked(std::move(spec));
        if (id_out)
            *id_out = std::move(id);
    }
    wake_.notify_one();
    return true;
}

std::string
JobScheduler::submitLocked(JobSpec spec)
{
    size_t idx = specs_.size();
    if (spec.id.empty())
        spec.id = spec.kind + "-" + std::to_string(idx);
    std::string id = spec.id;
    specs_.push_back(std::move(spec));
    results_.emplace_back();
    resultReady_.push_back(false);
    queue_.push_back(idx);
    outstanding_++;
    return id;
}

std::vector<JobResult>
JobScheduler::finish()
{
    std::unique_lock<std::mutex> lk(m_);
    idle_.wait(lk, [this] { return outstanding_ == 0; });
    return results_;
}

size_t
JobScheduler::failures() const
{
    std::lock_guard<std::mutex> lk(m_);
    size_t n = 0;
    for (size_t i = 0; i < results_.size(); i++) {
        if (resultReady_[i] && !results_[i].ok)
            n++;
    }
    return n;
}

void
JobScheduler::emitProgress(const JsonValue &event)
{
    if (!opts_.progress)
        return;
    std::lock_guard<std::mutex> lk(progressM_);
    opts_.progress(event);
}

void
JobScheduler::runnerLoop()
{
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
        wake_.wait(lk, [this] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty())
            return;
        size_t idx = queue_.front();
        queue_.pop_front();
        JobSpec spec = specs_[idx];
        lk.unlock();

        JobResult res = runJob(spec);

        if (opts_.onResult) {
            std::lock_guard<std::mutex> plk(progressM_);
            opts_.onResult(res);
        }
        lk.lock();
        results_[idx] = std::move(res);
        resultReady_[idx] = true;
        outstanding_--;
        if (outstanding_ == 0)
            idle_.notify_all();
    }
}

JobResult
JobScheduler::runJob(const JobSpec &spec)
{
    auto t0 = std::chrono::steady_clock::now();
    JobResult res;
    res.id = spec.id;
    res.kind = spec.kind;
    res.payload = JsonValue::object();

    {
        JsonValue ev = JsonValue::object();
        ev.set("event", JsonValue::str("job_start"));
        ev.set("job", JsonValue::str(spec.id));
        ev.set("kind", JsonValue::str(spec.kind));
        emitProgress(ev);
    }

    // Stage records come from the flow's stageCallback (and the
    // scheduler's own verify/sweep stages below). The callback runs on
    // this runner thread only, so res needs no lock.
    auto addStage = [&](const std::string &stage, double seconds) {
        res.stages.push_back({stage, seconds, {}});
        JsonValue ev = JsonValue::object();
        ev.set("event", JsonValue::str("stage"));
        ev.set("job", JsonValue::str(spec.id));
        ev.set("stage", JsonValue::str(stage));
        ev.set("seconds", JsonValue::number(seconds));
        emitProgress(ev);
    };
    auto fail = [&](const std::string &msg) {
        res.ok = false;
        res.error = msg;
    };

    // Resolve workloads up front: a typo fails the job, not the queue.
    std::vector<const Workload *> apps;
    for (const std::string &name : spec.apps) {
        const Workload *w = findWorkload(name);
        if (!w) {
            fail("no workload named '" + name + "'");
            apps.clear();
            break;
        }
        apps.push_back(w);
    }

    Netlist baseline;
    std::string err;
    if (!apps.empty() && !loadBaseline(spec, &baseline, &err))
        fail(err);

    if (res.error.empty()) {
        // Lease workers from the shared budget (FIFO; blocks until
        // granted): the larger of the analysis and SAT asks (see
        // JobSpec::satThreads). 0 asks for the whole budget. A check
        // job's symbolic leg runs on one worker, so it leases one.
        int analysis = spec.threads <= 0 ? budget_.total() : spec.threads;
        int want = spec.kind == "check"
                       ? 1
                       : std::max(analysis, spec.satThreads);
        ThreadLease lease = budget_.acquire(want);
        res.threadsUsed = lease.threads();
        analysis = std::min(analysis, lease.threads());
        const int sat_threads =
            spec.satThreads > 0 ? std::min(spec.satThreads, lease.threads())
                                : lease.threads();

        if (spec.kind == "check") {
            Netlist reference;
            bool loaded =
                spec.against.empty()
                    ? buildCoreByName(spec.core, &reference, &err)
                    : readNetlistFile(spec.against, &reference, &err);
            if (!loaded) {
                fail(err);
            } else {
                sizeForLoads(reference, opts_.flow.timing);
                auto tc = std::chrono::steady_clock::now();
                EquivResult eq = checkSymbolicEquivalence(
                    reference, baseline, apps[0]->assembleProgram(),
                    opts_.flow.analysis);
                addStage("check", secondsSince(tc));
                res.payload.set("app", JsonValue::str(apps[0]->name));
                std::string why = setEquivPayload(res.payload, eq);
                if (why.empty())
                    res.ok = true;
                else
                    fail(why);
            }
        } else if (spec.kind == "mutant_sweep") {
            const Workload &w = *apps[0];
            sizeForLoads(baseline, opts_.flow.timing);
            std::vector<Mutant> mutants = generateMutants(w);
            if (spec.maxMutants > 0 &&
                mutants.size() > static_cast<size_t>(spec.maxMutants))
                mutants.resize(static_cast<size_t>(spec.maxMutants));
            auto tc = std::chrono::steady_clock::now();
            MutantPlanePrep prep(baseline, w, mutants);
            MutantSweepOptions mo;
            mo.planeBits = opts_.flow.planeBits;
            if (spec.inputsPerMutant > 0)
                mo.inputsPerMutant = spec.inputsPerMutant;
            if (spec.mutantSeed != 0)
                mo.seed = spec.mutantSeed;
            std::vector<MutantVerdict> verdicts =
                mutantConcreteSweep(prep, mo);
            addStage("mutant_sweep", secondsSince(tc));
            size_t detected = 0;
            double sum_delta = 0.0;
            for (const MutantVerdict &v : verdicts) {
                if (v.detected)
                    detected++;
                sum_delta += std::abs(v.powerDeltaPct);
            }
            res.payload.set("app", JsonValue::str(w.name));
            res.payload.set("mutants", count(verdicts.size()));
            res.payload.set("detected", count(detected));
            res.payload.set(
                "mean_abs_power_delta_pct",
                JsonValue::number(verdicts.empty()
                                      ? 0.0
                                      : sum_delta / verdicts.size()));
            res.ok = true;
        } else {
            // tailor / verify: the checkpointed flow on a per-job
            // options copy — own store instance, shared directory and
            // coordinator, workers leased above.
            FlowOptions fopts = opts_.flow;
            fopts.checkpointDir = opts_.checkpointDir;
            fopts.checkpointMaxBytes = opts_.checkpointMaxBytes;
            fopts.checkpointCoordinator = coord_;
            fopts.analysis.threads = analysis;
            if (spec.powerInputs > 0)
                fopts.powerInputsPerWorkload = spec.powerInputs;
            if (spec.powerSeed != 0)
                fopts.powerSeed = spec.powerSeed;
            if (!spec.passes.empty()) {
                std::string perr;
                // Validated at parse time; re-check defensively.
                if (!parsePassList(spec.passes, &fopts.passes, &perr))
                    fail("bad pass list: " + perr);
            }
            if (spec.satDepth > 0)
                fopts.passes.sat.depth = spec.satDepth;
            fopts.passes.sat.threads = sat_threads;
            fopts.stageCallback = addStage;
            BespokeFlow flow(fopts, std::move(baseline));

            BespokeDesign d;
            bool built = res.error.empty() &&
                         (apps.size() == 1
                              ? flow.tryTailor(*apps[0], &d, &err)
                              : flow.tryTailorMulti(apps, &d, &err));
            if (!built) {
                if (res.error.empty())
                    fail(err);
            } else {
                setDesignPayload(res.payload, apps, d,
                                 fopts.passes.satNeverToggle);
                setPassTimes(res.stages, d.pipeline);
                res.ok = true;
                if (spec.kind == "verify") {
                    // Both proof legs. The symbolic check is
                    // authoritative; the bounded CDCL miter shares no
                    // code with it, so a confirmed SAT witness means one
                    // of the two provers is wrong. Its finite conflict
                    // budget can exhaust on an aggressively cut design:
                    // Unknown is reported, not fatal.
                    AsmProgram prog = apps[0]->assembleProgram();
                    auto tv = std::chrono::steady_clock::now();
                    EquivResult eq = checkSymbolicEquivalence(
                        flow.baseline(), d.netlist, prog, fopts.analysis);
                    addStage("verify", secondsSince(tv));
                    std::string why = setEquivPayload(res.payload, eq);
                    if (!why.empty()) {
                        fail(why);
                    } else {
                        sat::SatEquivOptions so;
                        so.conflictBudget = 200000;
                        so.threads = sat_threads;
                        auto ts = std::chrono::steady_clock::now();
                        sat::SatEquivResult sr = sat::proveEquivalentSat(
                            flow.baseline(), d.netlist, prog, so);
                        addStage("verify_sat", secondsSince(ts));
                        JsonValue js = JsonValue::object();
                        js.set("verdict",
                               JsonValue::str(satVerdictName(sr.verdict)));
                        js.set("depth", JsonValue::number(sr.depth));
                        js.set("detail", JsonValue::str(sr.detail));
                        res.payload.set("sat_cross_check", std::move(js));
                        if (sr.verdict ==
                            sat::SatEquivVerdict::NotEquivalent) {
                            fail("SAT cross-check disagrees with the "
                                 "symbolic prover: " +
                                 sr.detail);
                        }
                    }
                }
                if (res.ok && !spec.out.empty()) {
                    std::string module = "bespoke";
                    for (const Workload *w : apps)
                        module += "_" + w->name;
                    if (!writeNetlistFile(d.netlist, spec.out, module,
                                          &err))
                        fail(err);
                }
            }
            res.checkpointHits = flow.checkpoints().hits();
            res.checkpointMisses = flow.checkpoints().misses();
        }
    }

    res.seconds = secondsSince(t0);
    {
        JsonValue ev = JsonValue::object();
        ev.set("event", JsonValue::str("job_done"));
        ev.set("job", JsonValue::str(spec.id));
        ev.set("ok", JsonValue::boolean(res.ok));
        if (!res.ok)
            ev.set("error", JsonValue::str(res.error));
        ev.set("seconds", JsonValue::number(res.seconds));
        ev.set("checkpoint_hits", count(res.checkpointHits));
        ev.set("checkpoint_misses", count(res.checkpointMisses));
        emitProgress(ev);
    }
    return res;
}

} // namespace bespoke
