#include "harness/harness.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

#include "src/util/json.hh"

namespace perfbench
{

using bespoke::JsonValue;

namespace
{

/** Open scopes of the calling thread, innermost last. */
thread_local std::vector<int> open_scopes;

} // namespace

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Percentile
percentile(std::vector<double> samples, double p)
{
    Percentile r;
    r.samples = samples.size();
    if (samples.empty())
        return r;
    std::sort(samples.begin(), samples.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(r.samples));
    size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    r.value = samples[std::min(idx, r.samples - 1)];
    return r;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Percentile
percentileOfMedians(const std::map<std::string, std::vector<double>> &byKind,
                    double p)
{
    std::vector<double> medians;
    size_t samples = 0;
    for (const auto &[kind, v] : byKind) {
        if (v.empty())
            continue;
        medians.push_back(median(v));
        samples += v.size();
    }
    Percentile r = percentile(std::move(medians), p);
    r.samples = samples;
    return r;
}

void
OpLedger::fail(const std::string &why)
{
    attempted_++;
    failures_.push_back(why);
}

bool
OpLedger::check(bool ok, const std::string &why)
{
    if (ok)
        pass();
    else
        fail(why);
    return ok;
}

double
OpLedger::failedShare() const
{
    return attempted_ ? static_cast<double>(failures_.size()) /
                            static_cast<double>(attempted_)
                      : 0.0;
}

Tracer::Scope::Scope(Tracer &t, const std::string &name, int64_t op)
    : tracer_(t)
{
    if (t.enabled_)
        id_ = t.open(name, op);
}

Tracer::Scope::~Scope()
{
    if (id_ >= 0)
        tracer_.close(id_);
}

int
Tracer::open(const std::string &name, int64_t op)
{
    int parent = current();
    int id;
    {
        std::lock_guard<std::mutex> g(m_);
        id = static_cast<int>(spans_.size());
        spans_.push_back({name, nowSeconds(), 0.0, parent, op});
    }
    open_scopes.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    double t = nowSeconds();
    open_scopes.pop_back();
    std::lock_guard<std::mutex> g(m_);
    spans_[static_cast<size_t>(id)].end = t;
}

int
Tracer::current() const
{
    return open_scopes.empty() ? -1 : open_scopes.back();
}

int
Tracer::add(const std::string &name, double start, double end, int parent,
            int64_t op)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> g(m_);
    spans_.push_back({name, start, end, parent, op});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> g(m_);
    return spans_;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size())
            kids[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); i++) {
        double lo = spans[i].start, hi = spans[i].end;
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<double, double>> &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, run_lo = 0.0, run_hi = -1.0;
        for (auto [a, b] : iv) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a)
                continue;
            if (a > run_hi) {
                if (run_hi > run_lo)
                    covered += run_hi - run_lo;
                run_lo = a;
                run_hi = b;
            } else {
                run_hi = std::max(run_hi, b);
            }
        }
        if (run_hi > run_lo)
            covered += run_hi - run_lo;
        self[i] = (hi - lo) - covered;
    }
    return self;
}

bool
Tracer::writeJson(const std::string &path) const
{
    JsonValue arr = JsonValue::array();
    for (const Span &s : spans()) {
        JsonValue o = JsonValue::object();
        o.set("name", JsonValue::str(s.name));
        o.set("start", JsonValue::number(s.start));
        o.set("end", JsonValue::number(s.end));
        o.set("parent", JsonValue::number(s.parent));
        o.set("op", JsonValue::number(static_cast<double>(s.op)));
        arr.push(std::move(o));
    }
    std::ofstream os(path);
    os << arr.dump(0) << "\n";
    return static_cast<bool>(os);
}

bool
DeterminismLedger::load(const std::string &path, std::string *err)
{
    std::ifstream is(path);
    if (!is)
        return true;
    std::stringstream ss;
    ss << is.rdbuf();
    JsonValue doc;
    std::string perr;
    if (!JsonValue::parse(ss.str(), doc, perr) || !doc.isObject()) {
        *err = path + ": " + (perr.empty() ? "not an object" : perr);
        return false;
    }
    for (const auto &[key, counters] : doc.members()) {
        if (!counters.isObject())
            continue;
        for (const auto &[name, v] : counters.members()) {
            if (v.isNumber())
                counts_[key][name] = v.asNumber();
        }
    }
    return true;
}

bool
DeterminismLedger::save(const std::string &path) const
{
    JsonValue doc = JsonValue::object();
    for (const auto &[key, counters] : counts_) {
        JsonValue o = JsonValue::object();
        for (const auto &[name, v] : counters)
            o.set(name, JsonValue::number(v));
        doc.set(key, std::move(o));
    }
    std::ofstream os(path);
    os << doc.dump(1) << "\n";
    return static_cast<bool>(os);
}

void
DeterminismLedger::record(const std::string &key, const std::string &counter,
                          double value)
{
    checked_++;
    auto [it, fresh] = counts_[key].emplace(counter, value);
    if (!fresh && it->second != value) {
        std::ostringstream os;
        os.precision(17);
        os << key << " " << counter << ": " << it->second << " -> "
           << value;
        drifts_.push_back(os.str());
    }
}

} // namespace perfbench
