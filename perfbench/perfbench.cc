#include "perfbench.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/fnv.hh"

namespace perfbench
{

// ---------------------------------------------------------------------
// Result digest

AppOutcome
outcomeOf(const pka::core::AppEvaluation &ev)
{
    AppOutcome o;
    o.app = ev.name;
    o.siliconCycles = ev.siliconCycles;
    o.siliconIpc = ev.siliconIpc;
    o.siliconPksErrorPct = ev.siliconPksErrorPct;
    o.selection = ev.pka.selection;
    o.pks = ev.pka.pks;
    o.pka = ev.pka.pka;
    o.fullySimulated = ev.fullySimulated;
    o.fullSim = ev.fullSim;
    return o;
}

namespace
{

void
hashGroups(pka::sim::Fnv &f,
           const std::vector<pka::core::KernelGroup> &groups)
{
    f.u64(groups.size());
    for (const auto &g : groups) {
        f.u64(g.representative);
        f.f64(g.weight);
        f.u64(g.members.size());
        f.bytes(g.members.data(), g.members.size() * sizeof(uint32_t));
    }
}

void
hashProjection(pka::sim::Fnv &f, const pka::core::AppProjection &p)
{
    f.f64(p.projectedCycles);
    f.f64(p.projectedThreadInsts);
    f.f64(p.simulatedCycles);
}

} // namespace

uint64_t
evaluationDigest(const AppOutcome &o)
{
    pka::sim::Fnv f;
    f.str(o.app);
    f.f64(o.siliconCycles);
    f.f64(o.siliconIpc);
    f.u64(o.selection.usedTwoLevel ? 1 : 0);
    hashGroups(f, o.selection.groups);
    f.u64(o.selection.detailedCount);
    f.f64(o.selection.profilingCostSec);
    f.f64(o.siliconPksErrorPct);
    hashProjection(f, o.pks);
    hashProjection(f, o.pka);
    f.u64(o.fullySimulated ? 1 : 0);
    f.f64(o.fullSim.cycles);
    f.f64(o.fullSim.threadInsts);
    return f.h;
}

uint64_t
appDigest(const AppOutcome &o)
{
    pka::sim::Fnv f;
    f.u64(evaluationDigest(o));
    f.u64(o.hasBaselines ? 1 : 0);
    if (o.hasBaselines) {
        hashGroups(f, o.tbpoint.groups);
        f.f64(o.tbpoint.chosenThreshold);
        f.f64(o.tbpoint.projectedCycles);
        f.f64(o.tbpoint.representativeCycleCost);
        f.f64(o.firstN.projectedAppCycles);
        f.f64(o.firstN.simulatedCycles);
    }
    return f.h;
}

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
pkaErrorPct(const AppOutcome &o)
{
    return pka::common::pctError(o.pka.projectedCycles, o.siliconCycles);
}

double
simReduction(const AppOutcome &o)
{
    double full = o.fullySimulated ? o.fullSim.cycles : o.siliconCycles;
    return o.pka.simulatedCycles > 0 ? full / o.pka.simulatedCycles : 1.0;
}

// ---------------------------------------------------------------------
// Spans

Tracer::Tracer() : epoch_(Clock::now()) {}

int
Tracer::begin(std::string name, int run)
{
    Span s;
    s.name = std::move(name);
    s.start = std::chrono::duration<double>(Clock::now() - epoch_).count();
    s.end = s.start;
    s.parent = open_.empty() ? -1 : open_.back();
    s.run = run;
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    PKA_ASSERT(!open_.empty() && open_.back() == id,
               "spans must close innermost first");
    spans_[static_cast<size_t>(id)].end =
        std::chrono::duration<double>(Clock::now() - epoch_).count();
    open_.pop_back();
}

int
Tracer::add(Span s)
{
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

double
Tracer::childCover(int id) const
{
    const Span &p = spans_[static_cast<size_t>(id)];
    std::vector<std::pair<double, double>> iv;
    for (const Span &c : spans_)
        if (c.parent == id)
            iv.emplace_back(std::max(c.start, p.start),
                            std::min(c.end, p.end));
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, reach = p.start;
    for (const auto &[lo, hi] : iv) {
        double from = std::max(lo, reach);
        if (hi > from) {
            covered += hi - from;
            reach = hi;
        }
    }
    return covered;
}

std::map<std::string, double>
Tracer::selfSeconds(int run) const
{
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.run != run)
            continue;
        out[s.name] += (s.end - s.start) - childCover(static_cast<int>(i));
    }
    return out;
}

double
Tracer::coveragePct(int root) const
{
    const Span &r = spans_[static_cast<size_t>(root)];
    double dur = r.end - r.start;
    return dur > 0 ? 100.0 * childCover(root) / dur : 0.0;
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                      s.run, s.start * 1e6, (s.end - s.start) * 1e6, i,
                      s.parent);
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\","
           << buf;
    }
    os << "\n]}\n";
}

Scope::Scope(Tracer *tracer, const char *name, int run) : tracer_(tracer)
{
    if (tracer_)
        id_ = tracer_->begin(name, run);
}

Scope::~Scope()
{
    if (tracer_)
        tracer_->end(id_);
}

// ---------------------------------------------------------------------
// Metric names

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"wall_s", "s"},          {"cpu_s", "s"},
        {"setup_s", "s"},         {"peak_rss_mb", "MiB"},
        {"completed_pct", "%"},   {"pka_error_pct", "%"},
        {"sim_reduction_x", "x"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"sim.fullsim_s", "s"},
        {"sim.pks_s", "s"},
        {"sim.pka_s", "s"},
        {"sim.first_n_s", "s"},
        {"sim.cached_pass_s", "s"},
        {"sim.busy_s", "s"},
        {"sim.cycles", "count"},
        {"sim.cycles_per_busy_s", "cycles/s"},
        {"sim.utilization", "%"},
        {"sim.launches", "count"},
        {"sim.simulated", "count"},
        {"sim.memory_hits", "count"},
        {"sim.store_hits", "count"},
        {"sim.hit_ratio", "%"},
        {"sim.failed", "count"},
        {"sim.pkp_saving_x", "x"},
        {"core.select_s", "s"},
        {"core.two_level_s", "s"},
        {"core.pks_s", "s"},
        {"silicon.profile_s", "s"},
        {"silicon.cost_model_s", "s"},
        {"core.groups", "count"},
        {"core.two_level_launches", "count"},
        {"silicon.run_s", "s"},
        {"core.tbpoint_s", "s"},
        {"core.tbpoint_kernels", "count"},
        {"store.reads", "count"},
        {"store.read_mb", "MiB"},
        {"store.hit_ratio", "%"},
        {"store.corrupt", "count"},
        {"store.writes", "count"},
        {"store.write_mb", "MiB"},
        {"store.io_retries", "count"},
        {"workload.build_s", "s"},
        {"store.open_s", "s"},
        {"workload.launches", "count"},
        {"workload.distinct_kernels", "count"},
        {"workload.warp_insts", "count"},
        {"trace.coverage_pct", "%"},
        {"trace.overhead_pct", "%"},
    };
    return defs;
}

} // namespace perfbench
