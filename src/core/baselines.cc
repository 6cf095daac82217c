#include "core/baselines.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "common/logging.hh"
#include "common/stats.hh"
#include "core/pka.hh"
#include "ml/hierarchical.hh"
#include "ml/scaler.hh"
#include "sim/fnv.hh"
#include "store/journal.hh"

namespace pka::core
{

using pka::workload::Workload;

namespace
{

/** Expected whole-app retired thread instructions (no CTA jitter). */
double
expectedThreadInstructions(const Workload &w)
{
    double total = 0.0;
    for (const auto l : w.launches)
        total += static_cast<double>(l.config.totalWarpInstructions()) *
                 32.0 * l.config.program->divergenceEff;
    return total;
}

} // namespace

BaselineResult
firstNInstructions(const sim::SimEngine &engine,
                   const sim::GpuSimulator &simulator, const Workload &w,
                   uint64_t instruction_budget)
{
    BaselineResult res;
    sim::EngineStats stats;
    double budget = static_cast<double>(instruction_budget);
    for (const auto l : w.launches) {
        sim::SimJob job;
        job.setLaunch(l);
        job.workloadSeed = w.seed;
        job.opts.maxThreadInstructions = static_cast<uint64_t>(
            std::max(1.0, budget - res.simulatedThreadInsts));
        // Inherently sequential (each budget depends on what already
        // retired), but engine-routed: identical re-runs hit the memory
        // cache or the persistent store instead of re-simulating.
        sim::KernelSimResult r = engine.simulateOne(simulator, job, &stats);
        res.cacheHits = stats.cacheHits;
        res.storeHits = stats.storeHits;
        res.cacheMisses = stats.cacheMisses;
        res.simulatedCycles += static_cast<double>(r.cycles);
        res.simulatedThreadInsts += r.threadInstructions;
        if (r.truncatedByBudget ||
            res.simulatedThreadInsts >= budget) {
            // Extrapolate the whole app at the IPC measured so far.
            double ipc = res.simulatedCycles > 0
                             ? res.simulatedThreadInsts /
                                   res.simulatedCycles
                             : 1.0;
            res.projectedAppCycles =
                ipc > 0 ? expectedThreadInstructions(w) / ipc : 0.0;
            res.completed = false;
            return res;
        }
    }
    res.projectedAppCycles = res.simulatedCycles;
    res.completed = true;
    return res;
}

common::Expected<TBPointResult>
tbpointSelectChecked(const std::vector<TBPointKernelStats> &stats,
                     const TBPointOptions &options)
{
    if (stats.empty()) {
        common::TaskError e;
        e.kind = common::ErrorKind::kBadInput;
        e.message = "TBPoint needs kernel stats";
        e.context = "tbpointSelect";
        return e;
    }

    double true_cycles = 0.0;
    for (const auto &s : stats)
        true_cycles += static_cast<double>(s.cycles);

    // Feature matrix: simulation-derived per-kernel behaviour.
    std::vector<std::vector<double>> rows;
    rows.reserve(stats.size());
    for (const auto &s : stats) {
        rows.push_back({std::log1p(static_cast<double>(s.cycles)),
                        s.ipc, s.dramUtilPct, s.l2MissPct,
                        std::log1p(s.warpInstructions),
                        std::log1p(s.numCtas)});
    }
    ml::StandardScaler scaler;
    ml::Matrix X = scaler.fitTransform(ml::Matrix::fromRows(rows));

    // Cluster once, then sweep threshold cuts from coarse (few groups) to
    // fine; keep the coarsest grouping meeting the error target, else the
    // best error. Thresholds map into the standardized feature space
    // (x20).
    common::Expected<ml::Dendrogram> built =
        ml::buildDendrogram(X, options.maxKernels);
    if (!built.ok())
        return built.error();
    const ml::Dendrogram &dendro = built.value();
    TBPointResult best;
    double best_err = 1e300;
    for (uint32_t i = 0; i < options.sweepPoints; ++i) {
        double frac = options.sweepPoints > 1
                          ? static_cast<double>(i) /
                                (options.sweepPoints - 1)
                          : 0.0;
        double t = options.maxThreshold -
                   frac * (options.maxThreshold - options.minThreshold);
        double dist_threshold = t * 8.0;

        auto hc = ml::cutDendrogram(dendro, dist_threshold);

        std::vector<KernelGroup> groups(hc.numClusters);
        std::vector<bool> seen(hc.numClusters, false);
        for (size_t r = 0; r < stats.size(); ++r) {
            uint32_t g = hc.labels[r];
            if (!seen[g]) {
                seen[g] = true;
                groups[g].representative = stats[r].launchId;
                groups[g].representativeCycles = stats[r].cycles;
            }
            groups[g].members.push_back(stats[r].launchId);
            groups[g].weight += 1.0;
        }
        double projected = 0.0, rep_cost = 0.0;
        for (const auto &g : groups) {
            projected +=
                static_cast<double>(g.representativeCycles) * g.weight;
            rep_cost += static_cast<double>(g.representativeCycles);
        }
        double err = pka::common::pctError(projected, true_cycles);
        if (err < best_err) {
            best_err = err;
            best.groups = std::move(groups);
            best.chosenThreshold = t;
            best.projectedCycles = projected;
            best.projectedErrorPct = err;
            best.representativeCycleCost = rep_cost;
        }
        if (best_err < options.targetErrorPct)
            break; // coarsest grouping meeting the target
    }
    best.trueCycles = true_cycles;
    return best;
}

size_t
detectIterationPeriod(const std::vector<std::string> &names)
{
    const size_t n = names.size();
    if (n < 4)
        return 0;

    // Intern names, then use the KMP failure function to find the
    // smallest period of the sequence.
    std::unordered_map<std::string, uint32_t> interned;
    std::vector<uint32_t> seq(n);
    for (size_t i = 0; i < n; ++i) {
        auto [it, _] = interned.emplace(
            names[i], static_cast<uint32_t>(interned.size()));
        seq[i] = it->second;
    }

    std::vector<size_t> pi(n, 0);
    for (size_t i = 1; i < n; ++i) {
        size_t j = pi[i - 1];
        while (j > 0 && seq[i] != seq[j])
            j = pi[j - 1];
        if (seq[i] == seq[j])
            ++j;
        pi[i] = j;
    }
    size_t period = n - pi[n - 1];
    // Require at least two full iterations and a non-trivial period.
    if (period == 0 || period > n / 2 || period == n)
        return 0;
    return period;
}

SingleIterationResult
singleIterationBaseline(const sim::SimEngine &engine,
                        const sim::GpuSimulator &simulator,
                        const Workload &w,
                        const CampaignCheckpoint *checkpoint)
{
    SingleIterationResult res;
    std::vector<std::string> names;
    names.reserve(w.launches.size());
    for (const auto l : w.launches)
        names.push_back(l.config.program->name);
    size_t period = detectIterationPeriod(names);
    if (period == 0)
        return res;

    res.applicable = true;
    res.periodLaunches = period;
    res.iterations = static_cast<double>(w.launches.size()) /
                     static_cast<double>(period);
    std::vector<sim::SimJob> jobs(period);
    for (size_t i = 0; i < period; ++i) {
        jobs[i].setLaunch(w.launches[i]);
        jobs[i].workloadSeed = w.seed;
    }

    std::unique_ptr<store::CampaignJournal> journal;
    if (checkpoint && !checkpoint->dir.empty()) {
        // The detected period is part of the campaign's identity: a
        // journal recorded against a different period (e.g. after a
        // generator change) must never resume.
        sim::Fnv f;
        f.u64(campaignKey(simulator, w, engine, "single-iter"));
        f.u64(period);
        journal = std::make_unique<store::CampaignJournal>(
            journalPath(checkpoint->dir, "single-iter", f.h), f.h,
            jobs.size(), checkpoint->resume);
    }

    CampaignRunOutcome run = runJobsCheckpointedChecked(
        engine, simulator, jobs, CampaignPolicy{}, nullptr, journal.get(),
        checkpoint ? checkpoint->chunkLaunches : 0);
    if (!run.failures.empty())
        common::fatal("simulation failed: " +
                      run.failures.front().error.str());
    for (const auto &r : run.results)
        res.simulatedCycles += static_cast<double>(r.cycles);
    res.projectedAppCycles = res.simulatedCycles * res.iterations;
    return res;
}

} // namespace pka::core
