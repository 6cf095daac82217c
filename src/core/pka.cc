#include "core/pka.hh"

#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "silicon/profiler.hh"
#include "sim/fnv.hh"
#include "store/journal.hh"

namespace pka::core
{

using pka::workload::Workload;

uint64_t
campaignKey(const sim::GpuSimulator &simulator, const Workload &w,
            const sim::SimEngine &engine, const std::string &stage)
{
    sim::Fnv f;
    f.str(stage);
    f.u64(sim::specContentHash(simulator.spec()));
    f.u64(w.seed);
    f.u64(engine.options().contentSeed ? 1 : 0);
    f.u64(w.launches.size());
    w.launches.forEachLaunch(w.launches.size(), sim::launchContentHash,
                             [&f](size_t i, uint64_t content_hash) {
                                 f.u64(i);
                                 f.u64(content_hash);
                             });
    return f.h;
}

std::string
journalPath(const std::string &dir, const std::string &stage,
            uint64_t campaign_key)
{
    return (std::filesystem::path(dir) /
            common::strfmt("journal-%s-%016llx.pkj", stage.c_str(),
                           static_cast<unsigned long long>(campaign_key)))
        .string();
}

CampaignRunOutcome
runJobsCheckpointedChecked(const sim::SimEngine &engine,
                           const sim::GpuSimulator &simulator,
                           const std::vector<sim::SimJob> &jobs,
                           const CampaignPolicy &policy,
                           sim::EngineStats *stats,
                           store::CampaignJournal *journal,
                           size_t chunk_launches)
{
    CampaignRunOutcome out;
    out.results.resize(jobs.size());
    out.completed.assign(jobs.size(), 0);

    // Resume: replay journaled quarantine decisions into the engine, so
    // a kernel that poisoned the previous run is skipped immediately
    // instead of re-burning its retry budget.
    if (journal) {
        for (uint64_t h : journal->quarantined()) {
            common::TaskError e;
            e.kind = common::ErrorKind::kInternal;
            e.message = "kernel quarantined in a previous run";
            e.quarantined = true;
            engine.quarantineKernel(h, e);
        }
    }

    if (chunk_launches == 0)
        chunk_launches = journal ? 256 : std::max<size_t>(jobs.size(), 1);

    // Every launch still flows through the engine — completed ones come
    // back from the memory cache or the persistent store, so resuming
    // costs store reads, not simulation — and results land in job order,
    // keeping the reduction bit-identical to an uninterrupted run.
    std::vector<size_t> chunk_indices;
    double certified_err_sum = 0.0; // sum of served projection bounds
    for (size_t begin = 0; begin < jobs.size(); begin += chunk_launches) {
        size_t end = std::min(begin + chunk_launches, jobs.size());
        if (policy.admitChunk) {
            common::Expected<bool> admit = policy.admitChunk(end - begin);
            if (!admit.ok() || !admit.value()) {
                // The gate refused this chunk: stop here, preserving the
                // journaled progress so the campaign can resume once the
                // quota frees up. The refusal lands as a typed failure on
                // the chunk's first launch so callers see *why*.
                common::TaskError e;
                if (!admit.ok()) {
                    e = admit.error();
                } else {
                    e.kind = common::ErrorKind::kRejected;
                    e.message = "chunk refused by admission control";
                }
                out.failures.push_back(
                    {static_cast<uint64_t>(begin), std::move(e)});
                out.stoppedEarly = true;
                break;
            }
        }
        std::vector<sim::SimJob> chunk(jobs.begin() + begin,
                                       jobs.begin() + end);
        if (out.accuracyDegraded)
            // Budget already tripped: the remainder runs simulate-
            // through. Exact cache/store hits still serve (they are
            // truth); only the similarity tier is disabled.
            for (sim::SimJob &j : chunk)
                j.noProject = true;
        size_t prev_errors = stats ? stats->launchErrors.size() : 0;
        std::vector<common::Expected<sim::KernelSimResult>> part =
            engine.runChecked(simulator, chunk, stats, policy.priority);
        if (stats) // lift chunk-local error indices into campaign space
            for (size_t e = prev_errors; e < stats->launchErrors.size();
                 ++e)
                stats->launchErrors[e].index += begin;

        chunk_indices.clear();
        bool chunk_failed = false;
        for (size_t i = 0; i < part.size(); ++i) {
            size_t idx = begin + i;
            if (part[i].ok()) {
                if (part[i].value().projected)
                    certified_err_sum +=
                        part[i].value().projectionErrorBound;
                out.results[idx] = std::move(part[i].value());
                out.completed[idx] = 1;
                ++out.completedCount;
                chunk_indices.push_back(idx);
                continue;
            }
            chunk_failed = true;
            out.failures.push_back(
                {static_cast<uint64_t>(idx), part[i].error()});
            if (journal && part[i].error().quarantined &&
                jobs[idx].kernel && jobs[idx].kernel->program)
                journal->markQuarantined(
                    sim::launchContentHash(*jobs[idx].kernel));
        }
        if (journal)
            journal->markDone(chunk_indices);

        // Accuracy SLO: once the mean certified error over the whole
        // campaign exceeds the budget, degrade the remaining chunks to
        // simulate-through (the ENOSPC compute-through shape — the
        // campaign finishes, the breach is typed in the outcome).
        if (policy.errorBudget > 0.0 && !out.accuracyDegraded &&
            !jobs.empty() &&
            certified_err_sum / static_cast<double>(jobs.size()) >
                policy.errorBudget) {
            out.accuracyDegraded = true;
            common::warnRateLimited(
                "campaign.accuracy",
                common::strfmt(
                    "campaign error budget exceeded (certified %.4f > "
                    "budget %.4f after %zu launches); degrading the "
                    "remainder to simulate-through",
                    certified_err_sum / static_cast<double>(jobs.size()),
                    policy.errorBudget, end));
        }
        if (policy.onProgress)
            policy.onProgress(end, jobs.size());
        if (policy.failFast && chunk_failed) {
            out.stoppedEarly = true;
            break;
        }
    }

    out.certifiedError =
        jobs.empty() ? 0.0
                     : certified_err_sum / static_cast<double>(jobs.size());
    double fraction =
        jobs.empty() ? 1.0
                     : static_cast<double>(out.completedCount) /
                           static_cast<double>(jobs.size());
    out.quorumMet =
        !out.stoppedEarly && fraction + 1e-12 >= policy.minQuorum;
    return out;
}

common::Expected<SelectionOutcome>
selectKernelsChecked(const Workload &w, const silicon::SiliconGpu &gpu,
                     const PkaOptions &options)
{
    silicon::DetailedProfiler detailed(gpu);
    silicon::LightweightProfiler light(gpu);

    SelectionOutcome out;

    // Tractability test at full-size-equivalent scale: the generated
    // stream is `w.scale` of the paper's run, so real-world profiling
    // cost is the measured cost divided by the scale.
    double full_cost = detailed.costSeconds(w);
    double scale = w.scale > 0 ? w.scale : 1.0;
    double full_equivalent = full_cost / scale;

    PksOptions pks_opts = options.pks;
    pks_opts.validation = options.strictProfiles
                              ? ValidationPolicy::kStrict
                              : ValidationPolicy::kRepair;

    if (full_equivalent <= options.detailedProfilingBudgetSec ||
        w.launches.size() <= options.twoLevelDetailedKernels) {
        auto profiles = detailed.profile(w);
        common::Expected<PksResult> pks =
            principalKernelSelectionChecked(std::move(profiles), pks_opts);
        if (!pks.ok())
            return pks.error();
        out.validation = pks.value().validation;
        out.groups = std::move(pks.value().groups);
        out.usedTwoLevel = false;
        out.detailedCount =
            w.launches.size() - out.validation.excludedLaunchIds.size();
        out.profilingCostSec = full_cost;
        return out;
    }

    // Two-level: detailed prefix + lightweight remainder + classifiers.
    TwoLevelOptions tl;
    tl.detailedKernels = options.twoLevelDetailedKernels;
    tl.pks = pks_opts;
    tl.abstainThreshold = options.abstainThreshold;
    auto prefix = detailed.profile(w, tl.detailedKernels);
    auto all_light = light.profile(w);
    common::Expected<TwoLevelResult> two = twoLevelSelectionChecked(
        std::move(prefix), std::move(all_light), tl);
    if (!two.ok())
        return two.error();
    TwoLevelResult &t = two.value();
    out.groups = std::move(t.groups);
    out.usedTwoLevel = true;
    out.detailedCount = t.detailedCount;
    out.profilingCostSec = detailed.costSeconds(w, tl.detailedKernels) +
                           light.costSeconds(w);
    out.ensembleUnanimity = t.ensembleUnanimity;
    out.validation = t.prefixSelection.validation;
    out.abstentions = t.abstentions;
    out.fallbackMapped = t.fallbackMapped;
    out.meanEnsembleConfidence = t.meanEnsembleConfidence;
    return out;
}

SelectionOutcome
selectKernels(const Workload &w, const silicon::SiliconGpu &gpu,
              const PkaOptions &options)
{
    common::Expected<SelectionOutcome> res =
        selectKernelsChecked(w, gpu, options);
    if (!res.ok())
        common::fatal(res.error().str());
    return std::move(res.value());
}

AppProjection
simulateSelection(const sim::SimEngine &engine,
                  const sim::GpuSimulator &simulator, const Workload &w,
                  const SelectionOutcome &selection, const PkpOptions *pkp,
                  const CampaignCheckpoint *checkpoint,
                  const CampaignPolicy *policy)
{
    AppProjection out;

    std::vector<sim::SimJob> jobs;
    jobs.reserve(selection.groups.size());
    for (const auto &g : selection.groups) {
        PKA_ASSERT(g.representative < w.launches.size(),
                   "representative outside the traced stream");
        sim::SimJob job;
        job.setLaunch(w.launches[g.representative]);
        job.workloadSeed = w.seed;
        if (pkp) {
            // One fresh controller per kernel: PKP stability state must
            // never leak between representatives, and per-task
            // construction is what makes the fan-out race-free.
            PkpOptions cfg = *pkp;
            job.makeStop = [cfg] {
                return std::make_unique<IpcStabilityController>(cfg);
            };
            job.stopConfigKey = pkpStopConfigKey(cfg);
        }
        jobs.push_back(std::move(job));
    }

    std::unique_ptr<store::CampaignJournal> journal;
    if (checkpoint && !checkpoint->dir.empty()) {
        // The selection (group membership, representatives, stop
        // policy) is part of the campaign's identity: a journal from a
        // different selection over the same stream must never resume.
        const char *stage = pkp ? "pka" : "pks";
        sim::Fnv f;
        f.u64(campaignKey(simulator, w, engine, stage));
        f.u64(pkp ? pkpStopConfigKey(*pkp) : 0);
        for (const auto &g : selection.groups) {
            f.u64(g.representative);
            f.f64(g.weight);
        }
        journal = std::make_unique<store::CampaignJournal>(
            journalPath(checkpoint->dir, stage, f.h), f.h, jobs.size(),
            checkpoint->resume);
    }

    sim::EngineStats stats;
    CampaignRunOutcome run = runJobsCheckpointedChecked(
        engine, simulator, jobs, policy ? *policy : CampaignPolicy{},
        &stats, journal.get(), checkpoint ? checkpoint->chunkLaunches : 0);
    if (!policy && !run.failures.empty())
        // Strict contract: without an explicit policy, a failed
        // representative is fatal.
        common::fatal("simulation failed: " +
                      run.failures.front().error.str());

    // Reduce in group order — bit-identical for any thread count.
    // Failed representatives drop out of the sums; surviving weight is
    // renormalized below so the projection still estimates the whole
    // app.
    double util_weight = 0.0;
    double total_weight = 0.0;
    double surviving_weight = 0.0;
    for (size_t i = 0; i < run.results.size(); ++i) {
        const auto &g = selection.groups[i];
        total_weight += g.weight;
        if (!run.completed[i])
            continue;
        surviving_weight += g.weight;
        const sim::KernelSimResult &r = run.results[i];
        PkpProjection proj = projectKernel(r);

        out.projectedCycles +=
            static_cast<double>(proj.projectedCycles) * g.weight;
        out.projectedThreadInsts +=
            proj.projectedThreadInstructions * g.weight;
        double cw = static_cast<double>(proj.projectedCycles) * g.weight;
        out.projectedDramUtilPct += proj.projectedDramUtilPct * cw;
        util_weight += cw;
        out.simulatedCycles += static_cast<double>(r.cycles);
    }
    if (surviving_weight > 0.0 && surviving_weight < total_weight) {
        double scale = total_weight / surviving_weight;
        out.projectedCycles *= scale;
        out.projectedThreadInsts *= scale;
    }
    out.simulatedWallSeconds = stats.wallSeconds;
    out.simulatedCpuSeconds = stats.cpuSeconds;
    out.cacheHits = stats.cacheHits;
    out.storeHits = stats.storeHits;
    out.cacheMisses = stats.cacheMisses;
    out.corruptSkipped = stats.corruptSkipped;
    out.simTierHits = stats.simTierHits;
    out.projectedLaunches = stats.projectedLaunches;
    out.projErrBound = stats.projErrBound;
    out.failedLaunches = run.failures.size();
    out.quarantinedKernels = stats.quarantinedKernels;
    out.quorumMet = run.quorumMet;
    out.accuracyDegraded = run.accuracyDegraded;
    out.certifiedError = run.certifiedError;
    out.failures = std::move(run.failures);
    if (util_weight > 0)
        out.projectedDramUtilPct /= util_weight;
    return out;
}

common::Expected<PkaAppResult>
runPkaChecked(const sim::SimEngine &engine, const Workload &traced,
              const Workload &profiled, const silicon::SiliconGpu &gpu,
              const sim::GpuSimulator &simulator, const PkaOptions &options,
              const CampaignCheckpoint *checkpoint,
              const CampaignPolicy *policy)
{
    PkaAppResult res;
    if (traced.launches.size() != profiled.launches.size()) {
        res.excluded = true;
        res.exclusionReason = pka::common::strfmt(
            "profiled run launched %zu kernels but the traced run "
            "launched %zu (runtime algorithm selection diverged)",
            profiled.launches.size(), traced.launches.size());
        return res;
    }

    common::Expected<SelectionOutcome> selection =
        selectKernelsChecked(profiled, gpu, options);
    if (!selection.ok())
        return selection.error();
    res.selection = std::move(selection.value());
    res.pks = simulateSelection(engine, simulator, traced, res.selection,
                                nullptr, checkpoint, policy);
    res.pka = simulateSelection(engine, simulator, traced, res.selection,
                                &options.pkp, checkpoint, policy);
    return res;
}

PkaAppResult
runPka(const sim::SimEngine &engine, const Workload &traced,
       const Workload &profiled, const silicon::SiliconGpu &gpu,
       const sim::GpuSimulator &simulator, const PkaOptions &options,
       const CampaignCheckpoint *checkpoint, const CampaignPolicy *policy)
{
    common::Expected<PkaAppResult> res = runPkaChecked(
        engine, traced, profiled, gpu, simulator, options, checkpoint,
        policy);
    if (!res.ok())
        common::fatal(res.error().str());
    return std::move(res.value());
}

} // namespace pka::core
