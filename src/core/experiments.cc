#include "core/experiments.hh"

#include <memory>

#include "common/logging.hh"
#include "common/stats.hh"
#include "store/journal.hh"

namespace pka::core
{

using pka::workload::GenOptions;
using pka::workload::Workload;

std::vector<WorkloadPair>
buildAllPairs(const GenOptions &g)
{
    GenOptions traced_opts = g;
    traced_opts.underProfiler = false;
    GenOptions profiled_opts = g;
    profiled_opts.underProfiler = true;

    auto traced = pka::workload::allWorkloads(traced_opts);
    auto profiled = pka::workload::allWorkloads(profiled_opts);
    PKA_ASSERT(traced.size() == profiled.size(),
               "registry size diverged between variants");

    std::vector<WorkloadPair> pairs;
    pairs.reserve(traced.size());
    for (size_t i = 0; i < traced.size(); ++i) {
        PKA_ASSERT(traced[i].name == profiled[i].name,
                   "registry ordering diverged between variants");
        pairs.push_back(
            WorkloadPair{std::move(traced[i]), std::move(profiled[i])});
    }
    return pairs;
}

FullSimResult
fullSimulate(const sim::SimEngine &engine,
             const sim::GpuSimulator &simulator, const Workload &w,
             const CampaignCheckpoint *checkpoint,
             const CampaignPolicy *policy)
{
    FullSimResult out;

    std::vector<sim::SimJob> jobs(w.launches.size());
    for (size_t i = 0; i < w.launches.size(); ++i) {
        jobs[i].setLaunch(w.launches[i]);
        jobs[i].workloadSeed = w.seed;
    }

    std::unique_ptr<store::CampaignJournal> journal;
    if (checkpoint && !checkpoint->dir.empty()) {
        uint64_t key = campaignKey(simulator, w, engine, "fullsim");
        journal = std::make_unique<store::CampaignJournal>(
            journalPath(checkpoint->dir, "fullsim", key), key,
            jobs.size(), checkpoint->resume);
        out.resumedLaunches = journal->resumedCount();
    }

    sim::EngineStats stats;
    CampaignRunOutcome run = runJobsCheckpointedChecked(
        engine, simulator, jobs, policy ? *policy : CampaignPolicy{},
        &stats, journal.get(), checkpoint ? checkpoint->chunkLaunches : 0);
    if (!policy && !run.failures.empty())
        // Strict contract: without an explicit policy a failed launch
        // is fatal.
        pka::common::fatal("simulation failed: " +
                           run.failures.front().error.str());

    // Reduce in launch order — bit-identical for any thread count.
    // Failed launches drop out; totals are reweighted afterwards.
    out.perKernel.reserve(run.completedCount);
    double util_weight = 0.0;
    for (size_t i = 0; i < run.results.size(); ++i) {
        if (!run.completed[i])
            continue;
        const sim::KernelSimResult &r = run.results[i];
        out.cycles += static_cast<double>(r.cycles);
        out.threadInsts += r.threadInstructions;
        out.dramUtilPct += r.dramUtilPct * static_cast<double>(r.cycles);
        util_weight += static_cast<double>(r.cycles);

        TBPointKernelStats s;
        s.launchId = static_cast<uint32_t>(i);
        s.cycles = r.cycles;
        s.ipc = r.ipc();
        s.dramUtilPct = r.dramUtilPct;
        s.l2MissPct = r.l2MissPct;
        s.warpInstructions = static_cast<double>(r.warpInstructions);
        s.numCtas = static_cast<double>(r.totalCtas);
        s.projected = r.projected;
        s.projErrBound = r.projectionErrorBound;
        out.perKernel.push_back(s);
    }
    if (util_weight > 0)
        out.dramUtilPct /= util_weight;
    if (run.completedCount > 0 && run.completedCount < jobs.size()) {
        // Reweight the totals by the completed fraction so they remain
        // a whole-app estimate (the failed launches' cycles are
        // approximated by the average completed launch).
        double scale = static_cast<double>(jobs.size()) /
                       static_cast<double>(run.completedCount);
        out.cycles *= scale;
        out.threadInsts *= scale;
    }
    out.wallSeconds = stats.wallSeconds;
    out.cpuSeconds = stats.cpuSeconds;
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
    return out;
}

bool
isFullySimulable(const Workload &w)
{
    // MLPerf-scale streams are exactly the workloads full simulation
    // cannot reach — that's the paper's premise.
    return w.suite != "mlperf";
}

AppEvaluation
evaluateApp(const WorkloadPair &pair, const silicon::SiliconGpu &gpu,
            const sim::GpuSimulator &simulator, const EvalOptions &options,
            const sim::SimEngine *engine)
{
    PKA_ASSERT(engine != nullptr, "evaluateApp needs an engine");
    const sim::SimEngine &eng = *engine;
    const Workload &w = pair.traced;
    AppEvaluation ev;
    ev.suite = w.suite;
    ev.name = w.name;

    // Silicon ground truth.
    silicon::AppExecution sil = gpu.run(w);
    ev.siliconCycles = static_cast<double>(sil.totalCycles);
    ev.siliconSeconds = sil.totalSeconds;
    double sil_insts = 0.0;
    for (const auto &l : sil.launches)
        sil_insts += l.threadIpc * static_cast<double>(l.cycles);
    ev.siliconIpc =
        ev.siliconCycles > 0 ? sil_insts / ev.siliconCycles : 0.0;

    // PKA (selection happens on the profiled variant).
    ev.pka = runPka(eng, w, pair.profiled, gpu, simulator, options.pka);
    if (ev.pka.excluded) {
        ev.excluded = true;
        ev.exclusionReason = ev.pka.exclusionReason;
        return ev;
    }

    // Silicon-side PKS evaluation: projected vs true silicon cycles.
    {
        std::vector<uint64_t> cycles(w.launches.size());
        for (size_t i = 0; i < sil.launches.size(); ++i)
            cycles[i] = sil.launches[i].cycles;
        SelectionEvaluation se =
            evaluateSelection(ev.pka.selection.groups, cycles);
        ev.siliconPksErrorPct = se.errorPct;
        ev.siliconPksSpeedup = se.speedup;
    }

    // Simulation-side errors (all versus silicon, as the paper reports).
    ev.pksErrorPct = pka::common::pctError(ev.pka.pks.projectedCycles,
                                           ev.siliconCycles);
    ev.pkaErrorPct = pka::common::pctError(ev.pka.pka.projectedCycles,
                                           ev.siliconCycles);
    ev.pksIpcErrorPct =
        pka::common::pctError(ev.pka.pks.projectedIpc(), ev.siliconIpc);
    ev.pkaIpcErrorPct =
        pka::common::pctError(ev.pka.pka.projectedIpc(), ev.siliconIpc);

    if (options.runFullSim && isFullySimulable(w)) {
        ev.fullySimulated = true;
        ev.fullSim = fullSimulate(eng, simulator, w);
        ev.simErrorPct =
            pka::common::pctError(ev.fullSim.cycles, ev.siliconCycles);
        ev.fullIpcErrorPct =
            pka::common::pctError(ev.fullSim.ipc(), ev.siliconIpc);
        if (ev.pka.pks.simulatedCycles > 0)
            ev.pksSpeedupVsFull =
                ev.fullSim.cycles / ev.pka.pks.simulatedCycles;
        if (ev.pka.pka.simulatedCycles > 0)
            ev.pkaSpeedupVsFull =
                ev.fullSim.cycles / ev.pka.pka.simulatedCycles;
    } else {
        // No full simulation exists; express the reduction against the
        // silicon cycle count, which projected sim-time scales with.
        if (ev.pka.pks.simulatedCycles > 0)
            ev.pksSpeedupVsFull =
                ev.siliconCycles / ev.pka.pks.simulatedCycles;
        if (ev.pka.pka.simulatedCycles > 0)
            ev.pkaSpeedupVsFull =
                ev.siliconCycles / ev.pka.pka.simulatedCycles;
    }
    return ev;
}

} // namespace pka::core
