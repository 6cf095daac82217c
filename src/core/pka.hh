/**
 * @file
 * The Principal Kernel Analysis driver: orchestrates silicon profiling
 * (full detailed or two-level), Principal Kernel Selection, and simulation
 * of the representative kernels — full-length (PKS) or stability-truncated
 * with projection (PKA = PKS + PKP).
 */

#ifndef PKA_CORE_PKA_HH
#define PKA_CORE_PKA_HH

#include <functional>
#include <string>
#include <vector>

#include "core/pkp.hh"
#include "core/pks.hh"
#include "core/two_level.hh"
#include "silicon/silicon_gpu.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "workload/kernel.hh"

namespace pka::store
{
class CampaignJournal;
}

namespace pka::core
{

/**
 * Checkpoint/resume configuration for long simulation campaigns. When
 * `dir` is set, each campaign stage keeps an append-only completion
 * journal there (see store/journal.hh); with resume=true an interrupted
 * campaign restarts from its last completed launch — completed results
 * come back from the engine's persistent store, the remainder simulate,
 * and the launch-order reduction makes the aggregates bit-identical to
 * an uninterrupted run.
 */
struct CampaignCheckpoint
{
    /** Journal directory (conventionally the --cache-dir). Empty = off. */
    std::string dir;

    /** Load a matching journal instead of restarting the campaign. */
    bool resume = false;

    /** Launches fanned out between journal checkpoints. */
    size_t chunkLaunches = 256;
};

/**
 * Failure policy for one campaign. The engine already retries and
 * quarantines individual launches (see SimEngine::runChecked); this
 * decides what the *campaign* does about launches that still failed.
 */
struct CampaignPolicy
{
    /**
     * Minimum fraction of launches that must complete for the campaign
     * to count as successful. 1.0 (default) = strict: any failed launch
     * fails the campaign (after the whole stream was attempted, so the
     * failure report is complete). Lower values let a campaign with a
     * few quarantined kernels succeed with reweighted aggregates.
     */
    double minQuorum = 1.0;

    /** Stop fanning out work at the first failed chunk. */
    bool failFast = false;

    /**
     * Scheduling priority of this campaign's fan-outs when several
     * campaigns share one engine (the serve daemon). Higher overtakes
     * queued lower-priority batches; never affects results.
     */
    unsigned priority = 0;

    /**
     * Called after every completed chunk with the cumulative number of
     * launches attempted so far and the campaign total. Runs on the
     * campaign thread, between fan-outs — keep it cheap.
     */
    std::function<void(size_t done, size_t total)> onProgress;

    /**
     * Admission gate consulted before each chunk fans out, with the
     * chunk's launch count. Return false (or an error) to stop the
     * campaign before that chunk: the run is marked stoppedEarly and
     * the refusal is recorded as a kRejected launch failure at the
     * chunk's first index. Already-journaled progress is preserved, so
     * a campaign stopped by its quota can resume later. Null = admit
     * everything.
     */
    std::function<common::Expected<bool>(size_t chunkLaunches)> admitChunk;

    /**
     * Campaign accuracy SLO (the CLI's --error-budget): the maximum
     * mean certified relative error this campaign will accept from the
     * similarity tier, accounted after every chunk as
     *
     *     sum(projectionErrorBound over projected launches) / launches.
     *
     * Exceeding the budget mid-campaign degrades the remainder to
     * simulate-through (every remaining job runs with SimJob::noProject
     * so the exact tiers and the simulator answer it), the campaign
     * still completes, and the outcome carries the typed `accuracy`
     * verdict (CampaignRunOutcome::accuracyDegraded; CLI exit code 8) —
     * the same compute-through shape as the store's ENOSPC degradation.
     * 0 (default) = no budget.
     */
    double errorBudget = 0.0;
};

/**
 * Outcome of one fault-tolerant checkpointed fan-out. results[i] is
 * meaningful only where completed[i] is set; failures lists every launch
 * that failed (in launch order) with its structured error.
 */
struct CampaignRunOutcome
{
    std::vector<sim::KernelSimResult> results;
    std::vector<uint8_t> completed; ///< per-launch completion bitmap
    size_t completedCount = 0;
    std::vector<sim::LaunchFailure> failures; ///< launch-order detail
    bool quorumMet = true;   ///< completed fraction reached minQuorum
    bool stoppedEarly = false; ///< failFast aborted the fan-out

    /** The error budget tripped: the campaign finished, but its tail
     *  ran simulate-through and the accuracy SLO was breached. */
    bool accuracyDegraded = false;

    /** Final mean certified relative error over the campaign (see
     *  CampaignPolicy::errorBudget for the accounting). */
    double certifiedError = 0.0;
};

/**
 * Identity hash of one simulation campaign: device spec, launch stream
 * content and ordering, engine seeding mode, and a stage salt (distinct
 * stages of one run — PKS vs PKA vs full-sim — journal separately).
 * Everything that determines the campaign's result bits participates, so
 * a stale journal can never validate against a different campaign.
 */
uint64_t campaignKey(const sim::GpuSimulator &simulator,
                     const pka::workload::Workload &w,
                     const sim::SimEngine &engine,
                     const std::string &stage);

/** Journal file path for one campaign stage under `dir`. */
std::string journalPath(const std::string &dir, const std::string &stage,
                        uint64_t campaign_key);

/**
 * Run `jobs` through the engine in journal-checkpointed chunks: after
 * each chunk completes, its launch indices are journaled and flushed.
 * Results are returned in job order (the usual deterministic-reduction
 * contract). `journal` may be null (plain single fan-out). Failed
 * launches are recorded instead of fatal, quarantine decisions are
 * persisted to (and resumed from) the journal, and `policy` decides
 * fail-fast and the completion quorum. Only completed launch indices
 * are journaled, so an interrupted or partially failed campaign resumes
 * exactly the unfinished work.
 */
CampaignRunOutcome
runJobsCheckpointedChecked(const sim::SimEngine &engine,
                           const sim::GpuSimulator &simulator,
                           const std::vector<sim::SimJob> &jobs,
                           const CampaignPolicy &policy,
                           sim::EngineStats *stats,
                           store::CampaignJournal *journal,
                           size_t chunk_launches);

/** Whole-methodology options; the paper's defaults everywhere. */
struct PkaOptions
{
    PksOptions pks;
    PkpOptions pkp;

    /** Detailed-prefix size when two-level profiling is needed. */
    size_t twoLevelDetailedKernels = 2000;

    /**
     * Treat any malformed profile as a hard error (ValidationPolicy::
     * kStrict) instead of deterministically repairing/excluding it.
     * Mirrors the --strict-profiles CLI flag.
     */
    bool strictProfiles = false;

    /** Ensemble confidence gate for two-level classification; 0 = off
     *  (see TwoLevelOptions::abstainThreshold). */
    double abstainThreshold = 0.0;

    /**
     * Detailed profiling is considered intractable beyond this wall-clock
     * budget (the paper's "more than one week" rule), measured at
     * full-size-equivalent scale.
     */
    double detailedProfilingBudgetSec = 7.0 * 86400.0;
};

/** The selection stage's outcome (groups over the full stream). */
struct SelectionOutcome
{
    std::vector<KernelGroup> groups;
    bool usedTwoLevel = false;
    size_t detailedCount = 0;      ///< launches profiled in detail
    double profilingCostSec = 0.0; ///< silicon profiling wall-clock cost
    double ensembleUnanimity = 1.0;

    // Robustness accounting (all zero/1.0 on a clean run; see
    // core/profile_validator.hh and TwoLevelOptions::abstainThreshold).
    ValidationReport validation;      ///< detailed-profile screening
    size_t abstentions = 0;           ///< ensemble abstained (two-level)
    size_t fallbackMapped = 0;        ///< mapped by the PCA fallback
    double meanEnsembleConfidence = 1.0;
};

/**
 * Select representative kernels for `w` by silicon profiling on `gpu`:
 * full detailed profiling when tractable, two-level otherwise.
 */
SelectionOutcome selectKernels(const pka::workload::Workload &w,
                               const silicon::SiliconGpu &gpu,
                               const PkaOptions &options = {});

/**
 * selectKernels with profile screening and typed diagnostics: profiles
 * are run through a ProfileValidator (kStrict when
 * options.strictProfiles, else kRepair) before selection, and
 * options.abstainThreshold gates the two-level ensemble. Clean input
 * under default options is bit-identical to selectKernels().
 */
common::Expected<SelectionOutcome>
selectKernelsChecked(const pka::workload::Workload &w,
                     const silicon::SiliconGpu &gpu,
                     const PkaOptions &options = {});

/** Projected whole-app simulation statistics from representative runs. */
struct AppProjection
{
    double projectedCycles = 0.0;     ///< sum over groups: rep x weight
    double projectedThreadInsts = 0.0;
    double projectedDramUtilPct = 0.0; ///< cycle-weighted over groups
    double simulatedCycles = 0.0;      ///< simulation cost actually paid
    double simulatedWallSeconds = 0.0; ///< host wall time of that cost

    /**
     * Summed per-kernel simulation time — the serial-equivalent cost.
     * Equals simulatedWallSeconds at one thread (minus pool overhead);
     * under a parallel engine, wall shrinks while this stays put, so
     * speedup-over-serial comparisons stay honest.
     */
    double simulatedCpuSeconds = 0.0;
    uint64_t cacheHits = 0;   ///< launches answered from the memory cache
    uint64_t storeHits = 0;   ///< launches answered from the disk store
    uint64_t cacheMisses = 0; ///< launches actually simulated
    uint64_t corruptSkipped = 0; ///< corrupt store records skipped

    // Similarity-tier provenance (zero with the tier off, the default).
    uint64_t simTierHits = 0;       ///< fresh similarity projections
    uint64_t projectedLaunches = 0; ///< representatives projected
    double projErrBound = 0.0;      ///< worst-case estimated error

    // Fault-tolerance accounting (all zero/true on a clean run). When
    // representatives fail, projected aggregates are renormalized over
    // the surviving group weight, so the projection stays an estimate of
    // the *whole* app rather than silently shrinking.
    uint64_t failedLaunches = 0;     ///< representatives that failed
    uint64_t quarantinedKernels = 0; ///< distinct kernels quarantined
    bool quorumMet = true;           ///< campaign met its quorum policy
    std::vector<sim::LaunchFailure> failures; ///< per-launch detail

    // Accuracy-SLO accounting (CampaignPolicy::errorBudget).
    bool accuracyDegraded = false; ///< budget tripped; tail simulated
    double certifiedError = 0.0;   ///< final mean certified error

    /** Projected whole-app IPC. */
    double projectedIpc() const
    {
        return projectedCycles > 0 ? projectedThreadInsts / projectedCycles
                                   : 0.0;
    }
};

/**
 * Simulate each group's representative and scale by group weight,
 * fanning representatives out across `engine` and reducing in group
 * order (aggregates are bit-identical for any thread count). Every
 * representative gets its own IpcStabilityController, so PKP state
 * never leaks between kernels.
 * @param pkp nullptr = run representatives to completion (PKS-only);
 *            non-null = stop on IPC stability and project (full PKA).
 * @param checkpoint optional journaled checkpoint/resume context.
 * @param policy nullptr = strict contract (any failure is
 *        fatal); non-null = fault-tolerant: failed representatives are
 *        dropped, the projection renormalizes over surviving weight,
 *        and quorumMet/failures report the damage.
 */
AppProjection simulateSelection(const sim::SimEngine &engine,
                                const sim::GpuSimulator &simulator,
                                const pka::workload::Workload &w,
                                const SelectionOutcome &selection,
                                const PkpOptions *pkp,
                                const CampaignCheckpoint *checkpoint =
                                    nullptr,
                                const CampaignPolicy *policy = nullptr);

/** Full PKA outcome for one application. */
struct PkaAppResult
{
    bool excluded = false;
    std::string exclusionReason;
    SelectionOutcome selection;
    AppProjection pks; ///< representatives simulated in full
    AppProjection pka; ///< representatives with PKP truncation
};

/**
 * Run the complete PKA methodology on `engine`, with optional
 * checkpointing (the PKS and PKA stages journal independently) and
 * optional campaign failure policy (nullptr = strict: any launch
 * failure is fatal).
 *
 * @param traced the launch stream as traced for simulation
 * @param profiled the stream as observed under the silicon profiler;
 *        a launch-count mismatch excludes the workload (the paper's
 *        cuDNN algorithm-selection quirk)
 */
PkaAppResult runPka(const sim::SimEngine &engine,
                    const pka::workload::Workload &traced,
                    const pka::workload::Workload &profiled,
                    const silicon::SiliconGpu &gpu,
                    const sim::GpuSimulator &simulator,
                    const PkaOptions &options = {},
                    const CampaignCheckpoint *checkpoint = nullptr,
                    const CampaignPolicy *policy = nullptr);

/**
 * runPka with a failed selection (selectKernelsChecked's typed error,
 * e.g. a strict-profile violation) returned instead of fatal. runPka is
 * this call with that error made fatal.
 */
common::Expected<PkaAppResult>
runPkaChecked(const sim::SimEngine &engine,
              const pka::workload::Workload &traced,
              const pka::workload::Workload &profiled,
              const silicon::SiliconGpu &gpu,
              const sim::GpuSimulator &simulator,
              const PkaOptions &options = {},
              const CampaignCheckpoint *checkpoint = nullptr,
              const CampaignPolicy *policy = nullptr);

} // namespace pka::core

#endif // PKA_CORE_PKA_HH
