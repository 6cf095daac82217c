/**
 * @file
 * Shared experiment runners behind the benchmark harnesses: full
 * simulation with per-kernel stat collection, per-app evaluation of
 * silicon PKS / simulated PKS / full PKA / baselines, and the projection
 * constants used to report paper-style simulation-time axes.
 */

#ifndef PKA_CORE_EXPERIMENTS_HH
#define PKA_CORE_EXPERIMENTS_HH

#include <string>
#include <vector>

#include "core/baselines.hh"
#include "core/pka.hh"
#include "silicon/silicon_gpu.hh"
#include "sim/simulator.hh"
#include "workload/suites.hh"

namespace pka::core
{

/**
 * Accel-Sim-like simulation rate (simulated cycles per wall-clock second)
 * used to project "hours to simulate" axes; derived from the paper's
 * Figure-1 scale (seconds of silicon => centuries of simulation).
 */
constexpr double kSimCyclesPerSecond = 300.0;

/** Simulated cycles -> projected wall-clock hours at Accel-Sim rates. */
inline double
projectedSimHours(double cycles)
{
    return cycles / kSimCyclesPerSecond / 3600.0;
}

/**
 * The "first 1B instructions" budget translated to this reproduction's
 * workload scale (our classic workloads carry a small fraction of the
 * paper's instruction volume, so 6M preserves the truncation behaviour:
 * small apps complete, everything else is cut off mid-warmup).
 */
constexpr uint64_t k1BEquivalentInstructions = 6'000'000ULL;

/** A traced/profiled pair of the same workload (may differ in length). */
struct WorkloadPair
{
    pka::workload::Workload traced;
    pka::workload::Workload profiled;
};

/** Build traced+profiled variants for every registry workload. */
std::vector<WorkloadPair> buildAllPairs(const pka::workload::GenOptions &g = {});

/** Full-simulation outcome for a whole app. */
struct FullSimResult
{
    double cycles = 0.0;
    double threadInsts = 0.0;
    double dramUtilPct = 0.0; ///< cycle-weighted average
    double wallSeconds = 0.0;

    /**
     * Summed per-kernel simulation time (serial-equivalent cost). Under
     * a parallel engine wallSeconds shrinks while this stays put, which
     * keeps speedup-vs-serial figures (fig06/fig07 axes) comparable.
     */
    double cpuSeconds = 0.0;
    uint64_t cacheHits = 0;   ///< launches answered from the memory cache
    uint64_t storeHits = 0;   ///< launches answered from the disk store
    uint64_t cacheMisses = 0; ///< launches actually simulated
    uint64_t corruptSkipped = 0;  ///< corrupt store records skipped
    uint64_t resumedLaunches = 0; ///< journaled complete before this run

    // Similarity-tier provenance (all zero with the tier off — the
    // default — so existing reports are untouched). projectedLaunches
    // counts every launch whose result carries a projection tag;
    // projErrBound is the worst estimated relative error among them.
    uint64_t simTierHits = 0;       ///< fresh similarity projections
    uint64_t projectedLaunches = 0; ///< launches answered by projection
    double projErrBound = 0.0;      ///< worst-case estimated error

    /** Share of launches answered by projection, in percent. */
    double projectedPct() const
    {
        uint64_t total = cacheHits + storeHits + simTierHits + cacheMisses;
        return total == 0 ? 0.0
                          : 100.0 * static_cast<double>(projectedLaunches) /
                                static_cast<double>(total);
    }

    // Fault-tolerance accounting (all zero/true on a clean run). When
    // launches fail under a CampaignPolicy, cycle/instruction totals are
    // reweighted by completed-launch fraction so they still estimate the
    // whole app; perKernel then contains only completed launches
    // (consumers key on TBPointKernelStats::launchId, not position).
    uint64_t failedLaunches = 0;     ///< launches that ended in error
    uint64_t quarantinedKernels = 0; ///< distinct kernels quarantined
    bool quorumMet = true;           ///< campaign met its quorum policy
    std::vector<sim::LaunchFailure> failures; ///< per-launch detail

    // Accuracy-SLO accounting (CampaignPolicy::errorBudget): the budget
    // tripped mid-campaign and the tail ran simulate-through. The run
    // is complete but the CLI exits with the typed accuracy code (8).
    bool accuracyDegraded = false;
    double certifiedError = 0.0; ///< final mean certified error

    std::vector<TBPointKernelStats> perKernel;

    double ipc() const
    {
        return cycles > 0 ? threadInsts / cycles : 0.0;
    }
};

/**
 * Simulate every launch of `w` to completion across `engine`, collecting
 * per-kernel stats (TBPoint's required input) and reducing in launch
 * order — aggregates are bit-identical for any thread count.
 * @param checkpoint optional journaled checkpointing: launch completion
 *        is recorded in `checkpoint->dir` after every chunk, and with
 *        checkpoint->resume an interrupted campaign restarts from the
 *        last completed launch (completed results return from the
 *        engine's persistent store) with bit-identical aggregates.
 * @param policy nullptr = strict contract (any failure is fatal);
 *        non-null = launches that fail after the engine's
 *        retry/quarantine machinery are dropped from the aggregates
 *        (which are then reweighted — see FullSimResult), and
 *        quorumMet/failures report the damage.
 */
FullSimResult fullSimulate(const sim::SimEngine &engine,
                           const sim::GpuSimulator &simulator,
                           const pka::workload::Workload &w,
                           const CampaignCheckpoint *checkpoint = nullptr,
                           const CampaignPolicy *policy = nullptr);

/** True for workloads small enough to simulate fully in the benches. */
bool isFullySimulable(const pka::workload::Workload &w);

/** Everything the evaluation section needs for one app on one device. */
struct AppEvaluation
{
    std::string suite;
    std::string name;
    bool excluded = false;
    std::string exclusionReason;

    // Silicon ground truth.
    double siliconCycles = 0.0;
    double siliconSeconds = 0.0;
    double siliconIpc = 0.0;

    // Silicon-side PKS evaluation (Table 4, first columns).
    double siliconPksErrorPct = 0.0;
    double siliconPksSpeedup = 1.0;

    // Full simulation (zero when not fully simulable).
    bool fullySimulated = false;
    FullSimResult fullSim;
    double simErrorPct = 0.0; ///< full-sim cycles vs silicon

    // PKS / PKA in simulation.
    PkaAppResult pka;
    double pksErrorPct = 0.0; ///< PKS projected cycles vs silicon
    double pkaErrorPct = 0.0;
    double pksIpcErrorPct = 0.0;
    double pkaIpcErrorPct = 0.0;
    double fullIpcErrorPct = 0.0;
    double pksSpeedupVsFull = 1.0; ///< simulated-cycle reduction
    double pkaSpeedupVsFull = 1.0;
};

/** Evaluation knobs. */
struct EvalOptions
{
    PkaOptions pka;
    bool runFullSim = true; ///< skip full simulation entirely (silicon-only)
};

/**
 * Evaluate one workload pair against a device. Runs silicon, full
 * simulation (when tractable), PKS and PKA. All simulation goes through
 * `engine`, which must not be null.
 */
AppEvaluation evaluateApp(const WorkloadPair &pair,
                          const silicon::SiliconGpu &gpu,
                          const sim::GpuSimulator &simulator,
                          const EvalOptions &options,
                          const sim::SimEngine *engine);

} // namespace pka::core

#endif // PKA_CORE_EXPERIMENTS_HH
