/**
 * @file
 * The comparison baselines the paper evaluates PKA against:
 *
 *  - FirstNInstructions: simulate the first N (default 1 billion) thread
 *    instructions of the app and extrapolate (the common "1B" practice).
 *  - TBPoint: hierarchical clustering of kernels over features that
 *    require *full simulation* of every kernel, with the original
 *    hand-tuned threshold replaced by a 20-point sweep (Section 5.1).
 *  - SingleIteration: NVArchSim's practice of simulating one training/
 *    inference iteration and scaling (Section 6), applicable only to
 *    iteration-structured workloads.
 */

#ifndef PKA_CORE_BASELINES_HH
#define PKA_CORE_BASELINES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"
#include "core/pks.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "workload/kernel.hh"

namespace pka::core
{

struct CampaignCheckpoint;

/** Outcome common to the app-level baselines. */
struct BaselineResult
{
    double projectedAppCycles = 0.0;  ///< extrapolated whole-app cycles
    double simulatedCycles = 0.0;     ///< cycles actually simulated (cost)
    double simulatedThreadInsts = 0.0;
    bool completed = false;           ///< budget never hit (ran everything)
    uint64_t cacheHits = 0;  ///< launches answered from the memory cache
    uint64_t storeHits = 0;  ///< launches answered from the disk store
    uint64_t cacheMisses = 0; ///< launches actually simulated
};

/**
 * Simulate launches in order until `instruction_budget` thread
 * instructions retire; extrapolate app cycles at the measured IPC.
 * Inherently sequential (each launch's budget depends on what earlier
 * launches retired), but still engine-routed so repeated launches hit
 * the result cache.
 */
BaselineResult
firstNInstructions(const sim::SimEngine &engine,
                   const sim::GpuSimulator &simulator,
                   const pka::workload::Workload &w,
                   uint64_t instruction_budget = 1'000'000'000ULL);

/** Per-kernel features TBPoint derives from full simulation. */
struct TBPointKernelStats
{
    uint32_t launchId = 0;
    uint64_t cycles = 0;
    double ipc = 0.0;
    double dramUtilPct = 0.0;
    double l2MissPct = 0.0;
    double warpInstructions = 0.0;
    double numCtas = 0.0;

    // Similarity-tier provenance: true when `cycles` is a projected
    // estimate from a stored near-duplicate kernel rather than a
    // simulated value; projErrBound is its estimated relative error.
    bool projected = false;
    double projErrBound = 0.0;
};

/** TBPoint options. */
struct TBPointOptions
{
    /** Threshold sweep bounds and count (paper: 20 values in [0.01,0.2],
     *  scaled here to the normalized feature space). */
    double minThreshold = 0.01;
    double maxThreshold = 0.2;
    uint32_t sweepPoints = 20;

    /** Projected-cycle error target reused from PKS's criterion. */
    double targetErrorPct = 5.0;

    /** Hierarchical-clustering sample guardrail. */
    size_t maxKernels = 20000;
};

/** TBPoint selection result. */
struct TBPointResult
{
    std::vector<KernelGroup> groups;
    double chosenThreshold = 0.0;
    double projectedCycles = 0.0;
    double trueCycles = 0.0;
    double projectedErrorPct = 0.0;

    /** Simulated cycles if only representatives run. */
    double representativeCycleCost = 0.0;
};

/**
 * Run TBPoint selection over per-kernel full-simulation stats
 * (chronological). Streams beyond options.maxKernels — the scaling wall
 * that motivates PKA — and empty input return a typed kBadInput error.
 */
common::Expected<TBPointResult>
tbpointSelectChecked(const std::vector<TBPointKernelStats> &stats,
                     const TBPointOptions &options = {});

/**
 * Detect the launch-name repetition period of an iteration-structured
 * stream (smallest p such that names[i] == names[i % p] for all i
 * covering >= 2 periods); returns 0 when no period exists.
 */
size_t detectIterationPeriod(const std::vector<std::string> &names);

/** Single-iteration scaling result. */
struct SingleIterationResult
{
    bool applicable = false;     ///< a launch period was found
    size_t periodLaunches = 0;   ///< launches per iteration
    double iterations = 0.0;     ///< stream length / period
    double projectedAppCycles = 0.0;
    double simulatedCycles = 0.0; ///< one iteration's simulation cost
};

/**
 * NVArchSim-style single-iteration scaling: simulate one iteration's
 * launches fully (fanned out across the engine) and multiply by the
 * iteration count. Any launch failure is fatal. With `checkpoint`, the
 * iteration campaign journals per-launch completion and can resume (see
 * core/pka.hh).
 */
SingleIterationResult
singleIterationBaseline(const sim::SimEngine &engine,
                        const sim::GpuSimulator &simulator,
                        const pka::workload::Workload &w,
                        const CampaignCheckpoint *checkpoint = nullptr);

} // namespace pka::core

#endif // PKA_CORE_BASELINES_HH
