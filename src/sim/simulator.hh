/**
 * @file
 * The cycle-level GPU simulator (Accel-Sim substitute): a trace-model
 * device built from SmCore units over a shared MemoryModel, with per-cycle
 * IPC tracking, CTA dispatch, idle fast-forwarding and an online
 * StopController hook for Principal Kernel Projection.
 *
 * Two interchangeable cores drive the device. The *event-driven* core
 * (default) keeps a timing wheel of per-SM next-event cycles, ticks only
 * SMs with ready warps or due wakeups, and skips straight over spans
 * where nothing can happen. The *reference* core is the plain dense
 * cycle loop. They are bit-identical by construction — same SM tick order,
 * same memory-model access sequence, same per-bucket StopController
 * polls — which equivalence tests, a golden-hash check and a CI smoke
 * step all enforce; `SimOptions::referenceCore` selects the fallback.
 */

#ifndef PKA_SIM_SIMULATOR_HH
#define PKA_SIM_SIMULATOR_HH

#include <cstdint>
#include <vector>

#include "silicon/gpu_spec.hh"
#include "sim/cancel.hh"
#include "sim/ipc_tracker.hh"
#include "sim/sm_core.hh"
#include "sim/trace.hh"
#include "sim/stop_controller.hh"
#include "workload/kernel.hh"

namespace pka::sim
{

/** Per-kernel simulation controls. */
struct SimOptions
{
    /** Early-stop policy; nullptr runs the kernel to completion. */
    StopController *stop = nullptr;

    /**
     * Watchdog token, polled at the same bucket boundaries as `stop`
     * (identically in both simulator cores, so arming it never perturbs
     * bit-identity). When it trips, the run aborts cleanly by throwing
     * common::TaskException (kTimeout for budget/deadline trips,
     * kCancelled for external requests) — the campaign engine catches,
     * classifies, and applies retry/quarantine policy. nullptr = never
     * cancelled.
     */
    const CancelToken *cancel = nullptr;

    /** Warp scheduling policy in every SM. */
    SchedulerPolicy scheduler = SchedulerPolicy::Lrr;

    /**
     * Replay this trace instead of resolving data-dependent work from
     * the workload seed. Must match the launch (grid size, kernel name).
     */
    const KernelTrace *trace = nullptr;

    /** Record a full IPC/L2/DRAM trace (Figure-5-style series). */
    bool traceIpc = false;

    /** IPC bucket size in cycles. */
    uint32_t ipcBucketCycles = 30;

    /** Rolling window length in buckets (100 x 30 = the paper's 3000). */
    uint32_t ipcWindowBuckets = 100;

    /**
     * Truncate once this many thread instructions retired (0 = off);
     * implements the first-N-instructions baseline.
     */
    uint64_t maxThreadInstructions = 0;

    /** Hard cycle cap (0 = off). */
    uint64_t maxCycles = 0;

    /**
     * Salt the memory-model and per-CTA work RNG streams with the
     * launch's *content* hash instead of its launch id. Identical
     * launches then produce bit-identical results, which is what makes
     * the engine's memoization cache semantically honest; the default
     * (launch-id salting) gives every launch of the same kernel
     * independent jitter.
     */
    bool contentSeed = false;

    /**
     * Run the dense reference cycle loop instead of the event-driven
     * core. Results are bit-identical either way (enforced by tests and
     * the CI golden-hash smoke), so this is a pure fallback/diagnostic
     * knob, never part of any cache key.
     */
    bool referenceCore = false;
};

/** Result of simulating one kernel launch. */
struct KernelSimResult
{
    uint64_t cycles = 0;
    double threadInstructions = 0.0;
    uint64_t warpInstructions = 0;
    uint64_t finishedCtas = 0;
    uint64_t inFlightCtas = 0; ///< dispatched but unfinished at the end
    uint64_t totalCtas = 0;
    uint64_t waveSize = 0;

    /** Static warp-instruction count of the launch (no CTA jitter). */
    uint64_t expectedWarpInstructions = 0;
    bool stoppedEarly = false;      ///< StopController terminated it
    bool truncatedByBudget = false; ///< instruction/cycle cap hit
    double dramUtilPct = 0.0;
    double l2MissPct = 0.0;

    // Similarity-tier provenance. A *projected* result was not
    // simulated: the engine rescaled a stored near-duplicate kernel's
    // result by instruction and CTA count (the paper's Table-1
    // projection). The tag travels with the result so every report can
    // show what fraction of its launches are estimates and how far the
    // donor was. Projected results are never written to the exact
    // store tier (record.cc asserts this).
    bool projected = false;          ///< served by the similarity tier
    uint64_t projectedFromKey = 0;   ///< donor's exact-cache key hash
    double projectionDistance = 0.0; ///< signature distance to the donor
    double projectionErrorBound = 0.0; ///< estimated relative error

    std::vector<IpcSample> trace;

    /** Average thread-level IPC over the simulated span. */
    double ipc() const
    {
        return cycles == 0 ? 0.0
                           : threadInstructions /
                                 static_cast<double>(cycles);
    }
};

/**
 * Content hash of a launch: program identity (name, body, memory
 * behaviour) and launch configuration (grid/block, registers, shared
 * memory, iteration count, CTA-work CV), excluding the launch id and
 * profiling-only annotations. Used as the RNG salt under
 * SimOptions::contentSeed and as the engine's cache-key component, so
 * both sides of the memoization contract agree on launch identity.
 */
uint64_t launchContentHash(const pka::workload::KernelDescriptor &k);

/**
 * Cycle-level device simulator. Stateless between kernels: each
 * simulateKernel call builds a fresh device, which keeps kernels
 * independent and the API re-entrant.
 */
class GpuSimulator
{
  public:
    explicit GpuSimulator(pka::silicon::GpuSpec spec);

    /** The simulated hardware description. */
    const pka::silicon::GpuSpec &spec() const { return spec_; }

    /**
     * Simulate one kernel launch.
     * @param l the launch: its configuration and launch id (the default
     *        RNG salt, see SimOptions::contentSeed)
     * @param workload_seed keys per-CTA data-dependent work
     * @param opts stop/trace/budget controls
     * @throws common::TaskException with kBadInput (malformed launch or
     *         mismatched trace), kTimeout/kCancelled (opts.cancel
     *         tripped), or kSimInvariant (internal run-loop invariant
     *         violated) — never calls exit()/abort() for conditions a
     *         campaign can recover from.
     */
    KernelSimResult
    simulateKernel(pka::workload::Launch l, uint64_t workload_seed,
                   const SimOptions &opts = {}) const;

  private:
    pka::silicon::GpuSpec spec_;
};

} // namespace pka::sim

#endif // PKA_SIM_SIMULATOR_HH
