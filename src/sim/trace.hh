/**
 * @file
 * Kernel traces — the reproduction's equivalent of Accel-Sim's NVBit
 * traces. A trace pins down the *dynamic* behaviour of one launch: the
 * per-CTA loop trip counts that data-dependent irregularity resolved to
 * on the traced run. Replaying a trace makes the simulator execute
 * exactly the work the traced run executed, independent of the RNG keys
 * that produced it, and traces serialize to a compact text format so
 * tracing and simulation can run as separate processes (the Accel-Sim
 * workflow; their trace archives are the multi-TB artifact this format
 * stands in for).
 */

#ifndef PKA_SIM_TRACE_HH
#define PKA_SIM_TRACE_HH

#include <istream>
#include <ostream>
#include <vector>

#include "workload/kernel.hh"

namespace pka::sim
{

/** Dynamic trace of one kernel launch. */
struct KernelTrace
{
    /** Launch id within the traced workload. */
    uint32_t launchId = 0;

    /** Kernel name (for consistency checking against the descriptor). */
    std::string kernelName;

    /** Resolved per-CTA loop trip counts, one entry per CTA. */
    std::vector<uint32_t> ctaIterations;

    /** Total warp instructions the traced launch executes. */
    uint64_t
    warpInstructions(const pka::workload::KernelDescriptor &k) const
    {
        uint64_t per_iter =
            k.warpsPerCta() * k.program->instrsPerIteration();
        uint64_t total = 0;
        for (uint32_t it : ctaIterations)
            total += per_iter * it;
        return total;
    }
};

/**
 * Resolve the per-CTA trip counts a launch takes under `workload_seed` —
 * the same draw the simulator makes internally under its default
 * launch-id salt, captured as data.
 */
KernelTrace captureTrace(pka::workload::Launch l, uint64_t workload_seed);

/**
 * The per-CTA iteration count the simulator uses for (k, seed, cta_id)
 * under an explicit per-launch RNG salt; shared between live simulation
 * and trace capture so they agree.
 */
uint32_t resolveCtaIterations(const pka::workload::KernelDescriptor &k,
                              uint64_t workload_seed, uint64_t cta_id,
                              uint64_t launch_salt);

/** Serialize traces (header + run-length-encoded trip counts). */
void writeTraces(std::ostream &os, const std::vector<KernelTrace> &traces);

/** Read traces written by writeTraces; fatal() on malformed input. */
std::vector<KernelTrace> readTraces(std::istream &is);

} // namespace pka::sim

#endif // PKA_SIM_TRACE_HH
