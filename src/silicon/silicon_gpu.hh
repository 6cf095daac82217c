/**
 * @file
 * The analytic "silicon" GPU: the ground-truth device every experiment
 * validates against.
 *
 * Real silicon is unavailable in this reproduction, so ground truth comes
 * from a first-order analytical performance model: occupancy-limited wave
 * execution with issue-rate, per-pipe, memory-bandwidth and latency bounds,
 * plus deterministic per-launch data-dependent jitter. The model is
 * intentionally *different* from the cycle-level simulator so the
 * simulator-versus-silicon error the paper reports arises naturally.
 */

#ifndef PKA_SILICON_SILICON_GPU_HH
#define PKA_SILICON_SILICON_GPU_HH

#include <cstdint>
#include <vector>

#include "silicon/gpu_spec.hh"
#include "workload/kernel.hh"

namespace pka::silicon
{

/** Result of executing one kernel launch on silicon. */
struct KernelExecution
{
    uint64_t cycles = 0;
    double seconds = 0.0;
    double threadIpc = 0.0;   ///< thread-level instructions per cycle
    double dramUtilPct = 0.0; ///< DRAM bandwidth utilization, percent
    double l2MissPct = 0.0;   ///< L2 miss rate, percent
};

/**
 * The launch-independent part of a launch's execution: the analytic
 * model of its configuration, before the per-launch jitter.
 */
struct ConfigModel
{
    double cycles = 0.0;      ///< modelled cycles before the jitter
    double sigma = 0.0;       ///< sigma of the lognormal jitter
    double straggler = 1.0;   ///< stretch of irregular kernels (1 = none)
    double threadInsts = 0.0; ///< thread instructions executed
    double dramBytes = 0.0;   ///< DRAM traffic in bytes
    double l2MissPct = 0.0;   ///< L2 miss rate, percent
};

/** Result of executing a full application. */
struct AppExecution
{
    uint64_t totalCycles = 0;
    double totalSeconds = 0.0;
    std::vector<KernelExecution> launches;

    /** Time-weighted average DRAM utilization (percent). */
    double avgDramUtilPct() const;
};

/**
 * Analytic GPU device. Deterministic: the same (spec, workload) pair
 * always produces the same timings, and per-launch data-dependent jitter
 * is keyed by (workload seed, launch id) only — so different GPU
 * generations observe the *same* data-dependent behaviour, as real
 * datasets would provide.
 */
class SiliconGpu
{
  public:
    explicit SiliconGpu(GpuSpec spec);

    /** The hardware description in use. */
    const GpuSpec &spec() const { return spec_; }

    /** Execute one launch. `workload_seed` keys the data jitter. */
    KernelExecution execute(pka::workload::Launch l,
                            uint64_t workload_seed) const
    {
        return jitter(model(l.config), workload_seed, l.launchId);
    }

    /** The launch-independent part of executing configuration `k`. */
    ConfigModel model(const pka::workload::KernelDescriptor &k) const;

    /** One launch's execution: `m` under the data jitter keyed by
     *  (workload_seed, launch_id). */
    KernelExecution jitter(const ConfigModel &m, uint64_t workload_seed,
                           uint32_t launch_id) const;

    /**
     * Execute the first `count` launches of `w` in launch order, calling
     * f(i, execution) for each. Each configuration is modelled once, at
     * its first launch; every launch is bit-identical to execute().
     */
    template <class F>
    void
    forEachLaunch(const pka::workload::Workload &w, size_t count,
                  F &&f) const
    {
        w.launches.forEachLaunch(
            count,
            [this](const pka::workload::KernelDescriptor &k) {
                return model(k);
            },
            [&](size_t i, const ConfigModel &m) {
                f(i, jitter(m, w.seed, static_cast<uint32_t>(i)));
            });
    }

    /** Execute a whole application launch stream. */
    AppExecution run(const pka::workload::Workload &w) const;

  private:
    GpuSpec spec_;
};

} // namespace pka::silicon

#endif // PKA_SILICON_SILICON_GPU_HH
