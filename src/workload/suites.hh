/**
 * @file
 * Benchmark-suite generators and the workload registry.
 *
 * Each generator returns synthetic workloads mirroring the kernel-launch
 * structure of the corresponding suite used in the paper (launch counts,
 * number of distinct kernel behaviours, per-launch parameter drift,
 * regular/irregular execution). Together the suites contain the paper's 147
 * workloads.
 *
 * The `under_profiler` flag reproduces the cuDNN algorithm-selection quirk
 * the paper reports: for a few workloads (Rodinia myocyte, DeepBench
 * convolution training) running under a detailed profiler perturbs runtime
 * algorithm selection, so the profiled run launches a different number of
 * kernels than the traced run. PKA's driver detects the mismatch and
 * excludes those workloads, exactly as the paper's artifact does.
 */

#ifndef PKA_WORKLOAD_SUITES_HH
#define PKA_WORKLOAD_SUITES_HH

#include <optional>
#include <string>
#include <vector>

#include "workload/kernel.hh"

namespace pka::workload
{

/**
 * Largest accepted GenOptions::mlperfScale. SSD training launches 530 M
 * kernels at this scale, so every generated stream stays far below the
 * 2^32 launches a LaunchStream can index.
 */
inline constexpr double kMaxMlperfScale = 100.0;

/** Options controlling workload generation. */
struct GenOptions
{
    /**
     * Scale applied to MLPerf launch counts relative to the paper's runs
     * (SSD training launches 5.3 M kernels at scale 1.0), in
     * (0, kMaxMlperfScale]. The default keeps end-to-end experiments
     * tractable on a laptop-class host.
     */
    double mlperfScale = 0.02;

    /**
     * Generate the stream as it would appear when running *under a detailed
     * profiler*. Profiler-sensitive workloads launch a different number of
     * kernels in this mode.
     */
    bool underProfiler = false;
};

/** All 147 workloads, in suite order. */
std::vector<Workload> allWorkloads(const GenOptions &opts = {});

/**
 * Build one workload by name, and only that one; nullopt if the name is
 * unknown. Equal to the same-named element of allWorkloads(opts): every
 * generator seeds from its (suite, name) alone.
 */
std::optional<Workload> buildWorkload(const std::string &name,
                                      const GenOptions &opts = {});

/**
 * True if the named workload is profiler-sensitive (its profiled run may
 * launch a different kernel count than its traced run).
 */
bool isProfilerSensitive(const std::string &name);

} // namespace pka::workload

#endif // PKA_WORKLOAD_SUITES_HH
