/**
 * @file
 * Quickstart: run the full Principal Kernel Analysis pipeline on one
 * workload in ~40 lines of API use.
 *
 *   1. build a workload (here: Rodinia's gaussian elimination),
 *   2. profile it on the silicon model,
 *   3. select principal kernels (PKS),
 *   4. simulate only the representatives with IPC-stability early stop
 *      (PKP), and
 *   5. project whole-application statistics.
 */

#include <cstdio>

#include "core/pka.hh"
#include "silicon/silicon_gpu.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "workload/suites.hh"

int
main()
{
    using namespace pka;

    // The device under study: a Volta V100 for both the "silicon" ground
    // truth and the cycle-level simulator.
    auto spec = silicon::voltaV100();
    silicon::SiliconGpu gpu(spec);
    sim::GpuSimulator simulator(spec);

    // The campaign engine every simulation runs on: a thread pool plus a
    // memo cache, so repeated launches are simulated once.
    sim::SimEngine engine;

    // Any registry workload works; gaussian launches 414 kernels that PKS
    // collapses into a single representative.
    auto workload = workload::buildWorkload("gauss_208");
    if (!workload) {
        std::fprintf(stderr, "workload not found\n");
        return 1;
    }

    // Run the whole methodology. The second argument is the launch stream
    // as seen under the profiler; gaussian is not profiler-sensitive, so
    // the same stream serves both roles.
    core::PkaAppResult result =
        core::runPka(engine, *workload, *workload, gpu, simulator);
    if (result.excluded) {
        std::fprintf(stderr, "excluded: %s\n",
                     result.exclusionReason.c_str());
        return 1;
    }

    auto ground_truth = gpu.run(*workload);
    std::printf("workload           : %s/%s (%zu kernel launches)\n",
                workload->suite.c_str(), workload->name.c_str(),
                workload->launches.size());
    std::printf("groups selected    : %zu (two-level: %s)\n",
                result.selection.groups.size(),
                result.selection.usedTwoLevel ? "yes" : "no");
    std::printf("silicon cycles     : %.3e\n",
                static_cast<double>(ground_truth.totalCycles));
    std::printf("PKA projection     : %.3e cycles (%.1f%% error)\n",
                result.pka.projectedCycles,
                100.0 * std::abs(result.pka.projectedCycles -
                                 static_cast<double>(
                                     ground_truth.totalCycles)) /
                    static_cast<double>(ground_truth.totalCycles));
    std::printf("simulated cycles   : %.3e (%.0fx less than full "
                "simulation of every launch)\n",
                result.pka.simulatedCycles,
                static_cast<double>(ground_truth.totalCycles) /
                    result.pka.simulatedCycles);
    std::printf("projected DRAM util: %.1f%%\n",
                result.pka.projectedDramUtilPct);
    return 0;
}
