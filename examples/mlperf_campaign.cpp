/**
 * @file
 * MLPerf-scale campaign: the scenario the paper was built for. SSD
 * training launches millions of kernels; detailed profiling of every
 * launch would take months and full simulation would take centuries.
 * This example runs the two-level profiling path end-to-end — detailed
 * profiles for a 2000-launch prefix, lightweight profiles for the rest,
 * classifier mapping, PKS, and PKP-truncated simulation of the
 * representatives — and reports what the same numbers would have cost
 * without PKA.
 */

#include <cstdio>
#include <iostream>

#include "common/table.hh"
#include "core/experiments.hh"
#include "core/pka.hh"
#include "silicon/profiler.hh"
#include "silicon/silicon_gpu.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "workload/suites.hh"

int
main()
{
    using namespace pka;

    auto spec = silicon::voltaV100();
    silicon::SiliconGpu gpu(spec);
    sim::GpuSimulator simulator(spec);
    sim::SimEngine engine;

    workload::GenOptions gen;
    gen.mlperfScale = 0.02; // 2% of the paper's 5.3M-kernel run
    auto w = workload::buildWorkload("ssd_training", gen);
    if (!w) {
        std::fprintf(stderr, "ssd_training missing\n");
        return 1;
    }
    double inv_scale = 1.0 / w->scale;

    std::printf("SSD training: %zu launches at scale %.3f "
                "(full-size equivalent: %.1fM launches)\n",
                w->launches.size(), w->scale,
                w->launches.size() * inv_scale / 1e6);

    // What the naive approaches would cost (full-size equivalents).
    silicon::DetailedProfiler detailed(gpu);
    auto silicon_run = gpu.run(*w);
    double full_profile_s = detailed.costSeconds(*w) * inv_scale;
    double full_sim_s = static_cast<double>(silicon_run.totalCycles) *
                        inv_scale / core::kSimCyclesPerSecond;
    std::printf("\nwithout PKA (full-size equivalents):\n");
    std::printf("  detailed profiling of every launch: %s\n",
                common::humanTime(full_profile_s).c_str());
    std::printf("  full Accel-Sim-rate simulation:     %s\n",
                common::humanTime(full_sim_s).c_str());

    // The PKA campaign.
    core::PkaOptions opts;
    opts.twoLevelDetailedKernels = 2000;
    core::PkaAppResult res =
        core::runPka(engine, *w, *w, gpu, simulator, opts);
    if (res.excluded) {
        std::fprintf(stderr, "excluded: %s\n", res.exclusionReason.c_str());
        return 1;
    }

    std::printf("\nwith PKA:\n");
    std::printf("  profiling: %zu detailed + %zu lightweight -> %s "
                "(full-size equivalent %s)\n",
                res.selection.detailedCount,
                w->launches.size() - res.selection.detailedCount,
                common::humanTime(res.selection.profilingCostSec).c_str(),
                common::humanTime(res.selection.profilingCostSec *
                                  inv_scale)
                    .c_str());
    std::printf("  groups: %zu; classifier ensemble unanimity %.0f%%\n",
                res.selection.groups.size(),
                100.0 * res.selection.ensembleUnanimity);
    std::printf("  simulation: %s full-size-equivalent (vs %s)\n",
                common::humanTime(res.pka.simulatedCycles /
                                  core::kSimCyclesPerSecond)
                    .c_str(),
                common::humanTime(full_sim_s).c_str());

    double err = 100.0 *
                 std::abs(res.pka.projectedCycles -
                          static_cast<double>(silicon_run.totalCycles)) /
                 static_cast<double>(silicon_run.totalCycles);
    std::printf("  projected cycles: %.3e (%.1f%% vs silicon)\n",
                res.pka.projectedCycles, err);
    std::printf("  projected IPC: %.1f, projected DRAM util: %.1f%%\n",
                res.pka.projectedIpc(), res.pka.projectedDramUtilPct);

    // Group inventory.
    common::TextTable t({"group", "representative kernel", "members",
                         "weight share %"});
    for (size_t g = 0; g < res.selection.groups.size(); ++g) {
        const auto &grp = res.selection.groups[g];
        t.row()
            .intCell(static_cast<long long>(g))
            .cell(w->launches[grp.representative].config.program->name)
            .intCell(static_cast<long long>(grp.members.size()))
            .num(100.0 * grp.weight /
                     static_cast<double>(w->launches.size()),
                 1);
    }
    std::printf("\n");
    t.print(std::cout);
    return 0;
}
