/**
 * @file
 * The architect's use case (paper Section 5.3): when hardware changes,
 * does the sampled simulation predict the same performance *trend* as the
 * full simulation would? This example evaluates a hypothetical V100
 * variant with double DRAM bandwidth, comparing the speedup predicted by
 * full simulation against the speedup predicted by PKA at a fraction of
 * the simulated cycles — the representative kernels are selected once and
 * reused across both machines, just like the paper carries Volta-selected
 * kernels to Turing and Ampere.
 */

#include <cstdio>
#include <iostream>

#include "common/stats.hh"
#include "common/table.hh"
#include "core/experiments.hh"
#include "core/pka.hh"
#include "silicon/silicon_gpu.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "workload/suites.hh"

int
main()
{
    using namespace pka;

    auto base_spec = silicon::voltaV100();
    auto hypo_spec = base_spec;
    hypo_spec.name = "V100 (2x DRAM bandwidth)";
    hypo_spec.dramBandwidthGBs *= 2.0;
    hypo_spec.l2BandwidthBytesPerClk *= 1.5;

    silicon::SiliconGpu gpu(base_spec);
    sim::GpuSimulator sim_base(base_spec), sim_hypo(hypo_spec);
    // One engine serves both machines: the spec is part of its cache key.
    sim::SimEngine engine;

    const char *apps[] = {"atax",  "stencil", "spmv",
                          "histo", "lavaMD",  "sgemm_4096x4096x4096"};

    common::TextTable t({"workload", "full-sim speedup", "PKA speedup",
                         "PKA simulated-cycle share %"});
    std::vector<double> full_su, pka_su;

    for (const char *name : apps) {
        auto w = workload::buildWorkload(name);
        if (!w) {
            std::fprintf(stderr, "%s missing\n", name);
            return 1;
        }

        // Select once on the baseline machine.
        core::SelectionOutcome sel = core::selectKernels(*w, gpu);

        // Trend by full simulation (expensive).
        auto fs_base = core::fullSimulate(engine, sim_base, *w);
        auto fs_hypo = core::fullSimulate(engine, sim_hypo, *w);
        double full = fs_base.cycles / fs_hypo.cycles;

        // Trend by PKA (cheap): representatives with PKP on each machine.
        core::PkpOptions pkp;
        auto p_base =
            core::simulateSelection(engine, sim_base, *w, sel, &pkp);
        auto p_hypo =
            core::simulateSelection(engine, sim_hypo, *w, sel, &pkp);
        double pka = p_base.projectedCycles / p_hypo.projectedCycles;

        full_su.push_back(full);
        pka_su.push_back(pka);
        t.row()
            .cell(name)
            .num(full, 2)
            .num(pka, 2)
            .num(100.0 * (p_base.simulatedCycles + p_hypo.simulatedCycles) /
                     (fs_base.cycles + fs_hypo.cycles),
                 1);
    }
    t.print(std::cout);

    std::printf("\ngeomean speedup from 2x DRAM bandwidth: full sim "
                "%.2fx, PKA %.2fx\n",
                common::geomean(full_su), common::geomean(pka_su));
    std::printf("PKA tracks the full simulator's trend while simulating "
                "a small fraction of the cycles.\n");
    return 0;
}
