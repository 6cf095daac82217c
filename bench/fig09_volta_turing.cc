/**
 * @file
 * Figure 9: relative-accuracy case study — the speedup of a Volta V100
 * over a Turing RTX 2060 as measured in silicon, by full simulation, by
 * the first-1B practice, and by PKA. The paper's geomeans: silicon 2.29x,
 * full simulation 1.87x, 1B 1.72x, PKA 1.88x. MLPerf workloads do not fit
 * the RTX 2060's memory and are excluded, as in the paper.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/experiments.hh"
#include "silicon/silicon_gpu.hh"
#include "workload/suites.hh"

using namespace pka;

int
main()
{
    sim::SimEngine engine(bench::engineOptionsFromEnv());

    bench::banner("Figure 9: V100-over-RTX2060 speedup — silicon vs full "
                  "simulation vs 1B vs PKA");

    auto volta_spec = silicon::voltaV100();
    auto turing_spec = silicon::turingRtx2060();
    silicon::SiliconGpu volta(volta_spec), turing(turing_spec);
    sim::GpuSimulator sim_v(volta_spec), sim_t(turing_spec);

    auto seconds = [](double cycles, const silicon::GpuSpec &s) {
        return cycles / (s.coreClockGhz * 1e9);
    };

    common::TextTable t(
        {"workload", "silicon x", "full sim x", "1B x", "PKA x"});
    std::vector<double> s_sil, s_full, s_1b, s_pka;

    for (const auto &pair : core::buildAllPairs()) {
        const auto &w = pair.traced;
        if (!core::isFullySimulable(w))
            continue; // MLPerf does not fit the 2060
        core::PkaAppResult res =
            core::runPka(engine, w, pair.profiled, volta, sim_v);
        if (res.excluded)
            continue;

        double sil =
            turing.run(w).totalSeconds / volta.run(w).totalSeconds;

        double full = seconds(core::fullSimulate(engine, sim_t, w).cycles,
                              turing_spec) /
                      seconds(core::fullSimulate(engine, sim_v, w).cycles,
                              volta_spec);

        auto b_v = core::firstNInstructions(
            engine, sim_v, w, core::k1BEquivalentInstructions);
        auto b_t = core::firstNInstructions(
            engine, sim_t, w, core::k1BEquivalentInstructions);
        double one_b = seconds(b_t.projectedAppCycles, turing_spec) /
                       seconds(b_v.projectedAppCycles, volta_spec);

        // Volta-selected kernels projected on both machines (the paper's
        // cross-generation reuse of the selection).
        core::PkpOptions pkp;
        auto p_v =
            core::simulateSelection(engine, sim_v, w, res.selection, &pkp);
        auto p_t =
            core::simulateSelection(engine, sim_t, w, res.selection, &pkp);
        double pka = seconds(p_t.projectedCycles, turing_spec) /
                     seconds(p_v.projectedCycles, volta_spec);

        s_sil.push_back(sil);
        s_full.push_back(full);
        s_1b.push_back(one_b);
        s_pka.push_back(pka);
        t.row()
            .cell(w.suite + "/" + w.name)
            .num(sil, 2)
            .num(full, 2)
            .num(one_b, 2)
            .num(pka, 2);
    }
    t.print(std::cout);

    std::printf("\nGeoMean V100-over-RTX2060 speedup (%zu apps):\n",
                s_sil.size());
    std::printf("  Silicon:         %.2fx (paper: 2.29x)\n",
                common::geomean(s_sil));
    std::printf("  Full simulation: %.2fx (paper: 1.87x)\n",
                common::geomean(s_full));
    std::printf("  1B:              %.2fx (paper: 1.72x)\n",
                common::geomean(s_1b));
    std::printf("  PKA:             %.2fx (paper: 1.88x)\n",
                common::geomean(s_pka));
    return 0;
}
