/**
 * @file
 * Figure 10: the MPS case study — speedup of using all 80 SMs of a V100
 * over 40 SMs, in silicon, full simulation, 1B and PKA. Unlike Figure 9
 * this covers MLPerf too (the halved GPU is still a V100). The paper's
 * geomeans: silicon 1.24x, full sim 1.20x (MAE 9.3), 1B 1.32x (MAE
 * 24.9), PKA 1.22x (MAE 10.1).
 */

#include <cmath>
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

    bench::banner("Figure 10: 80-SM over 40-SM V100 speedup — silicon vs "
                  "full simulation vs 1B vs PKA");

    auto full_spec = silicon::voltaV100();
    auto half_spec = silicon::withSmCount(silicon::voltaV100(), 40);
    silicon::SiliconGpu gpu80(full_spec), gpu40(half_spec);
    sim::GpuSimulator sim80(full_spec), sim40(half_spec);

    common::TextTable t(
        {"workload", "silicon x", "full sim x", "1B x", "PKA x"});
    std::vector<double> s_sil, s_full, s_1b, s_pka;
    std::vector<double> ae_full, ae_1b, ae_pka, ae_pka_mlperf;

    for (const auto &pair : core::buildAllPairs()) {
        const auto &w = pair.traced;
        core::PkaAppResult res =
            core::runPka(engine, w, pair.profiled, gpu80, sim80);
        if (res.excluded)
            continue;

        double sil =
            static_cast<double>(gpu40.run(w).totalCycles) /
            static_cast<double>(gpu80.run(w).totalCycles);
        s_sil.push_back(sil);

        double full = 0.0;
        bool has_full = core::isFullySimulable(w);
        if (has_full) {
            full = core::fullSimulate(engine, sim40, w).cycles /
                   core::fullSimulate(engine, sim80, w).cycles;
            s_full.push_back(full);
            ae_full.push_back(100.0 * std::abs(full - sil) / sil);

            auto b80 = core::firstNInstructions(
                engine, sim80, w, core::k1BEquivalentInstructions);
            auto b40 = core::firstNInstructions(
                engine, sim40, w, core::k1BEquivalentInstructions);
            double one_b =
                b40.projectedAppCycles / b80.projectedAppCycles;
            s_1b.push_back(one_b);
            ae_1b.push_back(100.0 * std::abs(one_b - sil) / sil);
        }

        core::PkpOptions pkp;
        auto p80 =
            core::simulateSelection(engine, sim80, w, res.selection, &pkp);
        auto p40 =
            core::simulateSelection(engine, sim40, w, res.selection, &pkp);
        double pka = p40.projectedCycles / p80.projectedCycles;
        s_pka.push_back(pka);
        ae_pka.push_back(100.0 * std::abs(pka - sil) / sil);
        if (!has_full)
            ae_pka_mlperf.push_back(ae_pka.back());

        t.row().cell(w.suite + "/" + w.name).num(sil, 2);
        if (has_full)
            t.num(full, 2).num(s_1b.back(), 2);
        else
            t.cell("*").cell("*");
        t.num(pka, 2);
    }
    t.print(std::cout);

    std::printf("\nGeoMean 80-SM-over-40-SM speedup:\n");
    std::printf("  Silicon: %.2fx (paper: 1.24x)\n",
                common::geomean(s_sil));
    std::printf("  FullSim: %.2fx (paper: 1.20x)  MAE %5.2f "
                "(paper: 9.32)\n",
                common::geomean(s_full), common::mean(ae_full));
    std::printf("  1B:      %.2fx (paper: 1.32x)  MAE %5.2f "
                "(paper: 24.88)\n",
                common::geomean(s_1b), common::mean(ae_1b));
    std::printf("  PKA:     %.2fx (paper: 1.22x)  MAE %5.2f "
                "(paper: 10.13)\n",
                common::geomean(s_pka), common::mean(ae_pka));
    std::printf("MLPerf-only PKA speedup error vs silicon:\n");
    std::printf("  MAE %.2f%% over %zu MLPerf workloads (paper: < 10%%)\n",
                common::mean(ae_pka_mlperf), ae_pka_mlperf.size());
    return 0;
}
