/**
 * @file
 * Figure 7: simulation speedup of PKA, TBPoint and the first-1B-
 * instructions practice over full simulation, on the applications that
 * can complete in full simulation (the only ones TBPoint can run at all).
 * The paper reports geomeans of 3.77x (PKA), 1.76x (TBPoint) and 3.85x
 * (1B).
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/experiments.hh"
#include "silicon/silicon_gpu.hh"
#include "workload/suites.hh"

using namespace pka;

int
main()
{
    sim::SimEngine engine(bench::engineOptionsFromEnv());

    bench::banner("Figure 7: speedup over full simulation — PKA vs "
                  "TBPoint vs 1B instructions");

    auto spec = silicon::voltaV100();
    silicon::SiliconGpu gpu(spec);
    sim::GpuSimulator simulator(spec);

    common::TextTable t(
        {"workload", "PKA x", "TBPoint x", "1B x", "TBPoint groups"});
    std::vector<double> su_pka, su_tbp, su_1b;

    for (const auto &pair : core::buildAllPairs()) {
        const auto &w = pair.traced;
        if (!core::isFullySimulable(w))
            continue;
        core::PkaAppResult res =
            core::runPka(engine, w, pair.profiled, gpu, simulator);
        if (res.excluded)
            continue;

        core::FullSimResult fs = core::fullSimulate(engine, simulator, w);
        auto tbp_r = core::tbpointSelectChecked(fs.perKernel);
        if (!tbp_r.ok())
            common::fatal(tbp_r.error().str());
        const core::TBPointResult &tbp = tbp_r.value();
        core::BaselineResult one_b = core::firstNInstructions(
            engine, simulator, w, core::k1BEquivalentInstructions);

        double pka = res.pka.simulatedCycles > 0
                         ? fs.cycles / res.pka.simulatedCycles
                         : 1.0;
        double tb = tbp.representativeCycleCost > 0
                        ? fs.cycles / tbp.representativeCycleCost
                        : 1.0;
        double ob = one_b.simulatedCycles > 0
                        ? fs.cycles / one_b.simulatedCycles
                        : 1.0;
        su_pka.push_back(pka);
        su_tbp.push_back(tb);
        su_1b.push_back(ob);
        t.row()
            .cell(w.suite + "/" + w.name)
            .num(pka, 2)
            .num(tb, 2)
            .num(ob, 2)
            .intCell(static_cast<long long>(tbp.groups.size()));
    }
    t.print(std::cout);

    std::printf("\nGeoMean speedup over full simulation (%zu apps):\n",
                su_pka.size());
    std::printf("  PKA:     %.2fx (paper: 3.77x)\n",
                common::geomean(su_pka));
    std::printf("  TBPoint: %.2fx (paper: 1.76x)\n",
                common::geomean(su_tbp));
    std::printf("  1B:      %.2fx (paper: 3.85x)\n",
                common::geomean(su_1b));
    std::printf("  PKA-over-TBPoint simulation reduction: %.2fx "
                "(paper: 2.19x)\n",
                common::geomean(su_pka) / common::geomean(su_tbp));
    return 0;
}
