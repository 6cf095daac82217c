/**
 * @file
 * Figure 8: absolute % IPC error versus silicon for full simulation, the
 * first-1B-instructions practice, PKA and TBPoint, sorted by the baseline
 * simulator's error. The paper's mean errors: FullSim 26.7%, 1B 144.1%,
 * PKA 31.1%, TBPoint 27.2%.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/logging.hh"
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

    bench::banner("Figure 8: absolute % IPC error vs silicon — FullSim / "
                  "1B / PKA / TBPoint");

    auto spec = silicon::voltaV100();
    silicon::SiliconGpu gpu(spec);
    sim::GpuSimulator simulator(spec);

    struct Row
    {
        std::string name;
        double full_e, one_b_e, pka_e, tbp_e;
    };
    std::vector<Row> rows;

    for (const auto &pair : core::buildAllPairs()) {
        const auto &w = pair.traced;
        if (!core::isFullySimulable(w))
            continue;
        core::PkaAppResult res =
            core::runPka(engine, w, pair.profiled, gpu, simulator);
        if (res.excluded)
            continue;

        auto sil = gpu.run(w);
        double sil_insts = 0.0;
        for (const auto &l : sil.launches)
            sil_insts += l.threadIpc * static_cast<double>(l.cycles);
        double sil_ipc =
            sil.totalCycles > 0
                ? sil_insts / static_cast<double>(sil.totalCycles)
                : 0.0;

        core::FullSimResult fs = core::fullSimulate(engine, simulator, w);
        auto tbp_r = core::tbpointSelectChecked(fs.perKernel);
        if (!tbp_r.ok())
            common::fatal(tbp_r.error().str());
        const core::TBPointResult &tbp = tbp_r.value();
        core::BaselineResult one_b = core::firstNInstructions(
            engine, simulator, w, core::k1BEquivalentInstructions);

        // Projected IPC per method.
        double full_ipc = fs.ipc();
        double one_b_ipc =
            one_b.simulatedCycles > 0
                ? one_b.simulatedThreadInsts / one_b.simulatedCycles
                : 0.0;
        double pka_ipc = res.pka.projectedIpc();
        double tbp_cycles = 0.0, tbp_insts = 0.0;
        {
            // Index per-kernel stats by launch id for rep lookup.
            std::vector<const core::TBPointKernelStats *> by_id(
                w.launches.size(), nullptr);
            for (const auto &s : fs.perKernel)
                by_id[s.launchId] = &s;
            for (const auto &g : tbp.groups) {
                const auto *rep = by_id[g.representative];
                tbp_cycles += static_cast<double>(rep->cycles) * g.weight;
                tbp_insts += rep->ipc *
                             static_cast<double>(rep->cycles) * g.weight;
            }
        }
        double tbp_ipc = tbp_cycles > 0 ? tbp_insts / tbp_cycles : 0.0;

        rows.push_back(Row{w.suite + "/" + w.name,
                           common::pctError(full_ipc, sil_ipc),
                           common::pctError(one_b_ipc, sil_ipc),
                           common::pctError(pka_ipc, sil_ipc),
                           common::pctError(tbp_ipc, sil_ipc)});
    }

    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        return a.full_e < b.full_e;
    });

    common::TextTable t(
        {"workload", "FullSim %", "1B %", "PKA %", "TBPoint %"});
    std::vector<double> fe, oe, pe, te;
    for (const auto &r : rows) {
        t.row()
            .cell(r.name)
            .num(r.full_e, 1)
            .num(r.one_b_e, 1)
            .num(r.pka_e, 1)
            .num(r.tbp_e, 1);
        fe.push_back(r.full_e);
        oe.push_back(r.one_b_e);
        pe.push_back(r.pka_e);
        te.push_back(r.tbp_e);
    }
    t.print(std::cout);

    std::printf("\nMean absolute IPC error vs silicon (%zu apps):\n",
                rows.size());
    std::printf("  FullSim: %6.2f%% (paper: 26.7%%)\n", common::mean(fe));
    std::printf("  1B:      %6.2f%% (paper: 144.1%%)\n", common::mean(oe));
    std::printf("  PKA:     %6.2f%% (paper: 31.1%%)\n", common::mean(pe));
    std::printf("  TBPoint: %6.2f%% (paper: 27.2%%)\n", common::mean(te));
    return 0;
}
