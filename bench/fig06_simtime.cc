/**
 * @file
 * Figure 6: simulation time per workload under full simulation, PKS, and
 * PKA (log-hours axis in the paper). Simulated-cycle counts are converted
 * to projected wall-clock hours at Accel-Sim-like rates; MLPerf full-
 * simulation times are projections from silicon cycles (they cannot be
 * simulated to completion — the paper's premise), at full-size
 * equivalents.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/experiments.hh"
#include "silicon/silicon_gpu.hh"
#include "workload/suites.hh"

using namespace pka;

int
main()
{
    sim::SimEngine engine(bench::engineOptionsFromEnv());

    bench::banner(
        "Figure 6: simulation time — full simulation vs PKS vs PKA");

    auto spec = silicon::voltaV100();
    silicon::SiliconGpu gpu(spec);
    sim::GpuSimulator simulator(spec);

    struct Row
    {
        std::string name;
        double full_h, pks_h, pka_h;
        bool projected_full;
    };
    std::vector<Row> rows;

    for (const auto &pair : core::buildAllPairs()) {
        const auto &w = pair.traced;
        core::PkaAppResult res =
            core::runPka(engine, w, pair.profiled, gpu, simulator);
        if (res.excluded)
            continue;

        Row r;
        r.name = w.suite + "/" + w.name;
        double inv_scale = w.scale > 0 ? 1.0 / w.scale : 1.0;
        if (core::isFullySimulable(w)) {
            auto fs = core::fullSimulate(engine, simulator, w);
            r.full_h = core::projectedSimHours(fs.cycles);
            r.projected_full = false;
        } else {
            r.full_h = core::projectedSimHours(
                static_cast<double>(gpu.run(w).totalCycles) * inv_scale);
            r.projected_full = true;
        }
        // PKS/PKA cost scales with the launch stream actually selected
        // from; report full-size equivalents for scaled workloads.
        r.pks_h =
            core::projectedSimHours(res.pks.simulatedCycles);
        r.pka_h =
            core::projectedSimHours(res.pka.simulatedCycles);
        rows.push_back(r);
    }

    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        return a.full_h < b.full_h;
    });

    common::TextTable t(
        {"workload", "full sim", "PKS", "PKA", "full-sim source"});
    for (const auto &r : rows)
        t.row()
            .cell(r.name)
            .cell(common::humanTime(r.full_h * 3600.0))
            .cell(common::humanTime(r.pks_h * 3600.0))
            .cell(common::humanTime(r.pka_h * 3600.0))
            .cell(r.projected_full ? "projected (MLPerf)" : "simulated");
    t.print(std::cout);

    std::vector<double> su_pks, su_pka;
    double worst_full = 0, worst_pka = 0;
    for (const auto &r : rows) {
        if (r.pks_h > 0)
            su_pks.push_back(r.full_h / r.pks_h);
        if (r.pka_h > 0)
            su_pka.push_back(r.full_h / r.pka_h);
        worst_full = std::max(worst_full, r.full_h);
        worst_pka = std::max(worst_pka, r.pka_h);
    }
    std::printf("\nGeomean time reduction: PKS %.2fx, PKA %.2fx\n",
                common::geomean(su_pks), common::geomean(su_pka));
    std::printf("Longest workload: %s full-sim -> %s with PKA\n",
                common::humanTime(worst_full * 3600).c_str(),
                common::humanTime(worst_pka * 3600).c_str());
    return 0;
}
