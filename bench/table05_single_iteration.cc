/**
 * @file
 * Section 6's NVArchSim comparison: simulating a single training/
 * inference iteration and scaling by the iteration count, versus PKS and
 * PKA, on ResNet from MLPerf. The paper finds comparable accuracy but
 * roughly 3x the simulation time of PKS and 48x that of PKA.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/baselines.hh"
#include "core/experiments.hh"
#include "silicon/silicon_gpu.hh"
#include "workload/suites.hh"

using namespace pka;

int
main()
{
    sim::SimEngine engine(bench::engineOptionsFromEnv());

    bench::banner("Single-iteration scaling (NVArchSim practice) vs "
                  "PKS/PKA on MLPerf ResNet");

    auto spec = silicon::voltaV100();
    silicon::SiliconGpu gpu(spec);
    sim::GpuSimulator simulator(spec);

    common::TextTable t({"workload", "method", "cycle error %",
                         "simulated cycles", "sim time",
                         "vs PKS time", "vs PKA time"});

    for (const char *name :
         {"resnet50_64b", "resnet50_128b", "resnet50_256b"}) {
        workload::GenOptions traced_g, prof_g;
        prof_g.underProfiler = true;
        auto w = workload::buildWorkload(name, traced_g);
        auto p = workload::buildWorkload(name, prof_g);
        if (!w || !p) {
            std::fprintf(stderr, "%s missing\n", name);
            return 1;
        }

        double sil = static_cast<double>(gpu.run(*w).totalCycles);
        core::PkaAppResult res = core::runPka(engine, *w, *p, gpu, simulator);
        core::SingleIterationResult si =
            core::singleIterationBaseline(engine, simulator, *w);
        if (!si.applicable) {
            std::fprintf(stderr, "%s: no iteration structure found\n",
                         name);
            return 1;
        }

        auto emit = [&](const char *method, double err, double cycles) {
            t.row()
                .cell(name)
                .cell(method)
                .num(err, 1)
                .cell(common::humanCount(cycles))
                .cell(common::humanTime(cycles /
                                        core::kSimCyclesPerSecond))
                .num(cycles / res.pks.simulatedCycles, 1)
                .num(cycles / res.pka.simulatedCycles, 1);
        };
        emit("single-iteration",
             common::pctError(si.projectedAppCycles, sil),
             si.simulatedCycles);
        emit("PKS", common::pctError(res.pks.projectedCycles, sil),
             res.pks.simulatedCycles);
        emit("PKA", common::pctError(res.pka.projectedCycles, sil),
             res.pka.simulatedCycles);
    }
    t.print(std::cout);
    std::printf("\npaper: single-iteration needs ~3x PKS and ~48x PKA "
                "simulation time at comparable accuracy\n");
    return 0;
}
