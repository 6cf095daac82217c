/**
 * @file
 * Ablation: warp scheduling policy in the cycle-level simulator — loose
 * round-robin (LRR) versus greedy-then-oldest (GTO, Accel-Sim's default).
 * Reports per-suite simulated cycles and sim-vs-silicon error under each
 * policy, verifying that PKA's conclusions are not an artifact of one
 * scheduler.
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
    bench::banner("Ablation: warp scheduler (LRR vs GTO)");

    auto spec = silicon::voltaV100();
    silicon::SiliconGpu gpu(spec);
    sim::GpuSimulator simulator(spec);

    const char *apps[] = {"backprop", "hots_1024", "lavaMD", "stencil",
                          "spmv",     "histo",     "atax",   "sgemm",
                          "gemm_inf_in1", "rnn_inf_tc_in0"};

    common::TextTable t({"workload", "LRR cycles", "GTO cycles",
                         "GTO/LRR", "LRR err %", "GTO err %"});
    std::vector<double> ratio, err_lrr, err_gto;
    for (const char *name : apps) {
        auto w = workload::buildWorkload(name);
        if (!w) {
            std::fprintf(stderr, "%s missing\n", name);
            return 1;
        }
        double sil = static_cast<double>(gpu.run(*w).totalCycles);

        double lrr = 0, gto = 0;
        for (const auto &k : w->launches) {
            sim::SimOptions lo, go;
            lo.scheduler = sim::SchedulerPolicy::Lrr;
            go.scheduler = sim::SchedulerPolicy::Gto;
            lrr += static_cast<double>(
                simulator.simulateKernel(k, w->seed, lo).cycles);
            gto += static_cast<double>(
                simulator.simulateKernel(k, w->seed, go).cycles);
        }
        ratio.push_back(gto / lrr);
        err_lrr.push_back(common::pctError(lrr, sil));
        err_gto.push_back(common::pctError(gto, sil));
        t.row()
            .cell(name)
            .cell(common::humanCount(lrr))
            .cell(common::humanCount(gto))
            .num(gto / lrr, 3)
            .num(err_lrr.back(), 1)
            .num(err_gto.back(), 1);
    }
    t.print(std::cout);

    std::printf("\ngeomean GTO/LRR cycle ratio: %.3f\n",
                common::geomean(ratio));
    std::printf("mean sim-vs-silicon error: LRR %.1f%%, GTO %.1f%%\n",
                common::mean(err_lrr), common::mean(err_gto));
    return 0;
}
