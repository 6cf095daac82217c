/**
 * @file
 * Ablation (paper Section 3.2): PKP's two knobs — the stability threshold
 * s and the rolling-window length n (the paper fixes n = 3000 cycles and
 * s = 0.25 for every workload) — plus the full-wave constraint. Sweeps
 * each against the speedup/error tradeoff over long-kernel workloads.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/pkp.hh"
#include "silicon/silicon_gpu.hh"
#include "sim/simulator.hh"
#include "workload/suites.hh"

using namespace pka;

namespace
{

struct Sweep
{
    double err_pct = 0.0;
    double speedup = 0.0;
    int stopped = 0;
};

Sweep
runSweep(const sim::GpuSimulator &simulator,
         const std::vector<workload::Workload> &apps, double s,
         uint32_t window_buckets, bool require_wave)
{
    Sweep out;
    std::vector<double> errs, sus;
    for (const auto &w : apps) {
        const auto &k = w.launches[0];
        auto full = simulator.simulateKernel(k, w.seed);

        core::PkpOptions po;
        po.threshold = s;
        po.requireFullWave = require_wave;
        core::IpcStabilityController ctl(po);
        sim::SimOptions so;
        so.stop = &ctl;
        so.ipcWindowBuckets = window_buckets;
        auto r = simulator.simulateKernel(k, w.seed, so);
        auto proj = core::projectKernel(r);

        errs.push_back(pka::common::pctError(
            static_cast<double>(proj.projectedCycles),
            static_cast<double>(full.cycles)));
        sus.push_back(static_cast<double>(full.cycles) /
                      static_cast<double>(r.cycles));
        out.stopped += r.stoppedEarly;
    }
    out.err_pct = common::mean(errs);
    out.speedup = common::geomean(sus);
    return out;
}

} // namespace

int
main()
{
    bench::banner("Ablation: PKP threshold s, window length n, and the "
                  "full-wave constraint");

    sim::GpuSimulator simulator(silicon::voltaV100());

    // Long-kernel workloads where intra-kernel reduction matters.
    std::vector<workload::Workload> apps;
    for (const char *name : {"atax", "syr2k", "syrk", "2Dcnn", "gemm",
                             "lavaMD", "correlation"}) {
        auto w = workload::buildWorkload(name);
        if (!w) {
            std::fprintf(stderr, "%s missing\n", name);
            return 1;
        }
        apps.push_back(std::move(*w));
    }

    std::printf("\n(1) threshold sweep at the paper's n = 3000 cycles:\n");
    common::TextTable t1({"s", "mean cycle error %", "geomean speedup",
                          "kernels stopped early"});
    for (double s : {5.0, 2.5, 1.0, 0.5, 0.25, 0.1, 0.025, 0.005}) {
        Sweep r = runSweep(simulator, apps, s, 100, true);
        t1.row()
            .num(s, 3)
            .num(r.err_pct, 2)
            .num(r.speedup, 2)
            .intCell(r.stopped);
    }
    t1.print(std::cout);

    std::printf("\n(2) window sweep at the paper's s = 0.25 "
                "(n = buckets x 30 cycles):\n");
    common::TextTable t2({"window cycles", "mean cycle error %",
                          "geomean speedup", "kernels stopped early"});
    for (uint32_t buckets : {10u, 33u, 100u, 300u, 1000u}) {
        Sweep r = runSweep(simulator, apps, 0.25, buckets, true);
        t2.row()
            .intCell(buckets * 30)
            .num(r.err_pct, 2)
            .num(r.speedup, 2)
            .intCell(r.stopped);
    }
    t2.print(std::cout);

    std::printf("\n(3) the full-wave constraint at s = 0.25, n = 3000:\n");
    common::TextTable t3({"constraint", "mean cycle error %",
                          "geomean speedup"});
    Sweep with = runSweep(simulator, apps, 0.25, 100, true);
    Sweep without = runSweep(simulator, apps, 0.25, 100, false);
    t3.row().cell("wave required").num(with.err_pct, 2).num(with.speedup, 2);
    t3.row()
        .cell("no constraint")
        .num(without.err_pct, 2)
        .num(without.speedup, 2);
    t3.print(std::cout);

    std::printf("\npaper: s = 0.25 balances accuracy and speedup; tighter "
                "thresholds buy accuracy with simulation time; dropping "
                "the wave constraint risks missing steady-state "
                "contention.\n");
    return 0;
}
