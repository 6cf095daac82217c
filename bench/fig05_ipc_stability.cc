/**
 * @file
 * Figure 5: instantaneous IPC, L2 miss rate and DRAM utilization versus
 * time for a regular workload (atax) and an irregular one (BFS), with the
 * Principal Kernel Projection stopping points at s in {2.5, 0.25, 0.025}.
 * For each threshold the harness reports where PKP stops, the speedup of
 * stopping there, and the cycle-projection error versus running the
 * kernel to completion.
 */

#include <cinttypes>
#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/pkp.hh"
#include "silicon/gpu_spec.hh"
#include "sim/simulator.hh"
#include "workload/suites.hh"

using namespace pka;

namespace
{

void
traceKernel(const sim::GpuSimulator &simulator,
            const workload::Workload &w, uint32_t launch_idx)
{
    const auto &k = w.launches[launch_idx];
    sim::SimOptions opts;
    opts.traceIpc = true;
    auto full = simulator.simulateKernel(k, w.seed, opts);

    std::printf("\nkernel %s (launch %u): %" PRIu64
                " cycles, %zu trace buckets, grid %" PRIu64
                " CTAs (wave %" PRIu64 ")\n",
                k.config.program->name.c_str(), k.launchId, full.cycles,
                full.trace.size(), full.totalCtas, full.waveSize);

    // Downsampled time series (the figure's three curves).
    common::TextTable ts({"cycle", "IPC", "L2 miss %", "DRAM util %"});
    size_t step = std::max<size_t>(1, full.trace.size() / 24);
    for (size_t i = 0; i < full.trace.size(); i += step) {
        const auto &s = full.trace[i];
        ts.row()
            .intCell(static_cast<long long>(s.cycle))
            .num(s.ipc, 1)
            .num(s.l2MissPct, 1)
            .num(s.dramUtilPct, 1);
    }
    ts.print(std::cout);

    // PKP stopping points across thresholds.
    common::TextTable st({"threshold s", "stop cycle", "speedup",
                          "proj. cycle error %", "stopped early"});
    for (double s : {2.5, 0.25, 0.025}) {
        core::PkpOptions po;
        po.threshold = s;
        core::IpcStabilityController ctl(po);
        sim::SimOptions so;
        so.stop = &ctl;
        auto r = simulator.simulateKernel(k, w.seed, so);
        auto proj = core::projectKernel(r);
        st.row()
            .num(s, 3)
            .intCell(static_cast<long long>(r.cycles))
            .num(static_cast<double>(full.cycles) /
                     static_cast<double>(r.cycles),
                 2)
            .num(common::pctError(
                     static_cast<double>(proj.projectedCycles),
                     static_cast<double>(full.cycles)),
                 2)
            .cell(r.stoppedEarly ? "yes" : "no");
    }
    st.print(std::cout);
}

} // namespace

int
main()
{
    bench::banner("Figure 5: IPC stability and PKP stopping points");

    sim::GpuSimulator simulator(silicon::voltaV100());

    std::printf("\n--- (a) atax: a regular application ---\n");
    auto atax = workload::buildWorkload("atax");
    if (!atax) {
        std::fprintf(stderr, "atax missing\n");
        return 1;
    }
    traceKernel(simulator, *atax, 0);

    std::printf("\n--- (b) BFS: an irregular application ---\n");
    auto bfs = workload::buildWorkload("bfs1MW");
    if (!bfs) {
        std::fprintf(stderr, "bfs1MW missing\n");
        return 1;
    }
    // Three frontier kernels around the peak, as in the figure.
    for (uint32_t idx : {8u, 10u, 12u})
        traceKernel(simulator, *bfs, idx);
    return 0;
}
