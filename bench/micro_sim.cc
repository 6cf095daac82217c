/**
 * @file
 * google-benchmark microbenchmarks for the execution substrates: the
 * cycle-level simulator's throughput (warp instructions per second), the
 * analytic silicon model, the detailed profiler, and the PKP stability
 * detector's per-bucket cost.
 */

#include <benchmark/benchmark.h>

#include "core/pkp.hh"
#include "silicon/profiler.hh"
#include "silicon/silicon_gpu.hh"
#include "sim/simulator.hh"
#include "workload/builder.hh"
#include "workload/suites.hh"

using namespace pka;

namespace
{

workload::KernelDescriptor
benchKernel(uint32_t ctas, uint32_t iters)
{
    using namespace workload;
    static ProgramPtr prog = ProgramBuilder("bench")
                                 .seg(InstrClass::GlobalLoad, 2)
                                 .seg(InstrClass::FpAlu, 12)
                                 .seg(InstrClass::IntAlu, 4)
                                 .seg(InstrClass::GlobalStore, 1)
                                 .mem(1.5, 0.6, 0.7)
                                 .build();
    KernelDescriptor k;
    k.program = prog;
    k.grid = {ctas, 1, 1};
    k.block = {256, 1, 1};
    k.iterations = iters;
    return k;
}

} // namespace

static void
BM_SimulatorThroughput(benchmark::State &state)
{
    sim::GpuSimulator simulator(silicon::voltaV100());
    auto k = benchKernel(static_cast<uint32_t>(state.range(0)), 8);
    uint64_t insts = 0;
    for (auto _ : state) {
        auto r = simulator.simulateKernel({k, 0}, 1);
        insts += r.warpInstructions;
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
    state.SetLabel("items = warp instructions");
}
BENCHMARK(BM_SimulatorThroughput)->Arg(80)->Arg(640)->Arg(2560)
    ->Unit(benchmark::kMillisecond);

static void
BM_SimulatorWithPkp(benchmark::State &state)
{
    sim::GpuSimulator simulator(silicon::voltaV100());
    auto k = benchKernel(2560, 16);
    core::IpcStabilityController stop;
    for (auto _ : state) {
        sim::SimOptions opts;
        opts.stop = &stop;
        auto r = simulator.simulateKernel({k, 0}, 1, opts);
        benchmark::DoNotOptimize(r.cycles);
    }
}
BENCHMARK(BM_SimulatorWithPkp)->Unit(benchmark::kMillisecond);

static void
BM_SiliconModel(benchmark::State &state)
{
    silicon::SiliconGpu gpu(silicon::voltaV100());
    auto k = benchKernel(2560, 16);
    for (auto _ : state)
        benchmark::DoNotOptimize(gpu.execute({k, 0}, 1).cycles);
}
BENCHMARK(BM_SiliconModel);

static void
BM_DetailedProfileMlperfStream(benchmark::State &state)
{
    silicon::SiliconGpu gpu(silicon::voltaV100());
    workload::GenOptions g;
    g.mlperfScale = 0.005;
    auto w = workload::buildWorkload("ssd_training", g);
    silicon::DetailedProfiler prof(gpu);
    for (auto _ : state)
        benchmark::DoNotOptimize(prof.profile(*w, 2000).size());
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_DetailedProfileMlperfStream)->Unit(benchmark::kMillisecond);

static void
BM_PkpDetector(benchmark::State &state)
{
    core::IpcStabilityController c;
    sim::StopController::Snapshot s;
    s.windowFull = true;
    s.windowIpcMean = 100;
    s.windowIpcStd = 40; // never stable: measures the polling cost
    s.totalCtas = 10000;
    s.finishedCtas = 100;
    s.waveSize = 2560;
    for (auto _ : state)
        benchmark::DoNotOptimize(c.shouldStop(s));
}
BENCHMARK(BM_PkpDetector);

BENCHMARK_MAIN();
