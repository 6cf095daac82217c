/**
 * @file
 * Bring-your-own workload: how a user describes a new application to the
 * library — programs built from instruction-class segments and memory
 * behaviour, a chronological launch stream with per-launch parameters —
 * and runs Principal Kernel Analysis on it.
 *
 * The example models an iterative solver: a preconditioner kernel, a
 * sparse matrix-vector product and a reduction, launched over 300
 * iterations with a shrinking residual workload.
 */

#include <cstdio>

#include "core/pka.hh"
#include "silicon/silicon_gpu.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "workload/builder.hh"

int
main()
{
    using namespace pka;
    using namespace pka::workload;

    // 1. Describe the kernel code identities.
    ProgramPtr precondition =
        ProgramBuilder("jacobi_precondition")
            .seg(InstrClass::GlobalLoad, 3)
            .seg(InstrClass::FpAlu, 9)
            .seg(InstrClass::GlobalStore, 1)
            .mem(/*sectors_per_access=*/1.2, /*l1=*/0.7, /*l2=*/0.8)
            .divergence(1.0)
            .build();
    ProgramPtr spmv =
        ProgramBuilder("csr_spmv")
            .seg(InstrClass::GlobalLoad, 6)
            .seg(InstrClass::FpAlu, 4)
            .seg(InstrClass::IntAlu, 6)
            .seg(InstrClass::Branch, 2)
            .seg(InstrClass::GlobalStore, 1)
            .mem(6.0, 0.25, 0.45)
            .divergence(0.7)
            .build();
    ProgramPtr reduce =
        ProgramBuilder("dot_reduce")
            .seg(InstrClass::GlobalLoad, 2)
            .seg(InstrClass::SharedStore, 2)
            .seg(InstrClass::Sync, 2)
            .seg(InstrClass::SharedLoad, 6)
            .seg(InstrClass::FpAlu, 6)
            .seg(InstrClass::GlobalStore, 1)
            .mem(1.1, 0.4, 0.6)
            .divergence(0.85)
            .build();

    // 2. Lay out the chronological launch stream.
    WorkloadBuilder builder("user", "iterative_solver", /*seed=*/42);
    for (int it = 0; it < 300; ++it) {
        // Residual set shrinks as the solver converges.
        uint32_t rows = 512 - static_cast<uint32_t>(it);
        builder.launch(precondition, {rows, 1, 1}, {256, 1, 1},
                       {.regs = 24, .iterations = 2});
        builder.launch(spmv, {rows, 1, 1}, {128, 1, 1},
                       {.regs = 32, .iterations = 4, .ctaWorkCv = 0.5});
        builder.launch(reduce, {rows / 4 + 1, 1, 1}, {256, 1, 1},
                       {.regs = 20, .smem = 2048, .iterations = 2});
    }
    Workload w = builder.build();
    std::printf("custom workload: %zu launches, %zu distinct kernels, "
                "%.2fM warp instructions\n",
                w.launches.size(), w.distinctPrograms(),
                static_cast<double>(w.totalWarpInstructions()) / 1e6);

    // 3. Run PKA against a V100.
    auto spec = silicon::voltaV100();
    silicon::SiliconGpu gpu(spec);
    sim::GpuSimulator simulator(spec);
    sim::SimEngine engine;
    core::PkaAppResult res = core::runPka(engine, w, w, gpu, simulator);
    if (res.excluded) {
        std::fprintf(stderr, "excluded: %s\n", res.exclusionReason.c_str());
        return 1;
    }

    auto truth = gpu.run(w);
    std::printf("PKS found %zu groups over %zu launches\n",
                res.selection.groups.size(), w.launches.size());
    for (size_t g = 0; g < res.selection.groups.size(); ++g) {
        const auto &grp = res.selection.groups[g];
        const auto &rep = w.launches[grp.representative].config;
        std::printf("  group %zu: rep launch %u (%s), %zu members\n", g,
                    grp.representative, rep.program->name.c_str(),
                    grp.members.size());
    }
    std::printf("silicon: %.3e cycles; PKA projects %.3e (%.1f%% off) "
                "simulating only %.3e cycles\n",
                static_cast<double>(truth.totalCycles),
                res.pka.projectedCycles,
                100.0 * std::abs(res.pka.projectedCycles -
                                 static_cast<double>(truth.totalCycles)) /
                    static_cast<double>(truth.totalCycles),
                res.pka.simulatedCycles);
    return 0;
}
