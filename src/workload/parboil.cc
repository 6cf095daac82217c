/**
 * @file
 * Parboil suite generator: 8 workloads. Launch-stream structure follows the
 * paper: histo (4 kernels x 20 iterations, 4 groups), cutcp (3 kernels with
 * 2/3/6 launches), spmv and stencil (long identical launch trains), bfs
 * (a short, highly level-dependent stream that resists reduction).
 */

#include <algorithm>
#include <cmath>

#include "workload/archetypes.hh"
#include "workload/builder.hh"
#include "workload/detail.hh"
#include "workload/suites.hh"

namespace pka::workload
{

using namespace archetypes;
using detail::workloadRng;
using pka::common::Rng;

namespace
{

Workload
pbBfs()
{
    Rng rng = workloadRng("parboil", "bfs");
    WorkloadBuilder b("parboil", "bfs", rng.nextU64());
    // Every level is generated as a *distinct* program instance: Parboil's
    // BFS switches kernel flavours with queue size, so levels barely
    // cluster (paper speedup: 1.1x).
    for (int lvl = 0; lvl < 11; ++lvl) {
        Rng krng = Rng::forKey(rng.nextU64(), lvl);
        auto k = graphTraversal("BFS_kernel_L" + std::to_string(lvl), krng);
        double x = (lvl + 0.5) / 11.0;
        uint32_t ctas = std::max<uint32_t>(
            2, static_cast<uint32_t>(96 * std::sin(x * 3.14159265358979)));
        b.launch(k, {ctas, 1, 1}, {256, 1, 1},
                 {.regs = 20,
                  .iterations = static_cast<uint32_t>(4 + 3 * (lvl % 4)),
                  .ctaWorkCv = 0.9});
    }
    return b.build();
}

Workload
cutcp()
{
    Rng rng = workloadRng("parboil", "cutcp");
    WorkloadBuilder b("parboil", "cutcp", rng.nextU64());
    auto lattice = compute("cuda_cutoff_potential_lattice6overlap", rng, 2.0);
    auto setup = dataMovement("cutcp_setup", rng);
    auto reduce = reduction("cutcp_reduce", rng);
    for (int i = 0; i < 2; ++i)
        b.launch(setup, {64, 1, 1}, {128, 1, 1}, {.iterations = 3});
    for (int i = 0; i < 3; ++i)
        b.launch(reduce, {32, 1, 1}, {256, 1, 1}, {.iterations = 4});
    for (int i = 0; i < 6; ++i)
        b.launch(lattice, {88, 1, 1}, {128, 1, 1},
                 {.regs = 46, .smem = 4096, .iterations = 24});
    return b.build();
}

Workload
histo()
{
    Rng rng = workloadRng("parboil", "histo");
    WorkloadBuilder b("parboil", "histo", rng.nextU64());
    auto prescan = reduction("histo_prescan_kernel", rng);
    auto intermediates = dataMovement("histo_intermediates_kernel", rng);
    auto main = atomicHistogram("histo_main_kernel", rng);
    auto final = elementwise("histo_final_kernel", rng);
    for (int i = 0; i < 20; ++i) {
        b.launch(prescan, {64, 1, 1}, {512, 1, 1}, {.iterations = 2});
        b.launch(intermediates, {84, 1, 1}, {256, 1, 1}, {.iterations = 3});
        b.launch(main, {42, 1, 1}, {512, 1, 1},
                 {.regs = 24, .iterations = 6, .ctaWorkCv = 0.3});
        b.launch(final, {42, 1, 1}, {512, 1, 1}, {.iterations = 2});
    }
    return b.build();
}

Workload
mri()
{
    Rng rng = workloadRng("parboil", "mri");
    WorkloadBuilder b("parboil", "mri", rng.nextU64());
    auto phi = compute("ComputePhiMag_GPU", rng, 0.5);
    auto rho = compute("ComputeRhoPhi_GPU", rng, 0.6);
    auto q = compute("ComputeQ_GPU", rng, 2.5);
    b.launch(phi, {24, 1, 1}, {512, 1, 1}, {.iterations = 2});
    b.launch(rho, {24, 1, 1}, {512, 1, 1}, {.iterations = 2});
    for (int i = 0; i < 10; ++i)
        b.launch(q, {128, 1, 1}, {256, 1, 1},
                 {.regs = 22, .iterations = 20});
    return b.build();
}

Workload
sad()
{
    Rng rng = workloadRng("parboil", "sad");
    WorkloadBuilder b("parboil", "sad", rng.nextU64());
    auto sad4 = stencil("mb_sad_calc", rng);
    auto sad8 = reduction("larger_sad_calc_8", rng);
    auto sad16 = reduction("larger_sad_calc_16", rng);
    b.launch(sad4, {396, 1, 1}, {61, 1, 1},
             {.regs = 30, .smem = 2048, .iterations = 16});
    b.launch(sad8, {99, 1, 1}, {128, 1, 1}, {.iterations = 6});
    b.launch(sad16, {25, 1, 1}, {128, 1, 1}, {.iterations = 6});
    return b.build();
}

Workload
sgemm()
{
    Rng rng = workloadRng("parboil", "sgemm");
    WorkloadBuilder b("parboil", "sgemm", rng.nextU64());
    auto kern = gemmTile("mysgemmNT", rng, false);
    b.launch(kern, {528, 1, 1}, {128, 1, 1},
             {.regs = 48, .smem = 8192, .iterations = 32});
    return b.build();
}

Workload
spmv()
{
    Rng rng = workloadRng("parboil", "spmv");
    WorkloadBuilder b("parboil", "spmv", rng.nextU64());
    auto kern = sparse("spmv_jds", rng);
    for (int i = 0; i < 50; ++i)
        b.launch(kern, {148, 1, 1}, {32, 1, 1},
                 {.regs = 20, .iterations = 5, .ctaWorkCv = 0.35});
    return b.build();
}

Workload
pbStencil()
{
    Rng rng = workloadRng("parboil", "stencil");
    WorkloadBuilder b("parboil", "stencil", rng.nextU64());
    auto kern = stencil("block2D_hybrid_coarsen_x", rng);
    for (int i = 0; i < 100; ++i)
        b.launch(kern, {128, 1, 1}, {256, 1, 1},
                 {.regs = 28, .iterations = 3});
    return b.build();
}

} // namespace

detail::SuiteTable
detail::parboilSuite()
{
    using G = const GenOptions &;
    return {
        {"bfs", [](G) { return pbBfs(); }},
        {"cutcp", [](G) { return cutcp(); }},
        {"histo", [](G) { return histo(); }},
        {"mri", [](G) { return mri(); }},
        {"sad", [](G) { return sad(); }},
        {"sgemm", [](G) { return sgemm(); }},
        {"spmv", [](G) { return spmv(); }},
        {"stencil", [](G) { return pbStencil(); }},
    };
}

} // namespace pka::workload
