/**
 * @file
 * Rodinia 3.1 suite generator: 28 workloads matching the launch-stream
 * structure of the paper's Rodinia rows (Table 4): launch counts, grid
 * drift, irregularity, and the profiler-sensitive myocyte quirk.
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

/** Jitter a base iteration count by +/-frac. */
uint32_t
jiter(Rng &rng, uint32_t base, double frac = 0.1)
{
    return std::max<uint32_t>(
        1, static_cast<uint32_t>(base * (1.0 + rng.uniform(-frac, frac))));
}

Workload
btree()
{
    Rng rng = workloadRng("rodinia", "b+tree");
    WorkloadBuilder b("rodinia", "b+tree", rng.nextU64());
    auto find_k = graphTraversal("findK", rng);
    auto find_range = graphTraversal("findRangeK", rng);
    b.launch(find_k, {600, 1, 1}, {256, 1, 1},
             {.regs = 24, .iterations = 24, .ctaWorkCv = 0.3});
    b.launch(find_range, {600, 1, 1}, {256, 1, 1},
             {.regs = 28, .iterations = 28, .ctaWorkCv = 0.3});
    return b.build();
}

Workload
backprop()
{
    Rng rng = workloadRng("rodinia", "backprop");
    WorkloadBuilder b("rodinia", "backprop", rng.nextU64());
    auto fwd = reduction("bpnn_layerforward_CUDA", rng);
    auto adj = elementwise("bpnn_adjust_weights_cuda", rng);
    b.launch(fwd, {1024, 1, 1}, {16, 16, 1}, {.regs = 20, .iterations = 10});
    b.launch(adj, {1024, 1, 1}, {16, 16, 1}, {.regs = 18, .iterations = 8});
    return b.build();
}

/**
 * BFS family: two alternating kernels per frontier level. `levels` frontier
 * levels; `bell` selects a bell-shaped frontier (irregular level-to-level
 * work) versus a near-constant one.
 */
Workload
bfs(const std::string &name, int levels, bool bell, uint32_t peak_ctas)
{
    Rng rng = workloadRng("rodinia", name);
    WorkloadBuilder b("rodinia", name, rng.nextU64());
    auto k1 = graphTraversal("Kernel", rng);
    auto k2 = graphTraversal("Kernel2", rng);
    for (int lvl = 0; lvl < levels; ++lvl) {
        double frac = 1.0;
        if (bell) {
            // Frontier grows then shrinks across levels.
            double x = (lvl + 0.5) / levels;
            frac = std::max(0.02, std::sin(x * 3.14159265358979));
        } else {
            frac = 1.0 + rng.uniform(-0.08, 0.08);
        }
        uint32_t ctas = std::max<uint32_t>(
            1, static_cast<uint32_t>(peak_ctas * frac));
        LaunchOpts o{.regs = 18, .iterations = jiter(rng, 6, 0.25),
                     .ctaWorkCv = 0.8};
        b.launch(k1, {ctas, 1, 1}, {256, 1, 1}, o);
        b.launch(k2, {ctas, 1, 1}, {256, 1, 1},
                 {.regs = 12, .iterations = 2, .ctaWorkCv = 0.5});
    }
    return b.build();
}

Workload
dwt2d(const std::string &name, int levels)
{
    Rng rng = workloadRng("rodinia", name);
    WorkloadBuilder b("rodinia", name, rng.nextU64());
    auto fdwt = stencil("fdwt53Kernel", rng);
    auto rdwt = stencil("rdwt53Kernel", rng);
    auto copy = dataMovement("c_CopySrcToComponents", rng);
    b.launch(copy, {128, 1, 1}, {256, 1, 1}, {.iterations = 4});
    uint32_t ctas = 256;
    for (int lvl = 0; lvl < levels; ++lvl) {
        b.launch(fdwt, {ctas, 1, 1}, {192, 1, 1},
                 {.regs = 40, .smem = 16384, .iterations = 6});
        b.launch(rdwt, {ctas, 1, 1}, {192, 1, 1},
                 {.regs = 36, .smem = 16384, .iterations = 6});
        ctas = std::max<uint32_t>(4, ctas / 4);
    }
    return b.build();
}

/**
 * Gaussian elimination: Fan1/Fan2 alternate for (n-1) rounds with a linearly
 * shrinking grid. Tiny rounds are latency-floor dominated, which is what
 * lets one representative kernel stand in for the whole stream.
 * `distinct_kernels` separates the Fan1/Fan2 signatures enough that PKS
 * places them in different groups (matching the matrix-size variants).
 */
Workload
gaussian(const std::string &name, uint32_t n, bool distinct_kernels)
{
    Rng rng = workloadRng("rodinia", name);
    WorkloadBuilder b("rodinia", name, rng.nextU64());
    auto fan1 = compute("Fan1", rng, 0.4);
    Rng rng2 = distinct_kernels ? workloadRng("rodinia", name + "#fan2")
                                : rng;
    auto fan2 = distinct_kernels ? stencil("Fan2", rng2)
                                 : compute("Fan2", rng, 0.42);
    for (uint32_t i = 0; i < n - 1; ++i) {
        uint32_t rows = n - i;
        uint32_t ctas1 = std::max<uint32_t>(1, rows / 64);
        uint32_t ctas2 = std::max<uint32_t>(1, (rows * rows) / 4096);
        b.launch(fan1, {ctas1, 1, 1}, {64, 1, 1}, {.regs = 14,
                 .iterations = 2});
        b.launch(fan2, {ctas2, 1, 1}, {64, 1, 1}, {.regs = 16,
                 .iterations = 2});
    }
    return b.build();
}

Workload
hotspot(const std::string &name, uint32_t side_ctas)
{
    Rng rng = workloadRng("rodinia", name);
    WorkloadBuilder b("rodinia", name, rng.nextU64());
    auto kern = stencil("calculate_temp", rng);
    b.launch(kern, {side_ctas, side_ctas, 1}, {16, 16, 1},
             {.regs = 34, .smem = 3072, .iterations = 12});
    return b.build();
}

Workload
hybridsort(const std::string &name, int merge_levels, double cv)
{
    Rng rng = workloadRng("rodinia", name);
    WorkloadBuilder b("rodinia", name, rng.nextU64());
    auto hist = atomicHistogram("histogram1024Kernel", rng);
    auto bucketcount = atomicHistogram("bucketcount", rng);
    auto bucketprefix = reduction("bucketprefixoffset", rng);
    auto bucketsort = dataMovement("bucketsort", rng);
    auto merge = reduction("mergeSortPass", rng);
    b.launch(hist, {64, 1, 1}, {96, 1, 1}, {.iterations = 10,
             .ctaWorkCv = cv});
    b.launch(bucketcount, {128, 1, 1}, {128, 1, 1},
             {.iterations = 8, .ctaWorkCv = cv});
    b.launch(bucketprefix, {4, 1, 1}, {128, 1, 1}, {.iterations = 3});
    b.launch(bucketsort, {128, 1, 1}, {128, 1, 1},
             {.iterations = 8, .ctaWorkCv = cv});
    uint32_t ctas = 512;
    for (int lvl = 0; lvl < merge_levels; ++lvl) {
        b.launch(merge, {ctas, 1, 1}, {128, 1, 1},
                 {.regs = 24, .iterations = jiter(rng, 6, 0.2),
                  .ctaWorkCv = cv});
        ctas = std::max<uint32_t>(8, ctas / 2);
    }
    return b.build();
}

Workload
kmeans(const std::string &name, int iters, uint32_t ctas, double drift)
{
    Rng rng = workloadRng("rodinia", name);
    WorkloadBuilder b("rodinia", name, rng.nextU64());
    auto invert = dataMovement("invert_mapping", rng);
    auto point = compute("kmeansPoint", rng, 1.2);
    b.launch(invert, {ctas, 1, 1}, {256, 1, 1}, {.iterations = 2});
    for (int i = 0; i < iters; ++i) {
        uint32_t it = jiter(rng, 8, drift);
        b.launch(point, {ctas, 1, 1}, {256, 1, 1},
                 {.regs = 30, .iterations = it, .ctaWorkCv = 0.15});
    }
    return b.build();
}

Workload
lavamd()
{
    Rng rng = workloadRng("rodinia", "lavaMD");
    WorkloadBuilder b("rodinia", "lavaMD", rng.nextU64());
    auto kern = compute("kernel_gpu_cuda", rng, 3.0);
    b.launch(kern, {1000, 1, 1}, {128, 1, 1},
             {.regs = 56, .smem = 7168, .iterations = 40});
    return b.build();
}

Workload
lud(const std::string &name, int rounds)
{
    Rng rng = workloadRng("rodinia", name);
    WorkloadBuilder b("rodinia", name, rng.nextU64());
    auto diag = compute("lud_diagonal", rng, 0.8);
    auto peri = stencil("lud_perimeter", rng);
    auto inter = gemmTile("lud_internal", rng, false);
    for (int i = 0; i < rounds; ++i) {
        uint32_t rem = static_cast<uint32_t>(rounds - i);
        b.launch(diag, {1, 1, 1}, {16, 1, 1}, {.iterations = 4});
        b.launch(peri, {std::max<uint32_t>(1, rem), 1, 1}, {32, 1, 1},
                 {.smem = 4096, .iterations = 3});
        b.launch(inter, {std::max<uint32_t>(1, rem * rem / 8), 1, 1},
                 {16, 16, 1}, {.smem = 2048, .iterations = 2});
    }
    return b.build();
}

/**
 * Myocyte is profiler-sensitive: running it under a detailed profiler
 * perturbs runtime algorithm selection, changing the kernel count — the
 * mismatch the paper excludes it for.
 */
Workload
myocyte(bool under_profiler)
{
    Rng rng = workloadRng("rodinia", "myocyte");
    WorkloadBuilder b("rodinia", "myocyte", rng.nextU64());
    auto solver = compute("solver_2", rng, 2.0);
    int launches = under_profiler ? 4 : 3;
    for (int i = 0; i < launches; ++i)
        b.launch(solver, {2, 1, 1}, {32, 1, 1}, {.iterations = 60});
    return b.build();
}

Workload
nn()
{
    Rng rng = workloadRng("rodinia", "nn");
    WorkloadBuilder b("rodinia", "nn", rng.nextU64());
    auto kern = elementwise("euclid", rng);
    b.launch(kern, {168, 1, 1}, {256, 1, 1}, {.iterations = 2});
    return b.build();
}

Workload
nw()
{
    Rng rng = workloadRng("rodinia", "nw");
    WorkloadBuilder b("rodinia", "nw", rng.nextU64());
    auto fwd = stencil("needle_cuda_shared_1", rng);
    auto bwd = stencil("needle_cuda_shared_2", rng);
    const int steps = 128;
    for (int i = 1; i <= steps; ++i)
        b.launch(fwd, {static_cast<uint32_t>(i), 1, 1}, {16, 1, 1},
                 {.smem = 2180, .iterations = 2});
    for (int i = steps - 1; i >= 1; --i)
        b.launch(bwd, {static_cast<uint32_t>(i), 1, 1}, {16, 1, 1},
                 {.smem = 2180, .iterations = 2});
    return b.build();
}

Workload
streamcluster()
{
    Rng rng = workloadRng("rodinia", "scluster");
    WorkloadBuilder b("rodinia", "scluster", rng.nextU64());
    auto pgain = compute("kernel_compute_cost", rng, 1.0);
    auto misc = reduction("pgain_reduce", rng);
    for (int i = 0; i < 480; ++i)
        b.launch(pgain, {64, 1, 1}, {256, 1, 1},
                 {.regs = 26, .iterations = jiter(rng, 4, 0.08)});
    for (int i = 0; i < 24; ++i)
        b.launch(misc, {std::max<uint32_t>(2, 32u >> (i % 5)), 1, 1},
                 {128, 1, 1}, {.iterations = 2});
    return b.build();
}

Workload
srad(const std::string &name, int iters, int programs)
{
    Rng rng = workloadRng("rodinia", name);
    WorkloadBuilder b("rodinia", name, rng.nextU64());
    std::vector<ProgramPtr> kernels;
    const char *names[] = {"extract", "prepare", "reduce", "srad", "srad2"};
    for (int p = 0; p < programs; ++p) {
        if (p == 2)
            kernels.push_back(reduction(names[p], rng));
        else
            kernels.push_back(stencil(names[p], rng));
    }
    for (int i = 0; i < iters; ++i)
        for (int p = 0; p < programs; ++p)
            b.launch(kernels[p], {112, 1, 1}, {256, 1, 1},
                     {.regs = 22, .iterations = 2});
    return b.build();
}

} // namespace

detail::SuiteTable
detail::rodiniaSuite()
{
    using G = const GenOptions &;
    return {
        {"b+tree", [](G) { return btree(); }},
        {"backprop", [](G) { return backprop(); }},
        {"bfs1MW", [](G) { return bfs("bfs1MW", 12, true, 512); }},
        {"bfs4096", [](G) { return bfs("bfs4096", 6, true, 16); }},
        {"bfs65536", [](G) { return bfs("bfs65536", 10, false, 32); }},
        {"dwt2d_192", [](G) { return dwt2d("dwt2d_192", 6); }},
        {"dwt2d_rgb", [](G) { return dwt2d("dwt2d_rgb", 4); }},
        {"gauss_208", [](G) { return gaussian("gauss_208", 208, false); }},
        {"gauss_mat4", [](G) { return gaussian("gauss_mat4", 4, false); }},
        {"gauss_s16", [](G) { return gaussian("gauss_s16", 16, true); }},
        {"gauss_s64", [](G) { return gaussian("gauss_s64", 64, true); }},
        {"gauss_s256", [](G) { return gaussian("gauss_s256", 256, true); }},
        {"hots_1024", [](G) { return hotspot("hots_1024", 43); }},
        {"hots_512", [](G) { return hotspot("hots_512", 22); }},
        {"hstort_500k", [](G) { return hybridsort("hstort_500k", 9, 0.4); }},
        {"hstort_r", [](G) { return hybridsort("hstort_r", 10, 0.7); }},
        {"kmeans_28k", [](G) { return kmeans("kmeans_28k", 6, 28, 0.35); }},
        {"kmeans_819k",
         [](G) { return kmeans("kmeans_819k", 10, 800, 0.5); }},
        {"kmeans_oi", [](G) { return kmeans("kmeans_oi", 8, 640, 0.5); }},
        {"lavaMD", [](G) { return lavamd(); }},
        {"lud_i", [](G) { return lud("lud_i", 56); }},
        {"lud_256", [](G) { return lud("lud_256", 16); }},
        {"myocyte", [](G o) { return myocyte(o.underProfiler); }},
        {"nn", [](G) { return nn(); }},
        {"nw", [](G) { return nw(); }},
        {"scluster", [](G) { return streamcluster(); }},
        {"srad_v1", [](G) { return srad("srad_v1", 100, 5); }},
        {"srad_v2", [](G) { return srad("srad_v2", 100, 2); }},
    };
}

} // namespace pka::workload
