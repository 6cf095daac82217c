/**
 * @file
 * Polybench-GPU suite generator: 15 workloads. Notable structures from the
 * paper: fdtd2d (3 kernels x 500 steps collapsing into 2 groups),
 * gramschmidt (6411 launches with a mid-run behaviour shift yielding 6
 * groups), 3dconvolution (254 identical slice launches), plus a tail of
 * single-launch kernels, several of them very large (correlation,
 * covariance, syr2k dominate full-simulation time).
 */

#include <algorithm>

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

/** Single-kernel app helper. */
Workload
single(const std::string &name, ProgramPtr prog, Dim3 grid, Dim3 block,
       uint64_t seed, const LaunchOpts &opts)
{
    WorkloadBuilder b("polybench", name, seed);
    b.launch(std::move(prog), grid, block, opts);
    return b.build();
}

Workload
twoKernel(const std::string &name, const char *n1, const char *n2,
          Dim3 grid, Dim3 block, uint32_t iters)
{
    Rng rng = workloadRng("polybench", name);
    WorkloadBuilder b("polybench", name, rng.nextU64());
    auto k1 = elementwise(n1, rng);
    auto k2 = elementwise(n2, rng);
    b.launch(k1, grid, block, {.regs = 20, .iterations = iters});
    b.launch(k2, grid, block, {.regs = 20, .iterations = iters});
    return b.build();
}

Workload
repeatedGemm(const std::string &name, int count, uint32_t ctas,
             uint32_t iters)
{
    Rng rng = workloadRng("polybench", name);
    WorkloadBuilder b("polybench", name, rng.nextU64());
    auto kern = gemmTile("mm_kernel", rng, false);
    for (int i = 0; i < count; ++i)
        b.launch(kern, {ctas, 1, 1}, {256, 1, 1},
                 {.regs = 40, .smem = 8192, .iterations = iters});
    return b.build();
}

Workload
fdtd2d()
{
    Rng rng = workloadRng("polybench", "fdtd2d");
    WorkloadBuilder b("polybench", "fdtd2d", rng.nextU64());
    // Step kernels 1 and 2 are near-identical field updates (one group);
    // step 3 is a heavier combined update (its own group).
    auto s1 = elementwise("fdtd_step1_kernel", rng);
    auto s2 = elementwise("fdtd_step2_kernel", rng);
    auto s3 = stencil("fdtd_step3_kernel", rng);
    for (int t = 0; t < 500; ++t) {
        b.launch(s1, {32, 1, 1}, {256, 1, 1}, {.iterations = 2});
        b.launch(s2, {32, 1, 1}, {256, 1, 1}, {.iterations = 2});
        b.launch(s3, {32, 1, 1}, {256, 1, 1}, {.iterations = 3});
    }
    return b.build();
}

Workload
gramschmidt()
{
    Rng rng = workloadRng("polybench", "gramschmidt");
    WorkloadBuilder b("polybench", "gramschmidt", rng.nextU64());
    auto k1 = reduction("gramschmidt_kernel1", rng);
    auto k2 = elementwise("gramschmidt_kernel2", rng);
    auto k3 = compute("gramschmidt_kernel3", rng, 0.8);
    // 2137 column steps x 3 kernels = 6411 launches. Around step 480 the
    // remaining-column count crosses the machine's occupancy knee, changing
    // every kernel's profile: 3 programs x 2 phases = 6 natural groups.
    const int steps = 2137;
    for (int i = 0; i < steps; ++i) {
        bool early = i < 480;
        uint32_t ctas = early ? 48 : 6;
        uint32_t iters = early ? 4 : 1;
        b.launch(k1, {ctas, 1, 1}, {128, 1, 1}, {.iterations = iters});
        b.launch(k2, {ctas, 1, 1}, {128, 1, 1}, {.iterations = iters});
        b.launch(k3, {ctas, 1, 1}, {128, 1, 1}, {.iterations = iters});
    }
    return b.build();
}

Workload
cnn2d()
{
    Rng rng = workloadRng("polybench", "2Dcnn");
    return single("2Dcnn", convTile("convolution2d_kernel", rng, false),
                  {256, 1, 1}, {256, 1, 1}, rng.nextU64(),
                  {.regs = 30, .iterations = 12});
}

Workload
conv3d()
{
    Rng rng = workloadRng("polybench", "3dconvolution");
    WorkloadBuilder b("polybench", "3dconvolution", rng.nextU64());
    auto kern = stencil("convolution3d_kernel", rng);
    for (int z = 0; z < 254; ++z)
        b.launch(kern, {32, 1, 1}, {256, 1, 1}, {.iterations = 2});
    return b.build();
}

Workload
correlation()
{
    Rng rng = workloadRng("polybench", "correlation");
    WorkloadBuilder b("polybench", "correlation", rng.nextU64());
    b.launch(elementwise("mean_kernel", rng), {16, 1, 1}, {256, 1, 1},
             {.iterations = 6});
    b.launch(elementwise("std_kernel", rng), {16, 1, 1}, {256, 1, 1},
             {.iterations = 8});
    b.launch(elementwise("reduce_kernel", rng), {64, 1, 1}, {256, 1, 1},
             {.iterations = 4});
    b.launch(compute("corr_kernel", rng, 2.0), {512, 1, 1}, {256, 1, 1},
             {.regs = 30, .iterations = 110});
    return b.build();
}

Workload
covariance()
{
    Rng rng = workloadRng("polybench", "covariance");
    WorkloadBuilder b("polybench", "covariance", rng.nextU64());
    b.launch(elementwise("mean_kernel", rng), {16, 1, 1}, {256, 1, 1},
             {.iterations = 6});
    b.launch(elementwise("reduce_kernel", rng), {64, 1, 1}, {256, 1, 1},
             {.iterations = 4});
    b.launch(compute("covar_kernel", rng, 2.0), {512, 1, 1}, {256, 1, 1},
             {.regs = 30, .iterations = 112});
    return b.build();
}

Workload
gemm()
{
    Rng rng = workloadRng("polybench", "gemm");
    return single("gemm", gemmTile("gemm_kernel", rng, false), {512, 1, 1},
                  {256, 1, 1}, rng.nextU64(),
                  {.regs = 40, .smem = 8192, .iterations = 14});
}

Workload
gsummv()
{
    Rng rng = workloadRng("polybench", "gsummv");
    return single("gsummv", sparse("gesummv_kernel", rng), {1024, 1, 1},
                  {256, 1, 1}, rng.nextU64(),
                  {.regs = 24, .iterations = 26});
}

Workload
syr2k()
{
    Rng rng = workloadRng("polybench", "syr2k");
    return single("syr2k", compute("syr2k_kernel", rng, 2.5), {512, 1, 1},
                  {256, 1, 1}, rng.nextU64(),
                  {.regs = 34, .iterations = 64});
}

Workload
syrk()
{
    Rng rng = workloadRng("polybench", "syrk");
    return single("syrk", compute("syrk_kernel", rng, 2.0), {512, 1, 1},
                  {256, 1, 1}, rng.nextU64(),
                  {.regs = 32, .iterations = 40});
}

} // namespace

detail::SuiteTable
detail::polybenchSuite()
{
    using G = const GenOptions &;
    const Dim3 grid{288, 1, 1};
    const Dim3 block{256, 1, 1};
    return {
        {"2Dcnn", [](G) { return cnn2d(); }},
        {"2mm", [](G) { return repeatedGemm("2mm", 2, 256, 10); }},
        {"3dconvolution", [](G) { return conv3d(); }},
        {"3mm", [](G) { return repeatedGemm("3mm", 3, 256, 10); }},
        {"atax",
         [=](G) {
             return twoKernel("atax", "atax_kernel1", "atax_kernel2", grid,
                              block, 120);
         }},
        {"bicg",
         [=](G) {
             return twoKernel("bicg", "bicg_kernel1", "bicg_kernel2", grid,
                              block, 120);
         }},
        {"correlation", [](G) { return correlation(); }},
        {"covariance", [](G) { return covariance(); }},
        {"fdtd2d", [](G) { return fdtd2d(); }},
        {"gemm", [](G) { return gemm(); }},
        {"gsummv", [](G) { return gsummv(); }},
        {"gramschmidt", [](G) { return gramschmidt(); }},
        {"mvt",
         [=](G) {
             return twoKernel("mvt", "mvt_kernel1", "mvt_kernel2", grid,
                              block, 120);
         }},
        {"syr2k", [](G) { return syr2k(); }},
        {"syrk", [](G) { return syrk(); }},
    };
}

} // namespace pka::workload
