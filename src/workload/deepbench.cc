/**
 * @file
 * DeepBench suite generator: 69 workloads across convolution / GEMM / RNN
 * kernels, inference and training, CUDA-core and tensor-core variants —
 * matching the input counts in the paper's Table 4 (5/5/5/5 conv, 5/5/5/5
 * GEMM, 9/5/10/5 RNN). Convolution *training* (non tensor-core) is
 * profiler-sensitive: cuDNN's runtime algorithm search launches extra
 * probing kernels when a profiler perturbs timing, so the profiled kernel
 * count differs from the traced one and PKA's driver excludes it, like the
 * paper does.
 */

#include <algorithm>
#include <string>

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

/** Input scale per index: grid/trip-count multiplier in [0.6, 2.2]. */
double
inputScale(int idx)
{
    static const double scales[] = {0.6, 0.9, 1.2, 1.6, 2.2,
                                    0.7, 1.0, 1.4, 1.8, 2.0};
    return scales[idx % 10];
}

uint32_t
scaled(uint32_t base, double s, uint32_t lo = 1)
{
    return std::max(lo, static_cast<uint32_t>(base * s));
}

Workload
convWorkload(const std::string &name, int input, bool training, bool tc,
             bool under_profiler)
{
    Rng rng = workloadRng("deepbench", name);
    WorkloadBuilder b("deepbench", name, rng.nextU64());
    double s = inputScale(input);
    auto transform = dataMovement("im2col", rng);
    auto conv_fw = convTile(tc ? "conv_fprop_wmma" : "conv_fprop", rng, tc);
    auto bias = elementwise("bias_relu", rng);
    for (int i = 0; i < 3; ++i) {
        b.launch(transform, {scaled(48, s), 1, 1}, {256, 1, 1},
                 {.iterations = 2});
        b.launch(conv_fw, {scaled(96, s), 1, 1}, {256, 1, 1},
                 {.regs = 72, .smem = 16384, .iterations = scaled(5, s)});
        b.launch(bias, {scaled(48, s), 1, 1}, {256, 1, 1},
                 {.iterations = 1});
    }
    if (training) {
        auto dgrad = convTile(tc ? "conv_dgrad_wmma" : "conv_dgrad", rng,
                              tc);
        auto wgrad = convTile(tc ? "conv_wgrad_wmma" : "conv_wgrad", rng,
                              tc);
        for (int i = 0; i < 3; ++i) {
            b.launch(dgrad, {scaled(96, s), 1, 1}, {256, 1, 1},
                     {.regs = 80, .smem = 16384, .iterations = scaled(5, s)});
            b.launch(wgrad, {scaled(64, s), 1, 1}, {256, 1, 1},
                     {.regs = 80, .smem = 16384, .iterations = scaled(4, s)});
        }
        if (!tc) {
            // cudnnFindConvolutionForwardAlgorithmEx probing: the number of
            // probe launches depends on whether a profiler is attached.
            auto probe = convTile("cudnn_find_algo_probe", rng, false);
            int probes = under_profiler ? 4 : 2;
            for (int i = 0; i < probes; ++i)
                b.launch(probe, {scaled(48, s), 1, 1}, {256, 1, 1},
                         {.iterations = 2});
        }
    }
    return b.build();
}

Workload
gemmWorkload(const std::string &name, int input, bool training, bool tc)
{
    Rng rng = workloadRng("deepbench", name);
    WorkloadBuilder b("deepbench", name, rng.nextU64());
    double s = inputScale(input);
    // Distinct problem shapes use distinct tuned kernels; two of the
    // forward shapes share one (paper: speedup barely above 1).
    auto g1 = gemmTile(tc ? "gemm_wmma_a" : "gemm_cuda_a", rng, tc);
    auto g2 = gemmTile(tc ? "gemm_wmma_b" : "gemm_cuda_b", rng, tc);
    b.launch(g1, {scaled(128, s), 1, 1}, {256, 1, 1},
             {.regs = 90, .smem = 24576, .iterations = scaled(6, s)});
    b.launch(g2, {scaled(64, s), 1, 1}, {256, 1, 1},
             {.regs = 90, .smem = 24576, .iterations = scaled(10, s)});
    b.launch(g1, {scaled(128, s), 1, 1}, {256, 1, 1},
             {.regs = 90, .smem = 24576, .iterations = scaled(6, s)});
    if (training) {
        auto g3 = gemmTile(tc ? "gemm_wmma_grad" : "gemm_cuda_grad", rng,
                           tc);
        for (int i = 0; i < 2; ++i)
            b.launch(g3, {scaled(96, s), 1, 1}, {256, 1, 1},
                     {.regs = 96, .smem = 24576,
                      .iterations = scaled(8, s)});
    }
    return b.build();
}

Workload
rnnWorkload(const std::string &name, int input, bool training, bool tc)
{
    Rng rng = workloadRng("deepbench", name);
    WorkloadBuilder b("deepbench", name, rng.nextU64());
    double s = inputScale(input);
    auto cell = rnnCell(tc ? "lstm_persist_wmma" : "lstm_persist", rng, tc);
    auto ew = elementwise("lstm_pointwise", rng);
    auto proj = gemmTile(tc ? "rnn_proj_wmma" : "rnn_proj", rng, tc);
    int layers = 3;
    for (int l = 0; l < layers; ++l) {
        // One persistent-cell launch per direction plus pointwise fixups.
        for (int dir = 0; dir < 2; ++dir) {
            b.launch(cell, {scaled(80, s), 1, 1}, {128, 1, 1},
                     {.regs = 64, .smem = 12288,
                      .iterations = scaled(10, s)});
            b.launch(ew, {scaled(40, s), 1, 1}, {256, 1, 1},
                     {.iterations = 2});
        }
        b.launch(proj, {scaled(48, s), 1, 1}, {256, 1, 1},
                 {.regs = 72, .smem = 16384, .iterations = scaled(4, s)});
    }
    if (training) {
        auto bgrad = rnnCell(tc ? "lstm_bgrad_wmma" : "lstm_bgrad", rng, tc);
        for (int l = 0; l < layers; ++l)
            b.launch(bgrad, {scaled(80, s), 1, 1}, {128, 1, 1},
                     {.regs = 72, .smem = 12288,
                      .iterations = scaled(9, s)});
    }
    return b.build();
}

} // namespace

detail::SuiteTable
detail::deepbenchSuite()
{
    SuiteTable out;
    // fn(name, input index, options) builds one input of a family.
    auto add_family = [&](const std::string &prefix, int count, auto fn) {
        for (int i = 0; i < count; ++i) {
            std::string name = prefix + "_in" + std::to_string(i);
            out.push_back({name, [name, i, fn](const GenOptions &opts) {
                               return fn(name, i, opts);
                           }});
        }
    };
    using G = const GenOptions &;
    using S = const std::string &;

    add_family("conv_inf", 5, [](S n, int i, G o) {
        return convWorkload(n, i, false, false, o.underProfiler);
    });
    add_family("conv_train", 5, [](S n, int i, G o) {
        return convWorkload(n, i, true, false, o.underProfiler);
    });
    add_family("conv_inf_tc", 5, [](S n, int i, G o) {
        return convWorkload(n, i, false, true, o.underProfiler);
    });
    add_family("conv_train_tc", 5, [](S n, int i, G o) {
        return convWorkload(n, i, true, true, o.underProfiler);
    });
    add_family("gemm_inf", 5, [](S n, int i, G) {
        return gemmWorkload(n, i, false, false);
    });
    add_family("gemm_train", 5, [](S n, int i, G) {
        return gemmWorkload(n, i, true, false);
    });
    add_family("gemm_inf_tc", 5, [](S n, int i, G) {
        return gemmWorkload(n, i, false, true);
    });
    add_family("gemm_train_tc", 5, [](S n, int i, G) {
        return gemmWorkload(n, i, true, true);
    });
    add_family("rnn_inf", 9, [](S n, int i, G) {
        return rnnWorkload(n, i, false, false);
    });
    add_family("rnn_train", 5, [](S n, int i, G) {
        return rnnWorkload(n, i, true, false);
    });
    add_family("rnn_inf_tc", 10, [](S n, int i, G) {
        return rnnWorkload(n, i, false, true);
    });
    add_family("rnn_train_tc", 5, [](S n, int i, G) {
        return rnnWorkload(n, i, true, true);
    });
    return out;
}

} // namespace pka::workload
