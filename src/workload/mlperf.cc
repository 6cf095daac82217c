/**
 * @file
 * MLPerf suite generator: 7 scaled workloads (ResNet-50 inference at three
 * batch sizes, SSD training, GNMT training, BERT inference, 3D-UNet
 * inference).
 *
 * Launch counts are scaled by GenOptions::mlperfScale relative to the
 * paper's full-size runs (SSD training launches 5.3 M kernels at scale
 * 1.0); the scale is recorded on each workload so reports can state
 * full-size-equivalent numbers. Kernel *names* for ResNet follow the
 * paper's Figure 4 so the per-group composition chart reproduces
 * recognizably. Every launch carries PyProf-style tensor-dims annotations,
 * which only the lightweight profiler exposes.
 */

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.hh"
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

uint32_t
scaleCount(uint64_t full_count, double scale, uint32_t lo)
{
    // The cap keeps full_count * scale, and every stream, far below 2^32.
    PKA_ASSERT(scale > 0.0 && scale <= kMaxMlperfScale,
               "MLPerf scale outside (0, kMaxMlperfScale]");
    return std::max<uint32_t>(
        lo, static_cast<uint32_t>(full_count * scale));
}

/** ResNet-50 inference; batch in {64, 128, 256}. */
Workload
resnet(const std::string &name, uint32_t batch, double scale)
{
    Rng rng = workloadRng("mlperf", name);
    WorkloadBuilder b("mlperf", name, rng.nextU64(), scale);
    double bs = batch / 64.0; // per-kernel work multiplier

    // Figure-4 kernel names, grouped here by behavioural family.
    auto sgemm = gemmTile("sgemm", rng, true);
    auto winograd_big = convTile("winograd_big", rng, true);
    auto gen_winograd = convTile("genWinograd", rng, true);
    auto implicit_con = convTile("implicit_con", rng, true);
    auto tiny_relu_1 = elementwise("tiny_relu_1", rng);
    auto tiny_relu_2 = elementwise("tiny_relu_2", rng);
    auto tiny_relu_int = elementwise("tiny_relu_interior", rng);
    auto med_relu_small = elementwise("med_relu_small", rng);
    auto big_relu_int = elementwise("big_relu_interior", rng);
    auto relu = elementwise("Relu", rng);
    auto splitk = reduction("splitKreduce", rng);
    auto op_tensor3 = elementwise("op_tensor3", rng);
    auto op_tensor4 = elementwise("op_tensor4", rng);
    auto gemv = sparse("gemv2N", rng);
    auto softmax = reduction("somax_fw", rng);
    auto bn = elementwise("bn_fw_inf", rng);
    auto rowwise_reduce = reduction("RowwiseReduce", rng);
    auto maxpool = stencil("MaxPool2D", rng);
    auto compute_arg = dataMovement("ComputeArg", rng);
    auto compute_off = dataMovement("computeOffsets", rng);
    auto simple_binary = elementwise("SimpleBinary", rng);
    auto rowwise_binary = elementwise("RowwiseBinary", rng);

    // ~60 launches per batch; one pass over the ImageNet validation set
    // (50k images) at full size, scaled down for tractability.
    uint32_t batches = scaleCount(
        static_cast<uint64_t>(50000.0 / batch), scale, 40);

    auto dims = [&](uint32_t c, uint32_t hw) {
        return std::vector<uint32_t>{batch, c, hw, hw};
    };
    auto g = [&](uint32_t base) -> Dim3 {
        uint32_t ctas = std::max<uint32_t>(
            1, static_cast<uint32_t>(base * bs *
                                     (1.0 + rng.uniform(-0.1, 0.1))));
        return {ctas, 1, 1};
    };

    for (uint32_t it = 0; it < batches; ++it) {
        // Stem.
        b.launch(implicit_con, g(96), {256, 1, 1},
                 {.regs = 80, .smem = 16384, .iterations = 24,
                  .tensorDims = dims(64, 112)});
        b.launch(bn, g(48), {256, 1, 1},
                 {.iterations = 2, .tensorDims = dims(64, 112)});
        b.launch(maxpool, g(24), {256, 1, 1},
                 {.iterations = 2, .tensorDims = dims(64, 56)});
        // 16 residual blocks, alternating conv algorithms by stage.
        for (int blk = 0; blk < 16; ++blk) {
            ProgramPtr conv = blk < 4 ? winograd_big
                              : blk < 10 ? gen_winograd
                                         : sgemm;
            uint32_t ch = 64u << std::min(3, blk / 4);
            uint32_t hw = 56u >> std::min(3, blk / 4);
            b.launch(conv, g(64 + 8 * (blk % 4)), {256, 1, 1},
                     {.regs = 88, .smem = 24576,
                      .iterations = static_cast<uint32_t>(16 * bs) + blk % 3,
                      .tensorDims = dims(ch, hw)});
            if (blk % 4 == 0)
                b.launch(splitk, g(16), {256, 1, 1},
                         {.iterations = 2, .tensorDims = dims(ch, hw)});
            ProgramPtr act = blk < 3 ? tiny_relu_1
                             : blk < 6 ? tiny_relu_2
                             : blk < 9 ? tiny_relu_int
                             : blk < 12 ? med_relu_small
                                        : big_relu_int;
            b.launch(act, g(24), {256, 1, 1},
                     {.iterations = 2, .tensorDims = dims(ch, hw)});
            b.launch(simple_binary, g(20), {256, 1, 1},
                     {.iterations = 1, .tensorDims = dims(ch, hw)});
            if (blk % 5 == 0) {
                b.launch(op_tensor3, g(12), {256, 1, 1},
                         {.iterations = 1, .tensorDims = dims(ch, hw)});
                b.launch(op_tensor4, g(12), {256, 1, 1},
                         {.iterations = 1, .tensorDims = dims(ch, hw)});
            }
            if (blk % 7 == 0)
                b.launch(rowwise_binary, g(10), {256, 1, 1},
                         {.iterations = 1, .tensorDims = dims(ch, hw)});
        }
        // Head.
        b.launch(rowwise_reduce, g(8), {256, 1, 1},
                 {.iterations = 2, .tensorDims = dims(2048, 7)});
        b.launch(gemv, g(8), {256, 1, 1},
                 {.iterations = 4, .tensorDims = {batch, 2048, 1000}});
        b.launch(relu, g(6), {256, 1, 1},
                 {.iterations = 1, .tensorDims = {batch, 1000}});
        b.launch(softmax, g(4), {256, 1, 1},
                 {.iterations = 2, .tensorDims = {batch, 1000}});
        b.launch(compute_arg, g(2), {128, 1, 1},
                 {.iterations = 1, .tensorDims = {batch, 1000}});
        b.launch(compute_off, g(2), {128, 1, 1},
                 {.iterations = 1, .tensorDims = {batch, 1000}});
    }
    return b.build();
}

Workload
ssdTraining(double scale)
{
    Rng rng = workloadRng("mlperf", "ssd_training");
    WorkloadBuilder b("mlperf", "ssd_training", rng.nextU64(), scale);
    auto conv_fw = convTile("ssd_conv_fprop", rng, true);
    auto conv_dgrad = convTile("ssd_conv_dgrad", rng, true);
    auto conv_wgrad = convTile("ssd_conv_wgrad", rng, true);
    auto bn_fw = elementwise("bn_fw_train", rng);
    auto bn_bw = reduction("bn_bwd", rng);
    auto act = elementwise("relu_train", rng);
    auto boxmatch = graphTraversal("box_matching", rng);
    auto loss = reduction("multibox_loss", rng);
    auto nms = graphTraversal("nms_score", rng);
    auto opt = elementwise("sgd_momentum_update", rng);
    auto scatter = dataMovement("anchor_scatter", rng);

    // 5.3 M launches at scale 1.0; ~118 launches per training iteration.
    uint32_t iters = scaleCount(5'300'000 / 118, scale, 60);
    for (uint32_t it = 0; it < iters; ++it) {
        for (int l = 0; l < 14; ++l) {
            b.launch(conv_fw, {static_cast<uint32_t>(96 + 16 * (l % 5)), 1, 1},
                     {256, 1, 1},
                     {.regs = 84, .smem = 16384,
                      .iterations = 32 + 4 * static_cast<uint32_t>(l % 4),
                      .tensorDims = {32, 64u << (l / 5), 38, 38}});
            b.launch(bn_fw, {24, 1, 1}, {256, 1, 1}, {.iterations = 1,
                     .tensorDims = {32, 64, 38, 38}});
            b.launch(act, {24, 1, 1}, {256, 1, 1}, {.iterations = 1,
                     .tensorDims = {32, 64, 38, 38}});
        }
        b.launch(boxmatch, {20, 1, 1}, {256, 1, 1},
                 {.iterations = 4, .ctaWorkCv = 0.9,
                  .tensorDims = {32, 8732}});
        b.launch(nms, {12, 1, 1}, {256, 1, 1},
                 {.iterations = 3, .ctaWorkCv = 0.9,
                  .tensorDims = {32, 8732}});
        b.launch(loss, {16, 1, 1}, {256, 1, 1}, {.iterations = 2,
                 .tensorDims = {32, 8732}});
        b.launch(scatter, {12, 1, 1}, {256, 1, 1}, {.iterations = 1,
                 .tensorDims = {32, 8732}});
        for (int l = 0; l < 14; ++l) {
            b.launch(conv_dgrad, {static_cast<uint32_t>(96 + 16 * (l % 5)),
                     1, 1}, {256, 1, 1},
                     {.regs = 90, .smem = 16384,
                      .iterations = 36 + 4 * static_cast<uint32_t>(l % 3),
                      .tensorDims = {32, 64u << (l / 5), 38, 38}});
            b.launch(conv_wgrad, {static_cast<uint32_t>(80 + 16 * (l % 5)),
                     1, 1}, {256, 1, 1},
                     {.regs = 90, .smem = 16384,
                      .iterations = 30 + 4 * static_cast<uint32_t>(l % 3),
                      .tensorDims = {32, 64u << (l / 5), 38, 38}});
            b.launch(bn_bw, {24, 1, 1}, {256, 1, 1}, {.iterations = 1,
                     .tensorDims = {32, 64, 38, 38}});
        }
        for (int p = 0; p < 30; ++p)
            b.launch(opt, {16, 1, 1}, {256, 1, 1}, {.iterations = 1,
                     .tensorDims = {1u << (10 + p % 6)}});
    }
    return b.build();
}

Workload
gnmtTraining(double scale)
{
    Rng rng = workloadRng("mlperf", "gnmt_training");
    WorkloadBuilder b("mlperf", "gnmt_training", rng.nextU64(), scale);
    auto lstm_fw = rnnCell("gnmt_lstm_fw", rng, true);
    auto lstm_bw = rnnCell("gnmt_lstm_bw", rng, true);
    auto attn = gemmTile("attention_gemm", rng, true);
    auto softmax = reduction("attn_softmax", rng);
    auto embed = dataMovement("embedding_gather", rng);
    auto opt = elementwise("adam_update", rng);

    uint32_t iters = scaleCount(2'000'000 / 85, scale, 40);
    for (uint32_t it = 0; it < iters; ++it) {
        uint32_t seq = 20 + (it * 7) % 15; // variable sentence length
        b.launch(embed, {16, 1, 1}, {256, 1, 1},
                 {.iterations = 2, .tensorDims = {128, seq, 1024}});
        for (uint32_t t = 0; t < seq; ++t) {
            b.launch(lstm_fw, {128, 1, 1}, {128, 1, 1},
                     {.regs = 72, .smem = 12288, .iterations = 36,
                      .tensorDims = {128, 1024}});
            if (t % 4 == 0) {
                b.launch(attn, {32, 1, 1}, {256, 1, 1},
                         {.regs = 80, .smem = 16384, .iterations = 4,
                          .tensorDims = {128, seq, 1024}});
                b.launch(softmax, {12, 1, 1}, {256, 1, 1},
                         {.iterations = 1, .tensorDims = {128, seq}});
            }
        }
        for (uint32_t t = 0; t < seq; ++t)
            b.launch(lstm_bw, {128, 1, 1}, {128, 1, 1},
                     {.regs = 80, .smem = 12288, .iterations = 40,
                      .tensorDims = {128, 1024}});
        for (int p = 0; p < 12; ++p)
            b.launch(opt, {16, 1, 1}, {256, 1, 1}, {.iterations = 1,
                     .tensorDims = {1u << (12 + p % 4)}});
    }
    return b.build();
}

Workload
bertInference(double scale)
{
    Rng rng = workloadRng("mlperf", "bert_inference");
    WorkloadBuilder b("mlperf", "bert_inference", rng.nextU64(), scale);
    auto qkv = gemmTile("bert_qkv_gemm", rng, true);
    auto attn_sm = reduction("bert_attn_softmax", rng);
    auto ctx = gemmTile("bert_context_gemm", rng, true);
    auto ffn1 = gemmTile("bert_ffn1_gemm", rng, true);
    auto ffn2 = gemmTile("bert_ffn2_gemm", rng, true);
    auto gelu = elementwise("gelu_fwd", rng);
    auto ln = reduction("layernorm_fwd", rng);

    uint32_t batches = scaleCount(2'500'000 / 192, scale, 30);
    for (uint32_t qi = 0; qi < batches; ++qi) {
        uint32_t seq = 128 + (qi * 37) % 256; // SQuAD length variation
        double sl = seq / 256.0;
        for (int layer = 0; layer < 24; ++layer) {
            auto sg = [&](uint32_t base) -> Dim3 {
                return {std::max<uint32_t>(
                            1, static_cast<uint32_t>(base * sl)), 1, 1};
            };
            b.launch(qkv, sg(192), {256, 1, 1},
                     {.regs = 88, .smem = 24576, .iterations = 28,
                      .tensorDims = {8, seq, 1024}});
            b.launch(attn_sm, sg(24), {256, 1, 1},
                     {.iterations = 2, .tensorDims = {8, 16, seq, seq}});
            b.launch(ctx, sg(128), {256, 1, 1},
                     {.regs = 88, .smem = 24576, .iterations = 24,
                      .tensorDims = {8, seq, 1024}});
            b.launch(ln, sg(12), {256, 1, 1},
                     {.iterations = 1, .tensorDims = {8, seq, 1024}});
            b.launch(ffn1, sg(256), {256, 1, 1},
                     {.regs = 92, .smem = 24576, .iterations = 36,
                      .tensorDims = {8, seq, 4096}});
            b.launch(gelu, sg(24), {256, 1, 1},
                     {.iterations = 1, .tensorDims = {8, seq, 4096}});
            b.launch(ffn2, sg(256), {256, 1, 1},
                     {.regs = 92, .smem = 24576, .iterations = 36,
                      .tensorDims = {8, seq, 1024}});
            b.launch(ln, sg(12), {256, 1, 1},
                     {.iterations = 1, .tensorDims = {8, seq, 1024}});
        }
    }
    return b.build();
}

Workload
unet3dInference(double scale)
{
    Rng rng = workloadRng("mlperf", "unet3d_inference");
    WorkloadBuilder b("mlperf", "unet3d_inference", rng.nextU64(), scale);
    auto conv3d = convTile("unet_conv3d", rng, true);
    auto norm = reduction("instance_norm", rng);
    auto act = elementwise("leaky_relu", rng);
    auto up = dataMovement("trilinear_upsample", rng);
    auto cat = dataMovement("channel_concat", rng);

    uint32_t images = scaleCount(150'000 / 62, scale, 20);
    for (uint32_t img = 0; img < images; ++img) {
        for (int lvl = 0; lvl < 5; ++lvl) {
            for (int c = 0; c < 4; ++c) {
                b.launch(conv3d,
                         {static_cast<uint32_t>(160 >> lvl) + 8, 1, 1},
                         {256, 1, 1},
                         {.regs = 96, .smem = 24576,
                          .iterations = 24 + 2 * static_cast<uint32_t>(lvl),
                          .tensorDims = {1, 32u << lvl, 128u >> lvl}});
                b.launch(norm, {12, 1, 1}, {256, 1, 1}, {.iterations = 1,
                         .tensorDims = {1, 32u << lvl}});
                b.launch(act, {12, 1, 1}, {256, 1, 1}, {.iterations = 1,
                         .tensorDims = {1, 32u << lvl}});
            }
            if (lvl >= 1) {
                b.launch(up, {24, 1, 1}, {256, 1, 1}, {.iterations = 2,
                         .tensorDims = {1, 32u << lvl}});
                b.launch(cat, {16, 1, 1}, {256, 1, 1}, {.iterations = 1,
                         .tensorDims = {1, 64u << lvl}});
            }
        }
    }
    return b.build();
}

} // namespace

detail::SuiteTable
detail::mlperfSuite()
{
    using G = const GenOptions &;
    return {
        {"bert_inference", [](G o) { return bertInference(o.mlperfScale); }},
        {"ssd_training", [](G o) { return ssdTraining(o.mlperfScale); }},
        {"resnet50_64b",
         [](G o) { return resnet("resnet50_64b", 64, o.mlperfScale); }},
        {"resnet50_128b",
         [](G o) { return resnet("resnet50_128b", 128, o.mlperfScale); }},
        {"resnet50_256b",
         [](G o) { return resnet("resnet50_256b", 256, o.mlperfScale); }},
        {"gnmt_training", [](G o) { return gnmtTraining(o.mlperfScale); }},
        {"unet3d_inference",
         [](G o) { return unet3dInference(o.mlperfScale); }},
    };
}

} // namespace pka::workload
