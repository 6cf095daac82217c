/**
 * @file
 * Silicon-substrate tests: GPU specs, the occupancy calculator, the
 * analytic device's physical invariants, cross-generation consistency of
 * data jitter, and the two profilers (counter exactness and cost models).
 */

#include <gtest/gtest.h>

#include <bit>

#include "common/stats.hh"
#include "silicon/profiler.hh"
#include "silicon/silicon_gpu.hh"
#include "workload/builder.hh"
#include "workload/suites.hh"

using namespace pka::silicon;
using namespace pka::workload;

namespace
{

ProgramPtr
prog(double sectors = 1.2, double l1 = 0.6, double l2 = 0.7)
{
    return ProgramBuilder("p")
        .seg(InstrClass::GlobalLoad, 2)
        .seg(InstrClass::FpAlu, 8)
        .seg(InstrClass::GlobalStore, 1)
        .mem(sectors, l1, l2)
        .build();
}

KernelDescriptor
kernel(uint32_t ctas = 160, uint32_t threads = 256, uint32_t iters = 10,
       uint16_t regs = 32, uint32_t smem = 0)
{
    KernelDescriptor k;
    k.program = prog();
    k.grid = {ctas, 1, 1};
    k.block = {threads, 1, 1};
    k.iterations = iters;
    k.regsPerThread = regs;
    k.smemPerBlock = smem;
    return k;
}

} // namespace

TEST(GpuSpec, Presets)
{
    auto v = voltaV100();
    auto t = turingRtx2060();
    auto a = ampereRtx3070();
    EXPECT_EQ(v.numSms, 80u);
    EXPECT_EQ(t.numSms, 30u);
    EXPECT_EQ(a.numSms, 46u);
    EXPECT_GT(v.dramBandwidthGBs, t.dramBandwidthGBs);
    EXPECT_EQ(std::string(generationName(v.generation)), "volta");
    EXPECT_EQ(std::string(generationName(t.generation)), "turing");
    EXPECT_EQ(std::string(generationName(a.generation)), "ampere");
}

TEST(GpuSpec, WithSmCount)
{
    auto half = withSmCount(voltaV100(), 40);
    EXPECT_EQ(half.numSms, 40u);
    EXPECT_NE(half.name.find("40 SMs"), std::string::npos);
}

TEST(Occupancy, ThreadLimited)
{
    // 1024-thread blocks on a 2048-thread SM: 2 CTAs.
    auto k = kernel(10, 1024, 1, 16);
    EXPECT_EQ(maxCtasPerSm(voltaV100(), k), 2u);
}

TEST(Occupancy, RegisterLimited)
{
    // 256 threads x 8 warps x 32 lanes x 128 regs = 32768 regs/CTA -> 2.
    auto k = kernel(10, 256, 1, 128);
    EXPECT_EQ(maxCtasPerSm(voltaV100(), k), 2u);
}

TEST(Occupancy, SharedMemLimited)
{
    auto k = kernel(10, 64, 1, 16, 48 * 1024);
    EXPECT_EQ(maxCtasPerSm(voltaV100(), k), 2u);
}

TEST(Occupancy, CtaSlotLimited)
{
    // Tiny CTAs hit the 32-slot architectural cap.
    auto k = kernel(10, 32, 1, 8);
    EXPECT_EQ(maxCtasPerSm(voltaV100(), k), 32u);
}

TEST(Occupancy, UnschedulableKernelIsFatal)
{
    auto k = kernel(10, 1024, 1, 16, 200 * 1024);
    EXPECT_DEATH(maxCtasPerSm(voltaV100(), k), "cannot be scheduled");
}

TEST(Occupancy, WaveSize)
{
    auto k = kernel(10, 1024, 1, 16);
    EXPECT_EQ(waveSize(voltaV100(), k), 2u * 80u);
}

TEST(SiliconGpu, DeterministicExecution)
{
    SiliconGpu gpu(voltaV100());
    auto k = kernel();
    const Launch l{k, 0};
    EXPECT_EQ(gpu.execute(l, 42).cycles, gpu.execute(l, 42).cycles);
}

TEST(SiliconGpu, SeedChangesJitter)
{
    SiliconGpu gpu(voltaV100());
    auto k = kernel();
    const Launch l{k, 0};
    EXPECT_NE(gpu.execute(l, 1).cycles, gpu.execute(l, 2).cycles);
}

TEST(SiliconGpu, MoreWorkTakesLonger)
{
    SiliconGpu gpu(voltaV100());
    auto k1 = kernel(160, 256, 4);
    auto k2 = kernel(160, 256, 64);
    EXPECT_GT(gpu.execute({k2, 0}, 7).cycles,
              gpu.execute({k1, 0}, 7).cycles);
}

TEST(SiliconGpu, MoreSmsIsFaster)
{
    SiliconGpu big(voltaV100());
    SiliconGpu small(withSmCount(voltaV100(), 20));
    auto k = kernel(640, 256, 32);
    const Launch l{k, 0};
    EXPECT_LT(big.execute(l, 7).cycles, small.execute(l, 7).cycles);
}

TEST(SiliconGpu, JitterSharedAcrossGenerations)
{
    // Data-dependent variation must be a property of the (workload,
    // launch), not the GPU, so Volta-selected kernels stay representative
    // on Turing/Ampere.
    SiliconGpu volta(voltaV100());
    SiliconGpu turing(turingRtx2060());
    auto k = kernel();
    const Launch l1{k, 3};
    const Launch l2{k, 9};
    double rv = static_cast<double>(volta.execute(l1, 5).cycles) /
                static_cast<double>(volta.execute(l2, 5).cycles);
    double rt = static_cast<double>(turing.execute(l1, 5).cycles) /
                static_cast<double>(turing.execute(l2, 5).cycles);
    EXPECT_NEAR(rv, rt, 0.02 * rv);
}

TEST(SiliconGpu, DramUtilBounded)
{
    SiliconGpu gpu(voltaV100());
    auto k = kernel();
    auto e = gpu.execute({k, 0}, 11);
    EXPECT_GE(e.dramUtilPct, 0.0);
    EXPECT_LE(e.dramUtilPct, 100.0);
    EXPECT_GE(e.l2MissPct, 0.0);
    EXPECT_LE(e.l2MissPct, 100.0);
}

TEST(SiliconGpu, SecondsConsistentWithClock)
{
    auto spec = voltaV100();
    SiliconGpu gpu(spec);
    auto e = gpu.execute({kernel(), 0}, 3);
    EXPECT_NEAR(e.seconds,
                static_cast<double>(e.cycles) / (spec.coreClockGhz * 1e9),
                1e-12);
}

TEST(SiliconGpu, AppExecutionSumsLaunches)
{
    SiliconGpu gpu(voltaV100());
    auto w = buildWorkload("backprop");
    ASSERT_TRUE(w);
    auto app = gpu.run(*w);
    uint64_t sum = 0;
    for (const auto &l : app.launches)
        sum += l.cycles;
    EXPECT_EQ(app.totalCycles, sum);
}

TEST(SiliconGpu, IrregularKernelsVaryMore)
{
    SiliconGpu gpu(voltaV100());
    auto base = kernel();
    std::vector<double> reg, irr;
    auto irregular = base;
    irregular.ctaWorkCv = 1.0;
    for (uint32_t id = 0; id < 40; ++id) {
        reg.push_back(
            static_cast<double>(gpu.execute({base, id}, 1).cycles));
        irr.push_back(
            static_cast<double>(gpu.execute({irregular, id}, 1).cycles));
    }
    double reg_cv = pka::common::stddev(reg) / pka::common::mean(reg);
    double irr_cv = pka::common::stddev(irr) / pka::common::mean(irr);
    EXPECT_GT(irr_cv, reg_cv);
}

TEST(DetailedProfiler, CountersMatchDescriptorArithmetic)
{
    SiliconGpu gpu(voltaV100());
    WorkloadBuilder b("t", "t", 99);
    auto p = ProgramBuilder("k")
                 .seg(InstrClass::GlobalLoad, 3)
                 .seg(InstrClass::SharedLoad, 5)
                 .seg(InstrClass::FpAlu, 10)
                 .seg(InstrClass::GlobalStore, 2)
                 .mem(2.0, 0.5, 0.5)
                 .divergence(0.75)
                 .build();
    b.launch(p, {4, 1, 1}, {64, 1, 1}, {.iterations = 3});
    Workload w = b.build();
    DetailedProfiler prof(gpu);
    auto ps = prof.profile(w);
    ASSERT_EQ(ps.size(), 1u);
    const auto &m = ps[0].metrics;
    // 4 CTAs x 2 warps x 3 iterations = 24 warp executions.
    EXPECT_NEAR(m.threadGlobalLoads, 24.0 * 3, 24.0 * 3 * 0.02);
    EXPECT_NEAR(m.threadSharedLoads, 24.0 * 5, 24.0 * 5 * 0.02);
    EXPECT_NEAR(m.threadGlobalStores, 24.0 * 2, 24.0 * 2 * 0.02);
    EXPECT_NEAR(m.coalescedGlobalLoads, 24.0 * 3 * 2.0,
                24.0 * 3 * 2.0 * 0.02);
    EXPECT_NEAR(m.instructions, 24.0 * 20, 24.0 * 20 * 0.02);
    EXPECT_DOUBLE_EQ(m.divergenceEff, 24.0); // 32 x 0.75
    EXPECT_DOUBLE_EQ(m.numCtas, 4.0);
    EXPECT_EQ(ps[0].kernelName, "k");
    EXPECT_GT(ps[0].cycles, 0u);
}

TEST(DetailedProfiler, MaxKernelsLimitsPrefix)
{
    SiliconGpu gpu(voltaV100());
    auto w = buildWorkload("gauss_208");
    ASSERT_TRUE(w);
    DetailedProfiler prof(gpu);
    EXPECT_EQ(prof.profile(*w, 10).size(), 10u);
    EXPECT_EQ(prof.profile(*w).size(), 414u);
}

TEST(DetailedProfiler, CostDominatedByPerKernelOverhead)
{
    SiliconGpu gpu(voltaV100());
    auto w = buildWorkload("gauss_208");
    ASSERT_TRUE(w);
    DetailedProfiler prof(gpu);
    double cost = prof.costSeconds(*w);
    // 414 short kernels: cost must exceed the fixed replay overhead sum.
    EXPECT_GT(cost, 414 * DetailedProfiler::kPerKernelOverheadSec);
    EXPECT_LT(cost, 414 * DetailedProfiler::kPerKernelOverheadSec * 2);
}

namespace
{

/** Repeated, irregular and one-off configurations, interleaved. */
Workload
mixedStream()
{
    WorkloadBuilder b("t", "mixed", 1234);
    auto regular = prog();
    auto irregular = prog(4.0, 0.3, 0.5);
    for (uint32_t i = 0; i < 60; ++i) {
        b.launch(regular, {160, 1, 1}, {256, 1, 1}, {.iterations = 8});
        b.launch(irregular, {24 + 8 * (i % 3), 1, 1}, {128, 1, 1},
                 {.iterations = 4, .ctaWorkCv = 0.7});
        if (i % 20 == 0) // one-off configurations
            b.launch(regular, {1 + i, 1, 1}, {64, 1, 1},
                     {.iterations = 2 + i});
    }
    return b.build();
}

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

} // namespace

TEST(SiliconGpu, StreamWalksMatchPerLaunchExecute)
{
    SiliconGpu gpu(voltaV100());
    Workload w = mixedStream();
    ASSERT_LT(w.launches.configs().size(), w.launches.size() / 10);
    const size_t prefix = 50;

    AppExecution app = gpu.run(w);
    ASSERT_EQ(app.launches.size(), w.launches.size());
    uint64_t total = 0;
    double detailed_all = 0.0, detailed_prefix = 0.0, light = 0.0;
    for (size_t i = 0; i < w.launches.size(); ++i) {
        KernelExecution e = gpu.execute(w.launches[i], w.seed);
        const KernelExecution &r = app.launches[i];
        ASSERT_EQ(r.cycles, e.cycles) << i;
        ASSERT_EQ(bits(r.seconds), bits(e.seconds)) << i;
        ASSERT_EQ(bits(r.threadIpc), bits(e.threadIpc)) << i;
        ASSERT_EQ(bits(r.dramUtilPct), bits(e.dramUtilPct)) << i;
        ASSERT_EQ(bits(r.l2MissPct), bits(e.l2MissPct)) << i;
        total += e.cycles;
        double replay = DetailedProfiler::kPerKernelOverheadSec +
                        DetailedProfiler::kReplayFactor * e.seconds;
        detailed_all += replay;
        if (i < prefix)
            detailed_prefix += replay;
        light += e.seconds;
    }
    EXPECT_EQ(app.totalCycles, total);

    DetailedProfiler detailed(gpu);
    EXPECT_EQ(bits(detailed.costSeconds(w)), bits(detailed_all));
    EXPECT_EQ(bits(detailed.costSeconds(w, prefix)), bits(detailed_prefix));
    EXPECT_EQ(bits(LightweightProfiler(gpu).costSeconds(w)),
              bits(light * 1.15 +
                   2e-6 * static_cast<double>(w.launches.size())));

    for (size_t n : {size_t{0}, prefix}) {
        auto ps = detailed.profile(w, n);
        ASSERT_EQ(ps.size(), n == 0 ? w.launches.size() : n);
        for (size_t i = 0; i < ps.size(); ++i) {
            DetailedProfile one = detailed.profileLaunch(w, i);
            ASSERT_EQ(ps[i].launchId, one.launchId);
            ASSERT_EQ(ps[i].kernelName, one.kernelName);
            ASSERT_EQ(ps[i].cycles, one.cycles) << i;
            auto a = ps[i].metrics.toArray();
            auto b = one.metrics.toArray();
            for (size_t m = 0; m < a.size(); ++m)
                ASSERT_EQ(bits(a[m]), bits(b[m])) << i << " metric " << m;
        }
    }
}

TEST(LightweightProfiler, RecordsNamesAndDims)
{
    SiliconGpu gpu(voltaV100());
    auto w = buildWorkload("histo");
    ASSERT_TRUE(w);
    LightweightProfiler prof(gpu);
    auto ps = prof.profile(*w);
    ASSERT_EQ(ps.size(), w->launches.size());
    for (size_t i = 0; i < ps.size(); ++i) {
        EXPECT_EQ(ps[i].kernelName, w->launches[i].config.program->name);
        EXPECT_EQ(ps[i].grid.total(), w->launches[i].config.grid.total());
    }
}

TEST(LightweightProfiler, MuchCheaperThanDetailed)
{
    SiliconGpu gpu(voltaV100());
    auto w = buildWorkload("gauss_208");
    ASSERT_TRUE(w);
    double light = LightweightProfiler(gpu).costSeconds(*w);
    double detailed = DetailedProfiler(gpu).costSeconds(*w);
    EXPECT_LT(light * 100, detailed);
}

TEST(KernelMetrics, ArrayRoundTripAndNames)
{
    KernelMetrics m;
    m.instructions = 10;
    m.numCtas = 4;
    auto a = m.toArray();
    EXPECT_DOUBLE_EQ(a[9], 10.0);
    EXPECT_DOUBLE_EQ(a[11], 4.0);
    for (size_t i = 0; i < KernelMetrics::kCount; ++i)
        EXPECT_GT(std::string(KernelMetrics::name(i)).size(), 0u);
}

/**
 * Property sweep over devices: silicon invariants hold on every spec.
 */
class SiliconSpecProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    GpuSpec
    spec() const
    {
        switch (std::get<0>(GetParam())) {
          case 0: return voltaV100();
          case 1: return turingRtx2060();
          default: return ampereRtx3070();
        }
    }
};

TEST_P(SiliconSpecProperty, CyclesPositiveAndScaleWithIterations)
{
    SiliconGpu gpu(spec());
    uint32_t iters = 1u << std::get<1>(GetParam());
    auto k1 = kernel(160, 256, iters);
    auto k2 = kernel(160, 256, iters * 2);
    auto e1 = gpu.execute({k1, 0}, 5);
    auto e2 = gpu.execute({k2, 0}, 5);
    EXPECT_GT(e1.cycles, 0u);
    EXPECT_GT(e2.cycles, e1.cycles / 2); // monotone up to jitter
    EXPECT_GE(e2.threadIpc, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Devices, SiliconSpecProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(2, 4, 6)));
