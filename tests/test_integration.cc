/**
 * @file
 * Integration tests spanning profiling -> selection -> simulation ->
 * projection: the full PKA methodology on real registry workloads,
 * including the two-level MLPerf path, exclusions, cross-generation
 * selection reuse and end-to-end error bounds.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "core/experiments.hh"
#include "silicon/profiler.hh"
#include "silicon/silicon_gpu.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "workload/builder.hh"
#include "workload/suites.hh"

using namespace pka;
using namespace pka::core;

namespace
{

WorkloadPair
pairFor(const std::string &name,
        const workload::GenOptions &g = workload::GenOptions{})
{
    workload::GenOptions traced = g, profiled = g;
    profiled.underProfiler = true;
    auto t = workload::buildWorkload(name, traced);
    auto p = workload::buildWorkload(name, profiled);
    EXPECT_TRUE(t && p) << name;
    return WorkloadPair{std::move(*t), std::move(*p)};
}

const silicon::GpuSpec &
volta()
{
    static auto spec = silicon::voltaV100();
    return spec;
}

} // namespace

TEST(Integration, PksMatchesPaperGroupCounts)
{
    silicon::SiliconGpu gpu(volta());
    silicon::DetailedProfiler prof(gpu);

    struct Case { const char *name; size_t min_g, max_g; };
    // Table 3 structures: gaussian -> 1 group, histo -> 4, cutcp -> 3,
    // fdtd2d -> 2.
    for (auto c : std::initializer_list<Case>{{"gauss_208", 1, 1},
                                              {"histo", 4, 4},
                                              {"cutcp", 3, 3},
                                              {"fdtd2d", 2, 2}}) {
        auto w = workload::buildWorkload(c.name);
        ASSERT_TRUE(w);
        auto res = principalKernelSelection(prof.profile(*w));
        EXPECT_GE(res.groups.size(), c.min_g) << c.name;
        EXPECT_LE(res.groups.size(), c.max_g) << c.name;
        EXPECT_LT(res.projectedErrorPct, 5.01) << c.name;
    }
}

TEST(Integration, SelectionRepresentativesAreFirstChronological)
{
    silicon::SiliconGpu gpu(volta());
    silicon::DetailedProfiler prof(gpu);
    auto w = workload::buildWorkload("gramschmidt");
    ASSERT_TRUE(w);
    auto res = principalKernelSelection(prof.profile(*w));
    for (const auto &g : res.groups) {
        ASSERT_FALSE(g.members.empty());
        EXPECT_EQ(g.representative, g.members.front());
        for (size_t i = 1; i < g.members.size(); ++i)
            EXPECT_GT(g.members[i], g.members[i - 1]);
    }
}

TEST(Integration, RunPkaOnClassicWorkload)
{
    silicon::SiliconGpu gpu(volta());
    sim::GpuSimulator simr(volta());
    sim::SimEngine engine;
    auto p = pairFor("histo");
    PkaAppResult res = runPka(engine, p.traced, p.profiled, gpu, simr);
    EXPECT_FALSE(res.excluded);
    EXPECT_FALSE(res.selection.usedTwoLevel);
    EXPECT_GT(res.pks.projectedCycles, 0.0);
    EXPECT_GT(res.pka.projectedCycles, 0.0);
    // PKA never simulates more than PKS.
    EXPECT_LE(res.pka.simulatedCycles, res.pks.simulatedCycles + 1);
}

TEST(Integration, ProfilerSensitiveWorkloadExcluded)
{
    silicon::SiliconGpu gpu(volta());
    sim::GpuSimulator simr(volta());
    sim::SimEngine engine;
    auto p = pairFor("myocyte");
    PkaAppResult res = runPka(engine, p.traced, p.profiled, gpu, simr);
    EXPECT_TRUE(res.excluded);
    EXPECT_NE(res.exclusionReason.find("kernels"), std::string::npos);
}

TEST(Integration, RunPkaCheckedReturnsStrictSelectionError)
{
    // 32 threads x 0.01 active fraction leaves divergence_eff below 1,
    // which strict profile validation rejects instead of clamping.
    auto prog = workload::ProgramBuilder("diverged")
                    .seg(workload::InstrClass::FpAlu, 4)
                    .divergence(0.01)
                    .build();
    workload::WorkloadBuilder b("test", "diverged", 5);
    for (int i = 0; i < 4; ++i)
        b.launch(prog, {8, 1, 1}, {128, 1, 1});
    workload::Workload w = b.build();

    silicon::SiliconGpu gpu(volta());
    sim::GpuSimulator simr(volta());
    sim::SimEngine engine;
    PkaOptions strict;
    strict.strictProfiles = true;
    common::Expected<PkaAppResult> res =
        runPkaChecked(engine, w, w, gpu, simr, strict);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().kind, common::ErrorKind::kBadInput);
    EXPECT_NE(res.error().message.find("divergence"), std::string::npos);
    EXPECT_DEATH(runPka(engine, w, w, gpu, simr, strict), "divergence");

    // Without the strict flag the same profiles are repaired.
    ASSERT_TRUE(runPkaChecked(engine, w, w, gpu, simr).ok());
}

TEST(Integration, MlperfUsesTwoLevelProfiling)
{
    workload::GenOptions g;
    g.mlperfScale = 0.005;
    silicon::SiliconGpu gpu(volta());
    auto p = pairFor("ssd_training", g);
    PkaOptions o;
    o.twoLevelDetailedKernels = 500;
    SelectionOutcome sel = selectKernels(p.profiled, gpu, o);
    EXPECT_TRUE(sel.usedTwoLevel);
    EXPECT_EQ(sel.detailedCount, 500u);
    double covered = 0;
    for (const auto &gr : sel.groups)
        covered += gr.weight;
    EXPECT_DOUBLE_EQ(covered,
                     static_cast<double>(p.profiled.launches.size()));
}

TEST(Integration, SmallWorkloadsUseFullDetailedProfiling)
{
    silicon::SiliconGpu gpu(volta());
    auto p = pairFor("cutcp");
    SelectionOutcome sel = selectKernels(p.profiled, gpu, PkaOptions{});
    EXPECT_FALSE(sel.usedTwoLevel);
    EXPECT_EQ(sel.detailedCount, p.profiled.launches.size());
}

TEST(Integration, PkpTriggersOnLongStableKernel)
{
    // syr2k: one large, regular kernel — the PKP showcase shape.
    silicon::SiliconGpu gpu(volta());
    sim::GpuSimulator simr(volta());
    sim::SimEngine engine;
    auto p = pairFor("syr2k");
    PkaAppResult res = runPka(engine, p.traced, p.profiled, gpu, simr);
    ASSERT_FALSE(res.excluded);
    EXPECT_LT(res.pka.simulatedCycles, res.pks.simulatedCycles);
    // Projection still lands near the full-kernel cycle count.
    EXPECT_LT(pka::common::pctError(res.pka.projectedCycles,
                                    res.pks.projectedCycles),
              40.0);
}

TEST(Integration, CrossGenerationSelectionReuse)
{
    // Volta-selected kernels projected on Turing/Ampere silicon: the
    // paper's Table 4 silicon columns.
    silicon::SiliconGpu volta_gpu(volta());
    silicon::DetailedProfiler prof(volta_gpu);
    auto w = workload::buildWorkload("gauss_s64");
    ASSERT_TRUE(w);
    auto sel = principalKernelSelection(prof.profile(*w));

    for (auto spec : {silicon::turingRtx2060(), silicon::ampereRtx3070()}) {
        silicon::SiliconGpu gpu(spec);
        auto app = gpu.run(*w);
        std::vector<uint64_t> cycles(w->launches.size());
        for (size_t i = 0; i < app.launches.size(); ++i)
            cycles[i] = app.launches[i].cycles;
        auto ev = evaluateSelection(sel.groups, cycles);
        EXPECT_LT(ev.errorPct, 12.0) << spec.name;
        EXPECT_GT(ev.speedup, 30.0) << spec.name;
    }
}

TEST(Integration, EvaluateAppProducesConsistentRecord)
{
    silicon::SiliconGpu gpu(volta());
    sim::GpuSimulator simr(volta());
    sim::SimEngine engine;
    auto p = pairFor("spmv");
    AppEvaluation ev = evaluateApp(p, gpu, simr, EvalOptions{}, &engine);
    EXPECT_EQ(ev.name, "spmv");
    EXPECT_TRUE(ev.fullySimulated);
    EXPECT_GT(ev.siliconCycles, 0.0);
    EXPECT_GT(ev.fullSim.cycles, 0.0);
    EXPECT_GT(ev.siliconIpc, 0.0);
    EXPECT_GE(ev.pksSpeedupVsFull, 1.0);
    EXPECT_LT(ev.siliconPksErrorPct, 6.0);
    // Full-sim and PKS land on the same side within reason.
    EXPECT_LT(std::abs(ev.simErrorPct - ev.pksErrorPct), 60.0);
}

TEST(Integration, FullSimulateAccountsEveryKernel)
{
    sim::GpuSimulator simr(volta());
    sim::SimEngine engine;
    auto w = workload::buildWorkload("cutcp");
    ASSERT_TRUE(w);
    FullSimResult r = fullSimulate(engine, simr, *w);
    EXPECT_EQ(r.perKernel.size(), w->launches.size());
    double sum = 0;
    for (const auto &k : r.perKernel)
        sum += static_cast<double>(k.cycles);
    EXPECT_DOUBLE_EQ(sum, r.cycles);
}

TEST(Integration, MlperfIsNotFullySimulable)
{
    workload::GenOptions g;
    g.mlperfScale = 0.002;
    auto w = workload::buildWorkload("bert_inference", g);
    ASSERT_TRUE(w);
    EXPECT_FALSE(isFullySimulable(*w));
    auto c = workload::buildWorkload("histo");
    EXPECT_TRUE(isFullySimulable(*c));
}

TEST(Integration, BuildAllPairsAligned)
{
    auto pairs = buildAllPairs();
    EXPECT_EQ(pairs.size(), 147u);
    int mismatched = 0;
    for (const auto &p : pairs) {
        EXPECT_EQ(p.traced.name, p.profiled.name);
        mismatched +=
            p.traced.launches.size() != p.profiled.launches.size();
    }
    // myocyte + 5 non-TC conv-training inputs.
    EXPECT_EQ(mismatched, 6);
}

TEST(Integration, ProjectedSimHoursScale)
{
    EXPECT_NEAR(projectedSimHours(kSimCyclesPerSecond * 3600.0), 1.0,
                1e-9);
}
