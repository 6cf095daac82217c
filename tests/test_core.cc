/**
 * @file
 * PKA-core tests: feature engineering, Principal Kernel Selection,
 * Principal Kernel Projection (detector + projection math), two-level
 * classification, and the three baselines.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/rng.hh"
#include "common/stats.hh"
#include "core/baselines.hh"
#include "core/features.hh"
#include "core/pka.hh"
#include "core/pkp.hh"
#include "core/pks.hh"
#include "core/serialize.hh"
#include "core/two_level.hh"
#include "silicon/profiler.hh"
#include "silicon/silicon_gpu.hh"
#include "workload/builder.hh"
#include "workload/suites.hh"

using namespace pka;
using namespace pka::core;

namespace
{

/** Synthesize a detailed profile with controllable metrics. */
silicon::DetailedProfile
makeProfile(uint32_t id, const std::string &name, double insts,
            double loads, uint64_t cycles, double ctas = 64)
{
    silicon::DetailedProfile p;
    p.launchId = id;
    p.kernelName = name;
    p.cycles = cycles;
    p.metrics.instructions = insts;
    p.metrics.threadGlobalLoads = loads;
    p.metrics.coalescedGlobalLoads = loads * 2;
    p.metrics.threadGlobalStores = loads / 2;
    p.metrics.coalescedGlobalStores = loads;
    p.metrics.divergenceEff = 32;
    p.metrics.numCtas = ctas;
    return p;
}

/** Two interleaved kernel families, `n` launches each. */
std::vector<silicon::DetailedProfile>
twoFamilies(int n, uint64_t cycles_a = 1000, uint64_t cycles_b = 5000)
{
    std::vector<silicon::DetailedProfile> ps;
    for (int i = 0; i < n; ++i) {
        ps.push_back(makeProfile(2 * i, "alpha", 1e6 * (1 + 0.01 * (i % 3)),
                                 1e4, cycles_a + (i % 5)));
        ps.push_back(makeProfile(2 * i + 1, "beta",
                                 5e7 * (1 + 0.01 * (i % 3)), 4e6,
                                 cycles_b + (i % 7)));
    }
    return ps;
}

sim::KernelSimResult
truncatedResult(uint64_t cycles, uint64_t finished, uint64_t in_flight,
                uint64_t total, double insts)
{
    sim::KernelSimResult r;
    r.cycles = cycles;
    r.finishedCtas = finished;
    r.inFlightCtas = in_flight;
    r.totalCtas = total;
    r.threadInstructions = insts;
    r.warpInstructions = static_cast<uint64_t>(insts / 32);
    r.expectedWarpInstructions = static_cast<uint64_t>(insts / 32) * 2;
    r.stoppedEarly = true;
    return r;
}

} // namespace

TEST(Features, DetailedFeaturesLogCompressCounts)
{
    auto ps = twoFamilies(2);
    ml::Matrix X = detailedFeatures(ps);
    EXPECT_EQ(X.rows(), 4u);
    EXPECT_EQ(X.cols(), silicon::KernelMetrics::kCount);
    // instructions column (index 9) is log1p'd.
    EXPECT_NEAR(X.at(0, 9), std::log1p(ps[0].metrics.instructions), 1e-9);
    // divergence column (index 10) passes through.
    EXPECT_DOUBLE_EQ(X.at(0, 10), 32.0);
}

TEST(Features, LightFeatureVectorShape)
{
    silicon::LightProfile p;
    p.kernelName = "k";
    p.grid = {64, 1, 1};
    p.block = {256, 1, 1};
    auto v = lightFeatureVector(p);
    EXPECT_EQ(v.size(), kLightFeatureCount);
    // Name embedding is deterministic.
    silicon::LightProfile q = p;
    EXPECT_EQ(lightFeatureVector(q), v);
    q.kernelName = "other";
    EXPECT_NE(lightFeatureVector(q), v);
}

TEST(Features, TensorDimsVisibleInLightFeatures)
{
    silicon::LightProfile a, b;
    a.kernelName = b.kernelName = "k";
    a.grid = b.grid = {8, 1, 1};
    a.block = b.block = {128, 1, 1};
    b.tensorDims = {64, 3, 224, 224};
    EXPECT_NE(lightFeatureVector(a), lightFeatureVector(b));
}

TEST(Pks, TwoFamiliesYieldTwoGroups)
{
    auto ps = twoFamilies(50);
    PksResult res = principalKernelSelection(ps);
    EXPECT_EQ(res.groups.size(), 2u);
    EXPECT_LT(res.projectedErrorPct, 5.0);
    // Representatives are the first chronological members.
    for (const auto &g : res.groups)
        for (uint32_t m : g.members)
            EXPECT_LE(g.representative, m);
    double total_weight = 0;
    for (const auto &g : res.groups)
        total_weight += g.weight;
    EXPECT_DOUBLE_EQ(total_weight, 100.0);
}

TEST(Pks, IdenticalKernelsCollapseToOneGroup)
{
    std::vector<silicon::DetailedProfile> ps;
    for (int i = 0; i < 30; ++i)
        ps.push_back(makeProfile(i, "same", 1e6, 1e4, 1000 + (i % 3)));
    PksResult res = principalKernelSelection(ps);
    EXPECT_EQ(res.groups.size(), 1u);
    EXPECT_EQ(res.groups[0].representative, 0u);
    EXPECT_NEAR(res.siliconSpeedup(), 30.0, 1.0);
}

TEST(Pks, HeterogeneousCyclesForceMoreGroups)
{
    // Same code signature but wildly different cycle totals (driven by a
    // feature PCA sees: instructions). K must grow to meet 5% error.
    std::vector<silicon::DetailedProfile> ps;
    for (int i = 0; i < 24; ++i) {
        double scale = std::pow(4.0, i % 4);
        ps.push_back(makeProfile(i, "k", 1e5 * scale, 1e3 * scale,
                                 static_cast<uint64_t>(500 * scale)));
    }
    PksResult res = principalKernelSelection(ps);
    EXPECT_GE(res.groups.size(), 3u);
    EXPECT_LT(res.projectedErrorPct, 5.0);
}

TEST(Pks, SingleProfile)
{
    std::vector<silicon::DetailedProfile> ps = {
        makeProfile(0, "only", 1e5, 10, 777)};
    PksResult res = principalKernelSelection(ps);
    EXPECT_EQ(res.groups.size(), 1u);
    EXPECT_DOUBLE_EQ(res.projectedCycles, 777.0);
    EXPECT_NEAR(res.projectedErrorPct, 0.0, 1e-9);
}

TEST(Pks, RespectsTargetError)
{
    auto ps = twoFamilies(50, 1000, 1300); // families close in cycles
    PksOptions loose;
    loose.targetErrorPct = 25.0;
    PksOptions tight;
    tight.targetErrorPct = 0.5;
    auto gl = principalKernelSelection(ps, loose);
    auto gt = principalKernelSelection(ps, tight);
    EXPECT_LE(gl.groups.size(), gt.groups.size());
}

TEST(Pks, EvaluateSelectionOnAnotherDevice)
{
    auto ps = twoFamilies(10);
    PksResult res = principalKernelSelection(ps);
    // "Turing" cycles: everything 2x slower.
    std::vector<uint64_t> cycles(20);
    for (const auto &p : ps)
        cycles[p.launchId] = p.cycles * 2;
    SelectionEvaluation ev = evaluateSelection(res.groups, cycles);
    EXPECT_LT(ev.errorPct, 5.0);
    EXPECT_GT(ev.speedup, 5.0);
    EXPECT_NEAR(ev.trueCycles,
                2.0 * res.profiledCycles, res.profiledCycles * 0.01);
}

TEST(Pkp, DetectorRequiresFullWindow)
{
    IpcStabilityController c;
    sim::StopController::Snapshot s;
    s.windowFull = false;
    s.windowIpcMean = 100;
    s.windowIpcStd = 0.1;
    s.finishedCtas = 1000;
    s.totalCtas = 2000;
    s.waveSize = 100;
    c.beginKernel(s);
    EXPECT_FALSE(c.shouldStop(s));
    s.windowFull = true;
    EXPECT_TRUE(c.shouldStop(s));
    EXPECT_TRUE(c.triggered());
}

TEST(Pkp, DetectorThreshold)
{
    PkpOptions o;
    o.threshold = 0.25;
    IpcStabilityController c(o);
    sim::StopController::Snapshot s;
    s.windowFull = true;
    s.windowIpcMean = 100;
    s.finishedCtas = 500;
    s.totalCtas = 1000;
    s.waveSize = 100;
    s.windowIpcStd = 30; // 0.3 normalized: unstable
    EXPECT_FALSE(c.shouldStop(s));
    s.windowIpcStd = 20; // 0.2: stable
    EXPECT_TRUE(c.shouldStop(s));
}

TEST(Pkp, WaveConstraintBlocksEarlyStop)
{
    IpcStabilityController c;
    sim::StopController::Snapshot s;
    s.windowFull = true;
    s.windowIpcMean = 100;
    s.windowIpcStd = 1;
    s.waveSize = 160;
    s.totalCtas = 1000;
    s.finishedCtas = 80; // less than a wave
    EXPECT_FALSE(c.shouldStop(s));
    s.finishedCtas = 160;
    EXPECT_TRUE(c.shouldStop(s));
}

TEST(Pkp, SmallGridsExemptFromWaveConstraint)
{
    IpcStabilityController c;
    sim::StopController::Snapshot s;
    s.windowFull = true;
    s.windowIpcMean = 100;
    s.windowIpcStd = 1;
    s.waveSize = 160;
    s.totalCtas = 40; // grid smaller than one wave
    s.finishedCtas = 0;
    EXPECT_TRUE(c.shouldStop(s));
}

TEST(Pkp, WaveConstraintCanBeDisabled)
{
    PkpOptions o;
    o.requireFullWave = false;
    IpcStabilityController c(o);
    sim::StopController::Snapshot s;
    s.windowFull = true;
    s.windowIpcMean = 100;
    s.windowIpcStd = 1;
    s.waveSize = 160;
    s.totalCtas = 1000;
    s.finishedCtas = 10;
    EXPECT_TRUE(c.shouldStop(s));
}

TEST(Pkp, ZeroMeanWindowNeverStable)
{
    IpcStabilityController c;
    sim::StopController::Snapshot s;
    s.windowFull = true;
    s.windowIpcMean = 0.0;
    s.windowIpcStd = 0.0;
    s.totalCtas = 10;
    s.waveSize = 160;
    EXPECT_FALSE(c.shouldStop(s));
}

TEST(Pkp, ProjectionScalesWithRemainingCtas)
{
    // 100 of 400 CTAs finished in 1000 cycles, none in flight:
    // remaining 300 at the same rate => 4000 total.
    auto r = truncatedResult(1000, 100, 0, 400, 3.2e6);
    PkpProjection p = projectKernel(r);
    EXPECT_TRUE(p.wasProjected);
    EXPECT_EQ(p.projectedCycles, 4000u);
    EXPECT_NEAR(p.projectedThreadInstructions, 3.2e6 * 4, 1.0);
}

TEST(Pkp, ProjectionCreditsInFlightCtas)
{
    // 100 finished + 100 in flight (half-done): remaining = 300 - 50.
    auto r = truncatedResult(1000, 100, 100, 400, 3.2e6);
    PkpProjection p = projectKernel(r);
    EXPECT_EQ(p.projectedCycles, 1000u + 2500u);
}

TEST(Pkp, CompletedKernelPassesThrough)
{
    auto r = truncatedResult(1000, 400, 0, 400, 3.2e6);
    r.stoppedEarly = false;
    PkpProjection p = projectKernel(r);
    EXPECT_FALSE(p.wasProjected);
    EXPECT_EQ(p.projectedCycles, 1000u);
}

TEST(Pkp, ZeroFinishedProjectsOnInstructions)
{
    auto r = truncatedResult(1000, 0, 8, 8, 3.2e6);
    // expectedWarpInstructions = 2x executed => cycle projection 2x.
    PkpProjection p = projectKernel(r);
    EXPECT_TRUE(p.wasProjected);
    EXPECT_EQ(p.projectedCycles, 2000u);
}

TEST(TwoLevel, ClassifiesRemainderIntoPrefixGroups)
{
    // Prefix: 2 families with distinct names/sizes; remainder alternates.
    auto prefix = twoFamilies(40);
    std::vector<silicon::LightProfile> light;
    for (int i = 0; i < 200; ++i) {
        silicon::LightProfile lp;
        lp.launchId = static_cast<uint32_t>(i);
        lp.kernelName = (i % 2 == 0) ? "alpha" : "beta";
        lp.grid = {(i % 2 == 0) ? 16u : 256u, 1, 1};
        lp.block = {256, 1, 1};
        light.push_back(lp);
    }
    TwoLevelOptions o;
    o.detailedKernels = 80;
    TwoLevelResult res = twoLevelSelection(prefix, light, o);
    EXPECT_EQ(res.groups.size(), 2u);
    double total = 0;
    for (const auto &g : res.groups)
        total += g.weight;
    EXPECT_DOUBLE_EQ(total, 200.0);
    // Same-name launches land in the same group.
    for (size_t i = 80; i < 200; ++i)
        EXPECT_EQ(res.labels[i], res.labels[i % 2]) << i;
    EXPECT_GT(res.ensembleUnanimity, 0.5);
}

TEST(TwoLevel, SingleGroupAbsorbsEverything)
{
    std::vector<silicon::DetailedProfile> prefix;
    for (int i = 0; i < 20; ++i)
        prefix.push_back(makeProfile(i, "k", 1e6, 1e4, 1000));
    std::vector<silicon::LightProfile> light(50);
    for (int i = 0; i < 50; ++i) {
        light[i].launchId = static_cast<uint32_t>(i);
        light[i].kernelName = "k";
        light[i].grid = {16, 1, 1};
        light[i].block = {128, 1, 1};
    }
    TwoLevelResult res = twoLevelSelection(prefix, light);
    EXPECT_EQ(res.groups.size(), 1u);
    EXPECT_DOUBLE_EQ(res.groups[0].weight, 50.0);
}

TEST(Baselines, FirstNTruncatesAndExtrapolates)
{
    sim::GpuSimulator s(silicon::voltaV100());
    sim::SimEngine engine;
    auto w = workload::buildWorkload("stencil");
    ASSERT_TRUE(w);
    auto full = firstNInstructions(engine, s, *w, 1ull << 60);
    EXPECT_TRUE(full.completed);

    auto trunc = firstNInstructions(engine, s, *w, 1'000'000);
    EXPECT_FALSE(trunc.completed);
    EXPECT_LT(trunc.simulatedCycles, full.simulatedCycles);
    // Extrapolation lands within 2x of the true total for this
    // homogeneous workload.
    EXPECT_LT(pka::common::pctError(trunc.projectedAppCycles,
                                    full.projectedAppCycles),
              100.0);
}

TEST(Baselines, TBPointGroupsTwoFamilies)
{
    std::vector<TBPointKernelStats> stats;
    for (int i = 0; i < 30; ++i) {
        TBPointKernelStats a;
        a.launchId = 2 * i;
        a.cycles = 1000 + i % 5;
        a.ipc = 500;
        a.dramUtilPct = 10;
        a.warpInstructions = 1e5;
        a.numCtas = 64;
        stats.push_back(a);
        TBPointKernelStats b;
        b.launchId = 2 * i + 1;
        b.cycles = 9000 + i % 5;
        b.ipc = 80;
        b.dramUtilPct = 70;
        b.l2MissPct = 60;
        b.warpInstructions = 4e6;
        b.numCtas = 512;
        stats.push_back(b);
    }
    TBPointResult res = tbpointSelectChecked(stats).value();
    EXPECT_LE(res.groups.size(), 6u);
    EXPECT_GE(res.groups.size(), 2u);
    EXPECT_LT(res.projectedErrorPct, 5.0);
}

TEST(Baselines, DetectIterationPeriod)
{
    std::vector<std::string> s1 = {"a", "b", "c", "a", "b", "c",
                                   "a", "b", "c"};
    EXPECT_EQ(detectIterationPeriod(s1), 3u);
    std::vector<std::string> s2 = {"a", "b", "c", "d"};
    EXPECT_EQ(detectIterationPeriod(s2), 0u);
    std::vector<std::string> s3 = {"a", "a", "a", "a"};
    EXPECT_EQ(detectIterationPeriod(s3), 1u);
    std::vector<std::string> tiny = {"a", "b"};
    EXPECT_EQ(detectIterationPeriod(tiny), 0u);
    // Partial trailing iteration still detected.
    std::vector<std::string> s4 = {"a", "b", "c", "a", "b", "c", "a"};
    EXPECT_EQ(detectIterationPeriod(s4), 3u);
}

TEST(Baselines, SingleIterationOnPeriodicWorkload)
{
    sim::GpuSimulator s(silicon::voltaV100());
    sim::SimEngine engine;
    auto w = workload::buildWorkload("histo");
    ASSERT_TRUE(w);
    auto res = singleIterationBaseline(engine, s, *w);
    EXPECT_TRUE(res.applicable);
    EXPECT_EQ(res.periodLaunches, 4u);
    EXPECT_NEAR(res.iterations, 20.0, 1e-9);
    EXPECT_GT(res.projectedAppCycles, res.simulatedCycles);
}

TEST(Baselines, SingleIterationInapplicableOnAperiodic)
{
    sim::GpuSimulator s(silicon::voltaV100());
    sim::SimEngine engine;
    auto w = workload::buildWorkload("cutcp");
    ASSERT_TRUE(w);
    auto res = singleIterationBaseline(engine, s, *w);
    EXPECT_FALSE(res.applicable);
}

/** Threshold sweep property for the PKP detector. */
class PkpThresholdSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(PkpThresholdSweep, TighterThresholdStopsLaterOrEqual)
{
    // Synthetic IPC trajectory: noisy ramp into a plateau.
    auto stop_bucket = [](double threshold) {
        PkpOptions o;
        o.threshold = threshold;
        o.requireFullWave = false;
        IpcStabilityController c(o);
        pka::common::RollingWindow win(100);
        pka::common::Rng rng(4);
        for (int b = 0; b < 4000; ++b) {
            double target = 400.0 * std::min(1.0, b / 600.0);
            win.push(target + rng.normal(0, 12));
            sim::StopController::Snapshot s;
            s.windowFull = win.full();
            s.windowIpcMean = win.mean();
            s.windowIpcStd = win.stddev();
            s.totalCtas = 1000;
            s.finishedCtas = static_cast<uint64_t>(b / 4);
            s.waveSize = 160;
            if (c.shouldStop(s))
                return b;
        }
        return 4000;
    };
    double t = GetParam();
    EXPECT_LE(stop_bucket(t * 10), stop_bucket(t));
    EXPECT_LT(stop_bucket(t * 10), 4000);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, PkpThresholdSweep,
                         ::testing::Values(0.025, 0.05, 0.25));

TEST(Pks, ClusterCenterPolicyPicksNearCentroidMember)
{
    auto ps = twoFamilies(30);
    PksOptions o;
    o.representative = RepresentativePolicy::ClusterCenter;
    PksResult res = principalKernelSelection(ps, o);
    EXPECT_EQ(res.groups.size(), 2u);
    // Representatives are still members of their own groups.
    for (const auto &g : res.groups) {
        bool found = false;
        for (uint32_t m : g.members)
            found |= m == g.representative;
        EXPECT_TRUE(found);
    }
}

TEST(Pks, RandomPolicyIsSeedDeterministic)
{
    auto ps = twoFamilies(30);
    PksOptions o;
    o.representative = RepresentativePolicy::Random;
    o.seed = 123;
    auto a = principalKernelSelection(ps, o);
    auto b = principalKernelSelection(ps, o);
    ASSERT_EQ(a.groups.size(), b.groups.size());
    for (size_t g = 0; g < a.groups.size(); ++g)
        EXPECT_EQ(a.groups[g].representative, b.groups[g].representative);
}

TEST(Pks, PoliciesAgreeOnGroupStructure)
{
    auto ps = twoFamilies(30);
    for (auto pol : {RepresentativePolicy::FirstChronological,
                     RepresentativePolicy::ClusterCenter,
                     RepresentativePolicy::Random}) {
        PksOptions o;
        o.representative = pol;
        auto res = principalKernelSelection(ps, o);
        EXPECT_EQ(res.groups.size(), 2u);
        double w = 0;
        for (const auto &g : res.groups)
            w += g.weight;
        EXPECT_DOUBLE_EQ(w, 60.0);
    }
}

TEST(Serialize, CsvEscapeRoundTrip)
{
    for (const std::string &s :
         {std::string("plain"), std::string("with,comma"),
          std::string("with\"quote"), std::string("a,b\"c")}) {
        std::string esc = csvEscape(s);
        auto fields = csvSplit(esc);
        ASSERT_EQ(fields.size(), 1u) << s;
        EXPECT_EQ(fields[0], s);
    }
}

TEST(Serialize, CsvSplitMultipleFields)
{
    auto f = csvSplit("a,\"b,c\",d");
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f[0], "a");
    EXPECT_EQ(f[1], "b,c");
    EXPECT_EQ(f[2], "d");
    EXPECT_EQ(csvSplit("").size(), 1u);
}

TEST(Serialize, DetailedProfilesRoundTrip)
{
    auto ps = twoFamilies(5);
    std::stringstream ss;
    writeDetailedProfiles(ss, ps);
    auto back = readDetailedProfiles(ss);
    ASSERT_EQ(back.size(), ps.size());
    for (size_t i = 0; i < ps.size(); ++i) {
        EXPECT_EQ(back[i].launchId, ps[i].launchId);
        EXPECT_EQ(back[i].kernelName, ps[i].kernelName);
        EXPECT_EQ(back[i].cycles, ps[i].cycles);
        auto a = back[i].metrics.toArray();
        auto b = ps[i].metrics.toArray();
        for (size_t c = 0; c < a.size(); ++c)
            EXPECT_NEAR(a[c], b[c], std::abs(b[c]) * 1e-8 + 1e-12);
    }
}

TEST(Serialize, LightProfilesRoundTrip)
{
    std::vector<silicon::LightProfile> ps(3);
    ps[0].launchId = 0;
    ps[0].kernelName = "alpha";
    ps[0].grid = {4, 2, 1};
    ps[0].block = {32, 4, 1};
    ps[1].launchId = 1;
    ps[1].kernelName = "beta,with comma";
    ps[1].grid = {16, 1, 1};
    ps[1].block = {256, 1, 1};
    ps[1].tensorDims = {64, 3, 224, 224};
    ps[2].launchId = 2;
    ps[2].kernelName = "gamma";
    ps[2].grid = {1, 1, 1};
    ps[2].block = {32, 1, 1};

    std::stringstream ss;
    writeLightProfiles(ss, ps);
    auto back = readLightProfiles(ss);
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back[1].kernelName, "beta,with comma");
    EXPECT_EQ(back[1].tensorDims, ps[1].tensorDims);
    EXPECT_EQ(back[0].grid.total(), 8u);
    EXPECT_TRUE(back[2].tensorDims.empty());
}

TEST(Serialize, SelectionRoundTrip)
{
    auto ps = twoFamilies(20);
    SelectionOutcome sel;
    auto pks = principalKernelSelection(ps);
    sel.groups = pks.groups;
    sel.usedTwoLevel = true;
    sel.detailedCount = 40;
    sel.profilingCostSec = 123.5;
    sel.ensembleUnanimity = 0.875;

    std::stringstream ss;
    writeSelection(ss, sel);
    SelectionOutcome back = readSelection(ss);
    EXPECT_TRUE(back.usedTwoLevel);
    EXPECT_EQ(back.detailedCount, 40u);
    EXPECT_DOUBLE_EQ(back.profilingCostSec, 123.5);
    EXPECT_DOUBLE_EQ(back.ensembleUnanimity, 0.875);
    ASSERT_EQ(back.groups.size(), sel.groups.size());
    for (size_t g = 0; g < sel.groups.size(); ++g) {
        EXPECT_EQ(back.groups[g].representative,
                  sel.groups[g].representative);
        EXPECT_EQ(back.groups[g].members, sel.groups[g].members);
        EXPECT_DOUBLE_EQ(back.groups[g].weight, sel.groups[g].weight);
    }
}

TEST(Serialize, RejectsMalformedInput)
{
    std::stringstream bad1("not a header\n");
    EXPECT_DEATH(readSelection(bad1), "magic");
    std::stringstream bad2("launch_id,kernel_name\n");
    EXPECT_DEATH(readDetailedProfiles(bad2), "column count");
}
