/**
 * @file
 * Workload-model tests: IR arithmetic, builders, archetypes, suite
 * structure (the paper's launch-count shapes), determinism and the
 * profiler-sensitivity quirk.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_map>

#include "sim/simulator.hh"
#include "workload/archetypes.hh"
#include "workload/builder.hh"
#include "workload/detail.hh"
#include "workload/suites.hh"

using namespace pka::workload;
using pka::common::Rng;

namespace
{

ProgramPtr
tinyProgram(uint32_t alu = 4, uint32_t loads = 1)
{
    return ProgramBuilder("tiny")
        .seg(InstrClass::GlobalLoad, loads)
        .seg(InstrClass::IntAlu, alu)
        .seg(InstrClass::GlobalStore, 1)
        .build();
}

} // namespace

TEST(Dim3, Total)
{
    EXPECT_EQ((Dim3{4, 2, 3}).total(), 24u);
    EXPECT_EQ((Dim3{1, 1, 1}).total(), 1u);
}

TEST(Program, InstrsPerIteration)
{
    auto p = tinyProgram(4, 2);
    EXPECT_EQ(p->instrsPerIteration(), 7u);
    EXPECT_EQ(p->classInstrsPerIteration(InstrClass::IntAlu), 4u);
    EXPECT_EQ(p->classInstrsPerIteration(InstrClass::GlobalLoad), 2u);
    EXPECT_EQ(p->classInstrsPerIteration(InstrClass::Sfu), 0u);
}

TEST(Program, InstrClassNames)
{
    for (size_t c = 0; c < kNumInstrClasses; ++c) {
        const char *n = instrClassName(static_cast<InstrClass>(c));
        EXPECT_NE(n, nullptr);
        EXPECT_GT(std::string(n).size(), 0u);
    }
}

TEST(Program, GlobalMemClassification)
{
    EXPECT_TRUE(isGlobalMemClass(InstrClass::GlobalLoad));
    EXPECT_TRUE(isGlobalMemClass(InstrClass::GlobalAtomic));
    EXPECT_TRUE(isGlobalMemClass(InstrClass::LocalStore));
    EXPECT_FALSE(isGlobalMemClass(InstrClass::SharedLoad));
    EXPECT_FALSE(isGlobalMemClass(InstrClass::IntAlu));
}

TEST(KernelDescriptor, CountArithmetic)
{
    KernelDescriptor k;
    k.program = tinyProgram();
    k.grid = {10, 1, 1};
    k.block = {96, 1, 1};
    k.iterations = 5;
    EXPECT_EQ(k.numCtas(), 10u);
    EXPECT_EQ(k.threadsPerCta(), 96u);
    EXPECT_EQ(k.warpsPerCta(), 3u);
    EXPECT_EQ(k.totalThreads(), 960u);
    EXPECT_EQ(k.totalThreadInstructions(), 960u * 5 * 6);
    EXPECT_EQ(k.totalWarpInstructions(), 30u * 5 * 6);
}

TEST(KernelDescriptor, WarpRoundUp)
{
    KernelDescriptor k;
    k.program = tinyProgram();
    k.grid = {1, 1, 1};
    k.block = {33, 1, 1};
    EXPECT_EQ(k.warpsPerCta(), 2u);
}

TEST(ProgramBuilder, RejectsEmptyBody)
{
    ProgramBuilder b("empty");
    EXPECT_DEATH(b.build(), "empty");
}

TEST(ProgramBuilder, DropsZeroCountSegments)
{
    auto p = ProgramBuilder("z")
                 .seg(InstrClass::IntAlu, 0)
                 .seg(InstrClass::FpAlu, 3)
                 .build();
    EXPECT_EQ(p->body.size(), 1u);
}

TEST(ProgramBuilder, ValidatesMemParameters)
{
    ProgramBuilder b("m");
    EXPECT_DEATH(b.mem(0.5, 0.5, 0.5), "sectors");
    EXPECT_DEATH(b.mem(40.0, 0.5, 0.5), "sectors");
}

TEST(ProgramBuilder, ValidatesDivergence)
{
    ProgramBuilder b("d");
    EXPECT_DEATH(b.divergence(0.0), "divergence");
    EXPECT_DEATH(b.divergence(1.5), "divergence");
}

TEST(WorkloadBuilder, AssignsChronologicalIds)
{
    WorkloadBuilder b("s", "n", 1);
    auto p = tinyProgram();
    for (int i = 0; i < 5; ++i)
        b.launch(p, {1, 1, 1}, {32, 1, 1});
    Workload w = b.build();
    for (uint32_t i = 0; i < 5; ++i)
        EXPECT_EQ(w.launches[i].launchId, i);
}

TEST(WorkloadBuilder, RejectsOversizedBlock)
{
    WorkloadBuilder b("s", "n", 1);
    EXPECT_DEATH(b.launch(tinyProgram(), {1, 1, 1}, {2048, 1, 1}),
                 "1024");
}

TEST(WorkloadBuilder, RejectsEmptyGrid)
{
    WorkloadBuilder b("s", "n", 1);
    EXPECT_DEATH(b.launch(tinyProgram(), {0, 1, 1}, {32, 1, 1}),
                 "non-empty");
}

TEST(WorkloadBuilder, RejectsEmptyWorkload)
{
    WorkloadBuilder b("s", "n", 1);
    EXPECT_DEATH(b.build(), "no launches");
}

TEST(Workload, DistinctPrograms)
{
    WorkloadBuilder b("s", "n", 1);
    auto p1 = tinyProgram(), p2 = tinyProgram();
    b.launch(p1, {1, 1, 1}, {32, 1, 1});
    b.launch(p1, {1, 1, 1}, {32, 1, 1});
    b.launch(p2, {1, 1, 1}, {32, 1, 1});
    EXPECT_EQ(b.build().distinctPrograms(), 2u);
}

namespace
{

KernelDescriptor
config(ProgramPtr p, uint32_t ctas, std::vector<uint32_t> dims = {},
       double cta_work_cv = 0.0)
{
    KernelDescriptor k;
    k.program = std::move(p);
    k.grid = {ctas, 1, 1};
    k.block = {128, 1, 1};
    k.ctaWorkCv = cta_work_cv;
    k.tensorDims = std::move(dims);
    return k;
}

/** Content hash of every configuration of a stream, by config index. */
std::vector<uint64_t>
configHashes(const LaunchStream &s)
{
    std::vector<uint64_t> h;
    for (const KernelDescriptor &k : s.configs())
        h.push_back(pka::sim::launchContentHash(k));
    return h;
}

} // namespace

TEST(LaunchStream, InterningSharesBitEqualConfigurations)
{
    auto p = tinyProgram();
    LaunchStream s;
    s.push_back(config(p, 8, {4, 16}));
    s.push_back(config(p, 8, {4, 16}));  // equal: shares launch 0's
    s.push_back(config(p, 8, {4, 17}));  // one tensor dim differs
    s.push_back(config(p, 8, {}, 0.0));  // no dims, +0.0 CV
    s.push_back(config(p, 8, {}, -0.0)); // -0.0 CV: other bits
    s.push_back(config(tinyProgram(), 8, {4, 16})); // other Program
    s.push_back(config(p, 8, {4, 16}));

    ASSERT_EQ(s.size(), 7u);
    EXPECT_EQ(s.configs().size(), 5u);
    EXPECT_EQ(s.configIndex(0), s.configIndex(1));
    EXPECT_EQ(s.configIndex(0), s.configIndex(6));
    EXPECT_NE(s.configIndex(0), s.configIndex(2));
    EXPECT_NE(s.configIndex(3), s.configIndex(4));
    EXPECT_NE(s.configIndex(0), s.configIndex(5));
    EXPECT_EQ(s.launchCounts(), (std::vector<uint64_t>{3, 1, 1, 1, 1}));
    EXPECT_TRUE(std::signbit(s[4].config.ctaWorkCv));
    EXPECT_FALSE(std::signbit(s[3].config.ctaWorkCv));
    size_t i = 0;
    for (const auto l : s)
        EXPECT_EQ(l.launchId, i++);
    EXPECT_EQ(i, s.size());
}

TEST(LaunchStream, LaunchHashesEqualTheAppendedDescriptors)
{
    auto p = tinyProgram();
    std::vector<KernelDescriptor> appended = {
        config(p, 8, {4, 16}), config(p, 8, {4, 16}),
        config(p, 9, {4, 16}, 0.5), config(p, 8, {}, -0.0),
        config(p, 8, {}, 0.0), config(p, 8, {4, 16})};
    LaunchStream s;
    for (const KernelDescriptor &k : appended)
        s.push_back(k);
    ASSERT_EQ(s.size(), appended.size());
    for (size_t i = 0; i < s.size(); ++i) {
        EXPECT_EQ(pka::sim::launchContentHash(s[i].config),
                  pka::sim::launchContentHash(appended[i]))
            << i;
        EXPECT_EQ(s[i].config.tensorDims, appended[i].tensorDims) << i;
    }

    // Replacing a launch re-interns it; the others keep theirs.
    s.replace(1, config(p, 10));
    EXPECT_EQ(s[1].config.grid.x, 10u);
    EXPECT_EQ(s[0].config.grid.x, 8u);
    EXPECT_EQ(s[5].config.grid.x, 8u);
    s.replace(1, appended[1]);
    EXPECT_EQ(s.configIndex(1), s.configIndex(0));
}

TEST(Archetypes, AllBuildValidPrograms)
{
    Rng rng(42);
    std::vector<ProgramPtr> ps = {
        pka::workload::archetypes::compute("c", rng),
        pka::workload::archetypes::gemmTile("g", rng, false),
        pka::workload::archetypes::gemmTile("gt", rng, true),
        pka::workload::archetypes::convTile("cv", rng, false),
        pka::workload::archetypes::elementwise("e", rng),
        pka::workload::archetypes::reduction("r", rng),
        pka::workload::archetypes::stencil("st", rng),
        pka::workload::archetypes::graphTraversal("gr", rng),
        pka::workload::archetypes::sparse("sp", rng),
        pka::workload::archetypes::atomicHistogram("h", rng),
        pka::workload::archetypes::rnnCell("rn", rng, false),
        pka::workload::archetypes::dataMovement("dm", rng),
    };
    for (const auto &p : ps) {
        EXPECT_FALSE(p->body.empty()) << p->name;
        EXPECT_GE(p->sectorsPerAccess, 1.0) << p->name;
        EXPECT_LE(p->sectorsPerAccess, 32.0) << p->name;
        EXPECT_GT(p->divergenceEff, 0.0) << p->name;
        EXPECT_LE(p->divergenceEff, 1.0) << p->name;
        EXPECT_GT(p->instrsPerIteration(), 0u) << p->name;
    }
}

TEST(Archetypes, TensorVariantUsesTensorCores)
{
    Rng rng(1);
    auto tc = pka::workload::archetypes::gemmTile("t", rng, true);
    auto cc = pka::workload::archetypes::gemmTile("c", rng, false);
    EXPECT_GT(tc->classInstrsPerIteration(InstrClass::Tensor), 0u);
    EXPECT_EQ(cc->classInstrsPerIteration(InstrClass::Tensor), 0u);
}

TEST(Suites, RegistryHas147)
{
    EXPECT_EQ(allWorkloads().size(), 147u);
}

TEST(Suites, SuiteSizesMatchPaper)
{
    std::unordered_map<std::string, int> counts;
    for (const auto &w : allWorkloads())
        ++counts[w.suite];
    EXPECT_EQ(counts["rodinia"], 28);
    EXPECT_EQ(counts["parboil"], 8);
    EXPECT_EQ(counts["polybench"], 15);
    EXPECT_EQ(counts["cutlass"], 20);
    EXPECT_EQ(counts["deepbench"], 69);
    EXPECT_EQ(counts["mlperf"], 7);
}

TEST(Suites, UniqueNames)
{
    std::set<std::string> names;
    for (const auto &w : allWorkloads())
        EXPECT_TRUE(names.insert(w.name).second) << w.name;
}

TEST(Suites, DeterministicAcrossBuilds)
{
    auto a = allWorkloads();
    auto b = allWorkloads();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].seed, b[i].seed);
        ASSERT_EQ(a[i].launches.size(), b[i].launches.size()) << a[i].name;
        EXPECT_EQ(a[i].totalWarpInstructions(),
                  b[i].totalWarpInstructions())
            << a[i].name;
    }
}

TEST(Suites, PaperLaunchStructures)
{
    auto get = [](const std::string &n) {
        auto w = buildWorkload(n);
        EXPECT_TRUE(w.has_value()) << n;
        return *w;
    };
    // gaussian on a 208x208 matrix: 2 kernels x 207 rounds.
    EXPECT_EQ(get("gauss_208").launches.size(), 414u);
    // bfs65536: 20 near-uniform launches (Table 3: one group of 20).
    EXPECT_EQ(get("bfs65536").launches.size(), 20u);
    // Parboil histo: 4 kernels x 20 iterations.
    EXPECT_EQ(get("histo").launches.size(), 80u);
    // Parboil cutcp: launch counts 2/3/6 across 3 kernels.
    EXPECT_EQ(get("cutcp").launches.size(), 11u);
    // fdtd2d: 3 kernels x 500 steps.
    EXPECT_EQ(get("fdtd2d").launches.size(), 1500u);
    // gramschmidt: 3 kernels x 2137 column steps = 6411.
    EXPECT_EQ(get("gramschmidt").launches.size(), 6411u);
    // CUTLASS: 7 repetitions of one tuned kernel.
    EXPECT_EQ(get("sgemm_2560x128x2560").launches.size(), 7u);
    EXPECT_EQ(get("sgemm_2560x128x2560").distinctPrograms(), 1u);
}

TEST(Suites, MlperfScalesWithOption)
{
    GenOptions small;
    small.mlperfScale = 0.005;
    GenOptions large;
    large.mlperfScale = 0.02;
    auto ws = buildWorkload("ssd_training", small);
    auto wl = buildWorkload("ssd_training", large);
    ASSERT_TRUE(ws && wl);
    EXPECT_LT(ws->launches.size(), wl->launches.size());
    EXPECT_DOUBLE_EQ(ws->scale, 0.005);
}

TEST(Suites, MlperfCarriesTensorDims)
{
    auto w = buildWorkload("bert_inference", GenOptions{.mlperfScale = 0.002});
    ASSERT_TRUE(w);
    size_t with_dims = 0;
    for (const auto &k : w->launches)
        with_dims += !k.config.tensorDims.empty();
    EXPECT_EQ(with_dims, w->launches.size());
}

TEST(Suites, ClassicWorkloadsHaveNoTensorDims)
{
    auto w = buildWorkload("histo");
    ASSERT_TRUE(w);
    for (const auto &k : w->launches)
        EXPECT_TRUE(k.config.tensorDims.empty());
}

TEST(Suites, ProfilerSensitivity)
{
    EXPECT_TRUE(isProfilerSensitive("myocyte"));
    EXPECT_TRUE(isProfilerSensitive("conv_train_in3"));
    EXPECT_FALSE(isProfilerSensitive("conv_train_tc_in3"));
    EXPECT_FALSE(isProfilerSensitive("gauss_208"));
}

TEST(Suites, ProfiledVariantChangesSensitiveCounts)
{
    GenOptions plain, prof;
    prof.underProfiler = true;
    auto t = buildWorkload("myocyte", plain);
    auto p = buildWorkload("myocyte", prof);
    ASSERT_TRUE(t && p);
    EXPECT_NE(t->launches.size(), p->launches.size());

    auto t2 = buildWorkload("gauss_208", plain);
    auto p2 = buildWorkload("gauss_208", prof);
    EXPECT_EQ(t2->launches.size(), p2->launches.size());
}

TEST(Suites, UnknownNameReturnsNullopt)
{
    EXPECT_FALSE(buildWorkload("not_a_workload").has_value());
}

TEST(Suites, ResnetUsesFigure4KernelNames)
{
    auto w = buildWorkload("resnet50_64b", GenOptions{.mlperfScale = 0.002});
    ASSERT_TRUE(w);
    std::set<std::string> names;
    for (const auto &k : w->launches)
        names.insert(k.config.program->name);
    for (const char *expect :
         {"sgemm", "winograd_big", "genWinograd", "implicit_con",
          "tiny_relu_1", "bn_fw_inf", "MaxPool2D", "somax_fw",
          "SimpleBinary", "RowwiseBinary", "splitKreduce", "gemv2N"})
        EXPECT_TRUE(names.count(expect)) << expect;
}

TEST(Suites, BuildWorkloadMatchesRegistry)
{
    for (double scale : {0.02, 0.1}) {
        for (bool under_profiler : {false, true}) {
            GenOptions g;
            g.mlperfScale = scale;
            g.underProfiler = under_profiler;
            for (const Workload &all : allWorkloads(g)) {
                auto one = buildWorkload(all.name, g);
                ASSERT_TRUE(one) << all.name;
                EXPECT_EQ(one->suite, all.suite);
                EXPECT_EQ(one->name, all.name);
                EXPECT_EQ(one->seed, all.seed) << all.name;
                EXPECT_EQ(one->scale, all.scale) << all.name;
                ASSERT_EQ(one->launches.size(), all.launches.size())
                    << all.name;
                const auto one_hash = configHashes(one->launches);
                const auto all_hash = configHashes(all.launches);
                for (size_t i = 0; i < all.launches.size(); ++i) {
                    const Launch a = all.launches[i];
                    const Launch o = one->launches[i];
                    ASSERT_EQ(o.launchId, a.launchId);
                    ASSERT_EQ(one_hash[one->launches.configIndex(i)],
                              all_hash[all.launches.configIndex(i)])
                        << all.name << " launch " << i;
                    ASSERT_EQ(o.config.tensorDims, a.config.tensorDims)
                        << all.name << " launch " << i;
                }
            }
        }
    }
}

TEST(Suites, MlperfStreamsStoreEachConfigurationOnce)
{
    GenOptions g;
    g.mlperfScale = 0.1;
    auto ssd = buildWorkload("ssd_training", g);
    auto bert = buildWorkload("bert_inference", g);
    ASSERT_TRUE(ssd && bert);
    EXPECT_EQ(ssd->launches.size(), 529938u);
    EXPECT_EQ(ssd->launches.configs().size(), 55u);
    EXPECT_EQ(bert->launches.size(), 249984u);
    EXPECT_EQ(bert->launches.configs().size(), 1792u);
}

TEST(Suites, MlperfScaleAboveCapPanics)
{
    GenOptions g;
    g.mlperfScale = kMaxMlperfScale * 1.01;
    EXPECT_DEATH(buildWorkload("ssd_training", g), "MLPerf scale");
}

TEST(Detail, StableHashIsStable)
{
    EXPECT_EQ(detail::stableHash("abc"), detail::stableHash("abc"));
    EXPECT_NE(detail::stableHash("abc"), detail::stableHash("abd"));
    // Regression-pin the FNV-1a value so it never drifts across builds.
    EXPECT_EQ(detail::stableHash(""), 1469598103934665603ULL);
}

/** Every workload must be launchable: positive sizes, valid programs. */
class AllWorkloadsValid : public ::testing::TestWithParam<int>
{
};

TEST_P(AllWorkloadsValid, StructurallySound)
{
    static auto all = allWorkloads();
    const Workload &w = all[GetParam()];
    EXPECT_FALSE(w.launches.empty());
    for (const auto &k : w.launches) {
        ASSERT_NE(k.config.program, nullptr);
        EXPECT_GT(k.config.numCtas(), 0u);
        EXPECT_GT(k.config.threadsPerCta(), 0u);
        EXPECT_LE(k.config.threadsPerCta(), 1024u);
        EXPECT_GE(k.config.iterations, 1u);
        EXPECT_GE(k.config.ctaWorkCv, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Registry, AllWorkloadsValid,
                         ::testing::Range(0, 147));
