/**
 * @file
 * Robustness-layer tests (suites are Robust-prefixed so CI can run
 * exactly this set under sanitizers with `ctest -R Robust`): profile
 * validation and repair, checked selection entry points, confidence-
 * gated two-level classification, bootstrap stability diagnostics, and
 * a deterministic adversarial-profile fuzz sweep through the whole
 * PKS/two-level pipeline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/rng.hh"
#include "core/baselines.hh"
#include "core/features.hh"
#include "core/pka.hh"
#include "core/profile_validator.hh"
#include "core/stability.hh"
#include "core/two_level.hh"
#include "ml/gaussian_nb.hh"
#include "ml/mlp_classifier.hh"
#include "ml/pca.hh"
#include "ml/scaler.hh"
#include "ml/sgd_classifier.hh"
#include "silicon/profiler.hh"
#include "silicon/silicon_gpu.hh"
#include "workload/suites.hh"

using namespace pka;
using namespace pka::core;

namespace
{

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

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

/** Light profiles matching twoFamilies' alternating name pattern. */
std::vector<silicon::LightProfile>
alternatingLight(size_t n)
{
    std::vector<silicon::LightProfile> light(n);
    for (size_t i = 0; i < n; ++i) {
        light[i].launchId = static_cast<uint32_t>(i);
        light[i].kernelName = (i % 2 == 0) ? "alpha" : "beta";
        light[i].grid = {(i % 2 == 0) ? 16u : 256u, 1, 1};
        light[i].block = {256, 1, 1};
    }
    return light;
}

} // namespace

TEST(RobustValidator, CleanInputPassesThroughUntouched)
{
    auto ps = twoFamilies(10);
    auto before = ps;
    ProfileValidator v;
    auto rep = v.screenDetailed(ps);
    ASSERT_TRUE(rep.ok());
    EXPECT_TRUE(rep.value().clean());
    EXPECT_EQ(rep.value().inspected, 20u);
    EXPECT_DOUBLE_EQ(rep.value().reweightFactor, 1.0);
    ASSERT_EQ(ps.size(), before.size());
    for (size_t i = 0; i < ps.size(); ++i)
        EXPECT_EQ(ps[i].metrics.toArray(), before[i].metrics.toArray());
}

TEST(RobustValidator, RepairsNegativeCountersAndDivergence)
{
    auto ps = twoFamilies(5);
    ps[2].metrics.threadGlobalLoads = -50.0;
    ps[4].metrics.divergenceEff = 95.0;
    ps[5].metrics.divergenceEff = 0.25;
    ProfileValidator v;
    auto rep = v.screenDetailed(ps);
    ASSERT_TRUE(rep.ok());
    EXPECT_EQ(rep.value().repairedValues, 3u);
    EXPECT_TRUE(rep.value().excludedLaunchIds.empty());
    EXPECT_DOUBLE_EQ(ps[2].metrics.threadGlobalLoads, 0.0);
    EXPECT_DOUBLE_EQ(ps[4].metrics.divergenceEff, 32.0);
    EXPECT_DOUBLE_EQ(ps[5].metrics.divergenceEff, 1.0);
}

TEST(RobustValidator, ExcludesNonFiniteLaunchesAndReweights)
{
    auto ps = twoFamilies(5); // 10 profiles
    ps[3].metrics.instructions = kNan;
    ps[7].metrics.coalescedGlobalLoads = kInf;
    uint32_t id3 = ps[3].launchId, id7 = ps[7].launchId;
    ProfileValidator v;
    auto rep = v.screenDetailed(ps);
    ASSERT_TRUE(rep.ok());
    EXPECT_EQ(ps.size(), 8u);
    ASSERT_EQ(rep.value().excludedLaunchIds.size(), 2u);
    EXPECT_EQ(rep.value().excludedLaunchIds[0], id3);
    EXPECT_EQ(rep.value().excludedLaunchIds[1], id7);
    EXPECT_DOUBLE_EQ(rep.value().reweightFactor, 10.0 / 8.0);
    for (const auto &p : ps)
        for (double x : p.metrics.toArray())
            EXPECT_TRUE(std::isfinite(x));
}

TEST(RobustValidator, StrictRejectsWithoutMutating)
{
    auto ps = twoFamilies(3);
    ps[1].metrics.threadSharedLoads = kNan;
    auto before = ps;
    ProfileValidator v(ValidationPolicy::kStrict);
    auto rep = v.screenDetailed(ps);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.error().kind, common::ErrorKind::kBadInput);
    EXPECT_NE(rep.error().message.find("non-finite"), std::string::npos);
    ASSERT_EQ(ps.size(), before.size());
    for (size_t i = 0; i < ps.size(); ++i)
        EXPECT_EQ(ps[i].kernelName, before[i].kernelName);
}

TEST(RobustValidator, ZeroVarianceFeaturesAreFlagged)
{
    auto ps = twoFamilies(5);
    ProfileValidator v;
    auto rep = v.screenDetailed(ps);
    ASSERT_TRUE(rep.ok());
    // divergenceEff (10) and numCtas (11) are constant in twoFamilies;
    // so are the never-set counters.
    const auto &zv = rep.value().zeroVarianceFeatures;
    EXPECT_NE(std::find(zv.begin(), zv.end(), 10u), zv.end());
    EXPECT_NE(std::find(zv.begin(), zv.end(), 11u), zv.end());
    // Instructions (9) varies.
    EXPECT_EQ(std::find(zv.begin(), zv.end(), 9u), zv.end());
}

TEST(RobustValidator, LightTensorOverflowIsDropped)
{
    std::vector<silicon::LightProfile> light(3);
    for (auto &l : light) {
        l.kernelName = "k";
        l.grid = {8, 1, 1};
        l.block = {64, 1, 1};
    }
    // ~40 dims of 4e9 each overflows a double's exponent range.
    light[1].tensorDims.assign(40, 4000000000u);
    ProfileValidator v;
    auto rep = v.screenLight(light);
    ASSERT_TRUE(rep.ok());
    EXPECT_EQ(rep.value().repairedValues, 1u);
    EXPECT_TRUE(light[1].tensorDims.empty());
    EXPECT_EQ(light.size(), 3u); // never dropped, only repaired

    ProfileValidator strict(ValidationPolicy::kStrict);
    light[1].tensorDims.assign(40, 4000000000u);
    auto srep = strict.screenLight(light);
    ASSERT_FALSE(srep.ok());
    EXPECT_EQ(srep.error().kind, common::ErrorKind::kBadInput);
}

TEST(RobustPks, CheckedMatchesUncheckedOnCleanInput)
{
    auto ps = twoFamilies(40);
    PksResult plain = principalKernelSelection(ps);
    auto checked = principalKernelSelectionChecked(ps);
    ASSERT_TRUE(checked.ok());
    const PksResult &c = checked.value();
    EXPECT_EQ(c.chosenK, plain.chosenK);
    EXPECT_EQ(c.labels, plain.labels);
    EXPECT_EQ(c.projectedCycles, plain.projectedCycles);
    EXPECT_EQ(c.profiledCycles, plain.profiledCycles);
    ASSERT_EQ(c.groups.size(), plain.groups.size());
    for (size_t g = 0; g < c.groups.size(); ++g) {
        EXPECT_EQ(c.groups[g].members, plain.groups[g].members);
        EXPECT_EQ(c.groups[g].weight, plain.groups[g].weight);
        EXPECT_EQ(c.groups[g].representative,
                  plain.groups[g].representative);
    }
    EXPECT_TRUE(c.validation.clean());
}

TEST(RobustPks, ExclusionReweightsTheProjection)
{
    auto ps = twoFamilies(25); // 50 profiles
    ps[10].metrics.instructions = kNan;
    ps[11].metrics.threadGlobalLoads = kInf;
    auto checked = principalKernelSelectionChecked(ps);
    ASSERT_TRUE(checked.ok());
    const PksResult &c = checked.value();
    EXPECT_EQ(c.validation.excludedLaunchIds.size(), 2u);
    double total_weight = 0.0;
    for (const auto &g : c.groups)
        total_weight += g.weight;
    // Survivor weights scaled back up to the full stream size.
    EXPECT_NEAR(total_weight, 50.0, 1e-9);
    EXPECT_TRUE(std::isfinite(c.projectedCycles));
    EXPECT_GT(c.projectedCycles, 0.0);
}

TEST(RobustPks, AllExcludedIsATypedError)
{
    auto ps = twoFamilies(2);
    for (auto &p : ps)
        p.metrics.instructions = kNan;
    auto checked = principalKernelSelectionChecked(ps);
    ASSERT_FALSE(checked.ok());
    EXPECT_EQ(checked.error().kind, common::ErrorKind::kBadInput);

    auto empty = principalKernelSelectionChecked({});
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.error().kind, common::ErrorKind::kBadInput);
}

TEST(RobustTwoLevel, CheckedMatchesUncheckedOnCleanInput)
{
    auto prefix = twoFamilies(40);
    auto light = alternatingLight(200);
    TwoLevelOptions o;
    o.detailedKernels = 80;
    TwoLevelResult plain = twoLevelSelection(prefix, light, o);
    auto checked = twoLevelSelectionChecked(prefix, light, o);
    ASSERT_TRUE(checked.ok());
    const TwoLevelResult &c = checked.value();
    EXPECT_EQ(c.labels, plain.labels);
    ASSERT_EQ(c.groups.size(), plain.groups.size());
    for (size_t g = 0; g < c.groups.size(); ++g)
        EXPECT_EQ(c.groups[g].members, plain.groups[g].members);
    EXPECT_DOUBLE_EQ(c.ensembleUnanimity, plain.ensembleUnanimity);
    EXPECT_EQ(c.abstentions, 0u);
}

TEST(RobustTwoLevel, ExcludedPrefixLaunchIsClassifiedNotLost)
{
    auto prefix = twoFamilies(40);
    prefix[6].metrics.instructions = kNan; // launch id 12
    auto light = alternatingLight(200);
    auto checked = twoLevelSelectionChecked(prefix, light, {});
    ASSERT_TRUE(checked.ok());
    const TwoLevelResult &c = checked.value();
    EXPECT_EQ(c.prefixSelection.validation.excludedLaunchIds.size(), 1u);
    EXPECT_EQ(c.detailedCount, 79u);
    // Launch conservation: every launch lands in exactly one group.
    double total = 0.0;
    for (const auto &g : c.groups)
        total += g.weight;
    EXPECT_DOUBLE_EQ(total, 200.0);
    EXPECT_EQ(c.labels.size(), 200u);
}

TEST(RobustTwoLevel, ConfidenceStatsAreSane)
{
    auto prefix = twoFamilies(40);
    auto light = alternatingLight(200);
    TwoLevelOptions o;
    o.detailedKernels = 80;
    TwoLevelResult res = twoLevelSelection(prefix, light, o);
    EXPECT_GE(res.meanEnsembleConfidence, 0.0);
    EXPECT_LE(res.meanEnsembleConfidence, 1.0 + 1e-12);
    for (double d : res.perModelDisagreement) {
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 1.0);
    }
}

TEST(RobustTwoLevel, AbstainGateFallsBackDeterministically)
{
    auto prefix = twoFamilies(40);
    auto light = alternatingLight(200);
    TwoLevelOptions o;
    o.detailedKernels = 80;
    o.abstainThreshold = 1.0; // abstain unless the ensemble is certain
    TwoLevelResult a = twoLevelSelection(prefix, light, o);
    TwoLevelResult b = twoLevelSelection(prefix, light, o);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.abstentions, b.abstentions);
    EXPECT_EQ(a.abstentions, a.fallbackMapped);
    // Launch conservation still holds under heavy abstention.
    double total = 0.0;
    for (const auto &g : a.groups)
        total += g.weight;
    EXPECT_DOUBLE_EQ(total, 200.0);
}

TEST(RobustTwoLevel, GateOffIsBitIdenticalToLegacyVote)
{
    auto prefix = twoFamilies(40);
    auto light = alternatingLight(200);
    TwoLevelOptions off;
    off.detailedKernels = 80;
    off.abstainThreshold = 0.0;
    TwoLevelOptions legacy;
    legacy.detailedKernels = 80;
    TwoLevelResult a = twoLevelSelection(prefix, light, off);
    TwoLevelResult b = twoLevelSelection(prefix, light, legacy);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.abstentions, 0u);
}

TEST(RobustTwoLevel, RejectsLightIdsOutOfPosition)
{
    auto prefix = twoFamilies(40);
    auto expectRejected = [&](std::vector<silicon::LightProfile> light,
                              const char *what) {
        auto checked = twoLevelSelectionChecked(prefix, std::move(light));
        ASSERT_FALSE(checked.ok()) << what;
        EXPECT_EQ(checked.error().kind, common::ErrorKind::kBadInput)
            << what;
        EXPECT_EQ(checked.error().context, "twoLevelSelection") << what;
    };

    auto out_of_range = alternatingLight(200);
    out_of_range[70].launchId = 1000000;
    expectRejected(out_of_range, "out-of-range id");

    auto swapped = alternatingLight(200);
    std::swap(swapped[120], swapped[121]);
    expectRejected(swapped, "swapped pair");

    auto duplicate = alternatingLight(200);
    duplicate[80].launchId = 81;
    expectRejected(duplicate, "duplicate id");

    ASSERT_TRUE(twoLevelSelectionChecked(prefix, alternatingLight(200)).ok());
}

namespace
{

/** Two-level classification as a per-launch loop: the reference the
 *  distinct-row memo must match bit for bit. */
struct PerLaunchOracle
{
    std::vector<KernelGroup> groups;
    std::vector<uint32_t> labels;
    std::vector<double> confidences; // per classified launch, in order
    double ensembleUnanimity = 1.0;
    double meanEnsembleConfidence = 1.0;
    std::array<double, 3> perModelDisagreement{};
    size_t abstentions = 0;
    size_t fallbackMapped = 0;
};

/**
 * Scale, vote and gate every launch on its own, the way two-level
 * selection did before it memoized distinct rows. The scaler and the
 * three models are refit from `prefix`'s groups; fitting is
 * deterministic, so they are the models the stage used.
 */
PerLaunchOracle
perLaunchOracle(const std::vector<silicon::DetailedProfile> &detailed,
                const std::vector<silicon::LightProfile> &light,
                const PksResult &prefix, const TwoLevelOptions &options)
{
    PerLaunchOracle res;
    res.groups = prefix.groups;
    const uint32_t num_groups = static_cast<uint32_t>(res.groups.size());

    std::vector<uint32_t> prefix_labels(detailed.size(), 0);
    {
        std::vector<int32_t> by_launch;
        for (uint32_t g = 0; g < num_groups; ++g)
            for (uint32_t m : res.groups[g].members) {
                if (m >= by_launch.size())
                    by_launch.resize(m + 1, -1);
                by_launch[m] = static_cast<int32_t>(g);
            }
        for (size_t i = 0; i < detailed.size(); ++i)
            prefix_labels[i] =
                static_cast<uint32_t>(by_launch[detailed[i].launchId]);
    }

    res.labels.assign(light.size(), 0);
    std::vector<uint8_t> covered(light.size(), 0);
    for (size_t i = 0; i < detailed.size(); ++i) {
        res.labels[detailed[i].launchId] = prefix_labels[i];
        covered[detailed[i].launchId] = 1;
    }
    size_t uncovered = 0;
    for (uint8_t c : covered)
        uncovered += c ? 0 : 1;

    if (uncovered == 0 || num_groups == 1) {
        for (size_t i = 0; i < light.size(); ++i) {
            if (covered[i])
                continue;
            res.labels[i] = 0;
            res.groups[0].members.push_back(light[i].launchId);
            res.groups[0].weight += 1.0;
        }
        return res;
    }

    ml::Matrix train_raw(detailed.size(), kLightFeatureCount);
    for (size_t i = 0; i < detailed.size(); ++i) {
        auto v = lightFeatureVector(light[detailed[i].launchId]);
        for (size_t c = 0; c < kLightFeatureCount; ++c)
            train_raw.at(i, c) = v[c];
    }
    ml::StandardScaler scaler;
    ml::Matrix train = scaler.fitTransform(train_raw);

    std::array<std::unique_ptr<ml::Classifier>, 3> models = {
        std::make_unique<ml::SgdClassifier>(),
        std::make_unique<ml::GaussianNb>(),
        std::make_unique<ml::MlpClassifier>(),
    };
    for (auto &m : models)
        m->fit(train, prefix_labels, num_groups);

    bool fallback_ready = false;
    ml::Pca fallback_pca;
    size_t fallback_ncomp = 0;
    ml::Matrix fallback_centroids;
    std::vector<double> fallback_counts;
    auto ensureFallback = [&]() {
        if (fallback_ready)
            return;
        fallback_ready = true;
        fallback_pca.fit(train);
        fallback_ncomp =
            fallback_pca.componentsForVariance(options.pks.pcaVariance);
        ml::Matrix P = fallback_pca.transform(train, fallback_ncomp);
        fallback_centroids = ml::Matrix(num_groups, fallback_ncomp);
        fallback_counts.assign(num_groups, 0.0);
        for (size_t i = 0; i < detailed.size(); ++i) {
            uint32_t g = prefix_labels[i];
            fallback_counts[g] += 1.0;
            for (size_t c = 0; c < fallback_ncomp; ++c)
                fallback_centroids.at(g, c) += P.at(i, c);
        }
        for (uint32_t g = 0; g < num_groups; ++g)
            if (fallback_counts[g] > 0)
                for (size_t c = 0; c < fallback_ncomp; ++c)
                    fallback_centroids.at(g, c) /= fallback_counts[g];
    };

    size_t unanimous = 0;
    size_t classified = 0;
    double confidence_sum = 0.0;
    std::array<size_t, 3> disagreements{};
    for (size_t i = 0; i < light.size(); ++i) {
        if (covered[i])
            continue;
        auto raw = lightFeatureVector(light[i]);
        ml::Matrix one = ml::Matrix::fromRows({raw});
        ml::Matrix x = scaler.transform(one);
        std::array<uint32_t, 3> votes;
        std::array<std::vector<double>, 3> probas;
        for (size_t mi = 0; mi < models.size(); ++mi) {
            votes[mi] = models[mi]->predict(x.row(0));
            probas[mi] = models[mi]->predictProba(x.row(0));
        }
        uint32_t label = ml::majorityVote(votes);
        double confidence =
            (probas[0][label] + probas[1][label] + probas[2][label]) / 3.0;
        if (votes[0] == votes[1] && votes[1] == votes[2])
            ++unanimous;
        ++classified;
        confidence_sum += confidence;
        res.confidences.push_back(confidence);

        if (options.abstainThreshold > 0.0 &&
            confidence < options.abstainThreshold) {
            ++res.abstentions;
            ensureFallback();
            ml::Matrix p = fallback_pca.transform(x, fallback_ncomp);
            uint32_t best_g = 0;
            double best_d2 = std::numeric_limits<double>::max();
            for (uint32_t g = 0; g < num_groups; ++g) {
                if (!(fallback_counts[g] > 0))
                    continue;
                double d2 = ml::squaredDistance(
                    p.row(0), fallback_centroids.row(g));
                if (d2 < best_d2) {
                    best_d2 = d2;
                    best_g = g;
                }
            }
            label = best_g;
            ++res.fallbackMapped;
        }
        for (size_t mi = 0; mi < votes.size(); ++mi)
            if (votes[mi] != label)
                ++disagreements[mi];

        res.labels[i] = label;
        res.groups[label].members.push_back(light[i].launchId);
        res.groups[label].weight += 1.0;
    }
    const double denom =
        classified > 0 ? static_cast<double>(classified) : 1.0;
    res.ensembleUnanimity =
        classified > 0 ? static_cast<double>(unanimous) / denom : 1.0;
    res.meanEnsembleConfidence =
        classified > 0 ? confidence_sum / denom : 1.0;
    for (size_t mi = 0; mi < disagreements.size(); ++mi)
        res.perModelDisagreement[mi] =
            static_cast<double>(disagreements[mi]) / denom;
    return res;
}

/** Run the stage and its oracle on one input; EXPECT exact equality. */
PerLaunchOracle
expectMatchesOracle(const std::vector<silicon::DetailedProfile> &detailed,
                    const std::vector<silicon::LightProfile> &light,
                    const TwoLevelOptions &o)
{
    TwoLevelResult res = twoLevelSelection(detailed, light, o);
    PerLaunchOracle want =
        perLaunchOracle(detailed, light, res.prefixSelection, o);
    EXPECT_EQ(res.labels, want.labels);
    EXPECT_EQ(res.groups.size(), want.groups.size());
    for (size_t g = 0; g < std::min(res.groups.size(), want.groups.size());
         ++g) {
        EXPECT_EQ(res.groups[g].members, want.groups[g].members) << g;
        EXPECT_EQ(res.groups[g].weight, want.groups[g].weight) << g;
    }
    EXPECT_EQ(res.ensembleUnanimity, want.ensembleUnanimity);
    EXPECT_EQ(res.meanEnsembleConfidence, want.meanEnsembleConfidence);
    EXPECT_EQ(res.perModelDisagreement, want.perModelDisagreement);
    EXPECT_EQ(res.abstentions, want.abstentions);
    EXPECT_EQ(res.fallbackMapped, want.fallbackMapped);
    return want;
}

/**
 * Compare with the gate off, then with the gate at the median distinct
 * confidence, where some rows abstain and others do not.
 */
void
expectMatchesOracleGateOffAndOn(
    const std::vector<silicon::DetailedProfile> &detailed,
    const std::vector<silicon::LightProfile> &light, size_t prefix_size)
{
    TwoLevelOptions off;
    off.detailedKernels = prefix_size;
    PerLaunchOracle gate_off = expectMatchesOracle(detailed, light, off);
    EXPECT_EQ(gate_off.abstentions, 0u);
    ASSERT_FALSE(gate_off.confidences.empty());

    std::vector<double> distinct = gate_off.confidences;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    TwoLevelOptions on = off;
    on.abstainThreshold = distinct[distinct.size() / 2];
    PerLaunchOracle gate_on = expectMatchesOracle(detailed, light, on);
    EXPECT_GT(gate_on.abstentions, 0u);
    EXPECT_LT(gate_on.abstentions, gate_on.confidences.size());
}

} // namespace

TEST(RobustTwoLevel, DistinctRowsMatchPerLaunchOracle)
{
    // Light row shapes. Each commented row differs in exactly one raw
    // feature, or in the name embedding, from an earlier row: the alpha
    // rows and the name row from the first row, the beta rows from the
    // row above. A memo key that ignored any of these would merge two
    // rows that the models tell apart.
    struct Shape
    {
        const char *name;
        workload::Dim3 grid;
        uint32_t block;
        std::vector<uint32_t> dims;
    };
    const std::vector<Shape> shapes = {
        {"alpha", {16, 1, 1}, 256, {}},
        {"alpha", {256, 1, 1}, 256, {}},   // grid size
        {"alpha", {16, 1, 1}, 128, {}},    // block size
        {"alpha", {8, 2, 1}, 256, {}},     // grid shape
        {"beta", {256, 1, 1}, 256, {128}},
        {"beta", {256, 1, 1}, 256, {128, 1}}, // tensor rank
        {"beta", {256, 1, 1}, 256, {128, 2}}, // tensor size
        {"beta", {256, 1, 1}, 256, {2, 128}}, // leading dim
        {"gamma", {16, 1, 1}, 256, {}},       // name
    };
    auto shape = [&](silicon::LightProfile &l, const Shape &sh) {
        l.kernelName = sh.name;
        l.grid = sh.grid;
        l.block = {sh.block, 1, 1};
        l.tensorDims = sh.dims;
    };

    // Prefix: the two families, with alpha and beta launches cycling
    // through their shapes so that every feature varies in training.
    // Remainder: the shapes recur in a scrambled order, mixed with rows
    // that occur exactly once.
    auto prefix = twoFamilies(40);
    const size_t stream = 600;
    auto light = alternatingLight(stream);
    for (size_t i = 0; i < prefix.size(); ++i)
        shape(light[i], shapes[i % 2 == 0 ? (i / 2) % 4 : 4 + (i / 2) % 4]);
    common::Rng rng = common::Rng::forKey(0x2E7E, 18, 0);
    for (size_t i = prefix.size(); i < stream; ++i) {
        if (rng.uniform() < 0.2) {
            auto id = static_cast<uint32_t>(i);
            shape(light[i], {"once", {1 + id, 1, 1}, 64, {id, 64}});
            light[i].kernelName += std::to_string(i);
        } else {
            shape(light[i], shapes[rng.uniformInt(
                                static_cast<uint32_t>(shapes.size()))]);
        }
    }
    {
        SCOPED_TRACE("synthetic"); // gate on: 57 of 520 launches abstain
        expectMatchesOracleGateOffAndOn(prefix, light, prefix.size());
    }

    // Real streams at scale 0.01 with a 2000-launch prefix. Gate on,
    // 11,664 of ssd_training's 50,982 classified launches abstain, and
    // 11,868 of bert_inference's 22,960.
    silicon::SiliconGpu gpu(silicon::voltaV100());
    silicon::DetailedProfiler detailed(gpu);
    silicon::LightweightProfiler light_prof(gpu);
    workload::GenOptions gen;
    gen.mlperfScale = 0.01;
    for (const char *name : {"ssd_training", "bert_inference"}) {
        SCOPED_TRACE(name);
        auto w = workload::buildWorkload(name, gen);
        ASSERT_TRUE(w.has_value());
        expectMatchesOracleGateOffAndOn(detailed.profile(*w, 2000),
                                        light_prof.profile(*w), 2000);
    }
}

TEST(RobustStability, DeterministicAndWellFormed)
{
    auto ps = twoFamilies(30);
    PksResult baseline = principalKernelSelection(ps);
    StabilityOptions so;
    so.replicates = 8;
    StabilityReport a = selectionStability(ps, baseline, so);
    StabilityReport b = selectionStability(ps, baseline, so);
    EXPECT_EQ(a.replicates, 8u);
    EXPECT_EQ(a.meanProjectedCycles, b.meanProjectedCycles);
    EXPECT_EQ(a.ciLow, b.ciLow);
    EXPECT_EQ(a.ciHigh, b.ciHigh);
    EXPECT_LE(a.ciLow, a.ciHigh);
    EXPECT_EQ(a.groupStability, b.groupStability);
    for (double s : a.groupStability) {
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 1.0);
    }
    // Two crisply separated families should be highly stable.
    EXPECT_GT(a.meanStability, 0.9);
    // The replicate distribution should bracket the baseline loosely.
    EXPECT_GT(a.meanProjectedCycles, 0.0);
    EXPECT_TRUE(std::isfinite(a.stddevProjectedCycles));
}

TEST(RobustBaselines, TBPointCheckedTypedErrors)
{
    auto empty = tbpointSelectChecked({});
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.error().kind, common::ErrorKind::kBadInput);

    std::vector<TBPointKernelStats> stats(50);
    for (size_t i = 0; i < stats.size(); ++i) {
        stats[i].launchId = static_cast<uint32_t>(i);
        stats[i].cycles = 1000 + i;
        stats[i].ipc = 1.0;
    }
    TBPointOptions o;
    o.maxKernels = 10;
    auto guarded = tbpointSelectChecked(stats, o);
    ASSERT_FALSE(guarded.ok());
    EXPECT_EQ(guarded.error().kind, common::ErrorKind::kBadInput);
    EXPECT_NE(guarded.error().message.find("guardrail"),
              std::string::npos);
}

/**
 * Deterministic pipeline fuzz: inject NaN/Inf/negative poison into
 * otherwise-plausible profiles at escalating rates and drive the full
 * checked two-level pipeline. The pipeline must never crash, must keep
 * every launch accounted for, and must keep its outputs finite.
 */
class RobustFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RobustFuzz, AdversarialProfilesSurviveEndToEnd)
{
    const uint64_t seed = GetParam();
    common::Rng rng = common::Rng::forKey(seed, 0xF022, 0);
    const size_t stream = 160, prefix_n = 64;

    auto prefix = twoFamilies(static_cast<int>(prefix_n / 2));
    auto light = alternatingLight(stream);

    // Poison detailed counters: each profile has a 20% chance of one
    // corrupted cell (NaN, +/-Inf, or a negative).
    for (auto &p : prefix) {
        if (rng.uniform() >= 0.2)
            continue;
        double *cells[] = {&p.metrics.instructions,
                           &p.metrics.threadGlobalLoads,
                           &p.metrics.coalescedGlobalLoads,
                           &p.metrics.divergenceEff};
        double *c = cells[rng.uniformInt(4)];
        switch (rng.uniformInt(4)) {
          case 0: *c = kNan; break;
          case 1: *c = kInf; break;
          case 2: *c = -kInf; break;
          default: *c = -1e9; break;
        }
    }
    // Poison light annotations: oversized tensor-dims lists.
    for (auto &l : light)
        if (rng.uniform() < 0.1)
            l.tensorDims.assign(50, 4000000000u);

    auto checked = twoLevelSelectionChecked(prefix, light, {});
    ASSERT_TRUE(checked.ok()) << checked.error().str();
    const TwoLevelResult &res = checked.value();

    double total = 0.0;
    for (const auto &g : res.groups) {
        total += g.weight;
        EXPECT_TRUE(std::isfinite(g.weight));
        for (uint32_t m : g.members)
            EXPECT_LT(m, stream);
    }
    EXPECT_DOUBLE_EQ(total, static_cast<double>(stream));
    EXPECT_EQ(res.labels.size(), stream);
    for (uint32_t l : res.labels)
        EXPECT_LT(l, res.groups.size());

    // Determinism: the same poison gives the same grouping.
    auto again = twoLevelSelectionChecked(prefix, light, {});
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().labels, res.labels);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RobustFuzz,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u));
