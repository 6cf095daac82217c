#include "core/two_level.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <limits>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "common/logging.hh"
#include "core/features.hh"
#include "ml/gaussian_nb.hh"
#include "ml/mlp_classifier.hh"
#include "ml/pca.hh"
#include "ml/scaler.hh"
#include "ml/sgd_classifier.hh"

namespace pka::core
{

using silicon::DetailedProfile;
using silicon::LightProfile;

namespace
{

/** Bit image of a raw light-feature row; equal keys mean every model
 *  sees exactly the same input. */
using LightRowKey = std::array<uint64_t, kLightFeatureCount>;

struct LightRowKeyHash
{
    size_t
    operator()(const LightRowKey &k) const noexcept
    {
        return std::hash<std::string_view>{}(std::string_view(
            reinterpret_cast<const char *>(k.data()), sizeof(k)));
    }
};

LightRowKey
lightRowKey(const std::vector<double> &raw)
{
    LightRowKey k;
    for (size_t c = 0; c < kLightFeatureCount; ++c)
        k[c] = std::bit_cast<uint64_t>(raw[c]);
    return k;
}

/** The ensemble's decision on one distinct light row. */
struct RowDecision
{
    uint32_t label = 0; ///< final label, after any fallback
    std::array<uint32_t, 3> votes{};
    double confidence = 0.0; ///< mean winning-label probability
    bool unanimous = false;
    bool abstained = false; ///< the gate fired; label is the fallback's
};

} // namespace

TwoLevelResult
twoLevelSelection(const std::vector<DetailedProfile> &detailed,
                  const std::vector<LightProfile> &light,
                  const TwoLevelOptions &options)
{
    PKA_ASSERT(!detailed.empty(), "two-level needs a detailed prefix");
    PKA_ASSERT(light.size() >= detailed.size(),
               "light profiles must cover the whole stream");

    TwoLevelResult res;
    res.detailedCount = detailed.size();
    res.prefixSelection = principalKernelSelection(detailed, options.pks);
    res.groups = res.prefixSelection.groups;
    const uint32_t num_groups =
        static_cast<uint32_t>(res.groups.size());

    // Index detailed-prefix labels by position (labels are per profile,
    // but the PksResult's label values index clusters pre-compaction; map
    // through group membership instead).
    std::vector<uint32_t> prefix_labels(detailed.size(), 0);
    {
        std::vector<int32_t> by_launch;
        for (uint32_t g = 0; g < num_groups; ++g)
            for (uint32_t m : res.groups[g].members) {
                if (m >= by_launch.size())
                    by_launch.resize(m + 1, -1);
                by_launch[m] = static_cast<int32_t>(g);
            }
        for (size_t i = 0; i < detailed.size(); ++i) {
            int32_t g = detailed[i].launchId < by_launch.size()
                            ? by_launch[detailed[i].launchId]
                            : -1;
            PKA_ASSERT(g >= 0, "detailed profile missing from groups");
            prefix_labels[i] = static_cast<uint32_t>(g);
        }
    }

    // Profiles are matched to the stream by launch id, so a screened
    // (gappy) prefix is legal: uncovered launches are classified below.
    res.labels.assign(light.size(), 0);
    std::vector<uint8_t> covered(light.size(), 0);
    for (size_t i = 0; i < detailed.size(); ++i) {
        uint32_t id = detailed[i].launchId;
        PKA_ASSERT(id < light.size(),
                   "detailed launch id outside the light stream");
        res.labels[id] = prefix_labels[i];
        covered[id] = 1;
    }
    size_t uncovered = 0;
    for (uint8_t c : covered)
        uncovered += c ? 0 : 1;

    if (uncovered == 0 || num_groups == 1) {
        // Nothing to classify, or a single group absorbs everything.
        for (size_t i = 0; i < light.size(); ++i) {
            if (covered[i])
                continue;
            res.labels[i] = 0;
            res.groups[0].members.push_back(light[i].launchId);
            res.groups[0].weight += 1.0;
        }
        return res;
    }

    // Train the ensemble on the prefix's light features.
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

    // Abstention fallback: nearest group centroid in a PCA space over
    // the training prefix. Fit lazily — the gate is off by default and
    // most streams never abstain.
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

    // Classify one distinct raw row: ensemble vote, then the gate.
    auto classify = [&](const std::vector<double> &raw) {
        RowDecision d;
        ml::Matrix x = scaler.transform(ml::Matrix::fromRows({raw}));
        std::array<std::vector<double>, 3> probas;
        for (size_t mi = 0; mi < models.size(); ++mi) {
            d.votes[mi] = models[mi]->predict(x.row(0));
            probas[mi] = models[mi]->predictProba(x.row(0));
        }
        uint32_t label = ml::majorityVote(d.votes);
        d.confidence =
            (probas[0][label] + probas[1][label] + probas[2][label]) / 3.0;
        d.unanimous = d.votes[0] == d.votes[1] && d.votes[1] == d.votes[2];

        if (options.abstainThreshold > 0.0 &&
            d.confidence < options.abstainThreshold) {
            d.abstained = true;
            ensureFallback();
            ml::Matrix p = fallback_pca.transform(x, fallback_ncomp);
            uint32_t best_g = 0;
            double best_d2 = std::numeric_limits<double>::max();
            for (uint32_t g = 0; g < num_groups; ++g) {
                if (!(fallback_counts[g] > 0))
                    continue;
                double d2 = ml::squaredDistance(
                    p.row(0), fallback_centroids.row(g));
                if (d2 < best_d2) { // strict <: ties keep the lowest id
                    best_d2 = d2;
                    best_g = g;
                }
            }
            label = best_g;
        }
        d.label = label;
        return d;
    };

    // The scaler, each model and the fallback are pure functions of the
    // raw row, so each distinct row is classified once, at its first
    // launch. The tallies still run per launch in launch order, which
    // keeps the confidence sum bit-identical. The memo is only probed,
    // never iterated.
    std::unordered_map<LightRowKey, RowDecision, LightRowKeyHash> decided;
    size_t unanimous = 0;
    size_t classified = 0;
    double confidence_sum = 0.0;
    std::array<size_t, 3> disagreements{};
    for (size_t i = 0; i < light.size(); ++i) {
        if (covered[i])
            continue;
        auto raw = lightFeatureVector(light[i]);
        auto [it, fresh] = decided.try_emplace(lightRowKey(raw));
        if (fresh)
            it->second = classify(raw);
        const RowDecision &d = it->second;
        if (d.unanimous)
            ++unanimous;
        ++classified;
        confidence_sum += d.confidence;
        if (d.abstained) {
            ++res.abstentions;
            ++res.fallbackMapped;
        }
        for (size_t mi = 0; mi < d.votes.size(); ++mi)
            if (d.votes[mi] != d.label)
                ++disagreements[mi];

        res.labels[i] = d.label;
        res.groups[d.label].members.push_back(light[i].launchId);
        res.groups[d.label].weight += 1.0;
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

common::Expected<TwoLevelResult>
twoLevelSelectionChecked(std::vector<DetailedProfile> detailed,
                         std::vector<LightProfile> light,
                         const TwoLevelOptions &options)
{
    auto bad = [](const char *msg) {
        common::TaskError e;
        e.kind = common::ErrorKind::kBadInput;
        e.message = msg;
        e.context = "twoLevelSelection";
        return e;
    };
    if (detailed.empty())
        return bad("two-level needs a detailed prefix");
    if (light.size() < detailed.size())
        return bad("light profiles must cover the whole stream");
    for (size_t i = 0; i < light.size(); ++i)
        if (light[i].launchId != i)
            return bad("light profile out of position (light[i] must be "
                       "launch i)");

    ProfileValidator validator(options.pks.validation);
    common::Expected<ValidationReport> drep =
        validator.screenDetailed(detailed);
    if (!drep.ok())
        return drep.error();
    if (detailed.empty())
        return bad("every detailed profile was excluded by validation");
    common::Expected<ValidationReport> lrep =
        validator.screenLight(light);
    if (!lrep.ok())
        return lrep.error();
    for (const auto &p : detailed)
        if (p.launchId >= light.size())
            return bad("detailed launch id outside the light stream");

    TwoLevelResult res = twoLevelSelection(detailed, light, options);
    res.prefixSelection.validation = drep.value();
    res.lightValidation = lrep.value();
    return res;
}

} // namespace pka::core
