/**
 * @file
 * Two-level profiling (Section 3.1, Figure 3): detailed profiles for the
 * first j launches define the groups via PKS; the remaining launches, seen
 * only through lightweight profiling, are mapped into those groups by an
 * ensemble of classifiers (SGD logistic regression, Gaussian Naive Bayes,
 * MLP) voting by majority.
 *
 * The vote can be confidence-gated: with abstainThreshold > 0 the
 * ensemble abstains on launches whose mean winning-class probability
 * falls below the threshold, and abstained launches fall back to the
 * nearest group centroid in a PCA space fit over the training prefix's
 * light features — a geometric assignment that cannot hallucinate a
 * confident-looking wrong vote. The default threshold of 0 disables the
 * gate, keeping the classic majority-vote path bit-identical.
 *
 * Classification runs once per distinct raw light-feature row, not once
 * per launch: MLPerf streams are almost all repeats (ssd_training has 55
 * distinct rows in 530k launches at scale 0.1). This is exact, because
 * the scaler, each model's vote and probabilities, and the fallback are
 * pure functions of the row, keyed bitwise. The memo holds O(distinct
 * rows) decisions and is only probed, never iterated; labels, members,
 * weights and the confidence/unanimity/disagreement tallies are still
 * accumulated per launch in launch order, so every output is
 * bit-identical to classifying each launch on its own.
 */

#ifndef PKA_CORE_TWO_LEVEL_HH
#define PKA_CORE_TWO_LEVEL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/error.hh"
#include "core/pks.hh"
#include "core/profile_validator.hh"
#include "silicon/profiler.hh"

namespace pka::core
{

/** Two-level profiling options. */
struct TwoLevelOptions
{
    /** Number of launches profiled in detail (the paper uses ~20k of
     *  SSD training's 5.3M; scaled workloads use proportionally fewer). */
    size_t detailedKernels = 2000;

    /** Selection options applied to the detailed prefix. */
    PksOptions pks;

    /**
     * Ensemble confidence gate in [0, 1]: abstain when the mean (over
     * models) probability of the winning label is below this. 0 (the
     * default) disables gating — every launch takes the majority vote.
     */
    double abstainThreshold = 0.0;
};

/** Output of two-level selection. */
struct TwoLevelResult
{
    /** Selection over the detailed prefix. */
    PksResult prefixSelection;

    /** Groups extended with the classified remainder (weights updated). */
    std::vector<KernelGroup> groups;

    /** Per-launch labels for the whole stream. */
    std::vector<uint32_t> labels;

    /** Launches profiled in detail (and surviving validation). */
    size_t detailedCount = 0;

    /** Fraction of classified launches where the ensemble was unanimous. */
    double ensembleUnanimity = 1.0;

    /** Launches where the gate fired (subset of classified launches). */
    size_t abstentions = 0;

    /** Abstained launches mapped by the PCA nearest-centroid fallback
     *  (== abstentions; kept separate so future fallbacks can differ). */
    size_t fallbackMapped = 0;

    /** Mean winning-label probability over classified launches. */
    double meanEnsembleConfidence = 1.0;

    /** Per-model fraction of classified launches where that model
     *  disagreed with the final label (order: SGD, GaussianNb, MLP). */
    std::array<double, 3> perModelDisagreement{};

    /** What validation repaired on the lightweight side (checked entry
     *  point only; detailed-side screening reports through
     *  prefixSelection.validation). */
    ValidationReport lightValidation;
};

/**
 * Map a full launch stream into groups using detailed profiles for the
 * prefix and lightweight profiles (with names/dims/tensor annotations)
 * for everything. Expects pre-screened input (see the checked variant).
 *
 * @param detailed detailed profiles of prefix launches; detailed[i]
 *        need not be launch i — profiles are matched to the stream by
 *        launchId, so a screened (gappy) prefix is legal. Launches
 *        without a detailed profile are classified from their light
 *        profile.
 * @param light lightweight profiles of ALL launches (chronological;
 *        light[i] is launch i)
 */
TwoLevelResult
twoLevelSelection(const std::vector<silicon::DetailedProfile> &detailed,
                  const std::vector<silicon::LightProfile> &light,
                  const TwoLevelOptions &options = {});

/**
 * twoLevelSelection with input screening (policy from
 * options.pks.validation). Detailed-prefix launches excluded by the
 * validator keep their position in the stream and are classified from
 * their light profiles like any post-prefix launch, so no launch is
 * dropped from the grouping. Errors (kBadInput): empty prefix, light
 * profiles not covering the stream, a light profile out of position
 * (light[i].launchId != i), every detailed profile excluded, or any
 * violation under ValidationPolicy::kStrict.
 */
common::Expected<TwoLevelResult>
twoLevelSelectionChecked(std::vector<silicon::DetailedProfile> detailed,
                         std::vector<silicon::LightProfile> light,
                         const TwoLevelOptions &options = {});

} // namespace pka::core

#endif // PKA_CORE_TWO_LEVEL_HH
