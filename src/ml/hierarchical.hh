/**
 * @file
 * Agglomerative (average-linkage) hierarchical clustering, used by the
 * TBPoint baseline. The dendrogram is built once and can then be cut at
 * any distance threshold, so TBPoint's 20-point threshold sweep costs one
 * clustering.
 *
 * buildDendrogram first collapses bitwise-identical rows onto their lowest
 * index (TBPoint inputs are mostly repeats: the engine memoizes identical
 * launches to identical stats), emitting their distance-0 merges, and
 * gives each of the m distinct rows its multiplicity as initial cluster
 * size. It then runs Müllner's nearest-neighbour chain ("Modern
 * hierarchical, agglomerative clustering algorithms", arXiv:1109.2378)
 * over a condensed table of m(m-1)/2 float distances, with the
 * Lance-Williams average update evaluated in double: O(m^2) time in every
 * case. When picking a chain element's nearest neighbour, ties go to the
 * previous chain element, then to the lowest index. That is still
 * quadratic in the distinct kernels — the scaling limitation the paper
 * contrasts K-Means against; a guardrail on all n rows makes the wall
 * explicit as a typed kBadInput error (library code never fatal()s — see
 * common/error.hh).
 */

#ifndef PKA_ML_HIERARCHICAL_HH
#define PKA_ML_HIERARCHICAL_HH

#include <cstdint>
#include <vector>

#include "common/error.hh"
#include "ml/matrix.hh"

namespace pka::ml
{

/**
 * One merge step: the clusters whose lowest sample indices are `a` < `b`
 * joined at `distance`.
 */
struct DendrogramMerge
{
    uint32_t a = 0;
    uint32_t b = 0;
    double distance = 0.0;
};

/** A full agglomeration history over n samples. */
struct Dendrogram
{
    size_t numSamples = 0;
    /// n-1 entries, sorted by non-decreasing distance
    std::vector<DendrogramMerge> merges;
};

/**
 * Build the full average-linkage dendrogram of X (Euclidean distances).
 * @param max_samples guardrail: a kBadInput error beyond it, mirroring
 *        the memory/runtime wall hierarchical clustering hits at MLPerf
 *        scale. Empty input is also a kBadInput error.
 */
common::Expected<Dendrogram> buildDendrogram(const Matrix &X,
                                             size_t max_samples = 20000);

/** Result of a threshold cut through the dendrogram. */
struct HierarchicalResult
{
    std::vector<uint32_t> labels; ///< cluster id per sample (compacted)
    uint32_t numClusters = 0;
};

/**
 * Cut a dendrogram: apply every merge with distance <= threshold and
 * compact the resulting cluster roots to labels 0..k-1 by first
 * appearance.
 */
HierarchicalResult cutDendrogram(const Dendrogram &d,
                                 double distance_threshold);

/** Convenience: buildDendrogram + cutDendrogram. */
common::Expected<HierarchicalResult>
agglomerativeCluster(const Matrix &X, double distance_threshold,
                     size_t max_samples = 20000);

} // namespace pka::ml

#endif // PKA_ML_HIERARCHICAL_HH
