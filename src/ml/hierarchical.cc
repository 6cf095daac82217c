#include "ml/hierarchical.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/logging.hh"

namespace pka::ml
{

namespace
{

constexpr float kInf = std::numeric_limits<float>::max();

/**
 * Condensed upper-triangle distance store over m points with float
 * precision: m(m-1)/2 entries, pair i < j at i(2m-i-1)/2 + (j-i-1).
 */
class CondensedDistances
{
  public:
    explicit CondensedDistances(size_t m) : m_(m), d_(m * (m - 1) / 2) {}

    float &
    at(size_t i, size_t j)
    {
        if (i > j)
            std::swap(i, j);
        return d_[i * (2 * m_ - i - 1) / 2 + (j - i - 1)];
    }

  private:
    size_t m_;
    std::vector<float> d_;
};

/** Per row: the lowest index of a row bitwise-identical to it. */
std::vector<uint32_t>
firstOccurrence(const Matrix &X)
{
    const size_t n = X.rows();
    const size_t bytes = X.cols() * sizeof(double);
    auto less = [&X, bytes](uint32_t a, uint32_t b) {
        return std::memcmp(X.row(a).data(), X.row(b).data(), bytes) < 0;
    };
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    // Stable: each run of equal rows starts at its lowest index.
    std::stable_sort(order.begin(), order.end(), less);
    std::vector<uint32_t> first(n);
    for (size_t k = 0; k < n; ++k) {
        uint32_t i = order[k];
        first[i] = k > 0 && !less(order[k - 1], i) ? first[order[k - 1]]
                                                   : i;
    }
    return first;
}

} // namespace

common::Expected<Dendrogram>
buildDendrogram(const Matrix &X, size_t max_samples)
{
    const size_t n = X.rows();
    if (n == 0) {
        common::TaskError e;
        e.kind = common::ErrorKind::kBadInput;
        e.message = "cannot cluster empty data";
        e.context = "buildDendrogram";
        return e;
    }
    if (n > max_samples) {
        common::TaskError e;
        e.kind = common::ErrorKind::kBadInput;
        e.message = pka::common::strfmt(
            "hierarchical clustering over %zu samples exceeds the %zu "
            "sample guardrail (this is the scaling wall TBPoint hits)",
            n, max_samples);
        e.context = "buildDendrogram";
        return e;
    }

    Dendrogram out;
    out.numSamples = n;
    if (n == 1)
        return out;
    out.merges.reserve(n - 1);

    // Collapse duplicates: each repeat merges into its first occurrence
    // at distance 0, and each distinct row enters the chain with its
    // multiplicity as cluster size. Exact, because the update below
    // averages equal distances back to the same float.
    const std::vector<uint32_t> first = firstOccurrence(X);
    std::vector<uint32_t> rep;  // sample index of each distinct row
    std::vector<double> size;   // its multiplicity
    std::vector<uint32_t> slot(n);
    for (size_t i = 0; i < n; ++i) {
        if (first[i] == i) {
            slot[i] = static_cast<uint32_t>(rep.size());
            rep.push_back(static_cast<uint32_t>(i));
            size.push_back(1.0);
        } else {
            out.merges.push_back(
                DendrogramMerge{first[i], static_cast<uint32_t>(i), 0.0});
            size[slot[first[i]]] += 1.0;
        }
    }

    const size_t m = rep.size();
    CondensedDistances dist(m);
    for (size_t i = 0; i < m; ++i)
        for (size_t j = i + 1; j < m; ++j)
            dist.at(i, j) = static_cast<float>(std::sqrt(
                squaredDistance(X.row(rep[i]), X.row(rep[j]))));

    // Nearest-neighbour chain: grow a chain of nearest neighbours until
    // its top two are reciprocal, then merge them. Average linkage is
    // reducible, so the chain below the merged pair stays valid.
    std::vector<uint32_t> active(m); // live cluster slots, ascending
    std::iota(active.begin(), active.end(), 0u);
    std::vector<uint32_t> chain;
    chain.reserve(m);
    while (active.size() > 1) {
        if (chain.empty())
            chain.push_back(active.front());
        uint32_t a = 0, b = 0;
        float d = kInf;
        for (;;) {
            a = chain.back();
            // Tie rule: the previous chain element, then the lowest index.
            const bool has_prev = chain.size() > 1;
            b = has_prev ? chain[chain.size() - 2] : a;
            d = has_prev ? dist.at(a, b) : kInf;
            for (uint32_t k : active) {
                if (k != a && dist.at(a, k) < d) {
                    d = dist.at(a, k);
                    b = k;
                }
            }
            PKA_ASSERT(b != a, "no mergeable pair found");
            if (has_prev && b == chain[chain.size() - 2])
                break;
            chain.push_back(b);
        }
        chain.resize(chain.size() - 2);
        if (a > b)
            std::swap(a, b);
        out.merges.push_back(
            DendrogramMerge{rep[a], rep[b], static_cast<double>(d)});

        // Lance-Williams average-linkage update, merging b into a.
        for (uint32_t k : active) {
            if (k == a || k == b)
                continue;
            dist.at(a, k) = static_cast<float>(
                (size[a] * dist.at(a, k) + size[b] * dist.at(b, k)) /
                (size[a] + size[b]));
        }
        size[a] += size[b];
        active.erase(std::lower_bound(active.begin(), active.end(), b));
    }

    std::stable_sort(out.merges.begin(), out.merges.end(),
                     [](const DendrogramMerge &x, const DendrogramMerge &y) {
                         return x.distance < y.distance;
                     });
    return out;
}

HierarchicalResult
cutDendrogram(const Dendrogram &d, double distance_threshold)
{
    const size_t n = d.numSamples;
    PKA_ASSERT(n > 0, "empty dendrogram");

    std::vector<uint32_t> parent(n);
    for (size_t i = 0; i < n; ++i)
        parent[i] = static_cast<uint32_t>(i);
    auto find = [&parent](uint32_t x) {
        while (parent[x] != x)
            x = parent[x] = parent[parent[x]];
        return x;
    };

    for (const auto &m : d.merges) {
        if (m.distance > distance_threshold)
            break; // merges are sorted by distance
        parent[find(m.b)] = find(m.a);
    }

    HierarchicalResult res;
    res.labels.resize(n);
    std::vector<int32_t> root_label(n, -1);
    uint32_t next = 0;
    for (size_t i = 0; i < n; ++i) {
        uint32_t r = find(static_cast<uint32_t>(i));
        if (root_label[r] < 0)
            root_label[r] = static_cast<int32_t>(next++);
        res.labels[i] = static_cast<uint32_t>(root_label[r]);
    }
    res.numClusters = next;
    return res;
}

common::Expected<HierarchicalResult>
agglomerativeCluster(const Matrix &X, double distance_threshold,
                     size_t max_samples)
{
    common::Expected<Dendrogram> d = buildDendrogram(X, max_samples);
    if (!d.ok())
        return d.error();
    return cutDendrogram(d.value(), distance_threshold);
}

} // namespace pka::ml
