/**
 * @file
 * Cross-cutting property sweeps over real registry workloads: selection
 * partitions, simulation conservation laws, silicon monotonicity and
 * trace-replay equivalence must hold for every workload shape the
 * generators produce, not just hand-picked cases.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "core/pks.hh"
#include "ml/kmeans.hh"
#include "ml/pca.hh"
#include "ml/scaler.hh"
#include "silicon/profiler.hh"
#include "silicon/silicon_gpu.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"
#include "workload/suites.hh"

using namespace pka;

namespace
{

const std::vector<std::string> &
sampleNames()
{
    // A spread across suites, structures and irregularity.
    static const std::vector<std::string> names = {
        "b+tree",     "bfs1MW",       "gauss_208",  "gauss_s16",
        "hstort_r",   "kmeans_28k",   "lud_256",    "nw",
        "srad_v2",    "cutcp",        "histo",      "spmv",
        "3dconvolution", "fdtd2d",    "gsummv",     "syrk",
        "sgemm_1024x1024x1024",       "wgemm_512x2048x512",
        "conv_inf_in3", "gemm_train_tc_in2", "rnn_inf_in5",
    };
    return names;
}

workload::Workload
get(const std::string &name)
{
    auto w = workload::buildWorkload(name);
    EXPECT_TRUE(w.has_value()) << name;
    return std::move(*w);
}

} // namespace

class WorkloadProperty : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadProperty, SelectionPartitionsTheLaunchStream)
{
    auto w = get(GetParam());
    silicon::SiliconGpu gpu(silicon::voltaV100());
    silicon::DetailedProfiler prof(gpu);
    auto res = core::principalKernelSelection(prof.profile(w));

    // Every launch appears in exactly one group; weights sum to n.
    std::set<uint32_t> seen;
    double weight = 0.0;
    for (const auto &g : res.groups) {
        EXPECT_FALSE(g.members.empty());
        weight += g.weight;
        EXPECT_DOUBLE_EQ(g.weight,
                         static_cast<double>(g.members.size()));
        for (uint32_t m : g.members) {
            EXPECT_TRUE(seen.insert(m).second)
                << "launch " << m << " in two groups";
            EXPECT_LT(m, w.launches.size());
        }
        // First-chronological representative by default.
        EXPECT_EQ(g.representative, g.members.front());
    }
    EXPECT_EQ(seen.size(), w.launches.size());
    EXPECT_DOUBLE_EQ(weight, static_cast<double>(w.launches.size()));
    // The K sweep honours the 5% target whenever it is achievable; it
    // never reports a *worse* grouping than it found.
    EXPECT_LT(res.projectedErrorPct, 100.0);
}

TEST_P(WorkloadProperty, SiliconMonotoneAcrossSmCounts)
{
    auto w = get(GetParam());
    silicon::SiliconGpu full(silicon::voltaV100());
    silicon::SiliconGpu half(
        silicon::withSmCount(silicon::voltaV100(), 40));
    // Halving the machine never makes the whole app materially faster
    // (latency-bound small grids may tip within ~1% from the model's
    // per-SM rounding, as on real parts).
    EXPECT_GE(static_cast<double>(half.run(w).totalCycles),
              static_cast<double>(full.run(w).totalCycles) * 0.98);
}

TEST_P(WorkloadProperty, SimulatorConservesWork)
{
    auto w = get(GetParam());
    sim::GpuSimulator s(silicon::voltaV100());
    // First and last launches: every CTA finishes and instruction
    // counts match the trace-resolved totals.
    for (size_t idx : {size_t{0}, w.launches.size() - 1}) {
        const auto &k = w.launches[idx];
        auto r = s.simulateKernel(k, w.seed);
        EXPECT_EQ(r.finishedCtas, r.totalCtas) << idx;
        sim::KernelTrace t = sim::captureTrace(k, w.seed);
        EXPECT_EQ(r.warpInstructions, t.warpInstructions(k.config)) << idx;
    }
}

TEST_P(WorkloadProperty, TraceReplayReproducesFirstKernel)
{
    auto w = get(GetParam());
    sim::GpuSimulator s(silicon::voltaV100());
    const auto &k = w.launches[0];
    auto live = s.simulateKernel(k, w.seed);
    sim::KernelTrace t = sim::captureTrace(k, w.seed);
    sim::SimOptions opts;
    opts.trace = &t;
    auto replay = s.simulateKernel(k, w.seed, opts);
    EXPECT_EQ(replay.cycles, live.cycles);
    EXPECT_EQ(replay.warpInstructions, live.warpInstructions);
}

/**
 * One named degenerate input. It prints as its shape, never as a raw
 * pointer, so the discovered ctest names are the same on every build.
 */
struct DegenerateCase
{
    const char *name;
    ml::Matrix X;

    friend void PrintTo(const DegenerateCase &c, std::ostream *os)
    {
        *os << c.X.rows() << "x" << c.X.cols() << " matrix";
    }
};

/**
 * Degenerate feature matrices swept through the scaler → PCA → K-Means
 * stack. The contract under test (see each class's header): lenient
 * entry points always produce finite output, checked entry points turn
 * poison into typed kBadInput errors — no asserts, no NaN leakage.
 */
class DegenerateMatrix : public ::testing::TestWithParam<DegenerateCase>
{
  public:
    static std::vector<DegenerateCase> cases()
    {
        const double inf = std::numeric_limits<double>::infinity();
        ml::Matrix zero_col = ml::Matrix::fromRows(
            {{1, 0, 3}, {2, 0, 5}, {4, 0, 2}, {8, 0, 9}});
        ml::Matrix single_row = ml::Matrix::fromRows({{3, 1, 4}});
        ml::Matrix duplicated = ml::Matrix::fromRows(
            {{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}});
        ml::Matrix pos_inf = ml::Matrix::fromRows(
            {{1, 2, 3}, {4, inf, 6}, {7, 8, 9}, {2, 1, 0}});
        ml::Matrix neg_inf = ml::Matrix::fromRows(
            {{1, 2, 3}, {4, 5, 6}, {7, -inf, 9}, {2, 1, 0}});
        return {{"all_zero_column", zero_col},
                {"single_row", single_row},
                {"duplicated_rows", duplicated},
                {"pos_inf_cell", pos_inf},
                {"neg_inf_cell", neg_inf}};
    }

    static bool hasPoison(const ml::Matrix &X)
    {
        for (size_t r = 0; r < X.rows(); ++r)
            for (size_t c = 0; c < X.cols(); ++c)
                if (!std::isfinite(X.at(r, c)))
                    return true;
        return false;
    }
};

TEST_P(DegenerateMatrix, ScalerOutputIsAlwaysFinite)
{
    const ml::Matrix &X = GetParam().X;
    ml::StandardScaler scaler;
    ml::Matrix Z = scaler.fitTransform(X);
    for (size_t r = 0; r < Z.rows(); ++r)
        for (size_t c = 0; c < Z.cols(); ++c)
            EXPECT_TRUE(std::isfinite(Z.at(r, c))) << r << "," << c;

    ml::StandardScaler checked;
    auto res = checked.fitChecked(X);
    if (hasPoison(X)) {
        ASSERT_FALSE(res.ok());
        EXPECT_EQ(res.error().kind, common::ErrorKind::kBadInput);
    } else {
        ASSERT_TRUE(res.ok());
    }
}

TEST_P(DegenerateMatrix, PcaOutputIsAlwaysFinite)
{
    const ml::Matrix &X = GetParam().X;
    ml::Pca pca;
    pca.fit(X); // lenient path clamps poison, never asserts
    ml::Matrix Y = pca.transform(X, std::min<size_t>(2, X.cols()));
    for (size_t r = 0; r < Y.rows(); ++r)
        for (size_t c = 0; c < Y.cols(); ++c)
            EXPECT_TRUE(std::isfinite(Y.at(r, c))) << r << "," << c;
    size_t k = pca.componentsForVariance(0.9);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, X.cols());

    ml::Pca checked;
    auto res = checked.fitChecked(X);
    if (hasPoison(X)) {
        ASSERT_FALSE(res.ok());
        EXPECT_EQ(res.error().kind, common::ErrorKind::kBadInput);
    } else {
        ASSERT_TRUE(res.ok());
    }
}

TEST_P(DegenerateMatrix, KmeansLabelsEveryRow)
{
    const ml::Matrix &X = GetParam().X;
    // Ask for more clusters than rows: k must clamp, every row must get
    // a valid label, and inertia must stay finite.
    ml::KMeansResult res = ml::kmeans(X, static_cast<uint32_t>(
                                             X.rows() + 3));
    EXPECT_GE(res.k, 1u);
    EXPECT_LE(res.k, X.rows());
    ASSERT_EQ(res.labels.size(), X.rows());
    for (uint32_t l : res.labels)
        EXPECT_LT(l, res.k);
    EXPECT_TRUE(std::isfinite(res.inertia));
    for (size_t r = 0; r < res.centroids.rows(); ++r)
        for (size_t c = 0; c < res.centroids.cols(); ++c)
            EXPECT_TRUE(std::isfinite(res.centroids.at(r, c)));

    auto checked = ml::kmeansChecked(X, 2);
    if (hasPoison(X)) {
        ASSERT_FALSE(checked.ok());
        EXPECT_EQ(checked.error().kind, common::ErrorKind::kBadInput);
    } else {
        ASSERT_TRUE(checked.ok());
        EXPECT_EQ(checked.value().labels, ml::kmeans(X, 2).labels);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Degenerate, DegenerateMatrix,
    ::testing::ValuesIn(DegenerateMatrix::cases()),
    [](const ::testing::TestParamInfo<DegenerateCase> &info) {
        return info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    Registry, WorkloadProperty, ::testing::ValuesIn(sampleNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (char &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });
