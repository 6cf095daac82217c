/**
 * @file
 * ML-library tests: matrix, scaler, Jacobi eigendecomposition, PCA,
 * K-Means, the three classifiers and their ensemble, and hierarchical
 * clustering (including its deliberate scaling guardrail).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hh"
#include "ml/classifier.hh"
#include "ml/gaussian_nb.hh"
#include "ml/hierarchical.hh"
#include "ml/kmeans.hh"
#include "ml/matrix.hh"
#include "ml/mlp_classifier.hh"
#include "ml/pca.hh"
#include "ml/scaler.hh"
#include "ml/sgd_classifier.hh"

using namespace pka::ml;
using pka::common::Rng;

namespace
{

/** Three well-separated Gaussian blobs in 2D. */
void
makeBlobs(Matrix &X, std::vector<uint32_t> &y, int per_class = 40,
          double spread = 0.3)
{
    Rng rng(314);
    const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
    X = Matrix(3 * per_class, 2);
    y.assign(3 * per_class, 0);
    for (int c = 0; c < 3; ++c)
        for (int i = 0; i < per_class; ++i) {
            size_t r = c * per_class + i;
            X.at(r, 0) = centers[c][0] + rng.normal(0, spread);
            X.at(r, 1) = centers[c][1] + rng.normal(0, spread);
            y[r] = static_cast<uint32_t>(c);
        }
}

/**
 * Contract of every dendrogram: n-1 merges, sorted by non-decreasing
 * distance, each joining sample indices a < b below n.
 */
void
expectWellFormed(const Dendrogram &d)
{
    ASSERT_EQ(d.merges.size(), d.numSamples - 1);
    for (size_t k = 0; k < d.merges.size(); ++k) {
        EXPECT_LT(d.merges[k].a, d.merges[k].b);
        EXPECT_LT(d.merges[k].b, d.numSamples);
        if (k > 0) {
            EXPECT_LE(d.merges[k - 1].distance, d.merges[k].distance);
        }
    }
}

/** Labels of a 1-D point set cut at `threshold`. */
std::vector<uint32_t>
cutLabels(const std::vector<double> &points, double threshold)
{
    std::vector<std::vector<double>> rows;
    for (double p : points)
        rows.push_back({p});
    Dendrogram d = buildDendrogram(Matrix::fromRows(rows)).value();
    expectWellFormed(d);
    return cutDendrogram(d, threshold).labels;
}

/**
 * Test oracle: textbook average linkage. Each step merges the two
 * clusters with the smallest mean pairwise distance (in double); the
 * result is each merge's height and the partition after it, as labels
 * compacted by first appearance.
 */
struct ReferenceLinkage
{
    std::vector<double> heights;
    std::vector<std::vector<uint32_t>> labels;
};

ReferenceLinkage
naiveAverageLinkage(const Matrix &X)
{
    const size_t n = X.rows();
    std::vector<std::vector<uint32_t>> clusters(n);
    for (size_t i = 0; i < n; ++i)
        clusters[i] = {static_cast<uint32_t>(i)};
    ReferenceLinkage ref;
    while (clusters.size() > 1) {
        size_t bi = 0, bj = 1;
        double best = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < clusters.size(); ++i)
            for (size_t j = i + 1; j < clusters.size(); ++j) {
                double sum = 0.0;
                for (uint32_t p : clusters[i])
                    for (uint32_t q : clusters[j])
                        sum += std::sqrt(squaredDistance(X.row(p), X.row(q)));
                double pairs = static_cast<double>(clusters[i].size() *
                                                   clusters[j].size());
                double mean = sum / pairs;
                if (mean < best) {
                    best = mean;
                    bi = i;
                    bj = j;
                }
            }
        clusters[bi].insert(clusters[bi].end(), clusters[bj].begin(),
                            clusters[bj].end());
        clusters.erase(clusters.begin() + static_cast<long>(bj));
        std::vector<uint32_t> owner(n);
        for (size_t c = 0; c < clusters.size(); ++c)
            for (uint32_t p : clusters[c])
                owner[p] = static_cast<uint32_t>(c);
        std::vector<int32_t> label_of(clusters.size(), -1);
        std::vector<uint32_t> labels(n);
        uint32_t next = 0;
        for (size_t p = 0; p < n; ++p) {
            if (label_of[owner[p]] < 0)
                label_of[owner[p]] = static_cast<int32_t>(next++);
            labels[p] = static_cast<uint32_t>(label_of[owner[p]]);
        }
        ref.heights.push_back(best);
        ref.labels.push_back(std::move(labels));
    }
    return ref;
}

/** Seeded Gaussian blobs in 3-D, optionally with repeated rows mixed in. */
Matrix
randomBlobs(uint64_t seed, bool with_duplicates)
{
    Rng rng(seed);
    std::vector<std::vector<double>> rows;
    for (int i = 0; i < 100; ++i) {
        double c = 4.0 * static_cast<double>(rng.uniformInt(4));
        rows.push_back({c + rng.normal(0, 1), rng.normal(0, 1),
                        c * 0.5 + rng.normal(0, 1)});
        if (with_duplicates && rng.uniform() < 0.3)
            rows.push_back(rows[rng.uniformInt(
                static_cast<uint32_t>(rows.size()))]);
    }
    return Matrix::fromRows(rows);
}

/** Classification accuracy helper. */
double
accuracy(const Classifier &m, const Matrix &X,
         const std::vector<uint32_t> &y)
{
    auto pred = m.predictAll(X);
    size_t ok = 0;
    for (size_t i = 0; i < y.size(); ++i)
        ok += pred[i] == y[i];
    return static_cast<double>(ok) / static_cast<double>(y.size());
}

} // namespace

TEST(Matrix, BasicAccess)
{
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
    m.at(0, 1) = 7;
    EXPECT_DOUBLE_EQ(m.at(0, 1), 7.0);
    EXPECT_DOUBLE_EQ(m.row(0)[1], 7.0);
}

TEST(Matrix, FromRows)
{
    Matrix m = Matrix::fromRows({{1, 2}, {3, 4}});
    EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
    EXPECT_TRUE(Matrix::fromRows({}).empty());
}

TEST(Matrix, OutOfRangePanics)
{
    Matrix m(2, 2);
    EXPECT_DEATH(m.at(2, 0), "out of range");
    EXPECT_DEATH(m.at(0, 2), "out of range");
}

TEST(Matrix, SquaredDistance)
{
    std::vector<double> a = {0, 0}, b = {3, 4};
    EXPECT_DOUBLE_EQ(squaredDistance(a, b), 25.0);
}

TEST(Scaler, StandardizesColumns)
{
    Matrix X = Matrix::fromRows({{1, 100}, {3, 300}, {5, 500}});
    StandardScaler s;
    Matrix Z = s.fitTransform(X);
    for (size_t c = 0; c < 2; ++c) {
        double m = (Z.at(0, c) + Z.at(1, c) + Z.at(2, c)) / 3;
        EXPECT_NEAR(m, 0.0, 1e-12);
    }
    EXPECT_NEAR(Z.at(2, 0), Z.at(2, 1), 1e-12); // same z-scores
}

TEST(Scaler, ConstantColumnMapsToZero)
{
    Matrix X = Matrix::fromRows({{7, 1}, {7, 2}, {7, 3}});
    StandardScaler s;
    Matrix Z = s.fitTransform(X);
    EXPECT_DOUBLE_EQ(Z.at(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(Z.at(2, 0), 0.0);
}

TEST(Jacobi, DiagonalMatrix)
{
    Matrix a = Matrix::fromRows({{3, 0}, {0, 1}});
    std::vector<double> eig;
    Matrix vec;
    jacobiEigenSymmetric(a, eig, vec);
    EXPECT_NEAR(eig[0], 3.0, 1e-10);
    EXPECT_NEAR(eig[1], 1.0, 1e-10);
}

TEST(Jacobi, KnownSymmetricMatrix)
{
    // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
    Matrix a = Matrix::fromRows({{2, 1}, {1, 2}});
    std::vector<double> eig;
    Matrix vec;
    jacobiEigenSymmetric(a, eig, vec);
    EXPECT_NEAR(eig[0], 3.0, 1e-10);
    EXPECT_NEAR(eig[1], 1.0, 1e-10);
    // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
    EXPECT_NEAR(std::abs(vec.at(0, 0)), std::sqrt(0.5), 1e-8);
    EXPECT_NEAR(std::abs(vec.at(0, 1)), std::sqrt(0.5), 1e-8);
}

TEST(Jacobi, EigenvectorsSatisfyDefinition)
{
    Matrix a = Matrix::fromRows(
        {{4, 1, 0.5}, {1, 3, 0.2}, {0.5, 0.2, 2}});
    std::vector<double> eig;
    Matrix vec;
    jacobiEigenSymmetric(a, eig, vec);
    for (size_t k = 0; k < 3; ++k) {
        for (size_t i = 0; i < 3; ++i) {
            double av = 0;
            for (size_t j = 0; j < 3; ++j)
                av += a.at(i, j) * vec.at(k, j);
            EXPECT_NEAR(av, eig[k] * vec.at(k, i), 1e-8);
        }
    }
    EXPECT_GE(eig[0], eig[1]);
    EXPECT_GE(eig[1], eig[2]);
}

TEST(Pca, FindsDominantDirection)
{
    // Points along y = 2x with small noise: PC1 explains ~all variance.
    Rng rng(5);
    Matrix X(200, 2);
    for (size_t i = 0; i < 200; ++i) {
        double t = rng.normal(0, 3);
        X.at(i, 0) = t + rng.normal(0, 0.05);
        X.at(i, 1) = 2 * t + rng.normal(0, 0.05);
    }
    Pca pca;
    pca.fit(X);
    EXPECT_GT(pca.explainedVarianceRatio()[0], 0.99);
    EXPECT_EQ(pca.componentsForVariance(0.95), 1u);
    EXPECT_EQ(pca.componentsForVariance(0.999999), 2u);
}

TEST(Pca, TransformPreservesSeparation)
{
    Matrix X;
    std::vector<uint32_t> y;
    makeBlobs(X, y);
    Pca pca;
    pca.fit(X);
    Matrix P = pca.transform(X, 2);
    // Distances between class centroids stay large in PCA space.
    double d01 = squaredDistance(P.row(0), P.row(60));
    EXPECT_GT(d01, 10.0);
}

TEST(KMeans, RecoversSeparatedBlobs)
{
    Matrix X;
    std::vector<uint32_t> y;
    makeBlobs(X, y);
    auto res = kmeans(X, 3);
    EXPECT_EQ(res.k, 3u);
    // Every true class maps to exactly one cluster label.
    for (int c = 0; c < 3; ++c) {
        uint32_t lbl = res.labels[c * 40];
        for (int i = 1; i < 40; ++i)
            EXPECT_EQ(res.labels[c * 40 + i], lbl);
    }
    EXPECT_NE(res.labels[0], res.labels[40]);
    EXPECT_NE(res.labels[40], res.labels[80]);
}

TEST(KMeans, InertiaDecreasesWithK)
{
    Matrix X;
    std::vector<uint32_t> y;
    makeBlobs(X, y);
    double prev = kmeans(X, 1).inertia;
    for (uint32_t k : {2u, 3u, 6u}) {
        double cur = kmeans(X, k).inertia;
        EXPECT_LE(cur, prev + 1e-9);
        prev = cur;
    }
}

TEST(KMeans, ClampsKToSampleCount)
{
    Matrix X = Matrix::fromRows({{0, 0}, {1, 1}});
    auto res = kmeans(X, 10);
    EXPECT_LE(res.k, 2u);
}

TEST(KMeans, Deterministic)
{
    Matrix X;
    std::vector<uint32_t> y;
    makeBlobs(X, y);
    auto a = kmeans(X, 3);
    auto b = kmeans(X, 3);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeans, SingleCluster)
{
    Matrix X;
    std::vector<uint32_t> y;
    makeBlobs(X, y);
    auto res = kmeans(X, 1);
    for (uint32_t l : res.labels)
        EXPECT_EQ(l, 0u);
}

TEST(Classifiers, SgdLearnsBlobs)
{
    Matrix X;
    std::vector<uint32_t> y;
    makeBlobs(X, y);
    SgdClassifier m;
    m.fit(X, y, 3);
    EXPECT_GT(accuracy(m, X, y), 0.95);
    EXPECT_EQ(std::string(m.name()), "sgd");
}

TEST(Classifiers, GaussianNbLearnsBlobs)
{
    Matrix X;
    std::vector<uint32_t> y;
    makeBlobs(X, y);
    GaussianNb m;
    m.fit(X, y, 3);
    EXPECT_GT(accuracy(m, X, y), 0.95);
}

TEST(Classifiers, MlpLearnsBlobs)
{
    Matrix X;
    std::vector<uint32_t> y;
    makeBlobs(X, y);
    MlpClassifier m;
    m.fit(X, y, 3);
    EXPECT_GT(accuracy(m, X, y), 0.95);
}

TEST(Classifiers, MlpLearnsNonLinearBoundary)
{
    // XOR-style data defeats a linear model but not the MLP.
    Rng rng(77);
    Matrix X(200, 2);
    std::vector<uint32_t> y(200);
    for (size_t i = 0; i < 200; ++i) {
        double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
        X.at(i, 0) = a;
        X.at(i, 1) = b;
        y[i] = (a * b > 0) ? 1 : 0;
    }
    MlpClassifier::Options o;
    o.epochs = 200;
    o.hiddenUnits = 16;
    MlpClassifier m(o);
    m.fit(X, y, 2);
    EXPECT_GT(accuracy(m, X, y), 0.9);
}

TEST(Classifiers, PredictProbaIsADistributionAndMatchesPredict)
{
    Matrix X;
    std::vector<uint32_t> y;
    makeBlobs(X, y);
    SgdClassifier sgd;
    GaussianNb nb;
    MlpClassifier mlp;
    sgd.fit(X, y, 3);
    nb.fit(X, y, 3);
    mlp.fit(X, y, 3);
    const Classifier *models[] = {&sgd, &nb, &mlp};
    for (const Classifier *m : models) {
        for (size_t r = 0; r < X.rows(); ++r) {
            auto p = m->predictProba(X.row(r));
            ASSERT_EQ(p.size(), 3u) << m->name();
            double sum = 0.0;
            for (double v : p) {
                EXPECT_GE(v, 0.0) << m->name();
                EXPECT_LE(v, 1.0 + 1e-12) << m->name();
                sum += v;
            }
            EXPECT_NEAR(sum, 1.0, 1e-9) << m->name();
            // Argmax of the distribution is the predicted label — the
            // confidence gate can never silently change a decision.
            uint32_t argmax = 0;
            for (uint32_t c = 1; c < 3; ++c)
                if (p[c] > p[argmax])
                    argmax = c;
            EXPECT_EQ(argmax, m->predict(X.row(r))) << m->name();
        }
    }
}

TEST(KMeans, EmptyClusterReseedIsDeterministic)
{
    // Six identical points with k=3: every centroid collapses onto the
    // one location, assignment sends all points to cluster 0, and the
    // farthest-point reseed must fire for the empty clusters — without
    // breaking determinism or label validity.
    Matrix X = Matrix::fromRows({{2, 2}, {2, 2}, {2, 2},
                                 {2, 2}, {2, 2}, {2, 2}});
    auto a = kmeans(X, 3);
    auto b = kmeans(X, 3);
    EXPECT_GT(a.emptyReseeds, 0u);
    EXPECT_EQ(a.emptyReseeds, b.emptyReseeds);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_DOUBLE_EQ(a.inertia, 0.0);
    for (uint32_t l : a.labels)
        EXPECT_LT(l, a.k);
}

TEST(KMeans, ClampContractKNeverExceedsSamples)
{
    // The k > n clamp is a contract, not a best effort: any k maps into
    // [1, n] and every sample still gets a valid label.
    Matrix X = Matrix::fromRows({{0, 0}, {1, 1}, {2, 2}});
    for (uint32_t k : {1u, 3u, 4u, 100u}) {
        auto res = kmeans(X, k);
        EXPECT_GE(res.k, 1u);
        EXPECT_LE(res.k, 3u);
        ASSERT_EQ(res.labels.size(), 3u);
        for (uint32_t l : res.labels)
            EXPECT_LT(l, res.k);
    }
}

TEST(Classifiers, PredictBeforeFitPanics)
{
    SgdClassifier s;
    GaussianNb g;
    MlpClassifier m;
    std::vector<double> x = {0.0, 0.0};
    EXPECT_DEATH(s.predict(x), "not fitted");
    EXPECT_DEATH(g.predict(x), "not fitted");
    EXPECT_DEATH(m.predict(x), "not fitted");
}

TEST(Classifiers, MajorityVote)
{
    std::vector<uint32_t> v1 = {1, 1, 2};
    EXPECT_EQ(majorityVote(v1), 1u);
    std::vector<uint32_t> v2 = {3, 2, 2};
    EXPECT_EQ(majorityVote(v2), 2u);
    // Three-way tie resolves to the earliest voter.
    std::vector<uint32_t> v3 = {5, 7, 9};
    EXPECT_EQ(majorityVote(v3), 5u);
}

TEST(Hierarchical, MergesBlobsAtLooseThreshold)
{
    Matrix X;
    std::vector<uint32_t> y;
    makeBlobs(X, y, 15);
    auto res = agglomerativeCluster(X, 3.0).value();
    EXPECT_EQ(res.numClusters, 3u);
    for (int c = 0; c < 3; ++c)
        for (int i = 1; i < 15; ++i)
            EXPECT_EQ(res.labels[c * 15 + i], res.labels[c * 15]);
}

TEST(Hierarchical, TightThresholdKeepsSingletons)
{
    Matrix X = Matrix::fromRows({{0, 0}, {5, 0}, {10, 0}});
    auto res = agglomerativeCluster(X, 0.1).value();
    EXPECT_EQ(res.numClusters, 3u);
}

TEST(Hierarchical, EverythingMergesAtHugeThreshold)
{
    Matrix X;
    std::vector<uint32_t> y;
    makeBlobs(X, y, 10);
    auto res = agglomerativeCluster(X, 1e6).value();
    EXPECT_EQ(res.numClusters, 1u);
}

TEST(Hierarchical, GuardrailIsTypedError)
{
    Matrix X(50, 2);
    auto res = agglomerativeCluster(X, 1.0, 10);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().kind, pka::common::ErrorKind::kBadInput);
    EXPECT_NE(res.error().message.find("guardrail"), std::string::npos);
}

TEST(Hierarchical, EmptyInputIsTypedError)
{
    Matrix X;
    auto res = buildDendrogram(X);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().kind, pka::common::ErrorKind::kBadInput);
}

/** K sweep property: kmeans always yields labels < k and k >= 1. */
class KMeansSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(KMeansSweep, LabelsInRange)
{
    Matrix X;
    std::vector<uint32_t> y;
    makeBlobs(X, y, 20);
    auto res = kmeans(X, GetParam());
    EXPECT_EQ(res.labels.size(), X.rows());
    for (uint32_t l : res.labels)
        EXPECT_LT(l, res.k);
}

INSTANTIATE_TEST_SUITE_P(Ks, KMeansSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 20));

TEST(Hierarchical, DendrogramCutMonotone)
{
    Matrix X;
    std::vector<uint32_t> y;
    makeBlobs(X, y, 12);
    Dendrogram d = buildDendrogram(X).value();
    expectWellFormed(d);
    uint32_t prev = static_cast<uint32_t>(X.rows()) + 1;
    for (double t : {0.0, 0.5, 1.0, 3.0, 1e6}) {
        auto cut = cutDendrogram(d, t);
        EXPECT_LE(cut.numClusters, prev);
        prev = cut.numClusters;
    }
    EXPECT_EQ(cutDendrogram(d, 1e6).numClusters, 1u);
}

TEST(Hierarchical, DendrogramMatchesConvenienceCut)
{
    Matrix X;
    std::vector<uint32_t> y;
    makeBlobs(X, y, 8);
    Dendrogram d = buildDendrogram(X).value();
    auto a = cutDendrogram(d, 2.0);
    auto b = agglomerativeCluster(X, 2.0).value();
    EXPECT_EQ(a.labels, b.labels);
}

TEST(Hierarchical, TieOrderOnEvenlySpacedPoints)
{
    // Three pairs tie at 1.0; {0,1} and {2,3} form before the top merge
    // at the mean distance 2.0.
    const std::vector<double> pts = {0, 1, 2, 3};
    using L = std::vector<uint32_t>;
    EXPECT_EQ(cutLabels(pts, 0.5), (L{0, 1, 2, 3}));
    EXPECT_EQ(cutLabels(pts, 1.0), (L{0, 0, 1, 1}));
    EXPECT_EQ(cutLabels(pts, 1.9), (L{0, 0, 1, 1}));
    EXPECT_EQ(cutLabels(pts, 2.0), (L{0, 0, 0, 0}));
}

TEST(Hierarchical, DuplicateRowsCarryMultiplicity)
{
    Dendrogram d =
        buildDendrogram(Matrix::fromRows({{0}, {1}, {0}, {3}, {1}, {0}}))
            .value();
    expectWellFormed(d);
    for (size_t k = 0; k < 3; ++k)
        EXPECT_EQ(d.merges[k].distance, 0.0);
    EXPECT_GT(d.merges[3].distance, 0.0);
    using L = std::vector<uint32_t>;
    EXPECT_EQ(cutDendrogram(d, 0.5).labels, (L{0, 1, 0, 2, 1, 0}));
    // {0,0,0,1,1} (size 5) joins {3}: (3*3 + 2*2) / 5, where dropping the
    // multiplicities would average to 2.5.
    EXPECT_EQ(d.merges.back().distance,
              static_cast<double>(static_cast<float>(13.0 / 5.0)));
    EXPECT_EQ(cutDendrogram(d, 2.55).numClusters, 2u);
}

TEST(Hierarchical, IdenticalRowsMergeAtZero)
{
    Dendrogram d = buildDendrogram(Matrix(5, 3)).value();
    expectWellFormed(d);
    EXPECT_EQ(d.merges.back().distance, 0.0);
    EXPECT_EQ(cutDendrogram(d, 0.0).numClusters, 1u);
}

TEST(Hierarchical, CutsMatchNaiveAverageLinkage)
{
    for (uint64_t seed : {1, 2, 3})
        for (bool with_duplicates : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " duplicates "
                         << with_duplicates);
            Matrix X = randomBlobs(seed, with_duplicates);
            Dendrogram d = buildDendrogram(X).value();
            expectWellFormed(d);
            ReferenceLinkage ref = naiveAverageLinkage(X);

            // Cut midway between consecutive distinct reference heights,
            // where the partition is the one after the lower merge.
            size_t checked = 0;
            for (size_t k = 0; k + 1 < ref.heights.size(); ++k) {
                double lo = ref.heights[k], hi = ref.heights[k + 1];
                if (hi - lo < 1e-6)
                    continue;
                EXPECT_EQ(cutDendrogram(d, 0.5 * (lo + hi)).labels,
                          ref.labels[k])
                    << "cut between merges " << k << " and " << k + 1;
                ++checked;
            }
            EXPECT_GT(checked, 90u);
        }
}

TEST(Hierarchical, SingleSampleDendrogram)
{
    Matrix X = Matrix::fromRows({{1.0, 2.0}});
    Dendrogram d = buildDendrogram(X).value();
    expectWellFormed(d);
    auto cut = cutDendrogram(d, 1.0);
    EXPECT_EQ(cut.numClusters, 1u);
}
