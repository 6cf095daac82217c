/**
 * @file
 * google-benchmark microbenchmarks for the ML substrate: PCA fits,
 * K-Means sweeps, dendrogram construction and classifier training at the
 * data shapes PKS/two-level actually produce.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "ml/gaussian_nb.hh"
#include "ml/hierarchical.hh"
#include "ml/kmeans.hh"
#include "ml/mlp_classifier.hh"
#include "ml/pca.hh"
#include "ml/scaler.hh"
#include "ml/sgd_classifier.hh"

using namespace pka::ml;
using pka::common::Rng;

namespace
{

Matrix
blobData(size_t n, size_t d, int classes, std::vector<uint32_t> *labels)
{
    Rng rng(7);
    Matrix X(n, d);
    if (labels)
        labels->resize(n);
    for (size_t i = 0; i < n; ++i) {
        int c = static_cast<int>(i % classes);
        if (labels)
            (*labels)[i] = static_cast<uint32_t>(c);
        for (size_t j = 0; j < d; ++j)
            X.at(i, j) = c * 8.0 + rng.normal(0, 1);
    }
    return X;
}

} // namespace

static void
BM_PcaFit(benchmark::State &state)
{
    Matrix X = blobData(static_cast<size_t>(state.range(0)), 12, 5,
                        nullptr);
    for (auto _ : state) {
        Pca pca;
        pca.fit(X);
        benchmark::DoNotOptimize(pca.explainedVarianceRatio());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PcaFit)->Arg(1000)->Arg(10000)->Arg(100000);

static void
BM_KMeansSweep(benchmark::State &state)
{
    Matrix X = blobData(static_cast<size_t>(state.range(0)), 4, 6,
                        nullptr);
    for (auto _ : state) {
        for (uint32_t k = 1; k <= 8; ++k)
            benchmark::DoNotOptimize(kmeans(X, k).inertia);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_KMeansSweep)->Arg(500)->Arg(5000);

static void
BM_KMeansMillionKernels(benchmark::State &state)
{
    // The PKS scaling argument: K-Means handles MLPerf-scale kernel
    // streams where hierarchical clustering cannot.
    Matrix X = blobData(1000000, 3, 8, nullptr);
    for (auto _ : state)
        benchmark::DoNotOptimize(kmeans(X, 8).inertia);
    state.SetItemsProcessed(state.iterations() * 1000000);
}
BENCHMARK(BM_KMeansMillionKernels)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

static void
BM_Dendrogram(benchmark::State &state)
{
    Matrix X = blobData(static_cast<size_t>(state.range(0)), 6, 5,
                        nullptr);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            buildDendrogram(X, 20000).value().merges.size());
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Dendrogram)->Arg(200)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oNSquared);

static void
BM_DendrogramRepeats(benchmark::State &state)
{
    // TBPoint's input shape: a long kernel stream of memoized repeats, at
    // gramschmidt's 6,411 launches over ~10% distinct feature rows.
    const size_t n = 6411, distinct = n / 10, d = 6;
    Matrix base = blobData(distinct, d, 5, nullptr);
    Matrix X(n, d);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < d; ++j)
            X.at(i, j) = base.at(i % distinct, j);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            buildDendrogram(X, 20000).value().merges.size());
}
BENCHMARK(BM_DendrogramRepeats)->Unit(benchmark::kMillisecond);

static void
BM_SgdTrain(benchmark::State &state)
{
    std::vector<uint32_t> y;
    Matrix X = blobData(2000, 10, 8, &y);
    StandardScaler sc;
    Matrix Z = sc.fitTransform(X);
    for (auto _ : state) {
        SgdClassifier m;
        m.fit(Z, y, 8);
        benchmark::DoNotOptimize(m.predict(Z.row(0)));
    }
}
BENCHMARK(BM_SgdTrain)->Unit(benchmark::kMillisecond);

static void
BM_GaussianNbTrain(benchmark::State &state)
{
    std::vector<uint32_t> y;
    Matrix X = blobData(2000, 10, 8, &y);
    for (auto _ : state) {
        GaussianNb m;
        m.fit(X, y, 8);
        benchmark::DoNotOptimize(m.predict(X.row(0)));
    }
}
BENCHMARK(BM_GaussianNbTrain)->Unit(benchmark::kMillisecond);

static void
BM_MlpTrain(benchmark::State &state)
{
    std::vector<uint32_t> y;
    Matrix X = blobData(2000, 10, 8, &y);
    StandardScaler sc;
    Matrix Z = sc.fitTransform(X);
    for (auto _ : state) {
        MlpClassifier m;
        m.fit(Z, y, 8);
        benchmark::DoNotOptimize(m.predict(Z.row(0)));
    }
}
BENCHMARK(BM_MlpTrain)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
