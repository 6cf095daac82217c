/**
 * @file
 * Ablation (paper Section 3.1, two-level profiling): how large must the
 * detailed-profiling prefix be, and how do the three classifiers (SGD,
 * Gaussian NB, MLP) compare individually against the majority-vote
 * ensemble? Evaluated on the MLPerf streams that actually require
 * two-level profiling, scoring classification against the labels full
 * detailed profiling would have produced.
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/features.hh"
#include "core/pks.hh"
#include "core/two_level.hh"
#include "ml/gaussian_nb.hh"
#include "ml/mlp_classifier.hh"
#include "ml/scaler.hh"
#include "ml/sgd_classifier.hh"
#include "silicon/profiler.hh"
#include "silicon/silicon_gpu.hh"
#include "workload/suites.hh"

using namespace pka;

int
main()
{
    bench::banner("Ablation: two-level profiling prefix size and "
                  "classifier choice");

    silicon::SiliconGpu gpu(silicon::voltaV100());
    silicon::DetailedProfiler detailed(gpu);
    silicon::LightweightProfiler light_prof(gpu);

    workload::GenOptions gen;
    gen.mlperfScale = 0.01;

    for (const char *name : {"ssd_training", "bert_inference"}) {
        auto w = workload::buildWorkload(name, gen);
        if (!w) {
            std::fprintf(stderr, "%s missing\n", name);
            return 1;
        }
        auto sil = gpu.run(*w);
        double sil_cycles = static_cast<double>(sil.totalCycles);
        auto all_light = light_prof.profile(*w);

        std::printf("\n--- %s (%zu launches) ---\n", name,
                    w->launches.size());

        // (1) Prefix-size sweep: projection error of the resulting
        // selection versus full silicon.
        common::TextTable t1({"detailed prefix", "groups",
                              "cycle proj. error %", "profiling cost"});
        for (size_t j : {250u, 500u, 1000u, 2000u, 4000u, 8000u}) {
            core::TwoLevelOptions o;
            o.detailedKernels = j;
            auto prefix = detailed.profile(*w, j);
            auto res = core::twoLevelSelection(prefix, all_light, o);
            std::vector<uint64_t> cycles(w->launches.size());
            for (size_t i = 0; i < sil.launches.size(); ++i)
                cycles[i] = sil.launches[i].cycles;
            auto ev = core::evaluateSelection(res.groups, cycles);
            t1.row()
                .intCell(static_cast<long long>(j))
                .intCell(static_cast<long long>(res.groups.size()))
                .num(pka::common::pctError(ev.projectedCycles,
                                           sil_cycles),
                     2)
                .cell(common::humanTime(
                    detailed.costSeconds(*w, j) +
                    light_prof.costSeconds(*w)));
        }
        t1.print(std::cout);

        // (2) Classifier comparison: accuracy against the labels full
        // detailed profiling would yield (PKS over the whole stream).
        auto full_profiles = detailed.profile(*w);
        auto truth = core::principalKernelSelection(full_profiles);
        std::vector<int32_t> truth_label(w->launches.size(), -1);
        for (uint32_t g = 0; g < truth.groups.size(); ++g)
            for (uint32_t m : truth.groups[g].members)
                truth_label[m] = static_cast<int32_t>(g);

        const size_t j = 2000;
        auto prefix = detailed.profile(*w, j);
        auto prefix_sel = core::principalKernelSelection(prefix);
        std::vector<uint32_t> prefix_labels(j, 0);
        {
            std::vector<int32_t> by_launch(w->launches.size(), -1);
            for (uint32_t g = 0; g < prefix_sel.groups.size(); ++g)
                for (uint32_t m : prefix_sel.groups[g].members)
                    by_launch[m] = static_cast<int32_t>(g);
            for (size_t i = 0; i < j; ++i)
                prefix_labels[i] =
                    static_cast<uint32_t>(by_launch[i]);
        }

        ml::Matrix train_raw(j, core::kLightFeatureCount);
        for (size_t i = 0; i < j; ++i) {
            auto v = core::lightFeatureVector(all_light[i]);
            for (size_t c = 0; c < core::kLightFeatureCount; ++c)
                train_raw.at(i, c) = v[c];
        }
        ml::StandardScaler scaler;
        ml::Matrix train = scaler.fitTransform(train_raw);

        std::unique_ptr<ml::Classifier> models[3] = {
            std::make_unique<ml::SgdClassifier>(),
            std::make_unique<ml::GaussianNb>(),
            std::make_unique<ml::MlpClassifier>(),
        };
        uint32_t num_groups =
            static_cast<uint32_t>(prefix_sel.groups.size());
        for (auto &m : models)
            m->fit(train, prefix_labels, num_groups);

        // Score on the remainder: does the model put a launch into the
        // same group as a same-prefix-group ground-truth launch? Use
        // agreement with the ensemble ground truth from twoLevel itself
        // plus cluster-consistency vs full-profiling labels through the
        // representative's truth group.
        std::vector<int32_t> group_to_truth(num_groups, -1);
        for (uint32_t g = 0; g < num_groups; ++g)
            group_to_truth[g] =
                truth_label[prefix_sel.groups[g].representative];

        common::TextTable t2({"classifier", "agreement with full "
                                            "profiling %"});
        std::vector<std::vector<uint32_t>> votes(3);
        for (int mi = 0; mi < 3; ++mi) {
            size_t ok = 0, total = 0;
            votes[mi].resize(w->launches.size());
            for (size_t i = j; i < all_light.size(); ++i) {
                auto v = core::lightFeatureVector(all_light[i]);
                ml::Matrix one = ml::Matrix::fromRows({v});
                uint32_t pred =
                    models[mi]->predict(scaler.transform(one).row(0));
                votes[mi][i] = pred;
                ok += group_to_truth[pred] == truth_label[i];
                ++total;
            }
            t2.row()
                .cell(models[mi]->name())
                .num(100.0 * ok / total, 1);
        }
        {
            size_t ok = 0, total = 0;
            for (size_t i = j; i < all_light.size(); ++i) {
                uint32_t vs[3] = {votes[0][i], votes[1][i], votes[2][i]};
                uint32_t pred = ml::majorityVote(vs);
                ok += group_to_truth[pred] == truth_label[i];
                ++total;
            }
            t2.row().cell("ensemble (majority)").num(100.0 * ok / total, 1);
        }
        t2.print(std::cout);
    }
    return 0;
}
