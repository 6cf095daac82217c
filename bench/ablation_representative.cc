/**
 * @file
 * Ablation (paper Section 3.1): how should the representative kernel of
 * each PKS group be chosen? The paper compared random selection,
 * closest-to-cluster-center and first-chronological, finding random
 * inconsistent, center and first-chronological near-identical, and
 * adopting first-chronological for its tracing-time advantage. This bench
 * sweeps all three policies across a spread of workloads and reports the
 * silicon projection error of each.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/pks.hh"
#include "silicon/profiler.hh"
#include "silicon/silicon_gpu.hh"
#include "workload/suites.hh"

using namespace pka;

int
main()
{
    bench::banner("Ablation: representative-kernel selection policy "
                  "(first-chronological vs cluster-center vs random)");

    silicon::SiliconGpu gpu(silicon::voltaV100());
    silicon::DetailedProfiler prof(gpu);

    const char *apps[] = {"gauss_208", "gauss_s64",   "bfs1MW",
                          "histo",     "cutcp",       "fdtd2d",
                          "gramschmidt", "spmv",      "scluster",
                          "hstort_r",  "rnn_inf_in0", "conv_inf_in2"};

    common::TextTable t({"workload", "first-chrono err %",
                         "cluster-center err %", "random err % (3 seeds)",
                         "random spread"});
    std::vector<double> e_first, e_center, e_random;

    for (const char *name : apps) {
        auto w = workload::buildWorkload(name);
        if (!w) {
            std::fprintf(stderr, "%s missing\n", name);
            return 1;
        }
        auto profiles = prof.profile(*w);

        auto run = [&](core::RepresentativePolicy p, uint64_t seed) {
            core::PksOptions o;
            o.representative = p;
            o.seed = seed;
            return core::principalKernelSelection(profiles, o)
                .projectedErrorPct;
        };

        double first =
            run(core::RepresentativePolicy::FirstChronological, 0x9A5);
        double center =
            run(core::RepresentativePolicy::ClusterCenter, 0x9A5);
        std::vector<double> rnd;
        for (uint64_t s : {11ull, 222ull, 3333ull})
            rnd.push_back(
                run(core::RepresentativePolicy::Random, s));

        e_first.push_back(first);
        e_center.push_back(center);
        for (double r : rnd)
            e_random.push_back(r);

        t.row()
            .cell(name)
            .num(first, 2)
            .num(center, 2)
            .cell(common::strfmt("%.2f / %.2f / %.2f", rnd[0], rnd[1],
                                 rnd[2]))
            .num(common::stddev(rnd), 2);
    }
    t.print(std::cout);

    std::printf("\nmean projection error: first-chrono %.2f%%, "
                "cluster-center %.2f%%, random %.2f%%\n",
                common::mean(e_first), common::mean(e_center),
                common::mean(e_random));
    std::printf("paper: random is inconsistent; center vs "
                "first-chronological differ negligibly, and "
                "first-chronological minimizes tracing time.\n");
    return 0;
}
