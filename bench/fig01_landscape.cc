/**
 * @file
 * Figure 1: the runtime landscape across all 147 workloads — silicon
 * execution time, time to collect the 12 Table-2 statistics with a
 * detailed silicon profiler, and projected time to simulate at
 * Accel-Sim-like rates. All values are full-size equivalents (scaled
 * workloads are divided by their generation scale), on a log-time axis in
 * the paper; here each series prints sorted plus banded counts.
 */

#include <cinttypes>
#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/experiments.hh"
#include "silicon/profiler.hh"
#include "silicon/silicon_gpu.hh"
#include "workload/suites.hh"

using namespace pka;

int
main()
{
    bench::banner("Figure 1: silicon vs profiler vs projected simulation "
                  "time (147 workloads, V100)");

    silicon::SiliconGpu gpu(silicon::voltaV100());
    silicon::DetailedProfiler detailed(gpu);

    struct Row
    {
        std::string name;
        double silicon_s, profiler_s, sim_s;
    };
    std::vector<Row> rows;

    for (const auto &w : workload::allWorkloads()) {
        double inv_scale = w.scale > 0 ? 1.0 / w.scale : 1.0;
        auto app = gpu.run(w);
        Row r;
        r.name = w.suite + "/" + w.name;
        r.silicon_s = app.totalSeconds * inv_scale;
        r.profiler_s = detailed.costSeconds(w) * inv_scale;
        r.sim_s = static_cast<double>(app.totalCycles) * inv_scale /
                  core::kSimCyclesPerSecond;
        rows.push_back(r);
    }
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        return a.silicon_s < b.silicon_s;
    });

    common::TextTable t({"workload", "silicon", "profiler(12 stats)",
                         "projected simulation"});
    for (const auto &r : rows)
        t.row()
            .cell(r.name)
            .cell(common::humanTime(r.silicon_s))
            .cell(common::humanTime(r.profiler_s))
            .cell(common::humanTime(r.sim_s));
    t.print(std::cout);

    // Banded counts, mirroring the figure's vertical spread.
    auto band = [](const std::vector<Row> &rs, auto sel) {
        struct Band { const char *label; double lo, hi; };
        static const Band bands[] = {
            {"  < 1 ms", 0, 1e-3},
            {"  1 ms - 1 s", 1e-3, 1.0},
            {"  1 s - 1 h", 1.0, 3600.0},
            {"  1 h - 1 week", 3600.0, 604800.0},
            {"  1 week - 1 year", 604800.0, 3.15e7},
            {"  1 year - 1 century", 3.15e7, 3.15e9},
            {"  > 1 century", 3.15e9, 1e300},
        };
        for (const auto &b : bands) {
            int n = 0;
            for (const auto &r : rs) {
                double v = sel(r);
                n += v >= b.lo && v < b.hi;
            }
            if (n > 0)
                std::printf("%-22s %3d workloads\n", b.label, n);
        }
    };
    std::printf("\nSilicon execution time bands:\n");
    band(rows, [](const Row &r) { return r.silicon_s; });
    std::printf("\nDetailed-profiling time bands:\n");
    band(rows, [](const Row &r) { return r.profiler_s; });
    std::printf("\nProjected simulation time bands:\n");
    band(rows, [](const Row &r) { return r.sim_s; });
    return 0;
}
