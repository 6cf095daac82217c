/**
 * @file
 * Table 3: Principal Kernel Selection output examples — the selected
 * kernel ids and per-group kernel counts for the paper's example
 * workloads (gaussian_208, bfs 65k, histogram, cutcp, fdtd2d,
 * gramschmidt, CUTLASS gemms), at the paper's 5% target error.
 */

#include <cstdio>
#include <iostream>
#include <sstream>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/pks.hh"
#include "silicon/profiler.hh"
#include "silicon/silicon_gpu.hh"
#include "workload/suites.hh"

using namespace pka;

int
main()
{
    bench::banner("Table 3: Principal Kernel Selection output examples "
                  "(target error 5%)");

    silicon::SiliconGpu gpu(silicon::voltaV100());
    silicon::DetailedProfiler prof(gpu);

    struct Entry { const char *suite, *name; };
    const Entry entries[] = {
        {"Rodinia", "gauss_208"},
        {"Rodinia", "bfs65536"},
        {"Parboil", "histo"},
        {"Parboil", "cutcp"},
        {"Polybench", "fdtd2d"},
        {"Polybench", "gramschmidt"},
        {"Cutlass", "wgemm_2560x128x2560"},
        {"Cutlass", "sgemm_4096x4096x4096"},
    };

    common::TextTable t({"Suite", "Workload", "Selected Kernel IDs",
                         "Group Counts", "Proj. Error %"});
    for (const auto &e : entries) {
        auto w = workload::buildWorkload(e.name);
        if (!w) {
            std::fprintf(stderr, "missing workload %s\n", e.name);
            return 1;
        }
        auto res = core::principalKernelSelection(prof.profile(*w));

        std::ostringstream ids, counts;
        for (size_t g = 0; g < res.groups.size(); ++g) {
            if (g) {
                ids << ",";
                counts << ",";
            }
            ids << res.groups[g].representative;
            counts << res.groups[g].members.size();
        }
        t.row()
            .cell(e.suite)
            .cell(e.name)
            .cell(ids.str())
            .cell(counts.str())
            .num(res.projectedErrorPct, 2);
    }
    t.print(std::cout);
    return 0;
}
