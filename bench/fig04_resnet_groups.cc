/**
 * @file
 * Figure 4: per-group kernel-name composition after applying Principal
 * Kernel Selection to MLPerf ResNet-50 inference. The paper finds 9
 * groups whose membership mixes kernel names (compute-heavy convolutions
 * cluster together, element-wise ops cluster together, and same-named
 * kernels split across groups when launched at different sizes).
 */

#include <cstdio>
#include <iostream>
#include <map>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/pka.hh"
#include "silicon/profiler.hh"
#include "silicon/silicon_gpu.hh"
#include "workload/suites.hh"

using namespace pka;

int
main()
{
    bench::banner("Figure 4: per-group kernel composition of ResNet-50 "
                  "after PKS");

    silicon::SiliconGpu gpu(silicon::voltaV100());
    auto w = workload::buildWorkload("resnet50_64b");
    if (!w) {
        std::fprintf(stderr, "resnet50_64b missing\n");
        return 1;
    }
    core::SelectionOutcome sel = core::selectKernels(*w, gpu);

    std::printf("launches: %zu, groups: %zu, profiling: %s (%s)\n",
                w->launches.size(), sel.groups.size(),
                sel.usedTwoLevel ? "two-level" : "full detailed",
                common::humanTime(sel.profilingCostSec).c_str());

    // name -> per-group instance counts
    std::map<std::string, std::vector<size_t>> comp;
    for (size_t g = 0; g < sel.groups.size(); ++g)
        for (uint32_t m : sel.groups[g].members) {
            auto &row = comp[w->launches[m].config.program->name];
            row.resize(sel.groups.size(), 0);
            ++row[g];
        }

    std::vector<std::string> headers = {"kernel name"};
    for (size_t g = 0; g < sel.groups.size(); ++g)
        headers.push_back("G" + std::to_string(g));
    common::TextTable t(headers);
    for (auto &[name, counts] : comp) {
        t.row().cell(name);
        counts.resize(sel.groups.size(), 0);
        for (size_t g = 0; g < sel.groups.size(); ++g)
            t.intCell(static_cast<long long>(counts[g]));
    }
    t.print(std::cout);

    // Same-named kernels split across groups (the paper's observation).
    int split_names = 0;
    for (auto &[name, counts] : comp) {
        int groups_used = 0;
        for (size_t c : counts)
            groups_used += c > 0;
        split_names += groups_used > 1;
    }
    std::printf("\nkernel names spanning more than one group: %d\n",
                split_names);
    return 0;
}
