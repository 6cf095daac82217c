/**
 * @file
 * Workload registry: the six suite tables in suite order. allWorkloads
 * builds all 147 workloads; buildWorkload builds only the one it names.
 */

#include "workload/detail.hh"
#include "workload/suites.hh"

namespace pka::workload
{

namespace
{

const std::vector<detail::SuiteTable> &
registry()
{
    static const std::vector<detail::SuiteTable> suites = {
        detail::rodiniaSuite(),   detail::parboilSuite(),
        detail::polybenchSuite(), detail::cutlassSuite(),
        detail::deepbenchSuite(), detail::mlperfSuite(),
    };
    return suites;
}

} // namespace

std::vector<Workload>
allWorkloads(const GenOptions &opts)
{
    std::vector<Workload> out;
    for (const auto &suite : registry())
        for (const auto &entry : suite)
            out.push_back(entry.build(opts));
    return out;
}

std::optional<Workload>
buildWorkload(const std::string &name, const GenOptions &opts)
{
    for (const auto &suite : registry())
        for (const auto &entry : suite)
            if (entry.name == name)
                return entry.build(opts);
    return std::nullopt;
}

bool
isProfilerSensitive(const std::string &name)
{
    if (name == "myocyte")
        return true;
    // Non-tensor-core DeepBench convolution training inputs.
    return name.rfind("conv_train_in", 0) == 0;
}

} // namespace pka::workload
