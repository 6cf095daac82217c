/**
 * @file
 * Small shared helpers for the benchmark harnesses (banner printing,
 * sorted-series output, and PKA_CACHE_DIR wiring). Experiment logic
 * lives in pka::core::experiments.
 */

#ifndef PKA_BENCH_BENCH_UTIL_HH
#define PKA_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/engine.hh"
#include "store/file_store.hh"

namespace pka::bench
{

/**
 * Options for a harness's one engine: a persistent result store when
 * PKA_CACHE_DIR is set, so repeated harness runs (and harnesses sharing
 * kernels) answer cached launches from disk instead of re-simulating;
 * defaults when the variable is unset or empty.
 */
inline pka::sim::EngineOptions
engineOptionsFromEnv()
{
    pka::sim::EngineOptions eo;
    const char *dir = std::getenv("PKA_CACHE_DIR");
    if (!dir || !*dir)
        return eo;
    // The store must outlive every engine built from these options; a
    // function-local static lives until process exit.
    static pka::store::KernelResultStore store{std::string(dir)};
    eo.store = &store;
    std::fprintf(stderr, "bench: persistent result store at '%s'\n", dir);
    return eo;
}

/** Print a section banner. */
inline void
banner(const std::string &title)
{
    std::string rule(title.size() + 8, '=');
    std::printf("\n%s\n=== %s ===\n%s\n", rule.c_str(), title.c_str(),
                rule.c_str());
}

/** Ascending sort helper returning a copy. */
inline std::vector<double>
sorted(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    return xs;
}

} // namespace pka::bench

#endif // PKA_BENCH_BENCH_UTIL_HH
