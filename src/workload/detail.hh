/**
 * @file
 * Internal helpers shared by the suite generators. Not part of the public
 * API.
 */

#ifndef PKA_WORKLOAD_DETAIL_HH
#define PKA_WORKLOAD_DETAIL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hh"
#include "workload/suites.hh"

namespace pka::workload::detail
{

/** FNV-1a: a stable (cross-run, cross-platform) string hash for seeding. */
inline uint64_t
stableHash(std::string_view s)
{
    uint64_t h = 1469598103934665603ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

/** Per-workload deterministic generator. */
inline pka::common::Rng
workloadRng(std::string_view suite, std::string_view name)
{
    return pka::common::Rng::forKey(stableHash(suite), stableHash(name));
}

/** One registry row: a workload's name and its generator. */
struct SuiteEntry
{
    std::string name;
    std::function<Workload(const GenOptions &)> build;
};

/** A suite's rows, in registry order. */
using SuiteTable = std::vector<SuiteEntry>;

/** Rodinia 3.1 — 28 workloads. */
SuiteTable rodiniaSuite();

/** Parboil — 8 workloads. */
SuiteTable parboilSuite();

/** Polybench-GPU — 15 workloads. */
SuiteTable polybenchSuite();

/** CUTLASS perf suite — 10 SGEMM + 10 tensor-core WGEMM inputs. */
SuiteTable cutlassSuite();

/** DeepBench — 69 workloads (conv/GEMM/RNN x inference/training x TC). */
SuiteTable deepbenchSuite();

/** MLPerf — 7 scaled workloads. */
SuiteTable mlperfSuite();

} // namespace pka::workload::detail

#endif // PKA_WORKLOAD_DETAIL_HH
