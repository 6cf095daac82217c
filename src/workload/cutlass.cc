/**
 * @file
 * CUTLASS perf-suite generator: 10 SGEMM inputs and 10 tensor-core WGEMM
 * inputs. Each input runs the same tuned GEMM kernel 7 times (warmup +
 * timed repetitions), so PKS collapses each workload to a single group
 * (paper Table 3: "2560x128x2560 wmma -> kernel 0, count 7").
 */

#include <algorithm>

#include "workload/archetypes.hh"
#include "workload/builder.hh"
#include "workload/detail.hh"
#include "workload/suites.hh"

namespace pka::workload
{

using namespace archetypes;
using detail::workloadRng;
using pka::common::Rng;

namespace
{

struct GemmShape
{
    uint32_t m, n, k;
};

// The ten problem shapes swept by the CUTLASS profiler in the paper's
// setup (shape only drives grid size / trip count here).
constexpr GemmShape kShapes[10] = {
    {2560, 128, 2560}, {2560, 512, 2560}, {2560, 1024, 2560},
    {4096, 128, 4096}, {4096, 512, 4096}, {4096, 1024, 4096},
    {4096, 4096, 4096}, {1024, 1024, 1024}, {512, 2048, 512},
    {8192, 128, 2048},
};

Workload
gemmWorkload(const std::string &name, const GemmShape &shape,
             bool tensor_core)
{
    Rng rng = workloadRng("cutlass", name);
    WorkloadBuilder b("cutlass", name, rng.nextU64());
    auto kern = gemmTile(tensor_core ? "cutlass_wmma_gemm"
                                     : "cutlass_sgemm_nn",
                         rng, tensor_core);
    // Tile = 128x128; grid covers the output, K sets the trip count.
    uint32_t ctas = std::max<uint32_t>(
        1, (shape.m / 128) * std::max<uint32_t>(1, shape.n / 128));
    ctas = std::min<uint32_t>(ctas, 256);
    uint32_t iters = std::clamp<uint32_t>(shape.k / 1024, 2, 5);
    for (int rep = 0; rep < 7; ++rep)
        b.launch(kern, {ctas, 1, 1}, {256, 1, 1},
                 {.regs = 96, .smem = 24576, .iterations = iters});
    return b.build();
}

} // namespace

detail::SuiteTable
detail::cutlassSuite()
{
    SuiteTable out;
    for (bool tc : {false, true}) {
        for (const GemmShape &s : kShapes) {
            std::string name = std::string(tc ? "wgemm_" : "sgemm_") +
                               std::to_string(s.m) + "x" +
                               std::to_string(s.n) + "x" +
                               std::to_string(s.k);
            out.push_back({name, [name, s, tc](const GenOptions &) {
                               return gemmWorkload(name, s, tc);
                           }});
        }
    }
    return out;
}

} // namespace pka::workload
