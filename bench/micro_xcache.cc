/**
 * @file
 * Similarity-tier microbenchmark: a multi-app fleet of GEMM-heavy
 * workloads whose kernels are shape-perturbed duplicates of one base
 * app (the cross-app redundancy the tier targets). Sweeps the
 * projection tolerance and emits BENCH_xcache.json-style output with,
 * per tolerance:
 *
 *   - dedup rate (fraction of fleet launches answered by projection),
 *   - p50/p95/max projected-cycle error against ground-truth
 *     re-simulation of every projected launch,
 *   - warm cross-app replay speedup (same perturbed app replayed
 *     against a donor-warm store, xcache on vs off).
 *
 * `--quick` runs the smallest fleet at one tolerance and exits non-zero
 * unless dedup > 0 and p95 error <= tolerance — the CI acceptance gate.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "core/experiments.hh"
#include "silicon/gpu_spec.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "store/file_store.hh"
#include "workload/builder.hh"

namespace fs = std::filesystem;
using namespace pka;
using namespace pka::workload;

namespace
{

/** A GEMM-style tile kernel: MMA-dominated with shared-memory staging. */
ProgramPtr
gemmProg(const std::string &name, uint32_t mma_per_tile)
{
    return ProgramBuilder(name)
        .seg(InstrClass::GlobalLoad, 4)
        .seg(InstrClass::SharedStore, 2)
        .seg(InstrClass::SharedLoad, 4)
        .seg(InstrClass::Tensor, mma_per_tile)
        .seg(InstrClass::FpAlu, 4)
        .seg(InstrClass::GlobalStore, 2)
        .mem(1.2, 0.5, 0.7)
        .build();
}

/** An elementwise epilogue kernel (bias/activation after a GEMM). */
ProgramPtr
epilogueProg(const std::string &name, uint32_t fp_ops)
{
    return ProgramBuilder(name)
        .seg(InstrClass::GlobalLoad, 2)
        .seg(InstrClass::FpAlu, fp_ops)
        .seg(InstrClass::GlobalStore, 1)
        .mem(1.0, 0.6, 0.8)
        .build();
}

/**
 * One app of the fleet: the same GEMM/epilogue alternation, with every
 * grid shrunk by `jitter` CTAs — app 1 is the batch-size-perturbed
 * duplicate of app 0, which is exactly what a fleet of near-identical
 * training jobs looks like to the store. Grids are sized in whole
 * machine waves (1024-thread blocks: 2 CTAs/SM x 80 SMs = a 160-CTA
 * wave on V100) and the jitter stays inside the last wave, the regime
 * where the Table-1 projection is exact up to last-wave fill: per-CTA
 * work and wave count agree, so the donor's cycles transfer directly.
 * Each layer's programs are given distinct instruction mixes so only
 * true cross-app duplicates match, never different layers.
 */
constexpr uint32_t kWaveCtas = 160;

Workload
fleetApp(size_t app, uint32_t jitter, size_t layers)
{
    Workload w;
    w.suite = "bench";
    w.name = "xcache_app" + std::to_string(app);
    w.seed = 42; // shared content seed: redundancy is the point
    for (size_t l = 0; l < layers; ++l) {
        ProgramPtr g = gemmProg("gemm_l" + std::to_string(l),
                                8 + 4 * static_cast<uint32_t>(l));
        ProgramPtr e = epilogueProg("epi_l" + std::to_string(l),
                                    6 + static_cast<uint32_t>(l));
        uint32_t waves = 2 + static_cast<uint32_t>(l % 2);
        uint32_t ctas = kWaveCtas * waves - jitter;
        KernelDescriptor kg;
        kg.program = g;
        kg.grid = {ctas, 1, 1};
        kg.block = {1024, 1, 1};
        kg.iterations = 3;
        w.launches.push_back(std::move(kg));

        KernelDescriptor ke;
        ke.program = e;
        ke.grid = {ctas * 2 - jitter, 1, 1};
        ke.block = {1024, 1, 1};
        ke.iterations = 2;
        w.launches.push_back(std::move(ke));
    }
    return w;
}

struct FleetRun
{
    double wallSeconds = 0.0;
    size_t launches = 0;
    uint64_t projected = 0;
    uint64_t simTierHits = 0;
    std::vector<double> relErrors; ///< per projected launch, vs truth
};

/**
 * Run the fleet app-by-app, each app through a fresh engine sharing one
 * store — separate campaigns against a shared cache, the serve fleet
 * shape. `truth` (same fleet, tier off) supplies per-launch ground
 * truth for the error distribution.
 */
FleetRun
runFleet(const std::vector<Workload> &apps,
         const sim::GpuSimulator &simulator,
         const store::KernelResultStore *store, double tolerance,
         const std::vector<core::FullSimResult> *truth)
{
    FleetRun run;
    for (size_t a = 0; a < apps.size(); ++a) {
        sim::EngineOptions eo;
        eo.store = store;
        eo.xcacheTolerance = tolerance;
        sim::SimEngine engine(eo);
        core::FullSimResult fs =
            core::fullSimulate(engine, simulator, apps[a]);
        run.wallSeconds += fs.wallSeconds;
        run.launches += apps[a].launches.size();
        run.projected += fs.projectedLaunches;
        run.simTierHits += fs.simTierHits;
        if (truth) {
            const core::FullSimResult &base = (*truth)[a];
            PKA_ASSERT(fs.perKernel.size() == base.perKernel.size(),
                       "fleet/truth shape mismatch");
            for (size_t i = 0; i < fs.perKernel.size(); ++i) {
                if (!fs.perKernel[i].projected)
                    continue;
                double got = fs.perKernel[i].cycles;
                double want = base.perKernel[i].cycles;
                run.relErrors.push_back(
                    want > 0 ? std::abs(got - want) / want : 0.0);
            }
        }
    }
    return run;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
    return v[i];
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;

    sim::GpuSimulator simulator(silicon::voltaV100());
    fs::path root = fs::temp_directory_path() /
                    ("pka_micro_xcache_" + std::to_string(::getpid()));

    // The fleet: app 0 is the base; the rest are shape-perturbed
    // duplicates (batch-size jitter inside the last wave). The per-CTA
    // signature matches exactly (distance 0) while every grid differs,
    // so nothing short of the similarity tier can deduplicate them.
    const size_t layers = quick ? 4 : 8;
    const std::vector<uint32_t> jitters =
        quick ? std::vector<uint32_t>{0, 8, 16}
              : std::vector<uint32_t>{0, 4, 8, 12, 16};
    std::vector<Workload> apps;
    for (size_t a = 0; a < jitters.size(); ++a)
        apps.push_back(fleetApp(a, jitters[a], layers));

    // Ground truth: the whole fleet simulated exactly, tier off.
    std::vector<core::FullSimResult> truth;
    {
        store::KernelResultStore store((root / "truth").string());
        for (const auto &w : apps) {
            sim::EngineOptions eo;
            eo.store = &store;
            sim::SimEngine engine(eo);
            truth.push_back(core::fullSimulate(engine, simulator, w));
        }
    }

    const std::vector<double> tolerances =
        quick ? std::vector<double>{0.05}
              : std::vector<double>{0.01, 0.05, 0.10};

    bench::banner("similarity-tier tolerance sweep");
    std::string json = common::strfmt(
        "{\n  \"fleet\": {\"apps\": %zu, \"layers\": %zu, "
        "\"launches\": %zu},\n  \"sweep\": [\n",
        apps.size(), layers, apps.size() * apps[0].launches.size());

    bool gate_ok = true;
    double quick_dedup = 0.0, quick_p95 = 0.0;
    for (size_t t = 0; t < tolerances.size(); ++t) {
        double tol = tolerances[t];
        fs::path tol_root =
            root / ("tol" + std::to_string(static_cast<int>(tol * 1000)));

        // Cold fleet through the tier.
        store::KernelResultStore store(tol_root.string(),
                                       /*similarity=*/true);
        FleetRun cold =
            runFleet(apps, simulator, &store, tol, &truth);
        double dedup =
            cold.launches > 0
                ? static_cast<double>(cold.projected) /
                      static_cast<double>(cold.launches)
                : 0.0;
        double p50 = percentile(cold.relErrors, 0.50);
        double p95 = percentile(cold.relErrors, 0.95);
        double pmax = cold.relErrors.empty()
                          ? 0.0
                          : *std::max_element(cold.relErrors.begin(),
                                              cold.relErrors.end());

        // Warm cross-app replay: the last (perturbed) app again, donor
        // records already on disk — projection replaces simulation.
        std::vector<Workload> last = {apps.back()};
        FleetRun warm_on =
            runFleet(last, simulator, &store, tol, nullptr);
        store::KernelResultStore off_store(
            (root / ("off" + std::to_string(t))).string());
        std::vector<Workload> donor = {apps.front()};
        runFleet(donor, simulator, &off_store, 0.0, nullptr);
        FleetRun warm_off =
            runFleet(last, simulator, &off_store, 0.0, nullptr);
        double speedup = warm_on.wallSeconds > 0
                             ? warm_off.wallSeconds / warm_on.wallSeconds
                             : 0.0;

        json += common::strfmt(
            "    {\"tolerance\": %.3f, \"projected\": %llu, "
            "\"dedup_rate\": %.3f, \"err_p50\": %.5f, "
            "\"err_p95\": %.5f, \"err_max\": %.5f, "
            "\"replay_speedup\": %.2f}%s\n",
            tol, static_cast<unsigned long long>(cold.projected), dedup,
            p50, p95, pmax, speedup,
            t + 1 < tolerances.size() ? "," : "");

        if (quick) {
            quick_dedup = dedup;
            quick_p95 = p95;
            gate_ok = cold.projected > 0 && p95 <= tol;
        }
    }
    json += common::strfmt("  ],\n  \"quick\": %s\n}\n",
                           quick ? "true" : "false");
    std::fputs(json.c_str(), stdout);
    if (FILE *out = std::fopen("BENCH_xcache.json", "w")) {
        std::fputs(json.c_str(), out);
        std::fclose(out);
        std::printf("wrote BENCH_xcache.json\n");
    }

    std::error_code ec;
    fs::remove_all(root, ec);

    if (quick && !gate_ok) {
        std::fprintf(stderr,
                     "micro_xcache: acceptance gate FAILED "
                     "(dedup=%.3f, p95=%.5f)\n",
                     quick_dedup, quick_p95);
        return 1;
    }
    return 0;
}
