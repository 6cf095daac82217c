/**
 * @file
 * End-to-end PKA benchmark driver.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --out DIR --store-pass 0|1
 *                    --app KIND:APP[:MLPERF_SCALE] [--app ...]
 *
 * One process runs one workload as a closed loop: a pass builds the
 * workload's apps (set-up), then evaluates them back to back in the
 * order of the --app flags, each as its KIND says (fig07 or analyze, see
 * Kind), on one explicit sim::SimEngine with two worker threads and every
 * other engine policy at its default; passes repeat while another one
 * fits in S seconds (at least two). Each pass starts from an empty
 * engine memo and, with --store-pass 1, an empty result store under DIR
 * that a second, store-answered evaluation of every app then reads.
 * run.py passes each workload's apps from perfbench/workloads.json. The
 * driver prints one JSON report line on stdout (run.py
 * turns it into the benchmark's result line) and, with --trace 1, writes
 * its spans to DIR.
 *
 * With --trace 0 every pass calls the public entry points the CLI and
 * the paper harnesses call (core::evaluateApp, core::runPka, ...). With
 * --trace 1 passes alternate between that and a traced pass that makes
 * the same calls one level down (silicon run, profiling, selection,
 * simulation), with a span around each; the traced pass must reproduce
 * the untraced result digests bit for bit.
 */

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "common/stats.hh"
#include "core/baselines.hh"
#include "core/experiments.hh"
#include "core/pka.hh"
#include "core/pks.hh"
#include "perfbench.hh"
#include "silicon/gpu_spec.hh"
#include "silicon/profiler.hh"
#include "silicon/silicon_gpu.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "store/file_store.hh"
#include "workload/suites.hh"

namespace fs = std::filesystem;
using namespace pka;
using perfbench::AppOutcome;
using perfbench::Scope;
using perfbench::Tracer;

namespace
{

using Clock = std::chrono::steady_clock;

/** Engine worker threads: half of the 4-CPU host the benchmark was
 *  sized on, with every other engine policy at its default. */
constexpr unsigned kEngineThreads = 2;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process user+system CPU seconds, all threads. */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

// ---------------------------------------------------------------------
// Workloads

/** How one app is evaluated. */
enum class Kind
{
    kFig07,   ///< evaluateApp + TBPoint + first-N
    kAnalyze, ///< `pka analyze`: runPka + SiliconGpu::run
};

struct AppDef
{
    std::string name;
    Kind kind;
    double mlperfScale; ///< GenOptions::mlperfScale it is built with
};

struct WorkloadDef
{
    std::string name;
    std::vector<AppDef> apps;
    /** Attach a fresh result store to the engine, then evaluate every
     *  app again on a fresh engine answered only by that store. */
    bool storePass = false;
};

/**
 * The run's seed mixed into an app's Workload::seed (seed 0 leaves the
 * registry's value). Only the traced variant takes it: silicon jitter
 * and simulator RNG follow the seed, launch structure does not change,
 * and the profiled variant — hence profiling and selection — stays the
 * same in every run, so every seed does the same amount of work.
 */
uint64_t
mixSeed(uint64_t base, uint64_t seed)
{
    if (seed == 0)
        return base;
    uint64_t z = seed + 0x9E3779B97F4A7C15ULL; // splitmix64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return base ^ (z ^ (z >> 31));
}

// ---------------------------------------------------------------------
// One pass

/** What a pass hands to the calls it makes. */
struct Ctx
{
    const silicon::SiliconGpu &gpu;
    const sim::GpuSimulator &simulator;
    const sim::SimEngine &engine;
    Tracer *tracer; ///< null in untraced passes
    int run;
};

template <class F>
auto
spanned(const Ctx &c, const char *name, F &&f)
{
    Scope s(c.tracer, name, c.run);
    return f();
}

/**
 * core::selectKernelsChecked's composition, one call per span: the
 * tractability test, full detailed profiling + PKS, or the detailed
 * prefix + lightweight profile + two-level ensemble.
 */
core::SelectionOutcome
selectTraced(const workload::Workload &w, const Ctx &c)
{
    Scope sel(c.tracer, "core.select", c.run);
    const core::PkaOptions options;
    silicon::DetailedProfiler detailed(c.gpu);
    silicon::LightweightProfiler light(c.gpu);
    core::SelectionOutcome out;

    double full_cost = spanned(c, "silicon.cost_model",
                               [&] { return detailed.costSeconds(w); });
    double scale = w.scale > 0 ? w.scale : 1.0;
    core::PksOptions pks_opts = options.pks;
    pks_opts.validation = options.strictProfiles
                              ? core::ValidationPolicy::kStrict
                              : core::ValidationPolicy::kRepair;

    if (full_cost / scale <= options.detailedProfilingBudgetSec ||
        w.launches.size() <= options.twoLevelDetailedKernels) {
        auto profiles = spanned(c, "silicon.profile",
                                [&] { return detailed.profile(w); });
        auto pks = spanned(c, "core.pks", [&] {
            return core::principalKernelSelectionChecked(std::move(profiles),
                                                         pks_opts);
        });
        if (!pks.ok())
            throw std::runtime_error(pks.error().str());
        out.validation = pks.value().validation;
        out.groups = std::move(pks.value().groups);
        out.detailedCount =
            w.launches.size() - out.validation.excludedLaunchIds.size();
        out.profilingCostSec = full_cost;
        return out;
    }

    core::TwoLevelOptions tl;
    tl.detailedKernels = options.twoLevelDetailedKernels;
    tl.pks = pks_opts;
    tl.abstainThreshold = options.abstainThreshold;
    auto prefix = spanned(c, "silicon.profile", [&] {
        return detailed.profile(w, tl.detailedKernels);
    });
    auto all_light =
        spanned(c, "silicon.profile", [&] { return light.profile(w); });
    auto two = spanned(c, "core.two_level", [&] {
        return core::twoLevelSelectionChecked(std::move(prefix),
                                              std::move(all_light), tl);
    });
    if (!two.ok())
        throw std::runtime_error(two.error().str());
    core::TwoLevelResult &t = two.value();
    out.groups = std::move(t.groups);
    out.usedTwoLevel = true;
    out.detailedCount = t.detailedCount;
    out.profilingCostSec = spanned(c, "silicon.cost_model", [&] {
        return detailed.costSeconds(w, tl.detailedKernels) +
               light.costSeconds(w);
    });
    out.ensembleUnanimity = t.ensembleUnanimity;
    out.validation = t.prefixSelection.validation;
    out.abstentions = t.abstentions;
    out.fallbackMapped = t.fallbackMapped;
    out.meanEnsembleConfidence = t.meanEnsembleConfidence;
    return out;
}

/** core::runPka's composition one level down: selection on the profiled
 *  variant, then the representatives without and with PKP. */
void
runPkaTraced(const core::WorkloadPair &pair, const Ctx &c, AppOutcome &o)
{
    const workload::Workload &w = pair.traced;
    if (w.launches.size() != pair.profiled.launches.size())
        throw std::runtime_error("excluded: profiled and traced launch "
                                 "counts differ");
    const core::PkaOptions options;
    o.selection = selectTraced(pair.profiled, c);
    o.pks = spanned(c, "sim.pks", [&] {
        return core::simulateSelection(c.engine, c.simulator, w, o.selection,
                                       nullptr);
    });
    o.pka = spanned(c, "sim.pka", [&] {
        return core::simulateSelection(c.engine, c.simulator, w, o.selection,
                                       &options.pkp);
    });
}

/** core::evaluateApp (untraced) or its steps, in its order (traced). */
AppOutcome
evaluate(const core::WorkloadPair &pair, const Ctx &c)
{
    if (!c.tracer) {
        core::AppEvaluation ev = core::evaluateApp(
            pair, c.gpu, c.simulator, core::EvalOptions{}, &c.engine);
        if (ev.excluded)
            throw std::runtime_error("excluded: " + ev.exclusionReason);
        return perfbench::outcomeOf(ev);
    }
    const workload::Workload &w = pair.traced;
    AppOutcome o;
    o.app = w.name;
    silicon::AppExecution sil =
        spanned(c, "silicon.run", [&] { return c.gpu.run(w); });
    o.siliconCycles = static_cast<double>(sil.totalCycles);
    double sil_insts = 0.0;
    for (const auto &l : sil.launches)
        sil_insts += l.threadIpc * static_cast<double>(l.cycles);
    o.siliconIpc = o.siliconCycles > 0 ? sil_insts / o.siliconCycles : 0.0;
    runPkaTraced(pair, c, o);
    std::vector<uint64_t> cycles(w.launches.size());
    for (size_t i = 0; i < sil.launches.size(); ++i)
        cycles[i] = sil.launches[i].cycles;
    o.siliconPksErrorPct =
        core::evaluateSelection(o.selection.groups, cycles).errorPct;
    if (core::isFullySimulable(w)) {
        o.fullySimulated = true;
        o.fullSim = spanned(c, "sim.fullsim", [&] {
            return core::fullSimulate(c.engine, c.simulator, w);
        });
    }
    return o;
}

/** `pka analyze`: core::runPka plus SiliconGpu::run (untraced), or the
 *  same composition one level down (traced). */
AppOutcome
analyze(const core::WorkloadPair &pair, const Ctx &c)
{
    const workload::Workload &w = pair.traced;
    AppOutcome o;
    o.app = w.name;
    if (!c.tracer) {
        core::PkaAppResult res = core::runPka(c.engine, w, pair.profiled,
                                              c.gpu, c.simulator);
        if (res.excluded)
            throw std::runtime_error("excluded: " + res.exclusionReason);
        o.selection = std::move(res.selection);
        o.pks = std::move(res.pks);
        o.pka = std::move(res.pka);
    } else {
        runPkaTraced(pair, c, o);
    }
    o.siliconCycles = spanned(c, "silicon.run", [&] {
        return static_cast<double>(c.gpu.run(w).totalCycles);
    });
    return o;
}

/** The fig07 baselines: TBPoint over the full-simulation stats and the
 *  first-1B-equivalent instructions. */
void
addBaselines(AppOutcome &o, const workload::Workload &w, const Ctx &c)
{
    auto tbp = spanned(c, "core.tbpoint", [&] {
        return core::tbpointSelectChecked(o.fullSim.perKernel);
    });
    if (!tbp.ok())
        throw std::runtime_error(tbp.error().str());
    o.tbpoint = std::move(tbp.value());
    o.firstN = spanned(c, "sim.first_n", [&] {
        return core::firstNInstructions(c.engine, c.simulator, w,
                                        core::k1BEquivalentInstructions);
    });
    o.hasBaselines = true;
}

/** One app evaluation as the report sees it. */
struct Evaluation
{
    std::string app; ///< app name, "@store" suffix for the store pass
    bool ok = false;
    std::string error;
    uint64_t digest = 0;
    double wall = 0.0;
    double cpu = 0.0;
};

struct PassResult
{
    bool traced = false;
    double setup = 0.0;
    double wall = 0.0;
    double cpu = 0.0;
    double peakRss = 0.0; ///< process peak RSS (MiB) at the pass's end
    std::vector<Evaluation> evals;
    std::vector<AppOutcome> cold; ///< outcomes of the first evaluations
    std::map<std::string, double> layer; ///< per-layer values (traced)
};

/** Run `f` for one app, timing it and turning a thrown error into a
 *  failed evaluation. */
template <class F>
Evaluation
timedEval(const std::string &app, F &&f)
{
    Evaluation e;
    e.app = app;
    auto t0 = Clock::now();
    double c0 = processCpuSeconds();
    try {
        f();
        e.ok = true;
    } catch (const std::exception &ex) {
        e.error = ex.what();
    }
    e.wall = since(t0);
    e.cpu = processCpuSeconds() - c0;
    return e;
}

/** Engine accounting summed over one outcome's simulation calls. */
struct EngineCounts
{
    uint64_t memory = 0;    ///< answered from the engine memo
    uint64_t store = 0;     ///< answered from the result store
    uint64_t simulated = 0; ///< actually simulated
    uint64_t failed = 0;
};

EngineCounts
engineCounts(const AppOutcome &o)
{
    EngineCounts n;
    auto add = [&](uint64_t memory, uint64_t store, uint64_t simulated,
                   uint64_t failed) {
        n.memory += memory;
        n.store += store;
        n.simulated += simulated;
        n.failed += failed;
    };
    add(o.pks.cacheHits, o.pks.storeHits, o.pks.cacheMisses,
        o.pks.failedLaunches);
    add(o.pka.cacheHits, o.pka.storeHits, o.pka.cacheMisses,
        o.pka.failedLaunches);
    if (o.fullySimulated)
        add(o.fullSim.cacheHits, o.fullSim.storeHits, o.fullSim.cacheMisses,
            o.fullSim.failedLaunches);
    if (o.hasBaselines)
        add(o.firstN.cacheHits, o.firstN.storeHits, o.firstN.cacheMisses, 0);
    return n;
}

/** Per-layer counts from what the called functions returned. */
void
countLayers(const std::vector<AppOutcome> &cold,
            const std::vector<AppOutcome> &stored,
            const std::vector<core::WorkloadPair> &pairs,
            std::map<std::string, double> &m)
{
    double busy = 0.0, engine_wall = 0.0, pks_cycles = 0.0,
           pka_cycles = 0.0, full_cycles = 0.0, full_busy = 0.0;
    auto outcome = [&](const AppOutcome &o) {
        EngineCounts n = engineCounts(o);
        m["sim.launches"] +=
            static_cast<double>(n.memory + n.store + n.simulated);
        m["sim.memory_hits"] += static_cast<double>(n.memory);
        m["sim.store_hits"] += static_cast<double>(n.store);
        m["sim.simulated"] += static_cast<double>(n.simulated);
        m["sim.failed"] += static_cast<double>(n.failed);
        busy += o.pks.simulatedCpuSeconds + o.pka.simulatedCpuSeconds;
        engine_wall += o.pks.simulatedWallSeconds + o.pka.simulatedWallSeconds;
        if (o.fullySimulated) {
            busy += o.fullSim.cpuSeconds;
            engine_wall += o.fullSim.wallSeconds;
        }
    };
    for (const AppOutcome &o : cold) {
        outcome(o);
        pks_cycles += o.pks.simulatedCycles;
        pka_cycles += o.pka.simulatedCycles;
        m["sim.cycles"] += o.pks.simulatedCycles + o.pka.simulatedCycles +
                           o.fullSim.cycles + o.firstN.simulatedCycles;
        if (o.fullySimulated) {
            full_cycles += o.fullSim.cycles;
            full_busy += o.fullSim.cpuSeconds;
        }
        m["core.groups"] += static_cast<double>(o.selection.groups.size());
        if (o.hasBaselines)
            m["core.tbpoint_kernels"] +=
                static_cast<double>(o.fullSim.perKernel.size());
    }
    for (const AppOutcome &o : stored)
        outcome(o);
    for (size_t i = 0; i < cold.size() && i < pairs.size(); ++i)
        if (cold[i].selection.usedTwoLevel)
            m["core.two_level_launches"] += static_cast<double>(
                pairs[i].traced.launches.size() -
                cold[i].selection.detailedCount);

    m["sim.busy_s"] = busy;
    m["sim.utilization"] =
        engine_wall > 0 ? 100.0 * busy / (engine_wall * kEngineThreads)
                        : 0.0;
    m["sim.cycles_per_busy_s"] = full_busy > 0 ? full_cycles / full_busy
                                               : 0.0;
    m["sim.pkp_saving_x"] = pka_cycles > 0 ? pks_cycles / pka_cycles : 0.0;
    double launches = m["sim.launches"];
    m["sim.hit_ratio"] =
        launches > 0
            ? 100.0 * (m["sim.memory_hits"] + m["sim.store_hits"]) / launches
            : 0.0;
    for (const core::WorkloadPair &p : pairs) {
        m["workload.launches"] +=
            static_cast<double>(p.traced.launches.size());
        m["workload.distinct_kernels"] +=
            static_cast<double>(p.traced.distinctPrograms());
        m["workload.warp_insts"] +=
            static_cast<double>(p.traced.totalWarpInstructions());
    }
}

void
countStore(const store::StoreStatsSnapshot &cold,
           const store::StoreStatsSnapshot &end,
           std::map<std::string, double> &m)
{
    constexpr double kMiB = 1024.0 * 1024.0;
    uint64_t hits = end.hits - cold.hits;
    uint64_t reads = hits + (end.misses - cold.misses) +
                     (end.corruptSkipped - cold.corruptSkipped) +
                     (end.keyMismatches - cold.keyMismatches);
    m["store.reads"] = static_cast<double>(reads);
    m["store.read_mb"] =
        static_cast<double>(end.bytesRead - cold.bytesRead) / kMiB;
    m["store.hit_ratio"] =
        reads > 0 ? 100.0 * static_cast<double>(hits) /
                        static_cast<double>(reads)
                  : 0.0;
    m["store.corrupt"] =
        static_cast<double>(end.corruptSkipped - cold.corruptSkipped);
    m["store.writes"] = static_cast<double>(cold.puts);
    m["store.write_mb"] = static_cast<double>(cold.bytesWritten) / kMiB;
    m["store.io_retries"] = static_cast<double>(end.ioRetries);
}

/**
 * The store pass of a run must reproduce the cold pass bit for bit and
 * be answered by the store: nothing simulated again, at least one store
 * hit, every result the cold pass simulated written, persistence not
 * degraded to compute-through. Otherwise each "@store" evaluation fails.
 */
void
checkStorePass(PassResult &res, const std::vector<AppOutcome> &stored,
               const store::KernelResultStore &store,
               const store::StoreStatsSnapshot &cold_store)
{
    size_t napps = stored.size();
    uint64_t cold_simulated = 0;
    for (const AppOutcome &o : res.cold)
        cold_simulated += engineCounts(o).simulated;
    std::string store_fault;
    if (store.degraded())
        store_fault = "the store degraded to compute-through";
    else if (cold_store.puts < cold_simulated)
        store_fault = "the cold pass wrote " +
                      std::to_string(cold_store.puts) + " of " +
                      std::to_string(cold_simulated) + " simulated results";
    for (size_t i = 0; i < napps; ++i) {
        Evaluation &e = res.evals[napps + i];
        if (!e.ok)
            continue;
        const AppOutcome &s = stored[i];
        e.digest = perfbench::appDigest(s);
        EngineCounts n = engineCounts(s);
        if (!res.evals[i].ok ||
            perfbench::evaluationDigest(s) !=
                perfbench::evaluationDigest(res.cold[i]))
            e.error = "store-answered pass differs from the cold pass";
        else if (n.simulated > 0)
            e.error = "store-answered pass simulated " +
                      std::to_string(n.simulated) + " launches";
        else if (n.store == 0)
            e.error = "store-answered pass read nothing from the store";
        else
            e.error = store_fault;
        e.ok = e.error.empty();
    }
}

PassResult
runPass(const WorkloadDef &def, uint64_t seed, const fs::path &out_dir,
        int run, Tracer *tracer)
{
    PassResult res;
    res.traced = tracer != nullptr;
    int root = tracer ? tracer->begin("bench.pass", run) : -1;

    // Set-up: the traced and profiled variant of every app, the device
    // and simulator models, the engine and (storePass) a fresh store.
    auto t0 = Clock::now();
    std::vector<core::WorkloadPair> pairs;
    for (const AppDef &app : def.apps) {
        Scope s(tracer, "workload.build", run);
        workload::GenOptions g;
        g.mlperfScale = app.mlperfScale;
        workload::GenOptions gp = g;
        gp.underProfiler = true;
        auto traced = workload::buildWorkload(app.name, g);
        auto profiled = workload::buildWorkload(app.name, gp);
        if (!traced || !profiled)
            throw std::runtime_error("unknown workload " + app.name);
        traced->seed = mixSeed(traced->seed, seed);
        pairs.push_back({std::move(*traced), std::move(*profiled)});
    }
    const silicon::GpuSpec spec = silicon::voltaV100();
    silicon::SiliconGpu gpu(spec);
    sim::GpuSimulator simulator(spec);
    fs::path store_dir = out_dir / ("store-" + std::to_string(getpid()) +
                                    "-" + std::to_string(run));
    std::unique_ptr<store::KernelResultStore> store;
    if (def.storePass) {
        Scope s(tracer, "store.open", run);
        fs::remove_all(store_dir);
        store = std::make_unique<store::KernelResultStore>(store_dir.string());
    }
    sim::EngineOptions eo;
    eo.threads = kEngineThreads;
    eo.store = store.get();
    auto engine = std::make_unique<sim::SimEngine>(eo);
    res.setup = since(t0);

    // Timed phase: the closed loop over the apps.
    auto t1 = Clock::now();
    double c1 = processCpuSeconds();
    Ctx ctx{gpu, simulator, *engine, tracer, run};
    res.cold.resize(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
        res.evals.push_back(timedEval(def.apps[i].name, [&] {
            if (def.apps[i].kind == Kind::kAnalyze) {
                res.cold[i] = analyze(pairs[i], ctx);
            } else {
                res.cold[i] = evaluate(pairs[i], ctx);
                addBaselines(res.cold[i], pairs[i].traced, ctx);
            }
        }));
    }
    std::vector<AppOutcome> stored;
    store::StoreStatsSnapshot cold_store;
    if (def.storePass) {
        // The table04/fig06 composition: evaluateApp again, on a fresh
        // engine whose only source of results is the store.
        cold_store = store->stats();
        stored.resize(pairs.size());
        sim::SimEngine warm(eo);
        Ctx wctx{gpu, simulator, warm, nullptr, run};
        for (size_t i = 0; i < pairs.size(); ++i)
            res.evals.push_back(timedEval(def.apps[i].name + "@store", [&] {
                Scope s(tracer, "sim.cached_pass", run);
                stored[i] = evaluate(pairs[i], wctx);
            }));
    }
    res.wall = since(t1);
    res.cpu = processCpuSeconds() - c1;
    if (tracer)
        tracer->end(root);

    // Untimed: digests, counts, teardown.
    size_t napps = pairs.size();
    for (size_t i = 0; i < napps; ++i)
        if (res.evals[i].ok)
            res.evals[i].digest = perfbench::appDigest(res.cold[i]);
    if (def.storePass)
        checkStorePass(res, stored, *store, cold_store);
    if (tracer) {
        for (const auto &[name, secs] : tracer->selfSeconds(run))
            res.layer[name + "_s"] = secs;
        res.layer["trace.coverage_pct"] = tracer->coveragePct(root);
        countLayers(res.cold, stored, pairs, res.layer);
        if (store)
            countStore(cold_store, store->stats(), res.layer);
    }
    engine.reset();
    store.reset();
    if (def.storePass)
        fs::remove_all(store_dir);
    res.peakRss = peakRssMiB();
    return res;
}

// ---------------------------------------------------------------------
// Run facts

std::string
fsTypeName(const fs::path &dir, bool *memory_backed)
{
    struct statfs sf{};
    *memory_backed = false;
    if (statfs(dir.c_str(), &sf) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(sf.f_type)) {
    case 0x01021994UL:
        *memory_backed = true;
        return "tmpfs";
    case 0x858458f6UL:
        *memory_backed = true;
        return "ramfs";
    case 0xEF53UL:
        return "ext2/3/4";
    case 0x58465342UL:
        return "xfs";
    case 0x9123683EUL:
        return "btrfs";
    case 0x794c7630UL:
        return "overlayfs";
    case 0x6969UL:
        return "nfs";
    default: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%lx",
                      static_cast<unsigned long>(sf.f_type));
        return buf;
    }
    }
}

const char *
sanitizer()
{
#if defined(__SANITIZE_ADDRESS__)
    return "address";
#elif defined(__SANITIZE_THREAD__)
    return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    return "address";
#elif __has_feature(thread_sanitizer)
    return "thread";
#else
    return "none";
#endif
#else
    return "none";
#endif
}

// ---------------------------------------------------------------------
// Report

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", ch);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
jsonList(const std::vector<double> &xs)
{
    std::string out = "[";
    for (size_t i = 0; i < xs.size(); ++i)
        out += (i ? "," : "") + jsonNum(xs[i]);
    return out + "]";
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "NAME --seed N --seconds S --trace 0|1 --out DIR "
                 "--store-pass 0|1 --app KIND:APP[:MLPERF_SCALE] "
                 "[--app ...]\n",
                 msg.c_str());
    std::exit(2);
}

struct Args
{
    WorkloadDef def;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    fs::path out;
};

/** KIND:APP[:MLPERF_SCALE]; the scale defaults to GenOptions'. */
AppDef
parseApp(const std::string &spec)
{
    std::vector<std::string> f;
    std::istringstream is(spec);
    for (std::string part; std::getline(is, part, ':');)
        f.push_back(part);
    if (f.size() < 2 || f.size() > 3 || f[1].empty())
        usage("bad --app '" + spec + "'");
    AppDef app{f[1], Kind::kFig07, workload::GenOptions{}.mlperfScale};
    if (f[0] == "analyze")
        app.kind = Kind::kAnalyze;
    else if (f[0] != "fig07")
        usage("unknown app kind '" + f[0] + "'");
    if (f.size() == 3) {
        auto scale = common::parseNumInRange(f[2], 1e-6, 1.0);
        if (!scale.ok())
            usage("bad MLPerf scale in --app '" + spec + "'");
        app.mlperfScale = scale.value();
    }
    return app;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    std::map<std::string, std::string> kv;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc || std::strncmp(argv[i], "--", 2) != 0)
            usage("expected --flag value pairs");
        if (std::strcmp(argv[i], "--app") == 0)
            a.def.apps.push_back(parseApp(argv[i + 1]));
        else
            kv[argv[i] + 2] = argv[i + 1];
    }
    for (const char *k :
         {"workload", "seed", "seconds", "trace", "out", "store-pass"})
        if (!kv.count(k))
            usage(std::string("missing --") + k);
    if (a.def.apps.empty())
        usage("no --app given");
    auto seed = common::parseUint(kv["seed"]);
    auto seconds = common::parseNumInRange(kv["seconds"], 0.0, 3600.0);
    auto trace = common::parseUint(kv["trace"], 0, 1);
    auto store_pass = common::parseUint(kv["store-pass"], 0, 1);
    if (!seed.ok() || !seconds.ok() || !trace.ok() || !store_pass.ok())
        usage("--seed, --seconds, --trace and --store-pass take numbers");
    a.def.name = kv["workload"];
    a.def.storePass = store_pass.value() == 1;
    a.seed = seed.value();
    a.seconds = seconds.value();
    a.trace = trace.value() == 1;
    a.out = kv["out"];
    return a;
}

/**
 * The run's passes. Untraced runs repeat plain passes; traced runs
 * alternate plain and traced ones, so the tracing overhead compares like
 * with like. Passes repeat while one more of median length still fits
 * in the measuring window, at least twice. Every pass must then
 * reproduce pass 0's digest of each app.
 */
std::vector<PassResult>
runPasses(const Args &a, Tracer &tracer)
{
    constexpr size_t kMinPasses = 2;
    std::vector<PassResult> passes;
    std::vector<double> pass_secs;
    auto t0 = Clock::now();
    while (passes.size() < kMinPasses ||
           since(t0) + common::median(pass_secs) <= a.seconds) {
        auto tp = Clock::now();
        int run = static_cast<int>(passes.size());
        bool traced = a.trace && run % 2 == 1;
        passes.push_back(
            runPass(a.def, a.seed, a.out, run, traced ? &tracer : nullptr));
        const PassResult &p = passes.back();
        std::fprintf(stderr, "pass %d%s: setup %.3f s, wall %.3f s, cpu "
                             "%.3f s\n",
                     run, traced ? " (traced)" : "", p.setup, p.wall, p.cpu);
        pass_secs.push_back(since(tp));
    }

    const PassResult &first = passes.front();
    for (PassResult &p : passes)
        for (size_t i = 0; i < p.evals.size(); ++i) {
            Evaluation &e = p.evals[i];
            if (e.ok && first.evals[i].ok &&
                e.digest != first.evals[i].digest) {
                e.ok = false;
                e.error = "digest differs from pass 0";
            }
        }
    return passes;
}

/** The end-to-end metrics of an untraced run. */
std::map<std::string, double>
endToEnd(const std::vector<PassResult> &passes)
{
    // wall_s and cpu_s are one pass's timed phase, as the sum over its
    // app evaluations of each one's median over the passes: host noise
    // comes in bursts shorter than a pass, and a burst then moves one
    // evaluation's samples, not the whole figure.
    std::map<std::string, std::vector<double>> walls, cpus;
    std::vector<double> setups;
    for (const PassResult &p : passes) {
        setups.push_back(p.setup);
        for (const Evaluation &e : p.evals) {
            walls[e.app].push_back(e.wall);
            cpus[e.app].push_back(e.cpu);
        }
    }
    auto sum_of_medians = [](const auto &per_app) {
        double sum = 0.0;
        for (const auto &[app, xs] : per_app)
            sum += common::median(xs);
        return sum;
    };

    // Result metrics are deterministic: take them from pass 0.
    const PassResult &first = passes.front();
    std::vector<double> errs, reductions;
    for (size_t i = 0; i < first.cold.size(); ++i)
        if (first.evals[i].ok) {
            errs.push_back(perfbench::pkaErrorPct(first.cold[i]));
            reductions.push_back(perfbench::simReduction(first.cold[i]));
        }
    return {
        {"wall_s", sum_of_medians(walls)},
        {"cpu_s", sum_of_medians(cpus)},
        {"setup_s", common::median(setups)},
        // Pass 0's peak: later, identical passes only add allocator
        // growth that depends on how many passes fit in the window.
        {"peak_rss_mb", first.peakRss},
        {"pka_error_pct", common::mean(errs)},
        {"sim_reduction_x", common::geomean(reductions)},
    };
}

/** The per-layer metrics of a traced run: each the median over the
 *  traced passes, plus the tracing cost against the plain passes. */
std::map<std::string, double>
perLayer(const std::vector<PassResult> &passes)
{
    std::map<std::string, std::vector<double>> layer;
    std::vector<double> traced, plain;
    for (const PassResult &p : passes) {
        (p.traced ? traced : plain).push_back(p.setup + p.wall);
        if (!p.traced)
            continue;
        for (const perfbench::MetricDef &d : perfbench::perLayerMetrics()) {
            auto it = p.layer.find(d.name);
            layer[d.name].push_back(it == p.layer.end() ? 0.0 : it->second);
        }
    }
    std::map<std::string, double> m;
    for (const auto &[name, xs] : layer)
        m[name] = common::median(xs);
    double base = common::median(plain);
    m["trace.overhead_pct"] =
        base > 0 ? 100.0 * (common::median(traced) - base) / base : 0.0;
    return m;
}

/** The report line run.py reads: run facts, every evaluation with its
 *  digest, the per-pass samples and the metrics. */
std::string
report(const Args &a, const std::vector<PassResult> &passes,
       const std::map<std::string, double> &metrics,
       const std::string &trace_file)
{
    bool memory_backed = false;
    std::string store_fs = fsTypeName(a.out, &memory_backed);
    std::string j = "{\"workload\":" + jsonStr(a.def.name) +
                    ",\"seed\":" + std::to_string(a.seed) +
                    ",\"trace\":" + (a.trace ? "1" : "0") +
                    ",\"passes\":" + std::to_string(passes.size());
    j += ",\"facts\":{\"nproc\":" +
         std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"engine_threads\":" + std::to_string(kEngineThreads) +
         ",\"compiler\":" + jsonStr(PERFBENCH_COMPILER) +
         ",\"build_type\":" + jsonStr(PERFBENCH_BUILD_TYPE) +
#ifdef PKA_FAULT_INJECTION
         ",\"fault_injection\":true" +
#else
         ",\"fault_injection\":false" +
#endif
         ",\"sanitizer\":" + jsonStr(sanitizer()) +
         ",\"store_fs\":" + jsonStr(store_fs) +
         ",\"store_memory_backed\":" + (memory_backed ? "true" : "false") +
         "}";
    std::vector<double> setups, walls, cpus;
    std::string evals;
    for (size_t p = 0; p < passes.size(); ++p) {
        if (!passes[p].traced) {
            setups.push_back(passes[p].setup);
            walls.push_back(passes[p].wall);
            cpus.push_back(passes[p].cpu);
        }
        for (const Evaluation &e : passes[p].evals)
            evals += std::string(evals.empty() ? "" : ",") +
                     "{\"app\":" + jsonStr(e.app) +
                     ",\"pass\":" + std::to_string(p) +
                     ",\"ok\":" + (e.ok ? "true" : "false") +
                     ",\"digest\":\"" + perfbench::hex16(e.digest) +
                     "\",\"wall_s\":" + jsonNum(e.wall) +
                     ",\"cpu_s\":" + jsonNum(e.cpu) +
                     ",\"error\":" + jsonStr(e.error) + "}";
    }
    j += ",\"evaluations\":[" + evals + "]";
    j += ",\"samples\":{\"setup_s\":" + jsonList(setups) +
         ",\"wall_s\":" + jsonList(walls) + ",\"cpu_s\":" + jsonList(cpus) +
         "}";
    std::string ms;
    for (const auto &[name, v] : metrics)
        ms += (ms.empty() ? "" : ",") + jsonStr(name) + ":" + jsonNum(v);
    j += ",\"metrics\":{" + ms + "},\"trace_file\":" + jsonStr(trace_file) +
         "}";
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    if (std::strcmp(sanitizer(), "none") != 0) {
        std::fprintf(stderr,
                     "perfbench_driver: refusing to time a %s-sanitizer "
                     "build\n",
                     sanitizer());
        return 3;
    }
    Tracer tracer;
    std::vector<PassResult> passes;
    std::string trace_file;
    try {
        fs::create_directories(a.out);
        passes = runPasses(a, tracer);
        if (a.trace) {
            fs::path tf = a.out / ("trace-" + a.def.name +
                                   "-seed" + std::to_string(a.seed) +
                                   ".json");
            std::ofstream os(tf);
            tracer.writeChromeTrace(os);
            if (!os)
                throw std::runtime_error("cannot write " + tf.string());
            trace_file = tf.string();
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
    std::printf("%s\n",
                report(a, passes, a.trace ? perLayer(passes) : endToEnd(passes),
                       trace_file)
                    .c_str());
    return 0;
}
