/**
 * @file
 * Parallel campaign engine tests: ThreadPool index coverage, bit-identical
 * aggregates for any thread count, memoization-cache semantics under
 * launch-id versus content seeding, and stop-policy cache keying.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "core/experiments.hh"
#include "core/pka.hh"
#include "core/pkp.hh"
#include "silicon/gpu_spec.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "sim/thread_pool.hh"
#include "workload/builder.hh"

using namespace pka::sim;
using namespace pka::workload;
using pka::silicon::voltaV100;

namespace
{

ProgramPtr
jitterProg(const std::string &name)
{
    return ProgramBuilder(name)
        .seg(InstrClass::GlobalLoad, 2)
        .seg(InstrClass::FpAlu, 8)
        .seg(InstrClass::GlobalStore, 1)
        .mem(2.0, 0.4, 0.6)
        .build();
}

KernelDescriptor
makeLaunch(ProgramPtr p, uint32_t ctas, uint32_t iters, double cta_work_cv)
{
    KernelDescriptor k;
    k.program = std::move(p);
    k.grid = {ctas, 1, 1};
    k.block = {128, 1, 1};
    k.iterations = iters;
    k.ctaWorkCv = cta_work_cv;
    return k;
}

/** A workload whose launches vary in shape and carry CTA-work jitter. */
Workload
mixedWorkload(size_t launches)
{
    Workload w;
    w.suite = "test";
    w.name = "engine_mixed";
    w.seed = 42;
    ProgramPtr a = jitterProg("a");
    ProgramPtr b = jitterProg("b");
    for (size_t i = 0; i < launches; ++i) {
        ProgramPtr p = (i % 2 == 0) ? a : b;
        w.launches.push_back(makeLaunch(p, 40 + (i % 5) * 24,
                                        2 + static_cast<uint32_t>(i % 3),
                                        0.3));
    }
    return w;
}

/** N launches of byte-identical content, distinct only in launchId. */
Workload
repeatedWorkload(size_t launches)
{
    Workload w;
    w.suite = "test";
    w.name = "engine_repeated";
    w.seed = 7;
    ProgramPtr p = jitterProg("rep");
    for (size_t i = 0; i < launches; ++i)
        w.launches.push_back(makeLaunch(p, 64, 3, 0.4));
    return w;
}

EngineOptions
engineOpts(unsigned threads, bool memoize, bool content_seed = false)
{
    EngineOptions eo;
    eo.threads = threads;
    eo.memoize = memoize;
    eo.contentSeed = content_seed;
    return eo;
}

} // namespace

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    constexpr size_t n = 2000;
    std::vector<std::atomic<int>> counts(n);
    pool.parallelFor(n, [&](size_t i) { counts[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(counts[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, HandlesEmptyAndTinyBatchesAndReuse)
{
    ThreadPool pool(4);
    pool.parallelFor(0, [](size_t) { FAIL() << "no indices expected"; });

    // Fewer items than workers, then reuse across batches.
    for (int round = 0; round < 3; ++round) {
        std::vector<std::atomic<int>> counts(2);
        pool.parallelFor(2, [&](size_t i) { counts[i].fetch_add(1); });
        EXPECT_EQ(counts[0].load(), 1);
        EXPECT_EQ(counts[1].load(), 1);
    }
}

TEST(ThreadPool, SizeOneRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<size_t> sum{0};
    pool.parallelFor(100, [&](size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
}

TEST(SimEngine, FullSimAggregatesBitIdenticalAcrossThreadCounts)
{
    GpuSimulator simulator(voltaV100());
    Workload w = mixedWorkload(24);

    SimEngine e1(engineOpts(1, false));
    pka::core::FullSimResult base =
        pka::core::fullSimulate(e1, simulator, w);
    ASSERT_GT(base.cycles, 0.0);

    for (unsigned t : {2u, 8u}) {
        SimEngine e(engineOpts(t, false));
        pka::core::FullSimResult r =
            pka::core::fullSimulate(e, simulator, w);
        // Exact double equality: reduction order must not depend on the
        // thread count.
        EXPECT_EQ(r.cycles, base.cycles) << t << " threads";
        EXPECT_EQ(r.threadInsts, base.threadInsts) << t << " threads";
        EXPECT_EQ(r.dramUtilPct, base.dramUtilPct) << t << " threads";
        ASSERT_EQ(r.perKernel.size(), base.perKernel.size());
        for (size_t i = 0; i < r.perKernel.size(); ++i)
            EXPECT_EQ(r.perKernel[i].cycles, base.perKernel[i].cycles);
    }
}

TEST(SimEngine, SelectionProjectionBitIdenticalAcrossThreadCounts)
{
    GpuSimulator simulator(voltaV100());
    Workload w = mixedWorkload(24);

    pka::core::SelectionOutcome sel;
    for (uint32_t rep : {0u, 1u, 5u, 10u}) {
        pka::core::KernelGroup g;
        g.representative = rep;
        g.weight = 6.0;
        sel.groups.push_back(g);
    }
    pka::core::PkpOptions pkp;

    SimEngine e1(engineOpts(1, false));
    pka::core::AppProjection base =
        pka::core::simulateSelection(e1, simulator, w, sel, &pkp);
    ASSERT_GT(base.projectedCycles, 0.0);

    for (unsigned t : {2u, 8u}) {
        SimEngine e(engineOpts(t, false));
        pka::core::AppProjection r =
            pka::core::simulateSelection(e, simulator, w, sel, &pkp);
        EXPECT_EQ(r.projectedCycles, base.projectedCycles);
        EXPECT_EQ(r.projectedThreadInsts, base.projectedThreadInsts);
        EXPECT_EQ(r.projectedDramUtilPct, base.projectedDramUtilPct);
        EXPECT_EQ(r.simulatedCycles, base.simulatedCycles);
    }
}

TEST(SimEngine, ContentSeedCachesIdenticalLaunches)
{
    GpuSimulator simulator(voltaV100());
    constexpr size_t kLaunches = 8;
    Workload w = repeatedWorkload(kLaunches);

    // threads=1 so the counters are exact (no concurrent first-misses).
    SimEngine cached(engineOpts(1, true, /*content_seed=*/true));
    pka::core::FullSimResult on =
        pka::core::fullSimulate(cached, simulator, w);
    EXPECT_EQ(on.cacheMisses, 1u);
    EXPECT_EQ(on.cacheHits, kLaunches - 1);
    EXPECT_EQ(cached.cacheSize(), 1u);

    // Cached results are the same bits the simulator would produce.
    SimEngine uncached(engineOpts(1, false, /*content_seed=*/true));
    pka::core::FullSimResult off =
        pka::core::fullSimulate(uncached, simulator, w);
    EXPECT_EQ(off.cacheHits, 0u);
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.threadInsts, off.threadInsts);
    EXPECT_EQ(on.dramUtilPct, off.dramUtilPct);
}

TEST(SimEngine, LaunchIdSeedingNeverManufacturesHits)
{
    GpuSimulator simulator(voltaV100());
    constexpr size_t kLaunches = 6;
    Workload w = repeatedWorkload(kLaunches);

    // Default seeding salts with launchId: identical-content launches
    // still jitter independently, so every launch must actually simulate.
    SimEngine engine(engineOpts(1, true, /*content_seed=*/false));
    pka::core::FullSimResult r =
        pka::core::fullSimulate(engine, simulator, w);
    EXPECT_EQ(r.cacheHits, 0u);
    EXPECT_EQ(r.cacheMisses, kLaunches);
    EXPECT_EQ(engine.cacheSize(), kLaunches);

    // Re-running the same stream hits every entry (same launchIds).
    pka::core::FullSimResult again =
        pka::core::fullSimulate(engine, simulator, w);
    EXPECT_EQ(again.cacheHits, kLaunches);
    EXPECT_EQ(again.cycles, r.cycles);
}

TEST(SimEngine, StopPolicyConfigKeyedSeparately)
{
    GpuSimulator simulator(voltaV100());
    Workload w = repeatedWorkload(1);
    // Long enough that PKP actually truncates (different result bits).
    KernelDescriptor longer = w.launches[0].config;
    longer.iterations = 64;
    longer.grid = {512, 1, 1};
    w.launches.replace(0, std::move(longer));

    SimEngine engine(engineOpts(1, true));
    SimJob plain;
    plain.setLaunch(w.launches[0]);
    plain.workloadSeed = w.seed;

    SimJob pkp_job = plain;
    pka::core::PkpOptions pkp;
    pkp_job.makeStop = [pkp] {
        return std::make_unique<pka::core::IpcStabilityController>(pkp);
    };
    pkp_job.stopConfigKey = pka::core::pkpStopConfigKey(pkp);
    ASSERT_NE(pkp_job.stopConfigKey, 0u);

    KernelSimResult full = engine.simulateOne(simulator, plain);
    KernelSimResult early = engine.simulateOne(simulator, pkp_job);
    EXPECT_EQ(engine.cacheMisses(), 2u);
    EXPECT_EQ(engine.cacheHits(), 0u);
    EXPECT_LT(early.cycles, full.cycles); // PKP stopped early

    // Each variant now hits its own entry.
    EXPECT_EQ(engine.simulateOne(simulator, plain).cycles, full.cycles);
    EXPECT_EQ(engine.simulateOne(simulator, pkp_job).cycles,
              early.cycles);
    EXPECT_EQ(engine.cacheHits(), 2u);

    // Different stop threshold, different key: a third miss.
    pka::core::PkpOptions loose;
    loose.threshold = 2.5;
    SimJob loose_job = plain;
    loose_job.makeStop = [loose] {
        return std::make_unique<pka::core::IpcStabilityController>(loose);
    };
    loose_job.stopConfigKey = pka::core::pkpStopConfigKey(loose);
    EXPECT_NE(loose_job.stopConfigKey, pkp_job.stopConfigKey);
    engine.simulateOne(simulator, loose_job);
    EXPECT_EQ(engine.cacheMisses(), 3u);
}

TEST(SimEngine, ClearCacheResetsCountersAndEntries)
{
    GpuSimulator simulator(voltaV100());
    Workload w = repeatedWorkload(3);
    SimEngine engine(engineOpts(1, true, true));
    pka::core::fullSimulate(engine, simulator, w);
    EXPECT_GT(engine.cacheSize(), 0u);
    engine.clearCache();
    EXPECT_EQ(engine.cacheSize(), 0u);
    EXPECT_EQ(engine.cacheHits(), 0u);
    EXPECT_EQ(engine.cacheMisses(), 0u);
}

