/**
 * @file
 * Cycle-level simulator tests: memory-model timing and accounting, IPC
 * tracking, SM/warp execution invariants, early-stop and truncation
 * mechanisms, determinism, and device-scaling properties.
 */

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hh"
#include "common/rng.hh"
#include "core/pkp.hh"
#include "silicon/gpu_spec.hh"
#include "sim/fnv.hh"
#include "sim/ipc_tracker.hh"
#include "sim/memory_model.hh"
#include "sim/simulator.hh"
#include "sim/sm_core.hh"
#include "sim/timing_wheel.hh"
#include "sim/trace.hh"
#include "workload/builder.hh"
#include "workload/suites.hh"

using namespace pka::sim;
using namespace pka::workload;
using pka::silicon::voltaV100;
using pka::silicon::withSmCount;

namespace
{

ProgramPtr
computeProg()
{
    return ProgramBuilder("compute")
        .seg(InstrClass::FpAlu, 16)
        .seg(InstrClass::IntAlu, 4)
        .build();
}

ProgramPtr
memProg(double l1 = 0.2, double l2 = 0.3)
{
    return ProgramBuilder("mem")
        .seg(InstrClass::GlobalLoad, 4)
        .seg(InstrClass::IntAlu, 2)
        .seg(InstrClass::GlobalStore, 2)
        .mem(4.0, l1, l2)
        .build();
}

KernelDescriptor
makeKernel(ProgramPtr p, uint32_t ctas, uint32_t threads, uint32_t iters)
{
    KernelDescriptor k;
    k.program = std::move(p);
    k.grid = {ctas, 1, 1};
    k.block = {threads, 1, 1};
    k.iterations = iters;
    k.regsPerThread = 32;
    return k;
}

} // namespace

TEST(MemoryModel, HigherLocalityIsFaster)
{
    auto spec = voltaV100();
    MemoryModel mem(spec, 1);
    auto hot = memProg(0.95, 0.95);
    auto cold = memProg(0.0, 0.0);
    // Average across draws to smooth the stochastic spread.
    double lat_hot = 0, lat_cold = 0;
    for (uint64_t c = 0; c < 64; ++c) {
        lat_hot += static_cast<double>(mem.access(*hot, c * 10000));
        lat_cold += static_cast<double>(mem.access(*cold, c * 10000));
    }
    EXPECT_LT(lat_hot, lat_cold);
}

TEST(MemoryModel, AccountsDramTraffic)
{
    auto spec = voltaV100();
    MemoryModel mem(spec, 1);
    auto p = memProg(0.0, 0.0); // every sector goes to DRAM
    mem.access(*p, 0);
    // 4 sectors/access x 32B, all missing to DRAM.
    EXPECT_NEAR(mem.dramBytes(), 4.0 * 32.0, 1e-9);
    EXPECT_NEAR(mem.l2MissPct(), 100.0, 1e-9);
}

TEST(MemoryModel, PerfectLocalityTrafficVanishesOnceWarm)
{
    auto spec = voltaV100();
    MemoryModel mem(spec, 1);
    auto p = memProg(1.0, 1.0);
    // Cold caches generate some early DRAM traffic...
    for (int i = 0; i < 200000; ++i)
        mem.access(*p, i);
    double cold = mem.dramBytes();
    EXPECT_GT(cold, 0.0);
    // ...but a warmed cache with perfect locality adds almost nothing.
    for (int i = 0; i < 1000; ++i)
        mem.access(*p, 200000 + i);
    EXPECT_LT(mem.dramBytes() - cold, 1000.0);
}

TEST(MemoryModel, CongestionGrowsUnderBurst)
{
    auto spec = voltaV100();
    MemoryModel mem(spec, 1);
    auto p = memProg(0.0, 0.0);
    // Burst at the same cycle: queueing delay must grow.
    uint64_t first = mem.access(*p, 0);
    uint64_t last = first;
    for (int i = 0; i < 400; ++i)
        last = mem.access(*p, 0);
    EXPECT_GT(last, first);
}

TEST(MemoryModel, ResetClearsCounters)
{
    auto spec = voltaV100();
    MemoryModel mem(spec, 1);
    mem.access(*memProg(0.0, 0.0), 0);
    mem.reset();
    EXPECT_DOUBLE_EQ(mem.dramBytes(), 0.0);
    EXPECT_DOUBLE_EQ(mem.l2MissPct(), 0.0);
}

TEST(IpcTracker, BucketsAndWindow)
{
    IpcTracker t(10, 4, false);
    for (int i = 0; i < 9; ++i)
        EXPECT_FALSE(t.push(5.0));
    EXPECT_TRUE(t.push(5.0)); // completes bucket 1
    EXPECT_DOUBLE_EQ(t.lastBucketIpc(), 5.0);
    EXPECT_FALSE(t.windowFull());
    for (int b = 0; b < 3; ++b)
        for (int i = 0; i < 10; ++i)
            t.push(5.0);
    EXPECT_TRUE(t.windowFull());
    EXPECT_DOUBLE_EQ(t.windowMean(), 5.0);
    EXPECT_DOUBLE_EQ(t.windowStd(), 0.0);
}

TEST(IpcTracker, IdleAdvanceCompletesBuckets)
{
    IpcTracker t(10, 4, false);
    t.push(100.0);
    t.advanceIdle(25);
    EXPECT_EQ(t.cycles(), 26u);
    // Two buckets completed: first holds 100 insts / 10 cycles.
    EXPECT_DOUBLE_EQ(t.lastBucketIpc(), 0.0);
}

TEST(IpcTracker, TraceRecordsSamples)
{
    IpcTracker t(5, 2, true);
    for (int i = 0; i < 20; ++i)
        t.push(2.0);
    EXPECT_EQ(t.trace().size(), 4u);
    t.annotateLastSample(40.0, 60.0);
    EXPECT_DOUBLE_EQ(t.trace().back().l2MissPct, 40.0);
    EXPECT_DOUBLE_EQ(t.trace().back().dramUtilPct, 60.0);
}

TEST(IpcTracker, ZeroBucketPanics)
{
    EXPECT_DEATH(IpcTracker(0, 4, false), "bucket");
}

TEST(Simulator, AllCtasFinish)
{
    GpuSimulator s(voltaV100());
    auto k = makeKernel(computeProg(), 200, 128, 4);
    auto r = s.simulateKernel({k, 0}, 1);
    EXPECT_EQ(r.finishedCtas, 200u);
    EXPECT_EQ(r.totalCtas, 200u);
    EXPECT_EQ(r.inFlightCtas, 0u);
    EXPECT_FALSE(r.stoppedEarly);
    EXPECT_FALSE(r.truncatedByBudget);
}

TEST(Simulator, ExecutesExpectedInstructionCount)
{
    GpuSimulator s(voltaV100());
    auto k = makeKernel(computeProg(), 50, 128, 3);
    auto r = s.simulateKernel({k, 0}, 1);
    // No ctaWorkCv: warp instructions are exact.
    EXPECT_EQ(r.warpInstructions, k.totalWarpInstructions());
    EXPECT_NEAR(r.threadInstructions,
                static_cast<double>(k.totalWarpInstructions()) * 32.0, 1.0);
}

TEST(Simulator, Deterministic)
{
    GpuSimulator s(voltaV100());
    auto k = makeKernel(memProg(), 100, 256, 4);
    k.ctaWorkCv = 0.5;
    auto a = s.simulateKernel({k, 0}, 9);
    auto b = s.simulateKernel({k, 0}, 9);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.warpInstructions, b.warpInstructions);
}

TEST(Simulator, SeedAffectsIrregularKernels)
{
    GpuSimulator s(voltaV100());
    auto k = makeKernel(memProg(), 100, 256, 8);
    k.ctaWorkCv = 0.8;
    auto a = s.simulateKernel({k, 0}, 1);
    auto b = s.simulateKernel({k, 0}, 2);
    EXPECT_NE(a.warpInstructions, b.warpInstructions);
}

TEST(Simulator, MoreSmsIsFaster)
{
    GpuSimulator big(voltaV100());
    GpuSimulator small(withSmCount(voltaV100(), 20));
    auto k = makeKernel(computeProg(), 640, 256, 8);
    EXPECT_LT(big.simulateKernel({k, 0}, 1).cycles,
              small.simulateKernel({k, 0}, 1).cycles);
}

TEST(Simulator, BreadthFirstDispatchUsesAllSms)
{
    // 80 single-warp CTAs on 80 SMs must run concurrently: the kernel
    // should take barely more than one CTA's latency, not 80x.
    GpuSimulator s(voltaV100());
    auto one = makeKernel(computeProg(), 1, 32, 64);
    auto eighty = makeKernel(computeProg(), 80, 32, 64);
    auto r1 = s.simulateKernel({one, 0}, 1);
    auto r80 = s.simulateKernel({eighty, 0}, 1);
    EXPECT_LT(r80.cycles, r1.cycles * 2);
}

TEST(Simulator, InstructionBudgetTruncates)
{
    GpuSimulator s(voltaV100());
    auto k = makeKernel(computeProg(), 400, 256, 16);
    SimOptions opts;
    opts.maxThreadInstructions = 100000;
    auto r = s.simulateKernel({k, 0}, 1, opts);
    EXPECT_TRUE(r.truncatedByBudget);
    EXPECT_LT(r.finishedCtas, r.totalCtas);
    EXPECT_GE(r.threadInstructions, 100000.0);
}

TEST(Simulator, CycleCapTruncates)
{
    GpuSimulator s(voltaV100());
    auto k = makeKernel(computeProg(), 400, 256, 16);
    SimOptions opts;
    opts.maxCycles = 500;
    auto r = s.simulateKernel({k, 0}, 1, opts);
    EXPECT_TRUE(r.truncatedByBudget);
}

TEST(Simulator, TraceMatchesCycleCount)
{
    GpuSimulator s(voltaV100());
    auto k = makeKernel(memProg(), 300, 256, 8);
    SimOptions opts;
    opts.traceIpc = true;
    auto r = s.simulateKernel({k, 0}, 1, opts);
    ASSERT_FALSE(r.trace.empty());
    for (const auto &sample : r.trace) {
        EXPECT_GE(sample.ipc, 0.0);
        EXPECT_GE(sample.dramUtilPct, 0.0);
        EXPECT_LE(sample.dramUtilPct, 100.0);
    }
    // Bucketed trace must cover roughly the simulated span.
    EXPECT_NEAR(static_cast<double>(r.trace.back().cycle),
                static_cast<double>(r.cycles),
                static_cast<double>(opts.ipcBucketCycles) +
                    voltaV100().launchOverheadCycles + 1);
}

namespace
{

/** Stop controller that fires after a fixed number of bucket polls. */
class CountdownStop : public StopController
{
  public:
    explicit CountdownStop(int polls) : remaining_(polls) {}

    void beginKernel(const Snapshot &) override {}

    bool
    shouldStop(const Snapshot &) override
    {
        return --remaining_ <= 0;
    }

  private:
    int remaining_;
};

} // namespace

TEST(Simulator, StopControllerTerminatesEarly)
{
    GpuSimulator s(voltaV100());
    auto k = makeKernel(computeProg(), 2000, 256, 16);
    auto full = s.simulateKernel({k, 0}, 1);

    CountdownStop stop(3);
    SimOptions opts;
    opts.stop = &stop;
    auto r = s.simulateKernel({k, 0}, 1, opts);
    EXPECT_TRUE(r.stoppedEarly);
    EXPECT_LT(r.cycles, full.cycles);
    EXPECT_LT(r.finishedCtas, r.totalCtas);
    EXPECT_EQ(r.finishedCtas + r.inFlightCtas,
              std::min<uint64_t>(r.totalCtas,
                                 r.finishedCtas + r.inFlightCtas));
}

TEST(Simulator, SnapshotExposesWaveSize)
{
    struct Capture : StopController
    {
        Snapshot last;
        void beginKernel(const Snapshot &s) override { last = s; }
        bool
        shouldStop(const Snapshot &s) override
        {
            last = s;
            return false;
        }
    } capture;

    GpuSimulator s(voltaV100());
    auto k = makeKernel(computeProg(), 100, 256, 2);
    SimOptions opts;
    opts.stop = &capture;
    s.simulateKernel({k, 0}, 1, opts);
    EXPECT_EQ(capture.last.totalCtas, 100u);
    EXPECT_GT(capture.last.waveSize, 0u);
}

TEST(Simulator, MemoryBoundKernelReportsDramUtil)
{
    GpuSimulator s(voltaV100());
    auto k = makeKernel(memProg(0.0, 0.1), 500, 256, 8);
    auto r = s.simulateKernel({k, 0}, 1);
    EXPECT_GT(r.dramUtilPct, 10.0);
    EXPECT_GT(r.l2MissPct, 50.0);
}

TEST(Simulator, ComputeBoundKernelLeavesDramIdle)
{
    GpuSimulator s(voltaV100());
    auto k = makeKernel(computeProg(), 500, 256, 8);
    auto r = s.simulateKernel({k, 0}, 1);
    EXPECT_DOUBLE_EQ(r.dramUtilPct, 0.0);
}

TEST(Simulator, IpcRampVisibleInTrace)
{
    GpuSimulator s(voltaV100());
    // One wave only: occupancy ramps, then drains.
    auto k = makeKernel(memProg(), 4000, 256, 12);
    SimOptions opts;
    opts.traceIpc = true;
    auto r = s.simulateKernel({k, 0}, 1, opts);
    ASSERT_GT(r.trace.size(), 10u);
    // Steady-state IPC (middle) should exceed the first bucket (ramp).
    double first = r.trace.front().ipc;
    double mid = r.trace[r.trace.size() / 2].ipc;
    EXPECT_GT(mid, first);
}

/** Determinism across every suite-provided workload kernel shape. */
class SimWorkloadProperty
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SimWorkloadProperty, FirstKernelDeterministicAndComplete)
{
    auto w = buildWorkload(GetParam());
    ASSERT_TRUE(w.has_value());
    GpuSimulator s(voltaV100());
    auto a = s.simulateKernel(w->launches[0], w->seed);
    auto b = s.simulateKernel(w->launches[0], w->seed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.finishedCtas, a.totalCtas);
    EXPECT_GT(a.ipc(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SimWorkloadProperty,
                         ::testing::Values("backprop", "bfs1MW", "histo",
                                           "sgemm", "fdtd2d", "lavaMD",
                                           "spmv", "gemm_inf_in0",
                                           "rnn_inf_tc_in2", "nw"));

TEST(Simulator, GtoSchedulerRunsToCompletion)
{
    GpuSimulator s(voltaV100());
    auto k = makeKernel(memProg(), 120, 256, 6);
    SimOptions opts;
    opts.scheduler = SchedulerPolicy::Gto;
    auto r = s.simulateKernel({k, 0}, 3, opts);
    EXPECT_EQ(r.finishedCtas, r.totalCtas);
    EXPECT_EQ(r.warpInstructions, k.totalWarpInstructions());
}

TEST(Simulator, SchedulerPoliciesDiffer)
{
    GpuSimulator s(voltaV100());
    auto k = makeKernel(memProg(), 400, 256, 8);
    SimOptions lrr, gto;
    gto.scheduler = SchedulerPolicy::Gto;
    auto a = s.simulateKernel({k, 0}, 3, lrr);
    auto b = s.simulateKernel({k, 0}, 3, gto);
    // Same work either way; timing may differ but not wildly.
    EXPECT_EQ(a.warpInstructions, b.warpInstructions);
    EXPECT_NE(a.cycles, 0u);
    EXPECT_LT(static_cast<double>(b.cycles),
              static_cast<double>(a.cycles) * 2.0);
    EXPECT_GT(static_cast<double>(b.cycles),
              static_cast<double>(a.cycles) * 0.5);
}

TEST(Simulator, GtoDeterministic)
{
    GpuSimulator s(voltaV100());
    auto k = makeKernel(memProg(), 100, 256, 4);
    k.ctaWorkCv = 0.4;
    SimOptions opts;
    opts.scheduler = SchedulerPolicy::Gto;
    auto a = s.simulateKernel({k, 0}, 9, opts);
    auto b = s.simulateKernel({k, 0}, 9, opts);
    EXPECT_EQ(a.cycles, b.cycles);
}

TEST(Trace, CaptureMatchesLiveSimulation)
{
    GpuSimulator s(voltaV100());
    auto k = makeKernel(memProg(), 150, 256, 6);
    k.ctaWorkCv = 0.7;
    auto live = s.simulateKernel({k, 0}, 42);

    KernelTrace trace = captureTrace({k, 0}, 42);
    SimOptions opts;
    opts.trace = &trace;
    // Replaying the trace with a DIFFERENT seed still reproduces the
    // traced run's work exactly.
    auto replay = s.simulateKernel({k, 0}, 42, opts);
    EXPECT_EQ(replay.warpInstructions, live.warpInstructions);
    EXPECT_EQ(replay.cycles, live.cycles);
}

TEST(Trace, RoundTripThroughText)
{
    auto k1 = makeKernel(memProg(), 300, 256, 6);
    k1.ctaWorkCv = 0.5;
    auto k2 = makeKernel(computeProg(), 64, 128, 3);
    std::vector<KernelTrace> traces = {captureTrace({k1, 0}, 7),
                                       captureTrace({k2, 1}, 7)};
    std::stringstream ss;
    writeTraces(ss, traces);
    auto back = readTraces(ss);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].ctaIterations, traces[0].ctaIterations);
    EXPECT_EQ(back[1].ctaIterations, traces[1].ctaIterations);
    EXPECT_EQ(back[1].kernelName, "compute");
    // Regular kernel encodes as a single run.
    EXPECT_EQ(back[1].ctaIterations.size(), 64u);
}

TEST(Trace, RegularKernelTraceIsConstant)
{
    auto k = makeKernel(computeProg(), 20, 128, 5);
    KernelTrace t = captureTrace({k, 0}, 1);
    for (uint32_t it : t.ctaIterations)
        EXPECT_EQ(it, 5u);
}

TEST(Trace, MismatchedTraceThrowsBadInput)
{
    GpuSimulator s(voltaV100());
    auto k = makeKernel(computeProg(), 20, 128, 5);
    auto other = makeKernel(computeProg(), 40, 128, 5);
    KernelTrace t = captureTrace({other, 0}, 1);
    SimOptions opts;
    opts.trace = &t;
    try {
        s.simulateKernel({k, 0}, 1, opts);
        FAIL() << "mismatched trace must throw";
    } catch (const pka::common::TaskException &ex) {
        EXPECT_EQ(ex.kind(), pka::common::ErrorKind::kBadInput);
        EXPECT_THAT(ex.what(), testing::HasSubstr("CTA count"));
    }
}

TEST(Trace, RejectsMalformedFile)
{
    std::stringstream bad("garbage\n");
    EXPECT_DEATH(readTraces(bad), "magic");
}

TEST(TimingWheel, DrainsAscendingAndHandlesOverflow)
{
    TimingWheel w(16, 4); // 16-slot wheel: wake 1000 spills to overflow
    w.schedule(0, 3, 7);
    w.schedule(0, 3, 2);
    w.schedule(0, 5, 9);
    w.schedule(0, 1000, 4);
    EXPECT_EQ(w.nextWake(), 3u);

    std::vector<uint32_t> out;
    w.drain(3, out);
    ASSERT_EQ(out.size(), 2u); // ascending id, like the heap it replaced
    EXPECT_EQ(out[0], 2u);
    EXPECT_EQ(out[1], 7u);
    EXPECT_EQ(w.nextWake(), 5u);

    w.drain(4, out);
    EXPECT_TRUE(out.empty());
    w.drain(5, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 9u);
    EXPECT_EQ(w.nextWake(), 1000u); // overflow entry surfaces
    w.drain(1000, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 4u);
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(w.nextWake(), UINT64_MAX);
}

TEST(TimingWheel, DrainsAcrossBitsetWordBoundary)
{
    TimingWheel w(80); // V100's SM count: two words per slot
    for (uint32_t id : {79u, 64u, 63u, 3u})
        EXPECT_TRUE(w.schedule(0, 7, id));
    std::vector<uint32_t> out;
    w.drain(7, out);
    EXPECT_EQ(out, (std::vector<uint32_t>{3, 63, 64, 79}));
    EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, MergesSlotAndOverflowEntriesAscending)
{
    TimingWheel w(80, 4);
    EXPECT_TRUE(w.schedule(0, 100, 42)); // beyond the mask: overflow
    EXPECT_TRUE(w.schedule(90, 100, 79)); // same wake, now in range
    EXPECT_TRUE(w.schedule(90, 100, 5));
    EXPECT_TRUE(w.schedule(95, 100, 64));
    EXPECT_EQ(w.nextWake(), 100u);
    std::vector<uint32_t> out;
    w.drain(100, out);
    EXPECT_EQ(out, (std::vector<uint32_t>{5, 42, 64, 79}));
    EXPECT_TRUE(w.empty());

    // Only the slot's bitset merges: an id pending in both the slot and
    // the overflow drains twice.
    EXPECT_TRUE(w.schedule(100, 200, 9));
    EXPECT_TRUE(w.schedule(190, 200, 9));
    w.drain(200, out);
    EXPECT_EQ(out, (std::vector<uint32_t>{9, 9}));
    EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, RescheduleAtSameWakeMerges)
{
    TimingWheel w(64);
    EXPECT_TRUE(w.schedule(0, 5, 9));
    EXPECT_FALSE(w.schedule(2, 5, 9));
    EXPECT_TRUE(w.schedule(2, 5, 10));
    std::vector<uint32_t> out;
    w.drain(5, out);
    EXPECT_EQ(out, (std::vector<uint32_t>{9, 10}));
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(w.nextWake(), UINT64_MAX);
}

TEST(TimingWheel, RejectsIdBeyondCapacity)
{
    TimingWheel w(64);
    EXPECT_DEATH(w.schedule(0, 1, 64), "capacity");
}

namespace
{

/** Bit-exact digest of a simulation result, trace series included. */
uint64_t
hashResult(const KernelSimResult &r)
{
    Fnv f;
    f.u64(r.cycles);
    f.f64(r.threadInstructions);
    f.u64(r.warpInstructions);
    f.u64(r.finishedCtas);
    f.u64(r.inFlightCtas);
    f.u64(r.totalCtas);
    f.u64(r.waveSize);
    f.u64(r.expectedWarpInstructions);
    f.u64(r.stoppedEarly ? 1 : 0);
    f.u64(r.truncatedByBudget ? 1 : 0);
    f.f64(r.dramUtilPct);
    f.f64(r.l2MissPct);
    f.u64(r.trace.size());
    for (const auto &s : r.trace) {
        f.u64(s.cycle);
        f.f64(s.ipc);
        f.f64(s.l2MissPct);
        f.f64(s.dramUtilPct);
    }
    return f.h;
}

/** Field-by-field identity check (readable failures) plus the digest. */
void
expectIdentical(const KernelSimResult &ref, const KernelSimResult &ev)
{
    EXPECT_EQ(ref.cycles, ev.cycles);
    EXPECT_EQ(ref.warpInstructions, ev.warpInstructions);
    EXPECT_EQ(ref.finishedCtas, ev.finishedCtas);
    EXPECT_EQ(ref.inFlightCtas, ev.inFlightCtas);
    EXPECT_EQ(ref.stoppedEarly, ev.stoppedEarly);
    EXPECT_EQ(ref.truncatedByBudget, ev.truncatedByBudget);
    EXPECT_EQ(ref.trace.size(), ev.trace.size());
    EXPECT_EQ(hashResult(ref), hashResult(ev)); // bit-exact doubles too
}

/** Run one launch under both cores and demand identical results. */
void
runBothCores(const KernelDescriptor &k, uint64_t seed, SimOptions opts)
{
    GpuSimulator s(voltaV100());
    opts.referenceCore = true;
    auto ref = s.simulateKernel({k, 0}, seed, opts);
    opts.referenceCore = false;
    auto ev = s.simulateKernel({k, 0}, seed, opts);
    expectIdentical(ref, ev);
}

} // namespace

TEST(SimCoreEquivalence, GoldenHashAcrossKernelMix)
{
    // A fixed mix covering the simulator's regimes: compute-bound,
    // memory-bound, latency-bound low-occupancy, small grid, irregular
    // CTA work, both schedulers, budgets and tracing. The two cores
    // must agree on every result bit (the digest covers doubles).
    GpuSimulator s(voltaV100());
    struct Case
    {
        KernelDescriptor k;
        uint64_t seed;
        SimOptions opts;
    };
    std::vector<Case> cases;
    cases.push_back({makeKernel(computeProg(), 200, 128, 4), 1, {}});
    cases.push_back({makeKernel(memProg(), 300, 256, 8), 2, {}});
    cases.push_back({makeKernel(memProg(0.0, 0.0), 40, 64, 6), 3, {}});
    cases.push_back({makeKernel(computeProg(), 12, 64, 3), 4, {}});
    {
        Case c{makeKernel(memProg(), 150, 256, 6), 5, {}};
        c.k.ctaWorkCv = 0.7;
        c.opts.scheduler = SchedulerPolicy::Gto;
        cases.push_back(c);
    }
    {
        Case c{makeKernel(memProg(0.1, 0.2), 400, 256, 8), 6, {}};
        c.opts.traceIpc = true;
        cases.push_back(c);
    }
    {
        Case c{makeKernel(computeProg(), 400, 256, 16), 7, {}};
        c.opts.maxThreadInstructions = 100000;
        cases.push_back(c);
    }
    {
        Case c{makeKernel(computeProg(), 400, 256, 16), 8, {}};
        c.opts.maxCycles = 500;
        cases.push_back(c);
    }

    Fnv ref_digest, ev_digest;
    for (auto &c : cases) {
        c.opts.referenceCore = true;
        ref_digest.u64(hashResult(s.simulateKernel({c.k, 0}, c.seed, c.opts)));
        c.opts.referenceCore = false;
        ev_digest.u64(hashResult(s.simulateKernel({c.k, 0}, c.seed, c.opts)));
    }
    EXPECT_EQ(ref_digest.h, ev_digest.h);
    // Absolute pin: a change to code both cores share (SmCore, the
    // memory model, dispatch) shifts both digests together, which the
    // relative check above cannot see. Recorded with gcc 12.2.
    EXPECT_EQ(ev_digest.h, 0x3dfe331f6c0cc502ULL);
}

TEST(SimCoreEquivalence, RandomizedKernels)
{
    // Property check: for randomized launch shapes across both
    // scheduler policies and option mixes, the event core reproduces
    // the reference core exactly. PCG32 keeps the draw sequence (and so
    // the covered cases) identical on every platform.
    auto rng = pka::common::Rng::forKey(2026, 8, 5);
    for (int i = 0; i < 30; ++i) {
        ProgramPtr p;
        switch (rng.uniformInt(3)) {
          case 0:
            p = computeProg();
            break;
          case 1:
            p = memProg(rng.uniform(), rng.uniform());
            break;
          default:
            p = ProgramBuilder("latency")
                    .seg(InstrClass::GlobalLoad, 6)
                    .seg(InstrClass::Sfu, 2)
                    .mem(4.0, 0.05, 0.1)
                    .build();
            break;
        }
        const uint32_t threads = 32u << rng.uniformInt(4);
        auto k = makeKernel(std::move(p), 1 + rng.uniformInt(400),
                            threads, 1 + rng.uniformInt(8));
        if (rng.uniformInt(2))
            k.ctaWorkCv = rng.uniform(0.0, 0.8);
        SimOptions opts;
        if (rng.uniformInt(2))
            opts.scheduler = SchedulerPolicy::Gto;
        if (rng.uniformInt(3) == 0)
            opts.traceIpc = true;
        if (rng.uniformInt(4) == 0)
            opts.maxThreadInstructions = 20000 + rng.uniformInt(200000);
        if (rng.uniformInt(4) == 0)
            opts.maxCycles = 200 + rng.uniformInt(20000);
        if (rng.uniformInt(2))
            opts.contentSeed = true;
        runBothCores(k, rng.nextU64(), opts);
    }
}

TEST(SimCoreEquivalence, CountdownStopIdentical)
{
    // Stateful stop controller: the event core must poll it at exactly
    // the reference core's bucket boundaries or the countdown drifts.
    GpuSimulator s(voltaV100());
    auto k = makeKernel(memProg(), 2000, 256, 16);
    SimOptions opts;
    CountdownStop ref_stop(5);
    opts.stop = &ref_stop;
    opts.referenceCore = true;
    auto ref = s.simulateKernel({k, 0}, 1, opts);
    CountdownStop ev_stop(5);
    opts.stop = &ev_stop;
    opts.referenceCore = false;
    auto ev = s.simulateKernel({k, 0}, 1, opts);
    EXPECT_TRUE(ref.stoppedEarly);
    expectIdentical(ref, ev);
}

TEST(SimCoreEquivalence, PkpEarlyStopIdentical)
{
    // The paper's IPC-stability detector, fresh per run: stop decisions
    // hang off the rolling window, which both cores must feed the same
    // per-bucket IPC series.
    GpuSimulator s(voltaV100());
    auto k = makeKernel(computeProg(), 6000, 256, 12);
    SimOptions opts;
    pka::core::IpcStabilityController ref_stop;
    opts.stop = &ref_stop;
    opts.referenceCore = true;
    auto ref = s.simulateKernel({k, 0}, 11, opts);
    pka::core::IpcStabilityController ev_stop;
    opts.stop = &ev_stop;
    opts.referenceCore = false;
    auto ev = s.simulateKernel({k, 0}, 11, opts);
    EXPECT_TRUE(ref.stoppedEarly);
    expectIdentical(ref, ev);
}

TEST(SimCoreEquivalence, TracedReplayIdentical)
{
    auto k = makeKernel(memProg(), 150, 256, 6);
    k.ctaWorkCv = 0.7;
    KernelTrace trace = captureTrace({k, 0}, 42);
    SimOptions opts;
    opts.trace = &trace;
    runBothCores(k, 99, opts); // replay seed differs from capture seed
}

TEST(SimCoreEquivalence, TraceIpcSeriesIdentical)
{
    // The Figure-5 sample series must match sample for sample,
    // including the L2/DRAM annotations computed at bucket boundaries.
    GpuSimulator s(voltaV100());
    auto k = makeKernel(memProg(0.1, 0.3), 800, 256, 8);
    SimOptions opts;
    opts.traceIpc = true;
    opts.referenceCore = true;
    auto ref = s.simulateKernel({k, 0}, 4, opts);
    opts.referenceCore = false;
    auto ev = s.simulateKernel({k, 0}, 4, opts);
    ASSERT_EQ(ref.trace.size(), ev.trace.size());
    ASSERT_FALSE(ref.trace.empty());
    for (size_t i = 0; i < ref.trace.size(); ++i) {
        EXPECT_EQ(ref.trace[i].cycle, ev.trace[i].cycle) << i;
        EXPECT_EQ(ref.trace[i].ipc, ev.trace[i].ipc) << i;
        EXPECT_EQ(ref.trace[i].l2MissPct, ev.trace[i].l2MissPct) << i;
        EXPECT_EQ(ref.trace[i].dramUtilPct, ev.trace[i].dramUtilPct)
            << i;
    }
}

TEST(SimCoreAge, GtoAgeSeedOffsetInvariant)
{
    // Regression for the 32-bit age-counter wrap: GTO priority is the
    // warp's assignment sequence number, so seeding the counter near
    // 2^32 must not change scheduling. With the old uint32_t counter
    // the offset run wrapped mid-kernel, later warps suddenly looked
    // "oldest", and the two runs diverged.
    auto spec = voltaV100();
    auto k = makeKernel(memProg(), 8, 256, 4);
    MemoryModel mem_a(spec, 7), mem_b(spec, 7);
    SmCore a(spec, k, mem_a, 7, 4, SchedulerPolicy::Gto, nullptr, 1);
    SmCore b(spec, k, mem_b, 7, 4, SchedulerPolicy::Gto, nullptr, 1);
    b.seedAgeCounter((uint64_t{1} << 32) - 20); // wraps 20 warps in

    uint64_t next_cta = 0;
    for (uint64_t cycle = 0; cycle < 200000; ++cycle) {
        if (cycle % 7 == 0 && next_cta < 8 && a.hasFreeSlot()) {
            a.assignCta(next_cta);
            b.assignCta(next_cta);
            ++next_cta;
        }
        SmTickResult ra = a.tick(cycle);
        SmTickResult rb = b.tick(cycle);
        ASSERT_EQ(ra.warpInstsIssued, rb.warpInstsIssued) << cycle;
        ASSERT_EQ(ra.threadInstsRetired, rb.threadInstsRetired) << cycle;
        ASSERT_EQ(ra.ctasFinished, rb.ctasFinished) << cycle;
        ASSERT_EQ(a.nextWake(), b.nextWake()) << cycle;
        if (next_cta == 8 && !a.busy() && !b.busy())
            break;
    }
    EXPECT_FALSE(a.busy());
    EXPECT_FALSE(b.busy());
}
