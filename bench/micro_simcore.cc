/**
 * @file
 * Simulator-core microbenchmark: wall time of the dense reference cycle
 * loop versus the event-driven core over a kernel set spanning the
 * simulator's regimes (compute-bound, memory-streaming, latency-bound
 * low-occupancy, small grid, mixed, one large GEMM-shaped launch, and
 * one short launch whose cost is mostly per-launch set-up). The
 * event core reports tail latency (p50/p95/max wall-ms across reps)
 * and is hash-gated against the reference result. Emits JSON
 * (BENCH_simcore.json schema) with the per-kernel hashes and the
 * aggregate event-core speedup; exits non-zero unless every kernel's
 * two hashes are bit-identical.
 *
 * Pure simulator measurement — no engine, no result store, no
 * filesystem or PKA_CACHE_DIR dependence.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "silicon/gpu_spec.hh"
#include "sim/fnv.hh"
#include "sim/simulator.hh"
#include "workload/builder.hh"

using namespace pka;
using workload::InstrClass;
using workload::KernelDescriptor;
using workload::ProgramBuilder;

namespace
{

struct BenchCase
{
    std::string name;
    KernelDescriptor k;
    uint64_t seed = 1;
    sim::SimOptions opts;
    int reps = 5;     ///< event-core repetitions
    int ref_reps = 3; ///< reference-core repetitions
};

KernelDescriptor
launch(workload::ProgramPtr p, uint32_t ctas, uint32_t threads,
       uint32_t iters, uint32_t regs = 32)
{
    KernelDescriptor k;
    k.program = std::move(p);
    k.grid = {ctas, 1, 1};
    k.block = {threads, 1, 1};
    k.iterations = iters;
    k.regsPerThread = regs;
    return k;
}

/**
 * The regimes the event core must win (and never lose correctness) on.
 * Latency-bound and small-grid kernels leave most SMs eventless almost
 * every cycle; compute-bound kernels keep every SM ready and bound the
 * overhead of the event bookkeeping itself. gemm_large is the
 * campaign-tail case: one launch large enough to dominate wall-clock no
 * matter how many kernels run concurrently.
 */
std::vector<BenchCase>
benchCases()
{
    std::vector<BenchCase> cases;
    cases.push_back(
        {"compute_bound",
         launch(ProgramBuilder("compute")
                    .seg(InstrClass::FpAlu, 16)
                    .seg(InstrClass::IntAlu, 4)
                    .build(),
                1500, 256, 8),
         1,
         {}});
    cases.push_back(
        {"mem_streaming",
         launch(ProgramBuilder("stream")
                    .seg(InstrClass::GlobalLoad, 4)
                    .seg(InstrClass::IntAlu, 2)
                    .seg(InstrClass::GlobalStore, 2)
                    .mem(4.0, 0.05, 0.15)
                    .build(),
                1000, 256, 8),
         2,
         {}});
    // High register pressure caps occupancy; long-latency loads leave
    // each SM asleep for most cycles.
    cases.push_back(
        {"latency_bound",
         launch(ProgramBuilder("latency")
                    .seg(InstrClass::GlobalLoad, 6)
                    .seg(InstrClass::Sfu, 2)
                    .mem(4.0, 0.02, 0.05)
                    .build(),
                1200, 64, 16, 255),
         3,
         {}});
    // 24 CTAs on 80 SMs: most of the device is idle the whole kernel.
    cases.push_back(
        {"small_grid",
         launch(ProgramBuilder("small")
                    .seg(InstrClass::GlobalLoad, 2)
                    .seg(InstrClass::FpAlu, 8)
                    .mem(2.0, 0.3, 0.4)
                    .build(),
                24, 128, 400),
         4,
         {}});
    // One warp per SM, every atomic misses to DRAM: each warp sleeps
    // ~175 cycles per instruction, wakes are staggered across SMs, so
    // almost every cycle has exactly one or two SMs with any work. The
    // dense loop still ticks all 80 SMs on each such cycle; its all-idle
    // fast-forward almost never fires.
    cases.push_back(
        {"sparse_atomic",
         launch(ProgramBuilder("atomic")
                    .seg(InstrClass::GlobalAtomic, 1)
                    .seg(InstrClass::IntAlu, 2)
                    .mem(1.0, 0.0, 0.0)
                    .build(),
                80, 32, 32000),
         6,
         {}});
    // One warp per SM, DRAM-latency loads: per-SM activity ~1 cycle in
    // 20, but device-wide some SM wakes nearly every cycle — the worst
    // case for the dense loop's global skip.
    cases.push_back(
        {"sparse_dram_loads",
         launch(ProgramBuilder("dram")
                    .seg(InstrClass::GlobalLoad, 2)
                    .seg(InstrClass::Sfu, 1)
                    .mem(1.0, 0.0, 0.0)
                    .build(),
                80, 32, 6000, 255),
         7,
         {}});
    {
        BenchCase c{"mixed_gto_traced",
                    launch(ProgramBuilder("mixed")
                               .seg(InstrClass::GlobalLoad, 2)
                               .seg(InstrClass::FpAlu, 12)
                               .seg(InstrClass::IntAlu, 4)
                               .seg(InstrClass::GlobalStore, 1)
                               .mem(1.5, 0.6, 0.7)
                               .build(),
                           800, 256, 8),
                    5,
                    {}};
        c.k.ctaWorkCv = 0.4;
        c.opts.scheduler = sim::SchedulerPolicy::Gto;
        c.opts.traceIpc = true;
        cases.push_back(c);
    }
    // Tiled-GEMM shape: cache-friendly loads feeding long FMA runs, a
    // large grid, many iterations — the biggest launch in the set by an
    // order of magnitude.
    cases.push_back(
        {"gemm_large",
         launch(ProgramBuilder("gemm")
                    .seg(InstrClass::GlobalLoad, 2)
                    .seg(InstrClass::FpAlu, 24)
                    .seg(InstrClass::IntAlu, 2)
                    .seg(InstrClass::FpAlu, 20)
                    .seg(InstrClass::GlobalStore, 1)
                    .mem(2.0, 0.85, 0.9)
                    .build(),
                4000, 256, 16),
         8,
         {}});
    // gramschmidt's commonest launch shape (78% of its 6,411): 6 CTAs
    // of 128 threads, one trip through an elementwise body, ~1,300
    // cycles. Its time is mostly the per-launch fixed cost — SM and
    // wheel set-up — that a long stream of small launches pays
    // thousands of times, so it runs enough repetitions to time
    // sub-millisecond launches.
    cases.push_back(
        {"short_launch",
         launch(ProgramBuilder("short")
                    .seg(InstrClass::GlobalLoad, 2)
                    .seg(InstrClass::FpAlu, 3)
                    .seg(InstrClass::IntAlu, 3)
                    .seg(InstrClass::Branch, 1)
                    .seg(InstrClass::GlobalStore, 1)
                    .mem(1.05, 0.15, 0.35)
                    .build(),
                6, 128, 1),
         9,
         {},
         200,
         200});
    return cases;
}

/** Bit-exact digest of a result, trace series included. */
uint64_t
hashResult(const sim::KernelSimResult &r)
{
    sim::Fnv f;
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

struct Measured
{
    double best_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double max_ms = 0.0;
    uint64_t hash = 0;
    uint64_t cycles = 0;
};

/**
 * Wall time of one case under one core, over `reps` repetitions: best
 * (the steady-state cost) plus p50/p95/max (what a campaign's tail
 * sees, including allocator and scheduler noise).
 */
Measured
measure(const sim::GpuSimulator &simulator, const BenchCase &c,
        bool reference, int reps)
{
    sim::SimOptions opts = c.opts;
    opts.referenceCore = reference;
    Measured m;
    std::vector<double> samples;
    samples.reserve(reps);
    for (int i = 0; i < reps; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        auto r = simulator.simulateKernel({c.k, 0}, c.seed, opts);
        auto t1 = std::chrono::steady_clock::now();
        samples.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        m.hash = hashResult(r);
        m.cycles = r.cycles;
    }
    std::sort(samples.begin(), samples.end());
    auto pct = [&](double q) {
        size_t idx = static_cast<size_t>(
            q * static_cast<double>(samples.size() - 1) + 0.5);
        return samples[std::min(idx, samples.size() - 1)];
    };
    m.best_ms = samples.front();
    m.p50_ms = pct(0.50);
    m.p95_ms = pct(0.95);
    m.max_ms = samples.back();
    return m;
}

void
printTail(const char *indent, const char *prefix, const Measured &m)
{
    std::printf("%s\"%sp50_ms\": %.3f,\n", indent, prefix, m.p50_ms);
    std::printf("%s\"%sp95_ms\": %.3f,\n", indent, prefix, m.p95_ms);
    std::printf("%s\"%smax_ms\": %.3f,\n", indent, prefix, m.max_ms);
}

} // namespace

int
main()
{
    sim::GpuSimulator simulator(silicon::voltaV100());
    auto cases = benchCases();
    const uint32_t host_cpus =
        std::max(1u, std::thread::hardware_concurrency());

    double ref_total = 0.0, ev_total = 0.0;
    bool all_identical = true;

    std::printf("{\n  \"kernels\": [\n");
    for (size_t i = 0; i < cases.size(); ++i) {
        const auto &c = cases[i];
        Measured ref = measure(simulator, c, true, c.ref_reps);
        Measured ev = measure(simulator, c, false, c.reps);
        bool identical = ref.hash == ev.hash;
        ref_total += ref.best_ms;
        ev_total += ev.best_ms;
        std::printf("    {\n");
        std::printf("      \"name\": \"%s\",\n", c.name.c_str());
        std::printf("      \"cycles\": %llu,\n",
                    static_cast<unsigned long long>(ev.cycles));
        std::printf("      \"reference_ms\": %.3f,\n", ref.best_ms);
        std::printf("      \"event_ms\": %.3f,\n", ev.best_ms);
        printTail("      ", "event_", ev);
        std::printf("      \"speedup\": %.2f,\n",
                    ev.best_ms > 0 ? ref.best_ms / ev.best_ms : 0.0);
        std::printf("      \"reference_hash\": \"%016llx\",\n",
                    static_cast<unsigned long long>(ref.hash));
        std::printf("      \"event_hash\": \"%016llx\",\n",
                    static_cast<unsigned long long>(ev.hash));
        std::printf("      \"bit_identical\": %s\n",
                    identical ? "true" : "false");
        std::printf("    }%s\n", i + 1 < cases.size() ? "," : "");
        all_identical = all_identical && identical;
    }
    std::printf("  ],\n");
    std::printf("  \"host_cpus\": %u,\n", host_cpus);
    std::printf("  \"reference_total_ms\": %.3f,\n", ref_total);
    std::printf("  \"event_total_ms\": %.3f,\n", ev_total);
    std::printf("  \"aggregate_speedup\": %.2f,\n",
                ev_total > 0 ? ref_total / ev_total : 0.0);
    std::printf("  \"all_bit_identical\": %s\n",
                all_identical ? "true" : "false");
    std::printf("}\n");

    return all_identical ? 0 : 1;
}
