/**
 * @file
 * Similarity-tier tests. SimilarityIndex covers the signature machinery
 * in isolation: quantization round-trip and monotonicity, grid-scale
 * invariance, entry codec validation, tolerance-bound enforcement with
 * deterministic tie-breaking, corrupt/truncated entries skipped at
 * load, persistence across reopen, orphan sweeping, and concurrent
 * insert/probe (exercised under TSan in CI). SimilarityTier covers the
 * engine contract: near-duplicates project with full provenance, the
 * exact tier never receives projected results, ineligible (budgeted)
 * launches neither probe nor donate, and the tier disabled — by store
 * or by tolerance — is bit-identical to a store-only engine.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hh"
#include "core/experiments.hh"
#include "silicon/gpu_spec.hh"
#include "silicon/profiler.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "store/file_store.hh"
#include "store/sig_index.hh"
#include "workload/builder.hh"

namespace fs = std::filesystem;
using namespace pka::sim;
using namespace pka::store;
using namespace pka::workload;
using pka::silicon::voltaV100;

namespace
{

/** Self-cleaning unique temp directory for one test. */
class TempDir
{
  public:
    TempDir()
    {
        static int counter = 0;
        path_ = fs::temp_directory_path() /
                ("pka_xcache_test_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter++));
        fs::create_directories(path_);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    std::string str() const { return path_.string(); }
    fs::path path() const { return path_; }

  private:
    fs::path path_;
};

ProgramPtr
xProg(const std::string &name, double divergence = 1.0)
{
    return ProgramBuilder(name)
        .seg(InstrClass::GlobalLoad, 2)
        .seg(InstrClass::FpAlu, 8)
        .seg(InstrClass::GlobalStore, 1)
        .mem(2.0, 0.4, 0.6)
        .divergence(divergence)
        .build();
}

KernelDescriptor
xLaunch(ProgramPtr p, uint32_t ctas, uint32_t iters = 2)
{
    KernelDescriptor k;
    k.program = std::move(p);
    k.grid = {ctas, 1, 1};
    k.block = {128, 1, 1};
    k.iterations = iters;
    return k;
}

KernelSimKey
xKey(uint64_t salt)
{
    KernelSimKey k;
    k.specHash = 0x1111222233334444ULL;
    k.contentHash = 0x5555666677778888ULL + salt;
    k.workloadSeed = 42;
    k.seedSalt = salt;
    k.ipcBucketCycles = 30;
    k.ipcWindowBuckets = 100;
    return k;
}

SigEntry
xEntry(uint64_t salt, int32_t dim0 = 0)
{
    SigEntry e;
    e.sig.q[0] = dim0;
    e.key = xKey(salt);
    e.expThreadInsts = 1000.0;
    e.expWarpInsts = 100;
    e.numCtas = 64;
    return e;
}

/** Every .pks entry file under an index root (tmp/ excluded). */
std::vector<fs::path>
sigFiles(const fs::path &root)
{
    std::vector<fs::path> out;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root, ec), end;
         !ec && it != end; it.increment(ec))
        if (it->is_regular_file() && it->path().extension() == ".pks")
            out.push_back(it->path());
    std::sort(out.begin(), out.end());
    return out;
}

EngineOptions
xOpts(const KernelResultStore *store, double tolerance,
      unsigned threads = 1)
{
    EngineOptions eo;
    eo.threads = threads;
    eo.memoize = true;
    eo.store = store;
    eo.xcacheTolerance = tolerance;
    return eo;
}

} // namespace

// ---------------------------------------------------------------------
// SimilarityIndex: the signature machinery in isolation.
// ---------------------------------------------------------------------

TEST(SimilarityIndex, QuantizationRoundTripAndMonotonicity)
{
    // Round trip: the cell centre is within half a step of the input.
    for (double v : {0.0, 1e-6, 0.1, 1.0, 4.49, 17.3, -2.5}) {
        int32_t q = quantizeSigDim(v);
        EXPECT_NEAR(dequantizeSigDim(q), v, kSigQuantStep / 2 + 1e-12)
            << "v=" << v;
    }

    // Monotone: increasing inputs never decrease the grid index.
    int32_t prev = quantizeSigDim(-10.0);
    for (double v = -10.0; v <= 10.0; v += 0.003) {
        int32_t q = quantizeSigDim(v);
        EXPECT_GE(q, prev) << "v=" << v;
        prev = q;
    }

    // Values closer than a step apart collapse to at-most-adjacent
    // cells, so measurement-level jitter cannot explode the distance.
    EXPECT_LE(std::abs(quantizeSigDim(1.0) -
                       quantizeSigDim(1.0 + kSigQuantStep * 0.49)),
              1);
}

TEST(SimilarityIndex, SignatureIsGridScaleInvariant)
{
    // Two launches identical except grid size: per-CTA normalization
    // must put them in the same cell (distance 0) — that is the
    // cross-app redundancy the tier exists to collapse.
    ProgramPtr p = xProg("scale");
    KernelSignature small = signatureOf(xLaunch(p, 60));
    KernelSignature big = signatureOf(xLaunch(p, 240));
    EXPECT_EQ(small, big);
    EXPECT_EQ(sigDistance(small, big), 0.0);

    // A genuinely different kernel (divergence shifts dim 10) is far.
    KernelSignature other =
        signatureOf(xLaunch(xProg("div", 0.5), 60));
    EXPECT_GT(sigDistance(small, other), 1.0);

    // More iterations = more per-CTA work: the distance is the log-space
    // shift, and the error bound grows monotonically with it.
    KernelSignature more = signatureOf(xLaunch(p, 60, 3));
    double d = sigDistance(small, more);
    EXPECT_GT(d, 0.1);
    EXPECT_LT(d, 1.0);
    EXPECT_GT(sigErrorBound(d), sigErrorBound(d / 2));
    EXPECT_DOUBLE_EQ(sigErrorBound(0.0), 0.0);
}

TEST(SimilarityIndex, EntryCodecRoundTripAndRejection)
{
    SigEntry in = xEntry(7, 123);
    in.sig.q[10] = quantizeSigDim(32.0);
    std::string bytes = encodeSigEntry(in);
    ASSERT_EQ(bytes.size(), kSigEntrySize);

    SigEntry out;
    ASSERT_TRUE(decodeSigEntry(bytes.data(), bytes.size(), &out));
    EXPECT_EQ(out.sig, in.sig);
    EXPECT_EQ(out.key, in.key);
    EXPECT_EQ(out.expThreadInsts, in.expThreadInsts);
    EXPECT_EQ(out.expWarpInsts, in.expWarpInsts);
    EXPECT_EQ(out.numCtas, in.numCtas);

    // Any single flipped byte must fail the CRC (or magic) check.
    for (size_t i = 0; i < bytes.size(); i += 7) {
        std::string bad = bytes;
        bad[i] = static_cast<char>(bad[i] ^ 0x5a);
        EXPECT_FALSE(decodeSigEntry(bad.data(), bad.size(), &out))
            << "flipped byte " << i;
    }

    // Truncation and trailing junk are size mismatches, not prefixes.
    EXPECT_FALSE(decodeSigEntry(bytes.data(), bytes.size() - 1, &out));
    std::string padded = bytes + '\0';
    EXPECT_FALSE(decodeSigEntry(padded.data(), padded.size(), &out));
}

TEST(SimilarityIndex, ToleranceBoundEnforcedExactly)
{
    TempDir dir;
    SignatureIndex idx(dir.str());

    // One entry 10 grid steps away in dim 0: distance is exactly
    // 10 * kSigQuantStep = 0.009765625.
    idx.insert(xEntry(1, 10));
    const double d = 10 * kSigQuantStep;
    KernelSignature probe_sig; // all zeros

    // Just outside the bound: no neighbor — the caller must simulate.
    SigProbe miss = idx.probe(probe_sig, d * 0.999);
    EXPECT_FALSE(miss.hit);

    // At/above the bound: served, with the exact distance reported.
    SigProbe hit = idx.probe(probe_sig, d);
    ASSERT_TRUE(hit.hit);
    EXPECT_DOUBLE_EQ(hit.distance, d);
    EXPECT_EQ(hit.entry.key, xKey(1));

    // Nearest wins over merely-within-bound.
    idx.insert(xEntry(2, 3));
    SigProbe nearest = idx.probe(probe_sig, d);
    ASSERT_TRUE(nearest.hit);
    EXPECT_EQ(nearest.entry.key, xKey(2));
    EXPECT_DOUBLE_EQ(nearest.distance, 3 * kSigQuantStep);

    // Equal-distance tie breaks on the smaller key hash, so probe
    // results never depend on insertion order.
    idx.insert(xEntry(3, -3));
    SigProbe tie = idx.probe(probe_sig, d);
    ASSERT_TRUE(tie.hit);
    uint64_t h2 = kernelSimKeyHash(xKey(2));
    uint64_t h3 = kernelSimKeyHash(xKey(3));
    EXPECT_EQ(kernelSimKeyHash(tie.entry.key), std::min(h2, h3));

    SigIndexStatsSnapshot s = idx.stats();
    EXPECT_EQ(s.probes, 4u);
    EXPECT_EQ(s.probeHits, 3u);
    EXPECT_EQ(s.inserts, 3u);
    EXPECT_EQ(s.insertFailures, 0u);
}

TEST(SimilarityIndex, CorruptAndTruncatedEntriesSkippedAtLoad)
{
    TempDir dir;
    {
        SignatureIndex idx(dir.str());
        for (uint64_t i = 0; i < 4; ++i)
            idx.insert(xEntry(i, static_cast<int32_t>(i)));
        EXPECT_EQ(idx.size(), 4u);
    }

    std::vector<fs::path> files = sigFiles(dir.path());
    ASSERT_EQ(files.size(), 4u);

    {
        // Flip one byte mid-record: CRC must reject it.
        std::fstream f(files[0],
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(kSigEntrySize / 2));
        char c = 0x7f;
        f.write(&c, 1);
    }
    fs::resize_file(files[1], kSigEntrySize / 2); // torn write

    SignatureIndex reopened(dir.str());
    EXPECT_EQ(reopened.size(), 2u);
    SigIndexStatsSnapshot s = reopened.stats();
    EXPECT_EQ(s.loaded, 2u);
    EXPECT_EQ(s.corruptSkipped, 2u);

    // The surviving entries still probe; the corrupt ones never serve.
    // Files are named by key hash, so identify the damaged entries by
    // stem rather than assuming sort order tracks insertion order.
    size_t hits = 0;
    for (uint64_t i = 0; i < 4; ++i) {
        KernelSignature sig;
        sig.q[0] = static_cast<int32_t>(i);
        SigProbe p = reopened.probe(sig, 0.0);
        if (!p.hit)
            continue;
        ++hits;
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(
                          kernelSimKeyHash(p.entry.key)));
        EXPECT_NE(files[0].stem().string(), hex);
        EXPECT_NE(files[1].stem().string(), hex);
    }
    EXPECT_EQ(hits, 2u);
}

TEST(SimilarityIndex, PersistsAcrossReopenAndSweepsOrphans)
{
    TempDir dir;
    {
        SignatureIndex idx(dir.str());
        idx.insert(xEntry(11, 5));
        // Inserting the same exact-cache key again is a no-op.
        idx.insert(xEntry(11, 5));
        EXPECT_EQ(idx.size(), 1u);
        EXPECT_EQ(idx.stats().inserts, 1u);
    }

    // Debris a killed writer would leave behind.
    std::ofstream(dir.path() / "tmp" / "dead.123.tmp") << "junk";

    SignatureIndex reopened(dir.str());
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.stats().loaded, 1u);
    EXPECT_EQ(reopened.stats().orphansSwept, 1u);
    EXPECT_FALSE(fs::exists(dir.path() / "tmp" / "dead.123.tmp"));

    KernelSignature sig;
    sig.q[0] = 5;
    SigProbe p = reopened.probe(sig, 0.0);
    ASSERT_TRUE(p.hit);
    EXPECT_EQ(p.entry.key, xKey(11));
}

TEST(SimilarityIndex, ConcurrentInsertAndProbe)
{
    TempDir dir;
    SignatureIndex idx(dir.str());
    constexpr int kWriters = 4, kPerWriter = 16;

    std::vector<std::thread> threads;
    for (int t = 0; t < kWriters; ++t)
        threads.emplace_back([&idx, t] {
            for (int i = 0; i < kPerWriter; ++i)
                idx.insert(xEntry(
                    static_cast<uint64_t>(t * kPerWriter + i),
                    t * kPerWriter + i));
        });
    for (int t = 0; t < 2; ++t)
        threads.emplace_back([&idx] {
            for (int i = 0; i < 200; ++i) {
                KernelSignature sig;
                sig.q[0] = i % (kWriters * kPerWriter);
                idx.probe(sig, 1.0);
            }
        });
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(idx.size(), size_t(kWriters * kPerWriter));
    EXPECT_EQ(sigFiles(dir.path()).size(), size_t(kWriters * kPerWriter));
}

// ---------------------------------------------------------------------
// SimilarityTier: the engine contract.
// ---------------------------------------------------------------------

TEST(SimilarityTier, ProjectsNearDuplicateWithProvenance)
{
    TempDir dir;
    KernelResultStore store(dir.str(), /*similarity=*/true);
    ASSERT_NE(store.similarity(), nullptr);
    SimEngine engine(xOpts(&store, 0.05));
    GpuSimulator simulator(voltaV100());

    ProgramPtr p = xProg("dup");
    KernelDescriptor donor_k = xLaunch(p, 60);
    KernelDescriptor target_k = xLaunch(p, 120); // pure grid rescale

    SimJob donor_job;
    donor_job.setLaunch({donor_k, 0});
    donor_job.workloadSeed = 42;
    EngineStats st{};
    KernelSimResult donor = engine.simulateOne(simulator, donor_job, &st);
    ASSERT_FALSE(donor.projected);
    EXPECT_EQ(st.cacheMisses, 1u);
    ASSERT_EQ(store.recordCount(), 1u);

    SimJob target_job;
    target_job.setLaunch({target_k, 1});
    target_job.workloadSeed = 42;
    st = {};
    KernelSimResult proj = engine.simulateOne(simulator, target_job, &st);

    // Served by the similarity tier with full provenance.
    ASSERT_TRUE(proj.projected);
    EXPECT_EQ(st.simTierHits, 1u);
    EXPECT_EQ(st.projectedLaunches, 1u);
    EXPECT_EQ(st.cacheMisses, 0u);
    EXPECT_EQ(engine.simTierHits(), 1u);
    EXPECT_EQ(engine.projectedLaunches(), 1u);

    // Same per-CTA signature: distance 0, error bound 0.
    EXPECT_DOUBLE_EQ(proj.projectionDistance, 0.0);
    EXPECT_DOUBLE_EQ(proj.projectionErrorBound, 0.0);
    EXPECT_DOUBLE_EQ(st.projErrBound, 0.0);

    // The provenance key names the donor's exact record on disk.
    std::vector<fs::path> records;
    for (const auto &e :
         fs::recursive_directory_iterator(dir.path() / "objects"))
        if (e.is_regular_file() && e.path().extension() == ".pkr")
            records.push_back(e.path());
    ASSERT_EQ(records.size(), 1u);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(proj.projectedFromKey));
    EXPECT_EQ(records[0].stem().string(), hex);

    // Table-1 projection: per-CTA work ratio x wave ratio. A pure grid
    // doubling keeps per-CTA work fixed, and both grids fit in one
    // machine wave here, so the projected cycles equal the donor's —
    // the extra CTAs run concurrently, not back to back. Instruction
    // counters, by contrast, scale with total work (exactly 2x).
    ASSERT_GT(donor.waveSize, target_k.numCtas()); // both single-wave
    EXPECT_EQ(proj.cycles, donor.cycles);
    EXPECT_EQ(proj.waveSize, donor.waveSize);
    EXPECT_DOUBLE_EQ(proj.threadInstructions,
                     donor.threadInstructions * 2.0);
    EXPECT_EQ(proj.finishedCtas, target_k.numCtas());
    EXPECT_EQ(proj.totalCtas, target_k.numCtas());
    EXPECT_EQ(proj.expectedWarpInstructions,
              target_k.totalWarpInstructions());

    // Projected results are published to memory (tagged) but NEVER to
    // the exact disk tier: still exactly one record on disk.
    EXPECT_EQ(store.recordCount(), 1u);

    // A memory re-hit of the projected result still counts as projected.
    st = {};
    KernelSimResult again = engine.simulateOne(simulator, target_job, &st);
    EXPECT_TRUE(again.projected);
    EXPECT_EQ(st.cacheHits, 1u);
    EXPECT_EQ(engine.projectedLaunches(), 2u);
}

TEST(SimilarityTier, MultiWaveGridsScaleByWaveCount)
{
    TempDir dir;
    KernelResultStore store(dir.str(), /*similarity=*/true);
    SimEngine engine(xOpts(&store, 0.05));
    GpuSimulator simulator(voltaV100());

    // 1024-thread blocks: 2 CTAs resident per SM, so the wave size is
    // small enough to fill cheaply. The donor occupies exactly one
    // wave; the target grid is two waves of the same per-CTA work, so
    // projected cycles double.
    ProgramPtr p = xProg("wave");
    KernelDescriptor probe_k = xLaunch(p, 1);
    probe_k.block = {1024, 1, 1};
    SimJob jp;
    jp.setLaunch({probe_k, 0});
    jp.workloadSeed = 42;
    // Storeless engine: the capacity probe must not seed the sig index
    // (its per-CTA signature matches the donor's).
    SimEngine plain{EngineOptions{}};
    uint64_t wave =
        plain.simulateOne(simulator, jp).waveSize; // machine capacity
    ASSERT_GT(wave, 0u);

    KernelDescriptor donor_k = xLaunch(p, static_cast<uint32_t>(wave));
    donor_k.block = {1024, 1, 1};
    KernelDescriptor target_k = xLaunch(p, static_cast<uint32_t>(2 * wave));
    target_k.block = {1024, 1, 1};

    SimJob jd, jt;
    jd.setLaunch({donor_k, 1});
    jt.setLaunch({target_k, 2});
    jd.workloadSeed = jt.workloadSeed = 42;
    KernelSimResult donor = engine.simulateOne(simulator, jd);
    KernelSimResult proj = engine.simulateOne(simulator, jt);
    ASSERT_TRUE(proj.projected);
    EXPECT_EQ(proj.cycles,
              static_cast<uint64_t>(
                  std::llround(static_cast<double>(donor.cycles) * 2.0)));
}

TEST(SimilarityTier, NeighborOutsideToleranceSimulates)
{
    TempDir dir;
    KernelResultStore store(dir.str(), /*similarity=*/true);
    GpuSimulator simulator(voltaV100());

    // iterations 2 vs 3: same kernel family but a real per-CTA work
    // shift — the signature distance lands well outside a 1% bound.
    ProgramPtr p = xProg("near");
    KernelDescriptor a = xLaunch(p, 60, 2);
    KernelDescriptor b = xLaunch(p, 60, 3);
    double d = sigDistance(signatureOf(a), signatureOf(b));
    ASSERT_GT(d, 0.01);

    {
        SimEngine tight(xOpts(&store, d * 0.5));
        SimJob ja, jb;
        ja.setLaunch({a, 0});
        jb.setLaunch({b, 1});
        ja.workloadSeed = jb.workloadSeed = 42;
        tight.simulateOne(simulator, ja);
        KernelSimResult rb = tight.simulateOne(simulator, jb);
        EXPECT_FALSE(rb.projected); // just outside the bound: simulate
        EXPECT_EQ(tight.simTierHits(), 0u);
        EXPECT_EQ(store.recordCount(), 2u);
    }
    {
        // A fresh engine with a bound beyond d projects from the donor
        // the previous run persisted (cross-process replay).
        SimEngine loose(xOpts(&store, d * 1.5));
        KernelDescriptor c = xLaunch(p, 90, 3);
        SimJob jc;
        jc.setLaunch({c, 2});
        jc.workloadSeed = 42;
        KernelSimResult rc = loose.simulateOne(simulator, jc);
        ASSERT_TRUE(rc.projected);
        EXPECT_DOUBLE_EQ(rc.projectionDistance, 0.0); // same per-CTA sig
        EXPECT_EQ(store.recordCount(), 2u);           // nothing new
    }
}

TEST(SimilarityTier, BudgetedLaunchesNeitherProbeNorDonate)
{
    TempDir dir;
    KernelResultStore store(dir.str(), /*similarity=*/true);
    SimEngine engine(xOpts(&store, 0.05));
    GpuSimulator simulator(voltaV100());

    ProgramPtr p = xProg("budget");
    KernelDescriptor k = xLaunch(p, 60);
    SimJob job;
    job.setLaunch({k, 0});
    job.workloadSeed = 42;
    job.opts.maxThreadInstructions = 1000; // truncated run

    engine.simulateOne(simulator, job);
    ASSERT_NE(store.similarity(), nullptr);
    EXPECT_EQ(store.similarity()->size(), 0u); // did not donate

    // A full-run twin of a budgeted record must simulate, not project.
    KernelDescriptor full = xLaunch(p, 120);
    SimJob jf;
    jf.setLaunch({full, 1});
    jf.workloadSeed = 42;
    KernelSimResult r = engine.simulateOne(simulator, jf);
    EXPECT_FALSE(r.projected);
    EXPECT_EQ(engine.simTierHits(), 0u);
}

// ---------------------------------------------------------------------
// StoreRetrySimilarity: the sig/ index under injected store-I/O faults
// (the same "store.read"/"store.write" sites as exact records, so the
// fault-injection CI matrix drives both tiers with one spec).
// ---------------------------------------------------------------------

class StoreRetrySimilarity : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!pka::common::kFaultInjectionCompiledIn)
            GTEST_SKIP() << "built with -DPKA_FAULT_INJECTION=OFF";
        pka::common::FaultInjector::instance().reset();
    }
    void TearDown() override
    {
        pka::common::FaultInjector::instance().reset();
    }
    static uint64_t faultSeed()
    {
        const char *s = std::getenv("PKA_FAULT_SEED");
        return (s && *s) ? std::strtoull(s, nullptr, 10) : 1;
    }
};

TEST_F(StoreRetrySimilarity, TransientWriteFailureRetriesThenPersists)
{
    TempDir dir;
    SignatureIndex idx(dir.str());

    std::vector<pka::common::FaultSpec> specs;
    specs.push_back({.site = "store.write",
                     .kind = pka::common::FaultKind::kIoError,
                     .maxFires = 2});
    pka::common::FaultInjector::instance().configure(specs, faultSeed());

    idx.insert(xEntry(1, 5));
    SigIndexStatsSnapshot s = idx.stats();
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.ioRetries, 2u);
    EXPECT_EQ(s.insertFailures, 0u);
    EXPECT_EQ(sigFiles(dir.path()).size(), 1u); // persisted after retry
}

TEST_F(StoreRetrySimilarity, ExhaustedWriteKeepsEntryResident)
{
    TempDir dir;
    SignatureIndex idx(dir.str());

    std::vector<pka::common::FaultSpec> specs;
    specs.push_back({.site = "store.write",
                     .kind = pka::common::FaultKind::kIoError});
    pka::common::FaultInjector::instance().configure(specs, faultSeed());

    idx.insert(xEntry(2, 9));
    SigIndexStatsSnapshot s = idx.stats();
    EXPECT_EQ(s.insertFailures, 1u);
    EXPECT_EQ(sigFiles(dir.path()).empty(), true);

    // The tier degrades to process-local: the entry still probes.
    KernelSignature sig;
    sig.q[0] = 9;
    EXPECT_TRUE(idx.probe(sig, 0.0).hit);
}

TEST_F(StoreRetrySimilarity, TornWritesAreSkippedAtNextLoad)
{
    TempDir dir;
    {
        SignatureIndex idx(dir.str());
        // A short write publishes a truncated entry (crash between
        // write and fsync).
        std::vector<pka::common::FaultSpec> specs;
        specs.push_back({.site = "store.write",
                         .kind = pka::common::FaultKind::kShortWrite,
                         .maxFires = 1});
        pka::common::FaultInjector::instance().configure(specs,
                                                         faultSeed());
        idx.insert(xEntry(3, 1));
        idx.insert(xEntry(4, 2));
    }
    pka::common::FaultInjector::instance().reset();

    SignatureIndex reopened(dir.str());
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.stats().corruptSkipped, 1u);
}

TEST_F(StoreRetrySimilarity, ReadFaultAtLoadSkipsEntry)
{
    TempDir dir;
    {
        SignatureIndex idx(dir.str());
        idx.insert(xEntry(5, 4));
        idx.insert(xEntry(6, 8));
    }

    // An I/O fault while loading one entry: degraded to corrupt-skip
    // (load is a scan, not a keyed lookup, so there is no retry path —
    // the entry simply does not serve this process).
    std::vector<pka::common::FaultSpec> specs;
    specs.push_back({.site = "store.read",
                     .kind = pka::common::FaultKind::kIoError,
                     .maxFires = 1});
    pka::common::FaultInjector::instance().configure(specs, faultSeed());

    SignatureIndex reopened(dir.str());
    EXPECT_EQ(reopened.size() + reopened.stats().corruptSkipped, 2u);
    EXPECT_LE(reopened.size(), 2u);
}

TEST(SimilarityTier, DisabledTierIsBitIdentical)
{
    GpuSimulator simulator(voltaV100());
    ProgramPtr p = xProg("golden");
    Workload w;
    w.suite = "test";
    w.name = "xcache_golden";
    w.seed = 42;
    for (uint32_t i = 0; i < 8; ++i)
        w.launches.push_back(xLaunch(p, 40 + (i % 4) * 20, 2 + i % 2));

    // Reference: no store at all.
    EngineOptions plain;
    plain.threads = 2;
    plain.memoize = true;
    SimEngine e0(plain);
    pka::core::FullSimResult base =
        pka::core::fullSimulate(e0, simulator, w);
    ASSERT_GT(base.cycles, 0.0);
    EXPECT_EQ(base.projectedLaunches, 0u);

    // --xcache off: store opened exact-only. No sig/ directory may
    // appear, and every aggregate is bit-identical.
    TempDir exact_dir;
    {
        KernelResultStore store(exact_dir.str(), /*similarity=*/false);
        EXPECT_EQ(store.similarity(), nullptr);
        SimEngine e1(xOpts(&store, 0.0, 2));
        pka::core::FullSimResult r =
            pka::core::fullSimulate(e1, simulator, w);
        EXPECT_EQ(r.cycles, base.cycles);
        EXPECT_EQ(r.threadInsts, base.threadInsts);
        EXPECT_EQ(r.projectedLaunches, 0u);
        EXPECT_EQ(r.projErrBound, 0.0);
        ASSERT_EQ(r.perKernel.size(), base.perKernel.size());
        for (size_t i = 0; i < r.perKernel.size(); ++i) {
            EXPECT_EQ(r.perKernel[i].cycles, base.perKernel[i].cycles);
            EXPECT_FALSE(r.perKernel[i].projected);
        }
    }
    EXPECT_FALSE(fs::exists(exact_dir.path() / "sig"));

    // Similarity-opened store but tolerance 0: the tier never fires
    // (neither probes nor inserts), bits unchanged.
    TempDir sim_dir;
    KernelResultStore store(sim_dir.str(), /*similarity=*/true);
    SimEngine e2(xOpts(&store, 0.0, 2));
    pka::core::FullSimResult r =
        pka::core::fullSimulate(e2, simulator, w);
    EXPECT_EQ(r.cycles, base.cycles);
    EXPECT_EQ(r.projectedLaunches, 0u);
    ASSERT_NE(store.similarity(), nullptr);
    EXPECT_EQ(store.similarity()->size(), 0u);
}
