/**
 * @file
 * Operational-resilience tests: ENOSPC/permanent-write-failure
 * degradation to compute-through (store, journal, whole campaigns),
 * offline store scrubbing (`pka fsck` core — every corruption class the
 * fault injector can produce is detected, repaired, and rescans clean),
 * resource budgets (online disk eviction, engine memo-cache LRU trim),
 * and cache directories that turn read-only or vanish mid-campaign.
 * The invariant under test throughout: persistence failures cost
 * wall-clock and cache warmth, never results — aggregates stay
 * bit-identical to a healthy run, and nothing crashes.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "core/experiments.hh"
#include "silicon/gpu_spec.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "store/file_store.hh"
#include "store/fsck.hh"
#include "store/journal.hh"
#include "store/record.hh"
#include "workload/builder.hh"

namespace fs = std::filesystem;
using namespace pka::sim;
using namespace pka::store;
using namespace pka::workload;
using pka::common::FaultInjector;
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
                ("pka_resilience_test_" + std::to_string(::getpid()) +
                 "_" + std::to_string(counter++));
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

/** Disarms the process-wide injector on scope exit, so one test's
 *  faults can never leak into the next. */
struct FaultGuard
{
    FaultGuard(const std::string &spec, uint64_t seed = 1)
    {
        std::string err;
        armed = FaultInjector::instance().configureFromString(spec, seed,
                                                              &err);
        EXPECT_TRUE(armed) << err;
    }
    ~FaultGuard() { FaultInjector::instance().reset(); }
    bool armed = false;
};

KernelSimKey
sampleKey(uint64_t salt = 0)
{
    KernelSimKey k;
    k.specHash = 0x1111222233334444ULL ^ salt;
    k.contentHash = 0x5555666677778888ULL + salt;
    k.workloadSeed = 42;
    k.seedSalt = 7 + salt;
    k.stopConfigKey = 0x9999aaaabbbbccccULL;
    k.maxThreadInstructions = 1'000'000;
    k.maxCycles = 2'000'000;
    k.ipcBucketCycles = 512;
    k.ipcWindowBuckets = 16;
    k.scheduler = 1;
    return k;
}

KernelSimResult
sampleResult()
{
    KernelSimResult r;
    r.cycles = 123456789;
    r.threadInstructions = 9.875e8;
    r.warpInstructions = 30864197;
    r.finishedCtas = 4096;
    r.inFlightCtas = 3;
    r.totalCtas = 4099;
    r.waveSize = 160;
    r.expectedWarpInstructions = 30900000;
    r.stoppedEarly = true;
    r.truncatedByBudget = false;
    r.dramUtilPct = 61.25;
    r.l2MissPct = 12.5;
    return r;
}

ProgramPtr
resProg(const std::string &name)
{
    return ProgramBuilder(name)
        .seg(InstrClass::GlobalLoad, 2)
        .seg(InstrClass::FpAlu, 8)
        .seg(InstrClass::GlobalStore, 1)
        .mem(2.0, 0.4, 0.6)
        .build();
}

/** A stream of distinct-shape launches (every key unique). */
Workload
distinctWorkload(size_t launches)
{
    Workload w;
    w.suite = "test";
    w.name = "resilience_distinct";
    w.seed = 42;
    ProgramPtr p = resProg("resilience_kernel");
    for (size_t i = 0; i < launches; ++i) {
        KernelDescriptor k;
        k.program = p;
        k.grid = {40 + static_cast<uint32_t>(i % 5) * 24, 1, 1};
        k.block = {128, 1, 1};
        k.iterations = 2 + static_cast<uint32_t>(i % 3);
        k.ctaWorkCv = 0.3;
        w.launches.push_back(std::move(k));
    }
    return w;
}

EngineOptions
storeOpts(const KernelResultStore *store, unsigned threads = 2)
{
    EngineOptions eo;
    eo.threads = threads;
    eo.memoize = true;
    eo.store = store;
    return eo;
}

/** Clean-store baseline aggregates for `w` (fresh engine, fresh dir). */
pka::core::FullSimResult
baselineRun(const Workload &w)
{
    TempDir dir;
    KernelResultStore store(dir.str());
    SimEngine engine(storeOpts(&store));
    GpuSimulator simulator(voltaV100());
    return pka::core::fullSimulate(engine, simulator, w);
}

void
expectSameAggregates(const pka::core::FullSimResult &a,
                     const pka::core::FullSimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.threadInsts, b.threadInsts);
    EXPECT_EQ(a.ipc(), b.ipc());
    EXPECT_EQ(a.dramUtilPct, b.dramUtilPct);
}

/** Paths of every record file currently in a store root. */
std::vector<fs::path>
recordFiles(const fs::path &root)
{
    std::vector<fs::path> out;
    for (const auto &e :
         fs::recursive_directory_iterator(root / "objects"))
        if (e.is_regular_file() && e.path().extension() == ".pkr")
            out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// ENOSPC / permanent write failures: degrade, never fail.
// ---------------------------------------------------------------------

TEST(FaultInjectionDiskFull, SpecGrammarParsesEnospcKind)
{
    std::string err;
    FaultInjector &fi = FaultInjector::instance();
    EXPECT_TRUE(
        fi.configureFromString("store.write:enospc:1000", 1, &err))
        << err;
    fi.reset();
    // Bad kind still rejects cleanly.
    EXPECT_FALSE(fi.configureFromString("store.write:nospace", 1, &err));
    fi.reset();
}

TEST(FaultInjectionDiskFull, StoreDegradesToComputeThroughAndStaysUp)
{
    TempDir dir;
    KernelResultStore store(dir.str());
    FaultGuard guard("store.write:enospc:1000");

    store.put(sampleKey(0), sampleResult());
    EXPECT_TRUE(store.degraded());
    StoreStatsSnapshot s = store.stats();
    EXPECT_EQ(s.degraded, 1u);
    EXPECT_EQ(s.puts, 0u);

    // Further puts are dropped (counted), not retried: a full disk must
    // not burn the retry budget on every launch.
    store.put(sampleKey(1), sampleResult());
    store.put(sampleKey(2), sampleResult());
    s = store.stats();
    EXPECT_GE(s.putsSkippedDegraded, 2u);
    EXPECT_EQ(s.retryExhausted, 0u);

    // Reads keep working in compute-through mode.
    KernelSimResult out;
    EXPECT_EQ(store.get(sampleKey(0), &out), Lookup::kMiss);
    EXPECT_EQ(store.recordCount(), 0u);
}

TEST(FaultInjectionDiskFull, CampaignSurvivesEnospcBitIdentically)
{
    Workload w = distinctWorkload(24);
    pka::core::FullSimResult healthy = baselineRun(w);

    TempDir dir;
    KernelResultStore store(dir.str());
    FaultGuard guard("store.write:enospc:1000");
    SimEngine engine(storeOpts(&store));
    GpuSimulator simulator(voltaV100());
    pka::core::FullSimResult starved =
        pka::core::fullSimulate(engine, simulator, w);

    // The campaign completed every launch with the store disabled, and
    // persistence failure never leaked into the numbers.
    EXPECT_TRUE(store.degraded());
    EXPECT_EQ(starved.cacheMisses, w.launches.size());
    expectSameAggregates(healthy, starved);
    EXPECT_EQ(store.recordCount(), 0u);
}

TEST(FaultInjectionDiskFull, JournalLosesCheckpointsNotTheCampaign)
{
    TempDir dir;
    fs::path jdir = dir.path() / "sessions" / "s1";
    fs::create_directories(jdir);
    std::string jpath = (jdir / "journal-1.pkj").string();

    FaultGuard guard("journal.append:enospc:1000");
    CampaignJournal j(jpath, 0xabcdefULL, 8, false);
    j.markDone({0, 1, 2});

    // The append path degraded to a no-op, but the in-memory ledger (and
    // with it the running campaign) is untouched.
    EXPECT_FALSE(j.checkpointing());
    EXPECT_EQ(j.completedCount(), 3u);
    EXPECT_TRUE(j.isDone(0));
    j.markQuarantined(0x1234); // must not crash after degrade
}

// ---------------------------------------------------------------------
// Offline scrubbing: the `pka fsck` core.
// ---------------------------------------------------------------------

TEST(Fsck, CleanStoreScansClean)
{
    TempDir dir;
    KernelResultStore store(dir.str());
    for (uint64_t i = 0; i < 5; ++i)
        store.put(sampleKey(i), sampleResult());

    FsckReport rep = fsckStore(dir.str(), {});
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.recordsScanned, 5u);
    EXPECT_EQ(rep.recordsValid, 5u);
    EXPECT_EQ(rep.recordBytes, 5 * kRecordSize);
}

TEST(Fsck, QuarantinesBitRotAndTruncationNeverDeletes)
{
    TempDir dir;
    KernelResultStore store(dir.str());
    for (uint64_t i = 0; i < 4; ++i)
        store.put(sampleKey(i), sampleResult());

    std::vector<fs::path> files = recordFiles(dir.path());
    ASSERT_EQ(files.size(), 4u);
    { // Bit rot in the payload of one record.
        std::fstream f(files[0],
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(kRecordSize / 2));
        f.put('\x5a');
    }
    fs::resize_file(files[1], kRecordSize - 7); // torn write

    // Scan-only reports the damage and touches nothing.
    FsckReport scan = fsckStore(dir.str(), {});
    EXPECT_FALSE(scan.clean());
    EXPECT_EQ(scan.recordsCorrupt, 2u);
    EXPECT_EQ(scan.recordsValid, 2u);
    EXPECT_EQ(scan.quarantinedFiles, 0u);
    EXPECT_TRUE(fs::exists(files[0]));

    // Repair quarantines (preserving bytes for post-mortem) and the
    // rescan comes back clean.
    FsckOptions repair;
    repair.repair = true;
    FsckReport rep = fsckStore(dir.str(), repair);
    EXPECT_EQ(rep.quarantinedFiles, 2u);
    EXPECT_FALSE(fs::exists(files[0]));
    EXPECT_FALSE(fs::exists(files[1]));
    uint64_t parked = 0;
    for (const auto &e :
         fs::directory_iterator(dir.path() / "quarantine"))
        parked += e.is_regular_file() ? 1 : 0;
    EXPECT_EQ(parked, 2u);
    EXPECT_TRUE(fsckStore(dir.str(), {}).clean());
    EXPECT_EQ(store.recordCount(), 2u);
}

TEST(Fsck, RenamesMisnamedRecordBackIntoReach)
{
    TempDir dir;
    KernelResultStore store(dir.str());
    KernelSimKey key = sampleKey(9);
    store.put(key, sampleResult());

    // Displace the (valid) record under a name no lookup will compute.
    std::vector<fs::path> files = recordFiles(dir.path());
    ASSERT_EQ(files.size(), 1u);
    fs::path strayDir = dir.path() / "objects" / "00";
    fs::create_directories(strayDir);
    fs::path stray = strayDir / "00deadbeef00cafe.pkr";
    fs::rename(files[0], stray);

    KernelSimResult out;
    EXPECT_EQ(store.get(key, &out), Lookup::kMiss); // unreachable

    FsckReport scan = fsckStore(dir.str(), {});
    EXPECT_EQ(scan.recordsMisnamed, 1u);
    EXPECT_EQ(scan.recordsRenamed, 0u);

    FsckOptions repair;
    repair.repair = true;
    FsckReport rep = fsckStore(dir.str(), repair);
    EXPECT_EQ(rep.recordsRenamed, 1u);
    EXPECT_EQ(rep.quarantinedFiles, 0u);
    EXPECT_TRUE(fsckStore(dir.str(), {}).clean());

    // The record is a hit again — repair recovered real cache value.
    EXPECT_EQ(store.get(key, &out), Lookup::kHit);
    EXPECT_EQ(out.cycles, sampleResult().cycles);
}

TEST(Fsck, SweepsStagingOrphansAndTruncatesTornJournalTail)
{
    TempDir dir;
    KernelResultStore store(dir.str());
    store.put(sampleKey(), sampleResult());

    // A killed writer's staging debris.
    { std::ofstream(dir.path() / "tmp" / "orphan-123.tmp") << "half"; }

    // A journal whose tail was torn by a crash mid-append.
    fs::path jdir = dir.path() / "sessions" / "sess";
    fs::create_directories(jdir);
    fs::path jpath = jdir / "journal-7.pkj";
    {
        CampaignJournal j(jpath.string(), 0x77ULL, 8, false);
        j.markDone({0, 1});
    }
    uint64_t goodSize = fs::file_size(jpath);
    { std::ofstream(jpath, std::ios::app) << "done,2"; } // no newline

    FsckReport scan = fsckStore(dir.str(), {});
    EXPECT_EQ(scan.tmpOrphans, 1u);
    EXPECT_EQ(scan.journalsScanned, 1u);
    EXPECT_EQ(scan.journalsTorn, 1u);
    EXPECT_EQ(scan.journalsTruncated, 0u);

    FsckOptions repair;
    repair.repair = true;
    FsckReport rep = fsckStore(dir.str(), repair);
    EXPECT_EQ(rep.journalsTruncated, 1u);
    EXPECT_EQ(fs::file_size(jpath), goodSize);
    EXPECT_TRUE(fsckStore(dir.str(), {}).clean());

    // The truncated journal resumes with exactly its trusted prefix.
    CampaignJournal resumed(jpath.string(), 0x77ULL, 8, true);
    EXPECT_EQ(resumed.resumedCount(), 2u);
    EXPECT_TRUE(resumed.isDone(0));
    EXPECT_TRUE(resumed.isDone(1));
    EXPECT_FALSE(resumed.isDone(2));
}

TEST(Fsck, JournalWithDestroyedHeaderIsQuarantined)
{
    TempDir dir;
    KernelResultStore store(dir.str());
    fs::path jdir = dir.path() / "sessions" / "sess";
    fs::create_directories(jdir);
    fs::path jpath = jdir / "journal-9.pkj";
    { std::ofstream(jpath) << "this was never a journal\n"; }

    FsckReport scan = fsckStore(dir.str(), {});
    EXPECT_EQ(scan.journalsBad, 1u);

    FsckOptions repair;
    repair.repair = true;
    FsckReport rep = fsckStore(dir.str(), repair);
    EXPECT_EQ(rep.quarantinedFiles, 1u);
    EXPECT_FALSE(fs::exists(jpath));
    EXPECT_TRUE(fsckStore(dir.str(), {}).clean());
}

TEST(Fsck, CompactionEvictsOldestFirstDownToBudget)
{
    TempDir dir;
    KernelResultStore store(dir.str());
    for (uint64_t i = 0; i < 6; ++i)
        store.put(sampleKey(i), sampleResult());

    // Age the records deterministically: files[0] oldest.
    std::vector<fs::path> files = recordFiles(dir.path());
    ASSERT_EQ(files.size(), 6u);
    auto now = fs::last_write_time(files[0]);
    for (size_t i = 0; i < files.size(); ++i)
        fs::last_write_time(files[i],
                            now - std::chrono::hours(files.size() - i));

    FsckOptions opts;
    opts.budgetBytes = 2 * kRecordSize;
    FsckReport rep = fsckStore(dir.str(), opts);
    EXPECT_EQ(rep.evictedRecords, 4u);
    EXPECT_EQ(rep.evictedBytes, 4 * kRecordSize);
    EXPECT_LE(store.recordBytes(), opts.budgetBytes);

    // The two *newest* records are the survivors.
    std::vector<fs::path> left = recordFiles(dir.path());
    ASSERT_EQ(left.size(), 2u);
    for (const fs::path &p : left)
        EXPECT_TRUE(p == files[4] || p == files[5]) << p;
}

// ---------------------------------------------------------------------
// Online resource budgets: disk and memo-cache bounds.
// ---------------------------------------------------------------------

TEST(StoreBudget, OnlinePutsEvictOldestAndNeverDegrade)
{
    TempDir dir;
    KernelResultStore store(dir.str());
    store.setDiskBudgetBytes(4 * kRecordSize);
    for (uint64_t i = 0; i < 12; ++i)
        store.put(sampleKey(i), sampleResult());

    StoreStatsSnapshot s = store.stats();
    EXPECT_EQ(s.puts, 12u);
    EXPECT_EQ(s.putFailures, 0u);
    EXPECT_FALSE(store.degraded());
    EXPECT_GT(s.evictedRecords, 0u);
    EXPECT_EQ(s.evictedBytes, s.evictedRecords * kRecordSize);
    // Eviction runs in bursts down to 90% of the budget, so the tree may
    // transiently sit anywhere under the budget — never above it.
    EXPECT_LE(store.recordBytes(), 4 * kRecordSize);
    EXPECT_EQ(store.recordCount() + s.evictedRecords, 12u);
}

TEST(MemoBudget, EngineEvictsLruWithBitIdenticalResults)
{
    Workload w = distinctWorkload(48);
    pka::core::FullSimResult unbounded = baselineRun(w);

    EngineOptions eo;
    eo.threads = 2;
    eo.memoize = true;
    eo.memoBudgetBytes = 8192; // far below 48 distinct entries
    SimEngine engine(eo);
    GpuSimulator simulator(voltaV100());
    pka::core::FullSimResult bounded =
        pka::core::fullSimulate(engine, simulator, w);

    EXPECT_GT(engine.memoEvictions(), 0u);
    expectSameAggregates(unbounded, bounded);

    // A second pass re-pays evicted entries (wall-clock, not results).
    pka::core::FullSimResult again =
        pka::core::fullSimulate(engine, simulator, w);
    expectSameAggregates(unbounded, again);
}

// ---------------------------------------------------------------------
// Cache directories that go bad mid-campaign.
// ---------------------------------------------------------------------

TEST(CacheDirResilience, ObjectsTreeReplacedByFileDegradesBitIdentically)
{
    Workload w = distinctWorkload(16);
    pka::core::FullSimResult healthy = baselineRun(w);

    TempDir dir;
    KernelResultStore store(dir.str());
    // Sabotage after open: every path component under objects/ now hits
    // ENOTDIR — the permanent-errno class, exactly what a read-only or
    // remounted cache volume produces (chmod is no barrier under root,
    // which is how CI runs, so the test forces the errno directly).
    fs::remove_all(dir.path() / "objects");
    { std::ofstream(dir.path() / "objects") << "not a directory"; }

    SimEngine engine(storeOpts(&store));
    GpuSimulator simulator(voltaV100());
    pka::core::FullSimResult degradedRun =
        pka::core::fullSimulate(engine, simulator, w);

    EXPECT_TRUE(store.degraded());
    EXPECT_GT(store.stats().putsSkippedDegraded, 0u);
    expectSameAggregates(healthy, degradedRun);
}

TEST(CacheDirResilience, ReadOnlyCacheDirDegradesToComputeThrough)
{
    if (::geteuid() == 0)
        GTEST_SKIP() << "root bypasses permission bits; the ENOTDIR "
                        "variant covers the permanent-errno path";

    Workload w = distinctWorkload(8);
    pka::core::FullSimResult healthy = baselineRun(w);

    TempDir dir;
    KernelResultStore store(dir.str());
    ::chmod((dir.path() / "objects").string().c_str(), 0555);
    ::chmod((dir.path() / "tmp").string().c_str(), 0555);
    ::chmod(dir.str().c_str(), 0555);

    SimEngine engine(storeOpts(&store));
    GpuSimulator simulator(voltaV100());
    pka::core::FullSimResult ro =
        pka::core::fullSimulate(engine, simulator, w);
    expectSameAggregates(healthy, ro);
    EXPECT_TRUE(store.degraded());

    ::chmod(dir.str().c_str(), 0755); // let TempDir clean up
    ::chmod((dir.path() / "objects").string().c_str(), 0755);
    ::chmod((dir.path() / "tmp").string().c_str(), 0755);
}

TEST(CacheDirResilience, CacheDirVanishingMidCampaignIsBitIdentical)
{
    Workload w = distinctWorkload(16);
    pka::core::FullSimResult healthy = baselineRun(w);

    TempDir dir;
    fs::path root = dir.path() / "cache";
    KernelResultStore store(root.string());
    // Warm a few records, then yank the whole directory out from under
    // the open store — an operator rm -rf, an unmounted volume.
    for (uint64_t i = 0; i < 4; ++i)
        store.put(sampleKey(100 + i), sampleResult());
    fs::remove_all(root);

    SimEngine engine(storeOpts(&store));
    GpuSimulator simulator(voltaV100());
    pka::core::FullSimResult after =
        pka::core::fullSimulate(engine, simulator, w);

    // Whether the store re-created the tree or degraded, the campaign
    // finished every launch and the numbers match a healthy run.
    expectSameAggregates(healthy, after);
    EXPECT_EQ(after.cacheMisses + after.storeHits + after.cacheHits,
              w.launches.size());
}

TEST(CacheDirResilience, WarmRerunAfterSabotageRecomputesBitIdentically)
{
    Workload w = distinctWorkload(12);

    TempDir dir;
    pka::core::FullSimResult cold;
    {
        KernelResultStore store(dir.str());
        SimEngine engine(storeOpts(&store));
        GpuSimulator simulator(voltaV100());
        cold = pka::core::fullSimulate(engine, simulator, w);
        EXPECT_EQ(store.recordCount(), w.launches.size());
    }

    // The "resume" run finds its cache gone bad: every shard directory
    // under objects/ is now a regular file, so reads and writes both
    // hit ENOTDIR while the store itself still opens.
    std::vector<fs::path> shards;
    for (const auto &e : fs::directory_iterator(dir.path() / "objects"))
        shards.push_back(e.path());
    for (const fs::path &shard : shards) {
        fs::remove_all(shard);
        std::ofstream(shard) << "gone";
    }

    KernelResultStore store(dir.str());
    SimEngine engine(storeOpts(&store));
    GpuSimulator simulator(voltaV100());
    pka::core::FullSimResult warm =
        pka::core::fullSimulate(engine, simulator, w);

    // Zero store hits — everything recomputed — and still bit-identical.
    EXPECT_EQ(warm.storeHits, 0u);
    EXPECT_EQ(warm.cacheMisses, w.launches.size());
    expectSameAggregates(cold, warm);
}
