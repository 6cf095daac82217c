/**
 * @file
 * Persistent result-store tests: CRC-32 vectors, record codec round-trip
 * and rejection, file-store semantics (atomic put/get, corruption and
 * collision handling), campaign-journal resume semantics, and the
 * end-to-end engine contract — warm re-runs answer from disk with
 * bit-identical aggregates, interrupted campaigns resume bit-identically,
 * and corrupt records are skipped, never served and never fatal.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/experiments.hh"
#include "core/pka.hh"
#include "silicon/gpu_spec.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "store/crc32.hh"
#include "store/file_store.hh"
#include "store/journal.hh"
#include "store/record.hh"
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
                ("pka_store_test_" + std::to_string(::getpid()) + "_" +
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

void
expectSameResult(const KernelSimResult &a, const KernelSimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.threadInstructions, b.threadInstructions);
    EXPECT_EQ(a.warpInstructions, b.warpInstructions);
    EXPECT_EQ(a.finishedCtas, b.finishedCtas);
    EXPECT_EQ(a.inFlightCtas, b.inFlightCtas);
    EXPECT_EQ(a.totalCtas, b.totalCtas);
    EXPECT_EQ(a.waveSize, b.waveSize);
    EXPECT_EQ(a.expectedWarpInstructions, b.expectedWarpInstructions);
    EXPECT_EQ(a.stoppedEarly, b.stoppedEarly);
    EXPECT_EQ(a.truncatedByBudget, b.truncatedByBudget);
    EXPECT_EQ(a.dramUtilPct, b.dramUtilPct);
    EXPECT_EQ(a.l2MissPct, b.l2MissPct);
    EXPECT_TRUE(b.trace.empty());
}

ProgramPtr
storeProg(const std::string &name)
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
    w.name = "store_distinct";
    w.seed = 42;
    ProgramPtr p = storeProg("store_kernel");
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

TEST(Crc32, KnownVectorAndIncrementalUpdate)
{
    const char *check = "123456789";
    EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);

    // Incremental updates compose to the one-shot answer.
    uint32_t crc = crc32Update(0, check, 4);
    crc = crc32Update(crc, check + 4, 5);
    EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(Record, RoundTripPreservesEveryField)
{
    KernelSimKey key = sampleKey();
    KernelSimResult in = sampleResult();
    std::string bytes = encodeRecord(key, in);
    ASSERT_EQ(bytes.size(), kRecordSize);

    KernelSimResult out;
    ASSERT_EQ(decodeRecord(bytes.data(), bytes.size(), key, &out),
              DecodeStatus::kOk);
    expectSameResult(in, out);
}

TEST(Record, EveryFlippedByteIsRejected)
{
    KernelSimKey key = sampleKey();
    std::string bytes = encodeRecord(key, sampleResult());
    // Whatever byte rots — header, key echo, payload or the CRC itself —
    // the record must never decode as a hit for this key.
    for (size_t i = 0; i < bytes.size(); ++i) {
        std::string bad = bytes;
        bad[i] = static_cast<char>(bad[i] ^ 0x5a);
        KernelSimResult out;
        EXPECT_EQ(decodeRecord(bad.data(), bad.size(), key, &out),
                  DecodeStatus::kCorrupt)
            << "byte " << i;
    }
}

TEST(Record, WrongSizesAreCorrupt)
{
    KernelSimKey key = sampleKey();
    std::string bytes = encodeRecord(key, sampleResult());
    KernelSimResult out;
    EXPECT_EQ(decodeRecord(bytes.data(), bytes.size() - 1, key, &out),
              DecodeStatus::kCorrupt);
    EXPECT_EQ(decodeRecord(bytes.data(), 0, key, &out),
              DecodeStatus::kCorrupt);
    std::string padded = bytes + '\0';
    EXPECT_EQ(decodeRecord(padded.data(), padded.size(), key, &out),
              DecodeStatus::kCorrupt);
}

TEST(Record, ValidRecordForAnotherKeyIsAMismatchNotAHit)
{
    KernelSimKey a = sampleKey(0), b = sampleKey(1);
    std::string bytes = encodeRecord(a, sampleResult());
    KernelSimResult out;
    // The record is bit-perfect — only the identity differs. This is the
    // hash-collision / schema-drift guard.
    EXPECT_EQ(decodeRecord(bytes.data(), bytes.size(), b, &out),
              DecodeStatus::kKeyMismatch);
}

TEST(FileStore, PutThenGetHitsAndMissesAreCounted)
{
    TempDir dir;
    KernelResultStore store(dir.str());
    KernelSimKey key = sampleKey();
    KernelSimResult in = sampleResult();

    KernelSimResult out;
    EXPECT_EQ(store.get(key, &out), Lookup::kMiss);

    store.put(key, in);
    EXPECT_EQ(store.recordCount(), 1u);
    EXPECT_EQ(store.recordBytes(), kRecordSize);
    ASSERT_EQ(store.get(key, &out), Lookup::kHit);
    expectSameResult(in, out);

    // A different key misses without disturbing the stored record.
    EXPECT_EQ(store.get(sampleKey(3), &out), Lookup::kMiss);

    StoreStatsSnapshot s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.puts, 1u);
    EXPECT_EQ(s.putFailures, 0u);
    EXPECT_EQ(s.bytesWritten, kRecordSize);

    // The staging area never leaks temp files.
    EXPECT_TRUE(fs::is_empty(dir.path() / "tmp"));
}

TEST(FileStore, CorruptRecordIsSkippedAndRecoverable)
{
    TempDir dir;
    KernelResultStore store(dir.str());
    KernelSimKey key = sampleKey();
    store.put(key, sampleResult());

    auto files = recordFiles(dir.path());
    ASSERT_EQ(files.size(), 1u);
    {
        std::fstream f(files[0],
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(20);
        char junk = 'X';
        f.write(&junk, 1);
    }

    KernelSimResult out;
    EXPECT_EQ(store.get(key, &out), Lookup::kCorrupt);
    EXPECT_EQ(store.stats().corruptSkipped, 1u);

    // put() repairs the record in place (atomic replace).
    store.put(key, sampleResult());
    EXPECT_EQ(store.get(key, &out), Lookup::kHit);
}

TEST(FileStore, CollidedRecordIsAMissNotAHit)
{
    TempDir dir;
    KernelResultStore store(dir.str());
    KernelSimKey a = sampleKey(0), b = sampleKey(1);
    store.put(a, sampleResult());

    // Simulate a 64-bit hash collision: a valid record written for `a`
    // sitting at `b`'s address.
    auto files = recordFiles(dir.path());
    ASSERT_EQ(files.size(), 1u);
    store.put(b, sampleResult());
    auto both = recordFiles(dir.path());
    ASSERT_EQ(both.size(), 2u);
    fs::path b_path = both[0] == files[0] ? both[1] : both[0];
    fs::copy_file(files[0], b_path,
                  fs::copy_options::overwrite_existing);

    KernelSimResult out;
    EXPECT_EQ(store.get(b, &out), Lookup::kMiss);
    EXPECT_EQ(store.stats().keyMismatches, 1u);
}

TEST(FileStore, WarmEngineRunAnswersEntirelyFromDisk)
{
    TempDir dir;
    GpuSimulator simulator(voltaV100());
    Workload w = distinctWorkload(12);

    pka::core::FullSimResult cold, warm;
    {
        KernelResultStore store(dir.str());
        SimEngine engine(storeOpts(&store));
        cold = pka::core::fullSimulate(engine, simulator, w);
        EXPECT_EQ(cold.cacheMisses, w.launches.size());
        EXPECT_EQ(cold.storeHits, 0u);
        EXPECT_EQ(store.recordCount(), w.launches.size());
    }
    {
        // Fresh store handle and fresh engine: cold memory, warm disk —
        // the acceptance criterion's "zero simulator invocations".
        KernelResultStore store(dir.str());
        SimEngine engine(storeOpts(&store));
        warm = pka::core::fullSimulate(engine, simulator, w);
        EXPECT_EQ(warm.storeHits, w.launches.size());
        EXPECT_EQ(warm.cacheMisses, 0u);
        EXPECT_EQ(warm.cacheHits, 0u);
    }
    // Bit-identical aggregates from disk.
    EXPECT_EQ(warm.cycles, cold.cycles);
    EXPECT_EQ(warm.threadInsts, cold.threadInsts);
    EXPECT_EQ(warm.dramUtilPct, cold.dramUtilPct);
    ASSERT_EQ(warm.perKernel.size(), cold.perKernel.size());
    for (size_t i = 0; i < warm.perKernel.size(); ++i)
        EXPECT_EQ(warm.perKernel[i].cycles, cold.perKernel[i].cycles);
}

TEST(SimEngine, SimulateOneAccountsLikeRunChecked)
{
    GpuSimulator simulator(voltaV100());
    Workload w = distinctWorkload(2);
    // A miss, a repeat of it (memory hit) and a launch the store
    // already holds (store hit).
    std::vector<SimJob> jobs(3);
    jobs[0].setLaunch(w.launches[0]);
    jobs[1].setLaunch(w.launches[0]);
    jobs[2].setLaunch(w.launches[1]);
    for (SimJob &j : jobs)
        j.workloadSeed = w.seed;

    // Each side runs a fresh one-thread engine (runChecked then visits
    // the jobs in order) over its own store holding only launch 1.
    auto account = [&](bool batch) {
        TempDir dir;
        KernelResultStore store(dir.str());
        SimEngine(storeOpts(&store, 1)).simulateOne(simulator, jobs[2]);
        SimEngine engine(storeOpts(&store, 1));
        EngineStats stats;
        if (batch) {
            for (const auto &r : engine.runChecked(simulator, jobs, &stats))
                EXPECT_TRUE(r.ok());
        } else {
            for (const SimJob &j : jobs)
                engine.simulateOne(simulator, j, &stats);
        }
        return stats;
    };
    EngineStats one = account(false);
    EngineStats all = account(true);

    EXPECT_EQ(all.launches, 3u);
    EXPECT_EQ(all.cacheMisses, 1u);
    EXPECT_EQ(all.cacheHits, 1u);
    EXPECT_EQ(all.storeHits, 1u);
    EXPECT_EQ(one.launches, all.launches);
    EXPECT_EQ(one.cacheHits, all.cacheHits);
    EXPECT_EQ(one.storeHits, all.storeHits);
    EXPECT_EQ(one.cacheMisses, all.cacheMisses);
    EXPECT_EQ(one.corruptSkipped, all.corruptSkipped);
    EXPECT_EQ(one.simTierHits, all.simTierHits);
    EXPECT_EQ(one.projectedLaunches, all.projectedLaunches);
    EXPECT_EQ(one.projErrBound, all.projErrBound);
    EXPECT_EQ(one.failures, all.failures);
    EXPECT_EQ(one.taskRetries, all.taskRetries);
    EXPECT_EQ(one.degradedRuns, all.degradedRuns);
    EXPECT_EQ(one.quarantinedKernels, all.quarantinedKernels);
    EXPECT_EQ(one.quarantineSkips, all.quarantineSkips);
    EXPECT_EQ(one.memoEvictions, all.memoEvictions);
    EXPECT_EQ(one.launchErrors.size(), all.launchErrors.size());
}

TEST(FileStore, CorruptRecordFallsBackToSimulationBitIdentically)
{
    TempDir dir;
    GpuSimulator simulator(voltaV100());
    Workload w = distinctWorkload(8);

    pka::core::FullSimResult cold;
    {
        KernelResultStore store(dir.str());
        SimEngine engine(storeOpts(&store));
        cold = pka::core::fullSimulate(engine, simulator, w);
    }

    // Rot one record on disk between runs.
    auto files = recordFiles(dir.path());
    ASSERT_EQ(files.size(), w.launches.size());
    {
        std::ofstream f(files[3], std::ios::binary | std::ios::trunc);
        f << "not a record";
    }

    KernelResultStore store(dir.str());
    SimEngine engine(storeOpts(&store));
    pka::core::FullSimResult warm =
        pka::core::fullSimulate(engine, simulator, w);
    EXPECT_EQ(warm.storeHits, w.launches.size() - 1);
    EXPECT_EQ(warm.cacheMisses, 1u); // re-simulated, not served corrupt
    EXPECT_EQ(warm.corruptSkipped, 1u);
    EXPECT_EQ(warm.cycles, cold.cycles);
    EXPECT_EQ(warm.threadInsts, cold.threadInsts);

    // The re-simulation also repaired the record for the next run.
    KernelSimResult fixed;
    EXPECT_EQ(store.stats().corruptSkipped, 1u);
    SimEngine engine2(storeOpts(&store));
    pka::core::FullSimResult again =
        pka::core::fullSimulate(engine2, simulator, w);
    EXPECT_EQ(again.storeHits, w.launches.size());
    EXPECT_EQ(again.cycles, cold.cycles);
}

TEST(CampaignJournal, RoundTripAndResume)
{
    TempDir dir;
    std::string path = (dir.path() / "journal.pkj").string();
    constexpr uint64_t kKey = 0xdeadbeefcafef00dULL;

    {
        CampaignJournal j(path, kKey, 10, /*resume=*/false);
        EXPECT_EQ(j.completedCount(), 0u);
        j.markDone({0, 1, 2, 5});
        j.markDone({2}); // duplicate: ignored
        EXPECT_EQ(j.completedCount(), 4u);
    }
    {
        CampaignJournal j(path, kKey, 10, /*resume=*/true);
        EXPECT_EQ(j.completedCount(), 4u);
        EXPECT_EQ(j.resumedCount(), 4u);
        EXPECT_TRUE(j.isDone(0));
        EXPECT_TRUE(j.isDone(5));
        EXPECT_FALSE(j.isDone(3));
        EXPECT_FALSE(j.isDone(9));
        j.markDone({3});
    }
    {
        // Appended entries survive a second resume.
        CampaignJournal j(path, kKey, 10, /*resume=*/true);
        EXPECT_EQ(j.resumedCount(), 5u);
    }
}

TEST(CampaignJournal, MismatchedCampaignRestartsFresh)
{
    TempDir dir;
    std::string path = (dir.path() / "journal.pkj").string();
    {
        CampaignJournal j(path, 111, 10, false);
        j.markDone({0, 1, 2});
    }
    {
        // Different campaign key: never resume someone else's progress.
        CampaignJournal j(path, 222, 10, true);
        EXPECT_EQ(j.completedCount(), 0u);
        EXPECT_EQ(j.resumedCount(), 0u);
    }
    {
        CampaignJournal j(path, 111, 10, false);
        j.markDone({0, 1, 2});
    }
    {
        // Different launch count: same story.
        CampaignJournal j(path, 111, 12, true);
        EXPECT_EQ(j.completedCount(), 0u);
    }
    {
        // resume=false ignores any existing journal.
        CampaignJournal j(path, 111, 10, false);
        j.markDone({7});
        EXPECT_EQ(j.completedCount(), 1u);
        EXPECT_EQ(j.resumedCount(), 0u);
    }
}

TEST(CampaignJournal, TornTailIsToleratedGarbageIsNot)
{
    TempDir dir;
    std::string path = (dir.path() / "journal.pkj").string();
    {
        CampaignJournal j(path, 42, 10, false);
        j.markDone({0, 1, 2, 3});
    }
    {
        // Tear the final line mid-write, as a crash would.
        std::ifstream is(path);
        std::string content((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
        std::ofstream os(path, std::ios::trunc);
        os << content.substr(0, content.size() - 2);
    }
    {
        CampaignJournal j(path, 42, 10, true);
        // done,0 done,1 done,2 intact; "done," torn.
        EXPECT_EQ(j.resumedCount(), 3u);
    }
    {
        // Wholesale garbage restarts fresh instead of failing.
        std::ofstream os(path, std::ios::trunc);
        os << "this is not a journal\n";
    }
    {
        CampaignJournal j(path, 42, 10, true);
        EXPECT_EQ(j.resumedCount(), 0u);
    }
}

TEST(Checkpoint, InterruptedCampaignResumesBitIdentically)
{
    TempDir dir;
    GpuSimulator simulator(voltaV100());
    Workload w = distinctWorkload(10);
    constexpr size_t kInterruptAfter = 6;

    // Reference: one uninterrupted run, no store at all.
    SimEngine plain(storeOpts(nullptr));
    pka::core::FullSimResult ref =
        pka::core::fullSimulate(plain, simulator, w);

    // "Interrupted" run: the first kInterruptAfter launches complete
    // (results persisted, completion journaled), then the process dies.
    {
        KernelResultStore store(dir.str());
        SimEngine engine(storeOpts(&store));
        std::vector<SimJob> prefix(kInterruptAfter);
        for (size_t i = 0; i < kInterruptAfter; ++i) {
            prefix[i].setLaunch(w.launches[i]);
            prefix[i].workloadSeed = w.seed;
        }
        for (const auto &r : engine.runChecked(simulator, prefix))
            ASSERT_TRUE(r.ok());

        uint64_t key =
            pka::core::campaignKey(simulator, w, engine, "fullsim");
        CampaignJournal j(pka::core::journalPath(dir.str(), "fullsim", key),
                          key, w.launches.size(), false);
        std::vector<size_t> done;
        for (size_t i = 0; i < kInterruptAfter; ++i)
            done.push_back(i);
        j.markDone(done);
    }

    // Resume in a fresh process (fresh engine, cold memory cache).
    KernelResultStore store(dir.str());
    SimEngine engine(storeOpts(&store));
    pka::core::CampaignCheckpoint cp;
    cp.dir = dir.str();
    cp.resume = true;
    cp.chunkLaunches = 4;
    pka::core::FullSimResult res =
        pka::core::fullSimulate(engine, simulator, w, &cp);

    EXPECT_EQ(res.resumedLaunches, kInterruptAfter);
    EXPECT_EQ(res.storeHits, kInterruptAfter);
    EXPECT_EQ(res.cacheMisses, w.launches.size() - kInterruptAfter);
    EXPECT_EQ(res.cycles, ref.cycles);
    EXPECT_EQ(res.threadInsts, ref.threadInsts);
    EXPECT_EQ(res.dramUtilPct, ref.dramUtilPct);
    ASSERT_EQ(res.perKernel.size(), ref.perKernel.size());
    for (size_t i = 0; i < res.perKernel.size(); ++i)
        EXPECT_EQ(res.perKernel[i].cycles, ref.perKernel[i].cycles);

    // And a third run is now a complete warm replay.
    SimEngine warm(storeOpts(&store));
    pka::core::FullSimResult replay =
        pka::core::fullSimulate(warm, simulator, w, &cp);
    EXPECT_EQ(replay.resumedLaunches, w.launches.size());
    EXPECT_EQ(replay.cacheMisses, 0u);
    EXPECT_EQ(replay.cycles, ref.cycles);
}

TEST(Checkpoint, SelectionCampaignJournalsAndResumes)
{
    TempDir dir;
    GpuSimulator simulator(voltaV100());
    Workload w = distinctWorkload(12);

    pka::core::SelectionOutcome sel;
    for (uint32_t rep : {0u, 3u, 7u, 11u}) {
        pka::core::KernelGroup g;
        g.representative = rep;
        g.weight = 3.0;
        sel.groups.push_back(g);
    }

    pka::core::CampaignCheckpoint cp;
    cp.dir = dir.str();
    cp.resume = false;
    cp.chunkLaunches = 2;

    KernelResultStore store(dir.str());
    SimEngine engine(storeOpts(&store));
    pka::core::AppProjection first = pka::core::simulateSelection(
        engine, simulator, w, sel, nullptr, &cp);
    EXPECT_EQ(first.cacheMisses, sel.groups.size());

    // The journal exists and records every group.
    bool found = false;
    for (const auto &e : fs::directory_iterator(dir.path()))
        if (e.path().extension() == ".pkj")
            found = true;
    EXPECT_TRUE(found);

    cp.resume = true;
    SimEngine fresh(storeOpts(&store));
    pka::core::AppProjection second = pka::core::simulateSelection(
        fresh, simulator, w, sel, nullptr, &cp);
    EXPECT_EQ(second.storeHits, sel.groups.size());
    EXPECT_EQ(second.cacheMisses, 0u);
    EXPECT_EQ(second.projectedCycles, first.projectedCycles);
    EXPECT_EQ(second.simulatedCycles, first.simulatedCycles);
}

TEST(Checkpoint, CampaignKeySeparatesStreamsAndStages)
{
    GpuSimulator simulator(voltaV100());
    SimEngine engine(storeOpts(nullptr));
    Workload a = distinctWorkload(6);
    Workload b = distinctWorkload(7);

    uint64_t ka = pka::core::campaignKey(simulator, a, engine, "fullsim");
    EXPECT_EQ(ka,
              pka::core::campaignKey(simulator, a, engine, "fullsim"));
    EXPECT_NE(ka,
              pka::core::campaignKey(simulator, b, engine, "fullsim"));
    EXPECT_NE(ka, pka::core::campaignKey(simulator, a, engine, "pks"));

    // contentSeed changes every cached key, so it changes the campaign.
    EngineOptions eo;
    eo.contentSeed = true;
    SimEngine seeded(eo);
    EXPECT_NE(ka,
              pka::core::campaignKey(simulator, a, seeded, "fullsim"));
}
