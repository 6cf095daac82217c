/**
 * @file
 * Fault-tolerance tests driven by the deterministic fault-injection
 * harness: injector semantics (spec grammar, determinism, fire budgets),
 * watchdog cancellation, engine retry/quarantine, store I/O retry and
 * torn-record handling, crash/resume bit-identity through a torn journal
 * tail plus a half-written record, and the campaign-level acceptance
 * scenario — an MLPerf-scale stream with one hung and one always-throwing
 * kernel completes under a quorum policy with exactly two quarantined
 * kernels and reweighted projections.
 *
 * Every suite arms the process-wide FaultInjector programmatically (the
 * $PKA_FAULT_SEED env var, when set, varies the seed across CI matrix
 * legs) and disarms it on teardown, so the rest of the binary's tests
 * always run on the clean path.
 */

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/fault.hh"
#include "core/experiments.hh"
#include "core/pka.hh"
#include "silicon/gpu_spec.hh"
#include "sim/cancel.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "store/file_store.hh"
#include "store/journal.hh"
#include "workload/builder.hh"
#include "workload/suites.hh"

namespace fs = std::filesystem;
using ::testing::HasSubstr;
using namespace pka::sim;
using namespace pka::workload;
using pka::common::ErrorKind;
using pka::common::FaultInjector;
using pka::common::FaultKind;
using pka::common::FaultSpec;
using pka::common::kFaultInjectionCompiledIn;
using pka::silicon::voltaV100;

namespace
{

/** CI-matrix base seed: $PKA_FAULT_SEED, default 1. */
uint64_t
faultSeed()
{
    const char *s = std::getenv("PKA_FAULT_SEED");
    return (s && *s) ? std::strtoull(s, nullptr, 10) : 1;
}

/** Self-cleaning unique temp directory for one test. */
class TempDir
{
  public:
    TempDir()
    {
        static int counter = 0;
        path_ = fs::temp_directory_path() /
                ("pka_fault_test_" + std::to_string(::getpid()) + "_" +
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
testProg(const std::string &name)
{
    return ProgramBuilder(name)
        .seg(InstrClass::GlobalLoad, 2)
        .seg(InstrClass::FpAlu, 8)
        .seg(InstrClass::GlobalStore, 1)
        .mem(2.0, 0.4, 0.6)
        .build();
}

KernelDescriptor
makeLaunch(ProgramPtr p, uint32_t ctas, uint32_t iters)
{
    KernelDescriptor k;
    k.program = std::move(p);
    k.grid = {ctas, 1, 1};
    k.block = {128, 1, 1};
    k.iterations = iters;
    k.ctaWorkCv = 0.3;
    return k;
}

/** N launches of one program plus one launch of a second program. */
Workload
smallWorkload(size_t launches)
{
    Workload w;
    w.suite = "test";
    w.name = "fault_small";
    w.seed = 42;
    ProgramPtr a = testProg("alpha");
    ProgramPtr b = testProg("beta");
    for (size_t i = 0; i < launches; ++i)
        w.launches.push_back(makeLaunch(
            i + 1 == launches ? b : a,
            40 + static_cast<uint32_t>(i % 3) * 24, 2));
    return w;
}

/** Arms the injector per test and guarantees clean-path teardown. */
class FaultFixture : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!kFaultInjectionCompiledIn)
            GTEST_SKIP() << "built with -DPKA_FAULT_INJECTION=OFF";
        FaultInjector::instance().reset();
    }
    void TearDown() override { FaultInjector::instance().reset(); }
};

using FaultInjectionTest = FaultFixture;
using QuarantineTest = FaultFixture;
using StoreRetryTest = FaultFixture;
using CrashResumeTest = FaultFixture;
using CampaignFaultsTest = FaultFixture;

KernelSimKey
sampleKey(uint64_t salt = 0)
{
    KernelSimKey k;
    k.specHash = 0x1111222233334444ULL ^ salt;
    k.contentHash = 0x5555666677778888ULL + salt;
    k.workloadSeed = 42;
    k.seedSalt = 7 + salt;
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
    r.totalCtas = 4096;
    r.waveSize = 160;
    r.dramUtilPct = 61.25;
    r.l2MissPct = 12.5;
    return r;
}

} // namespace

// ---------------------------------------------------------------------
// FaultInjection: the harness itself.
// ---------------------------------------------------------------------

TEST_F(FaultInjectionTest, SpecGrammarRoundTripsAndRejectsGarbage)
{
    auto &fi = FaultInjector::instance();
    std::string err;
    EXPECT_TRUE(fi.configureFromString(
        "store.read:io:250,worker.exec:throw:key=1f2e3d4c5b6a7988,"
        "journal.append:short:max=3",
        faultSeed(), &err))
        << err;
    EXPECT_TRUE(fi.enabled());

    for (const char *bad :
         {"", "worker.exec", "worker.exec:sparkle", "a:throw:1001",
          "a:io:key=zz", "a:io:max=x"}) {
        std::string e;
        EXPECT_FALSE(fi.configureFromString(bad, 1, &e)) << bad;
        EXPECT_FALSE(e.empty()) << bad;
    }
}

TEST_F(FaultInjectionTest, DecisionsAreDeterministicPerSeedAndVisitOrder)
{
    auto &fi = FaultInjector::instance();
    auto pattern = [&](uint64_t seed) {
        std::vector<FaultSpec> specs;
        specs.push_back(
            {.site = "store.read", .kind = FaultKind::kIoError,
             .permille = 300});
        fi.configure(specs, seed);
        std::vector<int> fired;
        for (uint64_t key = 0; key < 200; ++key)
            fired.push_back(fi.shouldFire("store.read", key) ? 1 : 0);
        return fired;
    };
    uint64_t seed = faultSeed();
    auto a = pattern(seed);
    auto b = pattern(seed);
    EXPECT_EQ(a, b); // same seed + visit order => identical pattern
    int fires = 0;
    for (int f : a)
        fires += f;
    EXPECT_GT(fires, 0);   // p=0.3 over 200 draws
    EXPECT_LT(fires, 200); // ...and not all of them
    EXPECT_NE(a, pattern(seed + 17)); // another seed, another pattern
}

TEST_F(FaultInjectionTest, MatchKeyAndMaxFiresScopeTheBlastRadius)
{
    auto &fi = FaultInjector::instance();
    std::vector<FaultSpec> specs;
    specs.push_back({.site = "worker.exec", .kind = FaultKind::kThrow,
                     .matchKey = 0xabcdULL});
    specs.push_back({.site = "store.write", .kind = FaultKind::kIoError,
                     .maxFires = 2});
    fi.configure(specs, faultSeed());

    EXPECT_FALSE(fi.shouldFire("worker.exec", 0x1234));
    EXPECT_TRUE(fi.shouldFire("worker.exec", 0xabcd).has_value());
    EXPECT_FALSE(fi.shouldFire("sim.loop", 0xabcd)); // wrong site

    int write_fires = 0;
    for (int i = 0; i < 10; ++i)
        write_fires += fi.shouldFire("store.write", 99) ? 1 : 0;
    EXPECT_EQ(write_fires, 2); // transient: budget exhausted, then clean
    EXPECT_EQ(fi.fireCount("store.write"), 2u);

    fi.reset();
    EXPECT_FALSE(fi.enabled());
    EXPECT_FALSE(pka::common::faultAt("worker.exec", 0xabcd).has_value());
}

// ---------------------------------------------------------------------
// Watchdog: CancelToken + engine/simulator cooperation (no injection).
// ---------------------------------------------------------------------

TEST(Watchdog, CycleBudgetTripsRetriesAndQuarantines)
{
    GpuSimulator simulator(voltaV100());
    Workload w = smallWorkload(1);

    EngineOptions eo;
    eo.threads = 1;
    eo.taskCycleBudget = 64; // far below the kernel's natural runtime
    eo.maxTaskAttempts = 2;
    SimEngine engine(eo);

    std::vector<SimJob> jobs(1);
    jobs[0].setLaunch(w.launches[0]);
    jobs[0].workloadSeed = w.seed;

    EngineStats stats;
    auto res = engine.runChecked(simulator, jobs, &stats);
    ASSERT_EQ(res.size(), 1u);
    ASSERT_FALSE(res[0].ok());
    EXPECT_EQ(res[0].error().kind, ErrorKind::kTimeout);
    EXPECT_THAT(res[0].error().message, HasSubstr("watchdog"));
    EXPECT_EQ(res[0].error().attempts, 2u);
    EXPECT_TRUE(res[0].error().quarantined);
    EXPECT_EQ(stats.failures, 1u);
    EXPECT_EQ(stats.taskRetries, 1u);
    EXPECT_EQ(stats.degradedRuns, 1u); // retry demoted to reference core
    EXPECT_EQ(stats.quarantinedKernels, 1u);
    EXPECT_EQ(engine.quarantinedCount(), 1u);
}

TEST(Watchdog, CallerArmedTokenCancelsAsKCancelled)
{
    GpuSimulator simulator(voltaV100());
    Workload w = smallWorkload(1);
    CancelToken tok;
    tok.requestCancel();
    SimOptions opts;
    opts.cancel = &tok;
    try {
        simulator.simulateKernel(w.launches[0], w.seed, opts);
        FAIL() << "expected a TaskException";
    } catch (const pka::common::TaskException &ex) {
        EXPECT_EQ(ex.kind(), ErrorKind::kCancelled);
        EXPECT_THAT(std::string(ex.what()), HasSubstr("watchdog"));
    }
    EXPECT_EQ(tok.reason(), CancelToken::Reason::kCancelled);
}

TEST(Watchdog, GenerousDeadlineLeavesResultsBitIdentical)
{
    GpuSimulator simulator(voltaV100());
    Workload w = smallWorkload(4);

    SimEngine plain(EngineOptions{.threads = 2});
    EngineOptions wo;
    wo.threads = 2;
    wo.taskTimeoutSec = 300.0; // armed, never trips
    SimEngine watched(wo);

    pka::core::FullSimResult a =
        pka::core::fullSimulate(plain, simulator, w);
    pka::core::FullSimResult b =
        pka::core::fullSimulate(watched, simulator, w);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.threadInsts, b.threadInsts);
    EXPECT_EQ(a.dramUtilPct, b.dramUtilPct);
}

// ---------------------------------------------------------------------
// Quarantine: engine retry policy under injected worker faults.
// ---------------------------------------------------------------------

TEST_F(QuarantineTest, RepeatedKernelQuarantinesOnceThenSkips)
{
    GpuSimulator simulator(voltaV100());
    Workload w;
    w.suite = "test";
    w.name = "fault_repeat";
    w.seed = 7;
    ProgramPtr p = testProg("poison");
    for (uint32_t i = 0; i < 8; ++i)
        w.launches.push_back(makeLaunch(p, 64, 3));

    std::vector<FaultSpec> specs;
    specs.push_back({.site = "worker.exec", .kind = FaultKind::kThrow});
    FaultInjector::instance().configure(specs, faultSeed());

    EngineOptions eo;
    eo.threads = 1; // serial: deterministic skip accounting
    eo.maxTaskAttempts = 2;
    SimEngine engine(eo);

    std::vector<SimJob> jobs(w.launches.size());
    for (size_t i = 0; i < w.launches.size(); ++i) {
        jobs[i].setLaunch(w.launches[i]);
        jobs[i].workloadSeed = w.seed;
    }
    EngineStats stats;
    auto res = engine.runChecked(simulator, jobs, &stats);

    EXPECT_EQ(stats.failures, 8u);
    EXPECT_EQ(stats.quarantinedKernels, 1u); // one kernel, one entry
    EXPECT_EQ(stats.quarantineSkips, 7u);    // the rest skipped in O(1)
    EXPECT_EQ(stats.taskRetries, 1u); // only launch 0 burned retries
    ASSERT_EQ(stats.launchErrors.size(), 8u);
    for (const auto &r : res) {
        ASSERT_FALSE(r.ok());
        EXPECT_TRUE(r.error().quarantined);
        EXPECT_THAT(r.error().message, HasSubstr("injected worker fault"));
    }
    EXPECT_TRUE(
        engine.isQuarantined(launchContentHash(w.launches[0].config)));
}

TEST(Quarantine, BadInputFailsFastWithoutRetryOrQuarantine)
{
    GpuSimulator simulator(voltaV100());
    SimEngine engine(EngineOptions{.threads = 1});

    std::vector<SimJob> jobs(1); // kernel left null
    EngineStats stats;
    auto res = engine.runChecked(simulator, jobs, &stats);
    ASSERT_FALSE(res[0].ok());
    EXPECT_EQ(res[0].error().kind, ErrorKind::kBadInput);
    EXPECT_EQ(stats.taskRetries, 0u);
    EXPECT_EQ(stats.quarantinedKernels, 0u);
    EXPECT_EQ(engine.quarantinedCount(), 0u);
}

// ---------------------------------------------------------------------
// StoreRetry: transient I/O, exhausted retries, torn and corrupt records.
// ---------------------------------------------------------------------

TEST_F(StoreRetryTest, TransientReadFailureRetriesThenHits)
{
    TempDir dir;
    pka::store::KernelResultStore store(dir.str());
    KernelSimKey key = sampleKey();
    store.put(key, sampleResult());

    std::vector<FaultSpec> specs;
    specs.push_back({.site = "store.read", .kind = FaultKind::kIoError,
                     .maxFires = 2});
    FaultInjector::instance().configure(specs, faultSeed());

    KernelSimResult out;
    EXPECT_EQ(store.get(key, &out), pka::store::Lookup::kHit);
    EXPECT_EQ(out.cycles, sampleResult().cycles);
    auto s = store.stats();
    EXPECT_EQ(s.ioRetries, 2u);
    EXPECT_EQ(s.retryExhausted, 0u);
}

TEST_F(StoreRetryTest, ExhaustedReadRetriesDegradeToMiss)
{
    TempDir dir;
    pka::store::KernelResultStore store(dir.str());
    KernelSimKey key = sampleKey();
    store.put(key, sampleResult());

    std::vector<FaultSpec> specs;
    specs.push_back({.site = "store.read", .kind = FaultKind::kIoError});
    FaultInjector::instance().configure(specs, faultSeed());

    KernelSimResult out;
    EXPECT_EQ(store.get(key, &out), pka::store::Lookup::kMiss);
    auto s = store.stats();
    EXPECT_EQ(s.retryExhausted, 1u);
    EXPECT_EQ(s.ioRetries,
              pka::store::KernelResultStore::kIoAttempts - 1);
}

TEST_F(StoreRetryTest, ExhaustedWriteRetriesCountPutFailure)
{
    TempDir dir;
    pka::store::KernelResultStore store(dir.str());

    std::vector<FaultSpec> specs;
    specs.push_back({.site = "store.write", .kind = FaultKind::kIoError});
    FaultInjector::instance().configure(specs, faultSeed());

    store.put(sampleKey(), sampleResult());
    auto s = store.stats();
    EXPECT_EQ(s.putFailures, 1u);
    EXPECT_EQ(s.retryExhausted, 1u);
    EXPECT_EQ(s.puts, 0u);
}

TEST_F(StoreRetryTest, TornAndCorruptRecordsAreRejectedNeverServed)
{
    TempDir dir;
    pka::store::KernelResultStore store(dir.str());

    // A short write publishes a torn record (crash between write and
    // fsync); readers must classify it corrupt, not serve half a result.
    std::vector<FaultSpec> specs;
    specs.push_back({.site = "store.write", .kind = FaultKind::kShortWrite,
                     .maxFires = 1});
    FaultInjector::instance().configure(specs, faultSeed());
    KernelSimKey torn = sampleKey(1);
    store.put(torn, sampleResult());
    FaultInjector::instance().reset();

    KernelSimResult out;
    EXPECT_EQ(store.get(torn, &out), pka::store::Lookup::kCorrupt);

    // Bit corruption on the read path: CRC catches it; with the fault
    // budget spent, the next read of the same intact record succeeds.
    KernelSimKey key = sampleKey(2);
    store.put(key, sampleResult());
    std::vector<FaultSpec> corrupt;
    corrupt.push_back({.site = "store.read", .kind = FaultKind::kCorrupt,
                       .maxFires = 1});
    FaultInjector::instance().configure(corrupt, faultSeed());
    EXPECT_EQ(store.get(key, &out), pka::store::Lookup::kCorrupt);
    EXPECT_EQ(store.get(key, &out), pka::store::Lookup::kHit);
    EXPECT_GE(store.stats().corruptSkipped, 2u);
}

TEST(StoreRetry, OrphanedStagingFilesAreSweptOnOpen)
{
    TempDir dir;
    { pka::store::KernelResultStore create(dir.str()); }
    std::ofstream(dir.path() / "tmp" / "deadbeef.7.tmp") << "debris";
    std::ofstream(dir.path() / "tmp" / "cafe.tmp") << "more";

    pka::store::KernelResultStore store(dir.str());
    EXPECT_EQ(store.stats().orphansSwept, 2u);
    EXPECT_FALSE(fs::exists(dir.path() / "tmp" / "cafe.tmp"));
}

// ---------------------------------------------------------------------
// CrashResume: torn journal tail + half-written record, bit-identical.
// ---------------------------------------------------------------------

TEST_F(CrashResumeTest, JournalShortWriteLosesOnlyResumeCredit)
{
    TempDir dir;
    std::string path = (dir.path() / "j.pkj").string();
    {
        pka::store::CampaignJournal j(path, 0xfeed, 4, false);
        j.markDone({0});
        std::vector<FaultSpec> specs;
        specs.push_back({.site = "journal.append",
                         .kind = FaultKind::kShortWrite, .maxFires = 1});
        FaultInjector::instance().configure(specs, faultSeed());
        j.markDone({1}); // torn: "done," reaches disk without an index
        FaultInjector::instance().reset();
        j.markDone({2}); // lands after the torn bytes => unreadable
    }
    pka::store::CampaignJournal j(path, 0xfeed, 4, true);
    EXPECT_TRUE(j.isDone(0)); // the intact prefix is trusted
    EXPECT_FALSE(j.isDone(1));
    EXPECT_FALSE(j.isDone(2)); // tail after the tear is discarded
    EXPECT_EQ(j.resumedCount(), 1u);
}

TEST_F(CrashResumeTest, TornJournalAndTruncatedRecordResumeBitIdentical)
{
    TempDir dir;
    fs::path store_dir = dir.path() / "store";
    fs::path ckpt_dir = dir.path() / "ckpt";
    fs::create_directories(ckpt_dir);

    GpuSimulator simulator(voltaV100());
    Workload w = smallWorkload(12);
    pka::core::CampaignCheckpoint cp;
    cp.dir = ckpt_dir.string();

    pka::core::FullSimResult base;
    {
        pka::store::KernelResultStore store(store_dir.string());
        EngineOptions eo;
        eo.threads = 2;
        eo.store = &store;
        SimEngine engine(eo);
        cp.resume = false;
        base = pka::core::fullSimulate(engine, simulator, w, &cp);
        ASSERT_GT(base.cycles, 0.0);
    }

    // Simulate the crash: tear the journal tail mid-append and truncate
    // one persisted record to half its bytes.
    bool tampered_journal = false;
    for (const auto &e : fs::directory_iterator(ckpt_dir)) {
        if (e.path().extension() != ".pkj")
            continue;
        std::ofstream os(e.path(), std::ios::app);
        os << "done,"; // torn final line, no index, no newline
        tampered_journal = true;
    }
    ASSERT_TRUE(tampered_journal);
    bool truncated_record = false;
    for (const auto &e : fs::recursive_directory_iterator(store_dir)) {
        if (!e.is_regular_file() || e.path().extension() != ".pkr")
            continue;
        fs::resize_file(e.path(), fs::file_size(e.path()) / 2);
        truncated_record = true;
        break;
    }
    ASSERT_TRUE(truncated_record);

    // Resume in a fresh "process": new engine (cold memory cache), same
    // store and journal. The torn tail is dropped, the truncated record
    // is rejected and re-simulated, and the aggregates are bit-identical.
    pka::store::KernelResultStore store(store_dir.string());
    EngineOptions eo;
    eo.threads = 2;
    eo.store = &store;
    SimEngine engine(eo);
    cp.resume = true;
    pka::core::FullSimResult resumed =
        pka::core::fullSimulate(engine, simulator, w, &cp);

    EXPECT_GT(resumed.resumedLaunches, 0u);
    EXPECT_EQ(resumed.cycles, base.cycles);
    EXPECT_EQ(resumed.threadInsts, base.threadInsts);
    EXPECT_EQ(resumed.dramUtilPct, base.dramUtilPct);
    ASSERT_EQ(resumed.perKernel.size(), base.perKernel.size());
    for (size_t i = 0; i < base.perKernel.size(); ++i)
        EXPECT_EQ(resumed.perKernel[i].cycles, base.perKernel[i].cycles);
    EXPECT_GE(store.stats().corruptSkipped, 1u);
}

// ---------------------------------------------------------------------
// CampaignFaults: the acceptance scenario on an MLPerf-scale stream.
// ---------------------------------------------------------------------

namespace
{

/** A small-scale GNMT stream plus the content hashes of two distinct
 *  kernels (the designated hang victim and throw victim). */
struct GnmtScenario
{
    Workload w;
    uint64_t hangKey = 0;
    uint64_t throwKey = 0;
    size_t victimLaunches = 0; ///< launches of either victim kernel
};

GnmtScenario
gnmtScenario()
{
    GenOptions g;
    g.mlperfScale = 0.005;
    auto w = buildWorkload("gnmt_training", g);
    EXPECT_TRUE(w.has_value());
    GnmtScenario s;
    s.w = std::move(*w);
    s.hangKey = launchContentHash(s.w.launches[0].config);
    for (const auto &k : s.w.launches) {
        uint64_t h = launchContentHash(k.config);
        if (s.throwKey == 0 && h != s.hangKey)
            s.throwKey = h;
    }
    EXPECT_NE(s.throwKey, 0u);
    for (const auto &k : s.w.launches) {
        uint64_t h = launchContentHash(k.config);
        if (h == s.hangKey || h == s.throwKey)
            ++s.victimLaunches;
    }
    return s;
}

void
armVictims(const GnmtScenario &s)
{
    std::vector<FaultSpec> specs;
    specs.push_back({.site = "worker.exec", .kind = FaultKind::kHang,
                     .matchKey = s.hangKey});
    specs.push_back({.site = "worker.exec", .kind = FaultKind::kThrow,
                     .matchKey = s.throwKey});
    FaultInjector::instance().configure(specs, faultSeed());
}

EngineOptions
campaignEngineOpts()
{
    EngineOptions eo;
    eo.threads = 4;
    eo.contentSeed = true; // identical launches share cache entries
    // Generous enough that no legitimate kernel trips (the big GNMT
    // GEMMs take ~100 ms on the reference core), tight enough that the
    // injected hang is reeled back in before the test drags.
    eo.taskTimeoutSec = 1.0;
    eo.maxTaskAttempts = 2;
    return eo;
}

} // namespace

TEST_F(CampaignFaultsTest, HungAndThrowingKernelsQuarantineAndReweight)
{
    GnmtScenario s = gnmtScenario();
    ASSERT_GT(s.w.launches.size(), 20u);
    ASSERT_LT(s.victimLaunches, s.w.launches.size());
    armVictims(s);

    GpuSimulator simulator(voltaV100());
    SimEngine engine(campaignEngineOpts());
    pka::core::CampaignPolicy policy;
    policy.minQuorum = 0.1;

    pka::core::FullSimResult fs = pka::core::fullSimulate(
        engine, simulator, s.w, nullptr, &policy);

    // Exactly the two poisoned kernels are quarantined; every launch of
    // either fails, everything else completes.
    EXPECT_EQ(fs.quarantinedKernels, 2u);
    EXPECT_EQ(fs.failedLaunches, s.victimLaunches);
    EXPECT_EQ(fs.perKernel.size(),
              s.w.launches.size() - s.victimLaunches);
    size_t completed = s.w.launches.size() - s.victimLaunches;
    double fraction = static_cast<double>(completed) /
                      static_cast<double>(s.w.launches.size());
    EXPECT_EQ(fs.quorumMet, fraction >= policy.minQuorum);
    ASSERT_EQ(fs.failures.size(), s.victimLaunches);
    for (const auto &f : fs.failures)
        EXPECT_TRUE(f.error.quarantined);

    // Reweighting: totals are the completed sums scaled by the survival
    // fraction, so they still estimate the whole app.
    double sum = 0.0;
    for (const auto &k : fs.perKernel)
        sum += static_cast<double>(k.cycles);
    double scale = static_cast<double>(s.w.launches.size()) /
                   static_cast<double>(completed);
    EXPECT_DOUBLE_EQ(fs.cycles, sum * scale);
    EXPECT_GT(fs.cycles, 0.0);

    // At least one hang was reeled back in by the wall-clock watchdog.
    EXPECT_GE(FaultInjector::instance().fireCount("worker.exec"), 2u);
}

TEST_F(CampaignFaultsTest, FailFastStopsTheCampaignNonSuccessfully)
{
    GnmtScenario s = gnmtScenario();
    armVictims(s);

    GpuSimulator simulator(voltaV100());
    SimEngine engine(campaignEngineOpts());
    pka::core::CampaignPolicy policy;
    policy.minQuorum = 0.0;
    policy.failFast = true;

    pka::core::FullSimResult fs = pka::core::fullSimulate(
        engine, simulator, s.w, nullptr, &policy);
    EXPECT_FALSE(fs.quorumMet); // fail-fast never reports success
    EXPECT_GT(fs.failedLaunches, 0u);
    ASSERT_FALSE(fs.failures.empty());
    EXPECT_THAT(fs.failures.front().error.str(), HasSubstr("kernel"));
}

TEST_F(CampaignFaultsTest, UnmatchedArmedFaultLeavesRunBitIdentical)
{
    GpuSimulator simulator(voltaV100());
    Workload w = smallWorkload(6);

    SimEngine clean(EngineOptions{.threads = 2});
    pka::core::FullSimResult base =
        pka::core::fullSimulate(clean, simulator, w);

    // Armed injector whose key matches no launch: the decision probe
    // runs on every task, but the results must stay bit-identical.
    std::vector<FaultSpec> specs;
    specs.push_back({.site = "worker.exec", .kind = FaultKind::kThrow,
                     .matchKey = 0xdeadbeefdeadbeefULL});
    FaultInjector::instance().configure(specs, faultSeed());

    SimEngine armed(EngineOptions{.threads = 2});
    pka::core::FullSimResult r =
        pka::core::fullSimulate(armed, simulator, w);
    EXPECT_EQ(r.cycles, base.cycles);
    EXPECT_EQ(r.threadInsts, base.threadInsts);
    EXPECT_EQ(r.dramUtilPct, base.dramUtilPct);
    EXPECT_EQ(FaultInjector::instance().fireCount("worker.exec"), 0u);
}

TEST_F(CampaignFaultsTest, QuarantineSurvivesResumeThroughTheJournal)
{
    TempDir dir;
    GpuSimulator simulator(voltaV100());
    Workload w = smallWorkload(6); // last launch is the distinct kernel
    uint64_t victim = launchContentHash(w.launches[0].config);

    std::vector<FaultSpec> specs;
    specs.push_back({.site = "worker.exec", .kind = FaultKind::kThrow,
                     .matchKey = victim});
    FaultInjector::instance().configure(specs, faultSeed());

    pka::core::CampaignPolicy policy;
    policy.minQuorum = 0.0;
    pka::core::CampaignCheckpoint cp;
    cp.dir = dir.str();

    EngineOptions eo;
    eo.threads = 2;
    eo.maxTaskAttempts = 2;
    {
        SimEngine engine(eo);
        pka::core::FullSimResult first = pka::core::fullSimulate(
            engine, simulator, w, &cp, &policy);
        EXPECT_EQ(first.quarantinedKernels, 1u);
    }

    // Resume with a fresh engine and the injector DISARMED: the journal
    // replays the quarantine, so the poisoned kernel is still skipped
    // (no retry budget burned) and its launches fail with the persisted
    // verdict.
    FaultInjector::instance().reset();
    SimEngine engine(eo);
    cp.resume = true;
    pka::core::FullSimResult resumed = pka::core::fullSimulate(
        engine, simulator, w, &cp, &policy);
    EXPECT_GT(resumed.failedLaunches, 0u);
    EXPECT_TRUE(engine.isQuarantined(victim));
    for (const auto &f : resumed.failures)
        EXPECT_THAT(f.error.message, HasSubstr("previous run"));
}
