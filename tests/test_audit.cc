/**
 * @file
 * Shadow-audit layer tests: the versioned (v2) signature-entry codec
 * with persisted audit stats (legacy v1 migration, version-skew and
 * invalid-field rejection), quarantine + adaptive tolerance governor on
 * the SignatureIndex, the engine's background audit lane end to end
 * (an adversarial near-miss donor is caught, quarantined and never
 * serves again; auditing never changes campaign outputs), the campaign
 * error budget (trip -> simulate-through, typed degraded outcome) and
 * fsck's scrubbing of audit-era entries.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "core/experiments.hh"
#include "core/pka.hh"
#include "silicon/gpu_spec.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "store/crc32.hh"
#include "store/file_store.hh"
#include "store/fsck.hh"
#include "store/sig_index.hh"
#include "workload/builder.hh"

namespace fs = std::filesystem;
using namespace pka::sim;
using namespace pka::store;
using namespace pka::workload;
using pka::silicon::voltaV100;

namespace
{

class TempDir
{
  public:
    TempDir()
    {
        static int counter = 0;
        path_ = fs::temp_directory_path() /
                ("pka_audit_test_" + std::to_string(::getpid()) + "_" +
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

/** A kernel whose memory locality is a free parameter: the instruction
 *  mix, divergence and sector counts — everything the 12 signature
 *  counters observe — stay fixed while cache behaviour (and therefore
 *  cycles) moves. The signature tier's blind spot, by construction. */
ProgramPtr
aProg(const std::string &name, double locality)
{
    return ProgramBuilder(name)
        .seg(InstrClass::GlobalLoad, 4)
        .seg(InstrClass::FpAlu, 6)
        .seg(InstrClass::GlobalStore, 2)
        .mem(2.0, locality, locality)
        .divergence(1.0)
        .build();
}

KernelDescriptor
aLaunch(ProgramPtr p, uint32_t ctas, uint32_t iters = 2)
{
    KernelDescriptor k;
    k.program = std::move(p);
    k.grid = {ctas, 1, 1};
    k.block = {128, 1, 1};
    k.iterations = iters;
    return k;
}

KernelSimKey
aKey(uint64_t salt)
{
    KernelSimKey k;
    k.specHash = 0xAAAA0000BBBB0000ULL;
    k.contentHash = 0x1234000056780000ULL + salt;
    k.workloadSeed = 7;
    k.seedSalt = salt;
    k.ipcBucketCycles = 30;
    k.ipcWindowBuckets = 100;
    return k;
}

SigEntry
aEntry(uint64_t salt, int32_t dim0 = 0)
{
    SigEntry e;
    e.sig.q[0] = dim0;
    e.key = aKey(salt);
    e.expThreadInsts = 1000.0;
    e.expWarpInsts = 100;
    e.numCtas = 64;
    return e;
}

EngineOptions
aOpts(const KernelResultStore *store, double tolerance,
      double audit_rate = 0.0)
{
    EngineOptions eo;
    eo.threads = 1;
    eo.memoize = true;
    eo.store = store;
    eo.xcacheTolerance = tolerance;
    eo.auditRate = audit_rate;
    return eo;
}

/** Rewrite the trailing CRC after an in-place patch. */
std::string
recrc(std::string bytes)
{
    uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
    return bytes;
}

std::string
patched(std::string bytes, size_t off, const void *v, size_t n)
{
    std::memcpy(bytes.data() + off, v, n);
    return recrc(std::move(bytes));
}

/** A byte-exact PR 8-era (v1, pre-audit) entry: the v2 encoding minus
 *  the audit fields, version field rewritten, CRC recomputed. */
std::string
v1Bytes(const SigEntry &e)
{
    std::string v2 = encodeSigEntry(e);
    std::string v1 = v2.substr(0, kSigEntrySizeV1 - 4);
    uint32_t version = 1;
    std::memcpy(v1.data() + 4, &version, 4);
    uint32_t crc = crc32(v1.data(), v1.size());
    v1.append(reinterpret_cast<const char *>(&crc), 4);
    return v1;
}

constexpr size_t kAuditCountOff = kSigEntrySizeV1 - 4;
constexpr size_t kVerdictOff = kAuditCountOff + 4;
constexpr size_t kErrEwmaOff = kVerdictOff + 4;

/** The on-disk path an entry would live at under a SignatureIndex
 *  rooted at `root` (<root>/<hh>/<hash16>.pks). */
fs::path
sigEntryFile(const fs::path &root, const SigEntry &e)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      kernelSimKeyHash(e.key)));
    return root / std::string(hex).substr(0, 2) /
           (std::string(hex) + ".pks");
}

void
writeRaw(const fs::path &p, const std::string &bytes)
{
    fs::create_directories(p.parent_path());
    std::ofstream(p, std::ios::binary).write(bytes.data(), bytes.size());
}

} // namespace

// ---------------------------------------------------------------------
// Versioned codec.
// ---------------------------------------------------------------------

TEST(SigAuditCodec, V2RoundTripPreservesAuditStats)
{
    SigEntry in = aEntry(1, 17);
    in.auditCount = 5;
    in.verdict = SigVerdict::kQuarantined;
    in.errEwma = 0.25;
    std::string bytes = encodeSigEntry(in);
    ASSERT_EQ(bytes.size(), kSigEntrySize);

    SigEntry out;
    uint32_t version = 0;
    ASSERT_EQ(decodeSigEntryEx(bytes.data(), bytes.size(), &out, &version),
              SigDecodeStatus::kOk);
    EXPECT_EQ(version, 2u);
    EXPECT_EQ(out.auditCount, 5u);
    EXPECT_EQ(out.verdict, SigVerdict::kQuarantined);
    EXPECT_DOUBLE_EQ(out.errEwma, 0.25);
    EXPECT_EQ(out.key, in.key);
}

TEST(SigAuditCodec, LegacyV1ReadsAsUnaudited)
{
    SigEntry in = aEntry(2, 9);
    std::string v1 = v1Bytes(in);
    ASSERT_EQ(v1.size(), kSigEntrySizeV1);

    SigEntry out;
    uint32_t version = 0;
    ASSERT_EQ(decodeSigEntryEx(v1.data(), v1.size(), &out, &version),
              SigDecodeStatus::kOk);
    EXPECT_EQ(version, 1u);
    EXPECT_EQ(out.key, in.key);
    EXPECT_EQ(out.sig, in.sig);
    // Audit fields take their defaults: never audited, never judged.
    EXPECT_EQ(out.auditCount, 0u);
    EXPECT_EQ(out.verdict, SigVerdict::kUnaudited);
    EXPECT_DOUBLE_EQ(out.errEwma, 0.0);

    // The wrapper bool API agrees.
    EXPECT_TRUE(decodeSigEntry(v1.data(), v1.size(), &out));
}

TEST(SigAuditCodec, VersionSkewAndTornWritesRejected)
{
    SigEntry in = aEntry(3, 4);
    std::string v2 = encodeSigEntry(in);
    std::string v1 = v1Bytes(in);
    SigEntry out;
    uint32_t version = 0;

    // v2-length bytes claiming v1: intact CRC, lying version.
    uint32_t one = 1, two = 2, three = 3;
    std::string skew_a = patched(v2, 4, &one, 4);
    EXPECT_EQ(decodeSigEntryEx(skew_a.data(), skew_a.size(), &out,
                               &version),
              SigDecodeStatus::kVersionSkew);

    // v1-length bytes claiming v2.
    std::string skew_b = patched(v1, 4, &two, 4);
    EXPECT_EQ(decodeSigEntryEx(skew_b.data(), skew_b.size(), &out,
                               &version),
              SigDecodeStatus::kVersionSkew);

    // A future version this build has never heard of.
    std::string skew_c = patched(v2, 4, &three, 4);
    EXPECT_EQ(decodeSigEntryEx(skew_c.data(), skew_c.size(), &out,
                               &version),
              SigDecodeStatus::kVersionSkew);

    // A v2 record torn back to the v1 length fails the CRC — corrupt,
    // not skew (its last four bytes are audit payload, not a checksum).
    std::string torn = v2.substr(0, kSigEntrySizeV1);
    EXPECT_EQ(decodeSigEntryEx(torn.data(), torn.size(), &out, &version),
              SigDecodeStatus::kCorrupt);
}

TEST(SigAuditCodec, InvalidAuditFieldsRejected)
{
    std::string v2 = encodeSigEntry(aEntry(4, 2));
    SigEntry out;

    uint32_t bad_verdict = 7; // beyond kQuarantined
    std::string b1 = patched(v2, kVerdictOff, &bad_verdict, 4);
    EXPECT_EQ(decodeSigEntryEx(b1.data(), b1.size(), &out, nullptr),
              SigDecodeStatus::kCorrupt);

    double neg = -0.5;
    std::string b2 = patched(v2, kErrEwmaOff, &neg, 8);
    EXPECT_EQ(decodeSigEntryEx(b2.data(), b2.size(), &out, nullptr),
              SigDecodeStatus::kCorrupt);

    double nan = std::nan("");
    std::string b3 = patched(v2, kErrEwmaOff, &nan, 8);
    EXPECT_EQ(decodeSigEntryEx(b3.data(), b3.size(), &out, nullptr),
              SigDecodeStatus::kCorrupt);
}

// ---------------------------------------------------------------------
// SignatureIndex: quarantine, governor, persistence, migration.
// ---------------------------------------------------------------------

TEST(SigAuditIndex, ViolationQuarantinesAndPersistsAcrossReopen)
{
    TempDir dir;
    uint64_t key_hash = 0;
    {
        SignatureIndex idx(dir.str());
        SigEntry e = aEntry(10, 3);
        idx.insert(e);
        key_hash = kernelSimKeyHash(e.key);

        KernelSignature sig;
        sig.q[0] = 3;
        ASSERT_TRUE(idx.probe(sig, 0.0).hit);

        idx.recordAudit(key_hash, /*observedErr=*/0.4,
                        /*violation=*/true);
        EXPECT_FALSE(idx.probe(sig, 0.0).hit); // never served again

        SigIndexStatsSnapshot s = idx.stats();
        EXPECT_EQ(s.auditsRecorded, 1u);
        EXPECT_EQ(s.auditViolations, 1u);
        EXPECT_EQ(s.quarantined, 1u);
        EXPECT_EQ(s.governorTightened, 1u);
        EXPECT_DOUBLE_EQ(s.governorMinScale, 0.5);
    }

    // The verdict survives the process: a reopened index refuses the
    // quarantined entry without re-auditing anything.
    SignatureIndex reopened(dir.str());
    EXPECT_EQ(reopened.size(), 1u);
    KernelSignature sig;
    sig.q[0] = 3;
    EXPECT_FALSE(reopened.probe(sig, 0.0).hit);
    EXPECT_EQ(reopened.stats().quarantined, 1u);
}

TEST(SigAuditIndex, CleanAuditsUpdateEwmaAndVerdict)
{
    TempDir dir;
    SignatureIndex idx(dir.str());
    SigEntry e = aEntry(11, 0);
    idx.insert(e);
    uint64_t key_hash = kernelSimKeyHash(e.key);

    // First observation seeds the EWMA directly; the second blends
    // with alpha = kAuditEwmaAlpha.
    idx.recordAudit(key_hash, 0.08, false);
    idx.recordAudit(key_hash, 0.04, false);

    KernelSignature sig; // all zeros
    SigProbe p = idx.probe(sig, 0.0);
    ASSERT_TRUE(p.hit);
    EXPECT_EQ(p.entry.verdict, SigVerdict::kClean);
    EXPECT_EQ(p.entry.auditCount, 2u);
    double want = SignatureIndex::kAuditEwmaAlpha * 0.04 +
                  (1.0 - SignatureIndex::kAuditEwmaAlpha) * 0.08;
    EXPECT_DOUBLE_EQ(p.entry.errEwma, want);
    EXPECT_EQ(idx.stats().auditViolations, 0u);
}

TEST(SigAuditIndex, GovernorTightensNeighborhoodThenRelaxes)
{
    TempDir dir;
    SignatureIndex idx(dir.str());
    // Two entries in the same governor neighborhood (cells pool in
    // blocks of 64): one will be caught lying, one stays honest.
    SigEntry liar = aEntry(20, 10);
    SigEntry honest = aEntry(21, 30);
    idx.insert(liar);
    idx.insert(honest);

    // Before the violation, the honest entry serves at distance
    // 30 steps under a tolerance of 40 steps.
    KernelSignature probe_sig; // zeros
    const double tol = 40 * kSigQuantStep;
    ASSERT_TRUE(idx.probe(probe_sig, tol).hit);

    // Violation on the liar: quarantine + the whole neighborhood's
    // tolerance halves, so the honest entry at 30 steps no longer
    // clears 40 * 0.5 = 20 steps.
    idx.recordAudit(kernelSimKeyHash(liar.key), 0.5, true);
    EXPECT_FALSE(idx.probe(probe_sig, tol).hit);
    // A nearer probe still clears the tightened gate.
    KernelSignature near_sig;
    near_sig.q[0] = 25;
    EXPECT_TRUE(idx.probe(near_sig, tol).hit);

    // Eight clean audits on the honest entry earn one cautious relax:
    // 0.5 * 1.25 = 0.625, and 40 * 0.625 = 25 steps just serves the
    // honest entry at 25 steps' distance... but not at 30.
    for (int i = 0; i < 8; ++i)
        idx.recordAudit(kernelSimKeyHash(honest.key), 0.01, false);
    SigIndexStatsSnapshot s = idx.stats();
    EXPECT_EQ(s.governorTightened, 1u);
    EXPECT_EQ(s.governorRelaxed, 1u);
    EXPECT_DOUBLE_EQ(s.governorMinScale, 0.625);
    EXPECT_FALSE(idx.probe(probe_sig, tol).hit); // 30 > 25: still shy
    KernelSignature at25;
    at25.q[0] = 5;
    EXPECT_TRUE(idx.probe(at25, tol).hit); // 25 <= 25: serves again
}

TEST(SigAuditIndex, LegacyEntriesLoadAsUnaudited)
{
    TempDir dir;
    SigEntry e = aEntry(30, 6);
    uint64_t key_hash = kernelSimKeyHash(e.key);
    fs::path p = sigEntryFile(dir.path(), e);
    writeRaw(p, v1Bytes(e));

    SignatureIndex idx(dir.str());
    ASSERT_EQ(idx.size(), 1u);
    EXPECT_EQ(idx.stats().legacyLoaded, 1u);
    KernelSignature sig;
    sig.q[0] = 6;
    SigProbe probe = idx.probe(sig, 0.0);
    ASSERT_TRUE(probe.hit); // pre-audit entries still serve
    EXPECT_EQ(probe.entry.verdict, SigVerdict::kUnaudited);
    EXPECT_EQ(probe.entry.auditCount, 0u);

    // The first audit migrates it: persisted back at the v2 size.
    idx.recordAudit(key_hash, 0.02, false);
    EXPECT_EQ(fs::file_size(p), kSigEntrySize);
    SignatureIndex reopened(dir.str());
    EXPECT_EQ(reopened.stats().legacyLoaded, 0u);
    SigProbe again = reopened.probe(sig, 0.0);
    ASSERT_TRUE(again.hit);
    EXPECT_EQ(again.entry.verdict, SigVerdict::kClean);
}

// ---------------------------------------------------------------------
// fsck: audit-era scrubbing.
// ---------------------------------------------------------------------

TEST(SigAuditFsck, CountsLegacyAndRejectsVersionSkew)
{
    TempDir dir;
    // fsck scans the sig tier where the store mounts it: <root>/sig.
    fs::path sig_root = dir.path() / "sig";
    // One live v2 entry, one legacy v1 entry, one version-skewed file.
    {
        SignatureIndex idx(sig_root.string());
        idx.insert(aEntry(40, 1));
    }
    SigEntry legacy = aEntry(41, 2);
    writeRaw(sigEntryFile(sig_root, legacy), v1Bytes(legacy));
    SigEntry skewed = aEntry(42, 3);
    uint32_t one = 1;
    // v2-length bytes with a v1 tag: a mixed-version write.
    writeRaw(sigEntryFile(sig_root, skewed),
             patched(encodeSigEntry(skewed), 4, &one, 4));

    FsckOptions scan;
    FsckReport rep = fsckStore(dir.str(), scan);
    EXPECT_EQ(rep.sigScanned, 3u);
    EXPECT_EQ(rep.sigValid, 2u);
    EXPECT_EQ(rep.sigLegacy, 1u);
    EXPECT_EQ(rep.sigVersionSkew, 1u);
    EXPECT_EQ(rep.sigCorrupt, 0u);
    EXPECT_FALSE(rep.clean()); // skew is damage

    FsckOptions repair;
    repair.repair = true;
    FsckReport fixed = fsckStore(dir.str(), repair);
    EXPECT_EQ(fixed.sigVersionSkew, 1u);
    EXPECT_EQ(fixed.quarantinedFiles, 1u);

    // After repair the tree is sound and the index loads the two good
    // entries (the skewed record is parked, never served).
    FsckReport clean = fsckStore(dir.str(), scan);
    EXPECT_TRUE(clean.clean());
    SignatureIndex idx(sig_root.string());
    EXPECT_EQ(idx.size(), 2u);
}

// ---------------------------------------------------------------------
// Engine audit lane, end to end.
// ---------------------------------------------------------------------

TEST(AuditLane, CatchesAdversarialNearMissAndQuarantinesDonor)
{
    TempDir dir;
    KernelResultStore store(dir.str(), /*similarity=*/true);
    SimEngine engine(aOpts(&store, 0.05, /*audit_rate=*/1.0));
    GpuSimulator simulator(voltaV100());

    // The adversarial pair: counter-identical, cycle-divergent.
    KernelDescriptor donor_k = aLaunch(aProg("hot", 0.95), 60);
    KernelDescriptor target_k = aLaunch(aProg("cold", 0.05), 60);
    ASSERT_EQ(sigDistance(signatureOf(donor_k), signatureOf(target_k)),
              0.0);

    SimJob jd;
    jd.setLaunch({donor_k, 0});
    jd.workloadSeed = 7;
    KernelSimResult donor = engine.simulateOne(simulator, jd);
    ASSERT_FALSE(donor.projected);

    // Ground truth for the target, computed out of band: the cycle
    // behaviours genuinely diverge (this is what makes the projection
    // a lie the audit must catch).
    SimJob jt;
    jt.setLaunch({target_k, 1});
    jt.workloadSeed = 7;
    GpuSimulator ref(voltaV100());
    KernelSimResult truth = ref.simulateKernel(jt.launch(), 7);
    ASSERT_NE(truth.cycles, donor.cycles);

    KernelSimResult proj = engine.simulateOne(simulator, jt);
    ASSERT_TRUE(proj.projected);
    EXPECT_DOUBLE_EQ(proj.projectionErrorBound, 0.0); // certified exact
    EXPECT_EQ(proj.cycles, donor.cycles);             // ...and wrong

    engine.auditDrain();
    SimEngine::AuditSnapshot au = engine.auditStats();
    EXPECT_EQ(au.sampled, 1u);
    EXPECT_EQ(au.run, 1u);
    EXPECT_EQ(au.violations, 1u);
    EXPECT_EQ(au.shed, 0u);
    EXPECT_GT(au.maxObservedErr, 0.0);

    ASSERT_NE(store.similarity(), nullptr);
    SigIndexStatsSnapshot s = store.similarity()->stats();
    EXPECT_EQ(s.auditsRecorded, 1u);
    EXPECT_EQ(s.auditViolations, 1u);
    EXPECT_EQ(s.quarantined, 1u);
    EXPECT_GE(s.governorTightened, 1u);

    // The quarantined donor never serves again: a third near-duplicate
    // simulates instead of projecting.
    KernelDescriptor third_k = aLaunch(aProg("cold2", 0.05), 60);
    SimJob j3;
    j3.setLaunch({third_k, 2});
    j3.workloadSeed = 7;
    KernelSimResult r3 = engine.simulateOne(simulator, j3);
    EXPECT_FALSE(r3.projected);

    // Healing: the audit persisted the target's ground truth to the
    // exact store, so a fresh engine answers it exactly — no
    // projection, no re-simulation.
    SimEngine fresh(aOpts(&store, 0.05));
    EngineStats st{};
    KernelSimResult healed = fresh.simulateOne(simulator, jt, &st);
    EXPECT_FALSE(healed.projected);
    EXPECT_EQ(st.storeHits, 1u);
    EXPECT_EQ(healed.cycles, truth.cycles);
}

TEST(AuditLane, AuditingNeverChangesCampaignOutputs)
{
    GpuSimulator simulator(voltaV100());
    Workload w;
    w.suite = "test";
    w.name = "audit_identity";
    w.seed = 7;
    ProgramPtr p = aProg("fleet", 0.6);
    for (uint32_t i = 0; i < 8; ++i)
        w.launches.push_back(aLaunch(p, 40 + (i % 4) * 20, 2 + i % 2));

    auto run = [&](double audit_rate) {
        TempDir dir;
        KernelResultStore store(dir.str(), true);
        SimEngine engine(aOpts(&store, 0.05, audit_rate));
        pka::core::FullSimResult r =
            pka::core::fullSimulate(engine, simulator, w);
        engine.auditDrain();
        return r;
    };
    pka::core::FullSimResult off = run(0.0);
    pka::core::FullSimResult on = run(1.0);

    // The audit lane observes; it never participates. Every aggregate
    // and per-launch result is bit-identical with auditing at 100%.
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.threadInsts, off.threadInsts);
    EXPECT_EQ(on.projectedLaunches, off.projectedLaunches);
    ASSERT_EQ(on.perKernel.size(), off.perKernel.size());
    for (size_t i = 0; i < on.perKernel.size(); ++i) {
        EXPECT_EQ(on.perKernel[i].cycles, off.perKernel[i].cycles);
        EXPECT_EQ(on.perKernel[i].projected, off.perKernel[i].projected);
    }
}

TEST(AuditLane, DeterministicSamplingIsReproducible)
{
    // Same keys + same seed => same sample set, across engines and
    // thread counts (the coin is keyed per target, not per worker).
    // Every queued audit is shed, so the lane never simulates truth,
    // never quarantines, and cannot perturb which launches project —
    // the sampled count depends on the keys and the seed alone.
    GpuSimulator simulator(voltaV100());
    ProgramPtr p = aProg("sample", 0.5);

    auto sampled_count = [&](unsigned threads) {
        TempDir dir;
        KernelResultStore store(dir.str(), true);
        EngineOptions eo = aOpts(&store, 0.05, 0.5);
        eo.threads = threads;
        eo.auditSeed = 99;
        eo.auditShed = [] { return true; };
        SimEngine engine(eo);
        for (uint32_t i = 0; i < 12; ++i) {
            KernelDescriptor k = aLaunch(p, 60 + 10 * i);
            SimJob j;
            j.setLaunch({k, 100 + i});
            j.workloadSeed = 7;
            engine.simulateOne(simulator, j);
        }
        engine.auditDrain();
        SimEngine::AuditSnapshot au = engine.auditStats();
        EXPECT_EQ(au.run, 0u);          // everything shed...
        EXPECT_EQ(au.shed, au.sampled); // ...and accounted for
        return au.sampled;
    };
    uint64_t a = sampled_count(1);
    uint64_t b = sampled_count(4);
    EXPECT_EQ(a, b);
    EXPECT_GT(a, 0u); // a 50% coin over 11 projections picked some
}

// ---------------------------------------------------------------------
// Campaign error budget.
// ---------------------------------------------------------------------

TEST(ErrorBudget, TripSwitchesTailToSimulateThrough)
{
    TempDir dir;
    KernelResultStore store(dir.str(), true);
    GpuSimulator simulator(voltaV100());

    // iterations 2 vs 3 is a real per-CTA work shift: projections from
    // the cross-iteration donor carry a nonzero certified error bound,
    // which is what the budget accounts.
    ProgramPtr p = aProg("budget", 0.6);
    KernelDescriptor probe_a = aLaunch(p, 60, 2);
    KernelDescriptor probe_b = aLaunch(p, 60, 3);
    double d = sigDistance(signatureOf(probe_a), signatureOf(probe_b));
    ASSERT_GT(d, 0.0);

    Workload w;
    w.suite = "test";
    w.name = "budget_trip";
    w.seed = 7;
    w.launches.push_back(aLaunch(p, 60, 2)); // simulated donor
    for (uint32_t i = 1; i < 8; ++i)         // cross-iteration twins
        w.launches.push_back(aLaunch(p, 60 + 10 * i, 3));

    SimEngine engine(aOpts(&store, d * 1.5));
    pka::core::CampaignCheckpoint cp; // chunking without journaling
    cp.chunkLaunches = 2;
    pka::core::CampaignPolicy policy;
    policy.errorBudget = 1e-4; // far below one projection's bound

    pka::core::FullSimResult res = pka::core::fullSimulate(
        engine, simulator, w, &cp, &policy);

    // The budget tripped: the campaign completed (every launch has a
    // result, none failed) but the tail ran simulate-through.
    EXPECT_TRUE(res.accuracyDegraded);
    EXPECT_GT(res.certifiedError, policy.errorBudget);
    EXPECT_EQ(res.failedLaunches, 0u);
    EXPECT_TRUE(res.quorumMet);
    EXPECT_EQ(res.perKernel.size(), w.launches.size());
    // At least one launch projected (that is what tripped it), and at
    // least one later twin was forced to simulate despite an in-bound
    // donor being available.
    EXPECT_GE(res.projectedLaunches, 1u);
    EXPECT_LT(res.projectedLaunches, w.launches.size() - 1);

    // Same campaign, no budget: the tail keeps projecting.
    TempDir dir2;
    KernelResultStore store2(dir2.str(), true);
    SimEngine engine2(aOpts(&store2, d * 1.5));
    pka::core::CampaignPolicy open;
    pka::core::FullSimResult free_run = pka::core::fullSimulate(
        engine2, simulator, w, &cp, &open);
    EXPECT_FALSE(free_run.accuracyDegraded);
    EXPECT_GT(free_run.projectedLaunches, res.projectedLaunches);
}

// ---------------------------------------------------------------------
// Similarity tier x checkpoint/resume: a torn journal mid-campaign with
// projected results in flight resumes bit-identically.
// ---------------------------------------------------------------------

TEST(XcacheResume, TornJournalWithProjectionsInFlightResumesBitIdentical)
{
    if (!pka::common::kFaultInjectionCompiledIn)
        GTEST_SKIP() << "built with -DPKA_FAULT_INJECTION=OFF";
    pka::common::FaultInjector::instance().reset();

    TempDir dir;
    fs::path store_dir = dir.path() / "store";
    fs::path ckpt_dir = dir.path() / "ckpt";
    fs::create_directories(ckpt_dir);

    GpuSimulator simulator(voltaV100());
    Workload w;
    w.suite = "test";
    w.name = "xcache_resume";
    w.seed = 7;
    // One shape at many grid sizes: launch 0 simulates (the donor),
    // the rest project at distance 0 — projections in flight from the
    // first chunk on.
    ProgramPtr p = aProg("resume", 0.6);
    for (uint32_t i = 0; i < 12; ++i)
        w.launches.push_back(aLaunch(p, 40 + 10 * i));

    pka::core::CampaignCheckpoint cp;
    cp.dir = ckpt_dir.string();
    cp.chunkLaunches = 3;

    // Crash leg: the journal append for launch 5 tears mid-write
    // ("done," reaches disk without an index or newline), so every
    // journal line after it is unreadable on resume.
    pka::core::FullSimResult base;
    {
        KernelResultStore store(store_dir.string(), /*similarity=*/true);
        SimEngine engine(aOpts(&store, 0.05));
        std::vector<pka::common::FaultSpec> specs;
        specs.push_back({.site = "journal.append",
                         .kind = pka::common::FaultKind::kShortWrite,
                         .matchKey = 5,
                         .maxFires = 1});
        pka::common::FaultInjector::instance().configure(specs, 1);
        cp.resume = false;
        base = pka::core::fullSimulate(engine, simulator, w, &cp);
        pka::common::FaultInjector::instance().reset();
    }
    ASSERT_GT(base.projectedLaunches, 0u);
    ASSERT_EQ(base.perKernel.size(), w.launches.size());

    // Resume leg: fresh "process" (cold memory cache, reopened store and
    // sig index), injector disarmed. The trusted prefix is credited, the
    // torn tail re-runs — simulated launches re-hit the exact store,
    // projected launches re-project from the persisted donor entry.
    KernelResultStore store(store_dir.string(), /*similarity=*/true);
    SimEngine engine(aOpts(&store, 0.05));
    cp.resume = true;
    pka::core::FullSimResult resumed =
        pka::core::fullSimulate(engine, simulator, w, &cp);

    EXPECT_GT(resumed.resumedLaunches, 0u);
    EXPECT_LT(resumed.resumedLaunches, w.launches.size()); // real tear
    EXPECT_EQ(resumed.cycles, base.cycles);
    EXPECT_EQ(resumed.threadInsts, base.threadInsts);
    EXPECT_EQ(resumed.dramUtilPct, base.dramUtilPct);
    EXPECT_EQ(resumed.projectedLaunches, base.projectedLaunches);
    EXPECT_EQ(resumed.projErrBound, base.projErrBound);
    ASSERT_EQ(resumed.perKernel.size(), base.perKernel.size());
    for (size_t i = 0; i < base.perKernel.size(); ++i) {
        EXPECT_EQ(resumed.perKernel[i].launchId,
                  base.perKernel[i].launchId);
        EXPECT_EQ(resumed.perKernel[i].cycles, base.perKernel[i].cycles);
        // Provenance survives the crash: the same launches carry the
        // same projection tags with the same certified bounds.
        EXPECT_EQ(resumed.perKernel[i].projected,
                  base.perKernel[i].projected);
        EXPECT_EQ(resumed.perKernel[i].projErrBound,
                  base.perKernel[i].projErrBound);
    }
}
