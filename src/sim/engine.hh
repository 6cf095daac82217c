/**
 * @file
 * The parallel campaign engine: fans independent kernel launches out
 * across a ThreadPool and reduces results in launch-index order, so
 * campaign aggregates are bit-identical for any thread count. A
 * content-addressed memoization cache sits in front of the simulator —
 * MLPerf-scale streams relaunch identical kernels thousands of times, so
 * repeated launches hit the cache instead of re-simulating.
 *
 * Cache-key anatomy (all of it must match for a hit):
 *   - device spec content hash (every timing-relevant GpuSpec field)
 *   - launch content hash (program body + memory behaviour + grid/block
 *     + registers/smem + iteration count + CTA-work CV)
 *   - workload seed and the launch's seed salt
 *   - scheduler policy, instruction/cycle budgets, IPC bucket/window
 *   - stop-policy config key (0 = run to completion)
 *
 * The seed salt is the honesty mechanism for the launch-id-mixed RNG
 * seeding: by default the simulator salts its memory-model and per-CTA
 * work RNG streams with the launch id (`SimJob::launchId`), so two
 * launches of identical content still jitter differently and their keys
 * differ (the cache never manufactures false hits). With
 * `EngineOptions::contentSeed`, seeding becomes content-based instead:
 * identical launches are bit-identical by construction and memoization
 * turns O(launches) campaigns into O(distinct kernels).
 *
 * An optional persistent store (EngineOptions::store) extends the same
 * contract across processes: lookups go memory -> exact disk ->
 * similarity -> simulate, every simulated result is persisted, and
 * corrupt or key-mismatched records are skipped (counted in
 * EngineStats::corruptSkipped), never served. The similarity step
 * (EngineOptions::xcacheTolerance > 0 over a store opened with a
 * signature index) answers an exact miss with a *projected* result from
 * the nearest stored near-duplicate kernel — tagged with provenance
 * (KernelSimResult::projected et al.) and never written back into the
 * exact tier, so the exact store only ever holds simulated truth.
 */

#ifndef PKA_SIM_ENGINE_HH
#define PKA_SIM_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/error.hh"
#include "sim/fnv.hh"
#include "sim/simulator.hh"
#include "sim/thread_pool.hh"

namespace pka::store
{
class KernelResultStore;
}

namespace pka::sim
{

/** Engine-wide configuration. */
struct EngineOptions
{
    /** Total concurrency; 0 = hardware_concurrency(). */
    unsigned threads = 0;

    /** Memoize kernel results in the content-addressed cache. */
    bool memoize = true;

    /**
     * Optional persistent result store probed *under* the in-memory
     * cache (memory -> disk -> simulate) and populated on every miss,
     * so warm re-runs across processes collapse to store reads. Not
     * owned; must outlive the engine. nullptr = in-memory only.
     */
    const store::KernelResultStore *store = nullptr;

    /**
     * Seed per-launch RNG streams from launch *content* instead of
     * launch id, making identical launches bit-identical (and therefore
     * cacheable across a stream). See the file comment for the
     * semantic-honesty discussion.
     */
    bool contentSeed = false;

    /**
     * Similarity-tier tolerance (the CLI's --xcache-tolerance): the
     * maximum signature distance at which a stored near-duplicate
     * kernel may answer an exact-cache miss with a projected result.
     * 0 (default) disables the tier entirely — the lookup path is then
     * bit-identical to an exact-only engine even when the store was
     * opened with a signature index. Requires a store opened with
     * similarity enabled to have any effect. See store/sig_index.hh
     * for the distance/error semantics: a tolerance t bounds every
     * per-CTA counter's relative mismatch by e^t - 1.
     */
    double xcacheTolerance = 0.0;

    /**
     * Approximate byte budget for the in-memory result cache (the
     * CLI's --memo-budget-mb); 0 = unbounded. Enforced per lock shard
     * (an even slice of the budget): an insert that pushes a shard past
     * its slice evicts that shard's least-recently-used entries first,
     * counted in EngineStats::memoEvictions. Eviction costs only
     * wall-clock — an evicted key re-simulates (or re-reads the store)
     * to the same bits, so results stay budget-independent.
     */
    uint64_t memoBudgetBytes = 0;

    /**
     * Per-attempt wall-clock watchdog in seconds (0 = no deadline). The
     * engine arms a fresh CancelToken for every simulation attempt; a
     * trip surfaces as a kTimeout TaskError, which the retry/quarantine
     * policy below then handles. Jobs that carry their own
     * SimOptions::cancel token keep it (the engine never overrides a
     * caller-armed token).
     */
    double taskTimeoutSec = 0.0;

    /** Per-attempt simulated-cycle watchdog (0 = no budget). */
    uint64_t taskCycleBudget = 0;

    /**
     * Simulation attempts per launch before its kernel is quarantined.
     * The first retry falls back to the dense reference core, which
     * shares none of the event core's skip machinery — a divergence or
     * invariant trip there is genuinely the kernel's fault. Bad-input
     * errors never retry (they are deterministic). Minimum 1.
     */
    unsigned maxTaskAttempts = 2;

    /**
     * Shadow-audit sampling rate (the CLI's --audit-rate): the fraction
     * of similarity-served projections that are deterministically
     * sampled (seeded by auditSeed, keyed per target cache key) and
     * re-simulated for ground truth on the engine's background audit
     * lane. An audited projection whose observed relative cycle error
     * exceeds its certified projectionErrorBound quarantines the donor
     * sig-index entry and tightens that neighborhood's probe tolerance
     * (see store::SignatureIndex::recordAudit); the ground-truth result
     * is persisted to the exact store, so the healed answer serves
     * exactly from then on. 0 (default) disables the lane entirely —
     * the clean path is bit-identical to an audit-free engine. The
     * audit lane is advisory: it never changes a result already served.
     */
    double auditRate = 0.0;

    /** Seed of the deterministic audit sampler. */
    uint64_t auditSeed = 0;

    /**
     * Overload probe for the audit lane: when set and returning true,
     * queued audits are shed (dropped, counted) instead of simulated —
     * the serve daemon wires this to its admission scheduler so audit
     * work is the first load shed under pressure. Called only from the
     * audit thread; must be safe to call until the engine is destroyed.
     */
    std::function<bool()> auditShed;
};

/**
 * One failed launch in an engine run. `index` is the position within the
 * jobs vector of that runChecked() call — callers that submit in
 * chunks (e.g. the checkpointed campaign loop) offset it into campaign
 * space before reporting.
 */
struct LaunchFailure
{
    uint64_t index = 0;
    common::TaskError error;
};

/** Aggregate accounting for one engine run. */
struct EngineStats
{
    uint64_t launches = 0;       ///< jobs submitted
    uint64_t cacheHits = 0;      ///< jobs answered from the memory cache
    uint64_t storeHits = 0;      ///< jobs answered from the disk store
    uint64_t cacheMisses = 0;    ///< jobs actually simulated
    uint64_t corruptSkipped = 0; ///< store records rejected and skipped

    /** Jobs answered by a fresh similarity-tier projection. */
    uint64_t simTierHits = 0;

    /**
     * Jobs whose returned result carries a projection tag — simTierHits
     * plus memory-cache re-hits of projected results. This is the
     * number every "% projected" report divides by launches.
     */
    uint64_t projectedLaunches = 0;

    /** Worst estimated relative error among projected results. */
    double projErrBound = 0.0;
    uint64_t failures = 0;       ///< launches that ended in a TaskError
    uint64_t taskRetries = 0;    ///< extra attempts beyond each first try
    uint64_t degradedRuns = 0;   ///< retries demoted to the reference core
    uint64_t quarantinedKernels = 0; ///< distinct kernels quarantined
    uint64_t quarantineSkips = 0; ///< launches skipped: kernel quarantined
    double wallSeconds = 0.0;    ///< host wall-clock time of the run
    double cpuSeconds = 0.0;     ///< summed per-task simulation time

    /** Memo-cache entries evicted by EngineOptions::memoBudgetBytes —
     *  cumulative for the engine (not per run), since concurrent runs
     *  share one cache and evictions cannot be attributed to either. */
    uint64_t memoEvictions = 0;

    /** Per-launch failure detail, in job order (see LaunchFailure). */
    std::vector<LaunchFailure> launchErrors;

    /** Memory+store+similarity hit rate in percent (0 when nothing was
     *  cacheable). */
    double hitRatePct() const
    {
        uint64_t hits = cacheHits + storeHits + simTierHits;
        uint64_t total = hits + cacheMisses;
        return total == 0 ? 0.0
                          : 100.0 * static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/**
 * One kernel launch to simulate. Do not set `opts.stop` directly — a
 * shared controller would leak PKP state between kernels and race across
 * threads. Provide `makeStop` instead: the engine constructs a fresh
 * controller per task, and `stopConfigKey` (any nonzero value unique to
 * the stop policy's configuration) keys the cache. A job with `makeStop`
 * but a zero `stopConfigKey` is simulated uncached.
 */
struct SimJob
{
    /** The launch's configuration; not owned. */
    const pka::workload::KernelDescriptor *kernel = nullptr;
    /** The launch's id within its stream (its position). */
    uint32_t launchId = 0;
    uint64_t workloadSeed = 0;
    SimOptions opts;
    std::function<std::unique_ptr<StopController>()> makeStop;
    uint64_t stopConfigKey = 0;

    /**
     * Never answer this job from the similarity tier (exact tiers and
     * simulation only). The campaign error-budget governor flips this
     * on every remaining job once a campaign's certified error budget
     * is exhausted — the simulate-through degradation of the accuracy
     * SLO (core::CampaignPolicy::errorBudget).
     */
    bool noProject = false;

    /** Point the job at launch `l`. */
    void setLaunch(pka::workload::Launch l)
    {
        kernel = &l.config;
        launchId = l.launchId;
    }

    /** The launch the job simulates (kernel must be set). */
    pka::workload::Launch launch() const { return {*kernel, launchId}; }
};

/** Memoization key; see the file comment for field semantics. */
struct KernelSimKey
{
    uint64_t specHash = 0;
    uint64_t contentHash = 0;
    uint64_t workloadSeed = 0;
    uint64_t seedSalt = 0;
    uint64_t stopConfigKey = 0;
    uint64_t maxThreadInstructions = 0;
    uint64_t maxCycles = 0;
    uint32_t ipcBucketCycles = 0;
    uint32_t ipcWindowBuckets = 0;
    uint8_t scheduler = 0;

    bool operator==(const KernelSimKey &) const = default;
};

/**
 * 64-bit hash of a cache key. Inline so the disk store can *name*
 * records by it without linking the engine; the store still verifies the
 * full key echo on read, so this hash is an address, never an identity.
 */
inline uint64_t
kernelSimKeyHash(const KernelSimKey &k)
{
    Fnv f;
    f.u64(k.specHash);
    f.u64(k.contentHash);
    f.u64(k.workloadSeed);
    f.u64(k.seedSalt);
    f.u64(k.stopConfigKey);
    f.u64(k.maxThreadInstructions);
    f.u64(k.maxCycles);
    f.u64(k.ipcBucketCycles);
    f.u64(k.ipcWindowBuckets);
    f.u64(k.scheduler);
    return f.h;
}

/**
 * Parallel, memoizing campaign engine. Thread-safe: runChecked() may be
 * called from multiple threads (runs serialize on the pool) and the
 * cache is internally sharded. One engine can serve simulators of
 * different device specs — the spec is part of the cache key.
 */
class SimEngine
{
  public:
    explicit SimEngine(EngineOptions options = {});
    ~SimEngine();

    SimEngine(const SimEngine &) = delete;
    SimEngine &operator=(const SimEngine &) = delete;

    /** The engine's configuration. */
    const EngineOptions &options() const { return opts_; }

    /** Total concurrency the pool provides. */
    unsigned threads() const { return pool_->size(); }

    /**
     * Simulate every job against `simulator`; every job yields either a
     * result or a structured TaskError, returned in job order regardless
     * of execution interleaving, so any reduction over them is
     * deterministic for every thread count. Per job the engine
     *   1. skips it immediately if its kernel is quarantined,
     *   2. arms the per-attempt watchdog (taskTimeoutSec /
     *      taskCycleBudget) and simulates,
     *   3. on failure retries up to maxTaskAttempts times, demoting the
     *      first retry to the dense reference core,
     *   4. quarantines the kernel (by launch content hash) once every
     *      attempt failed, so later launches of the same kernel skip in
     *      O(1).
     * The clean path pays almost nothing for this: no watchdog is
     * armed unless configured, and the quarantine probe is a relaxed
     * load while the set is empty.
     *
     * `priority` orders this run against other runs *queued on the same
     * engine* (the serve daemon's multiplexed campaigns): the pool
     * admits the highest-priority waiter first, FIFO within a priority.
     * Scheduling only — results and cache keys never depend on it.
     */
    std::vector<common::Expected<KernelSimResult>>
    runChecked(const GpuSimulator &simulator,
               const std::vector<SimJob> &jobs,
               EngineStats *stats = nullptr, unsigned priority = 0) const;

    /** Simulate one job on the calling thread (cache-aware); a failure
     *  is fatal. Accounts into `stats` exactly as runChecked() does. */
    KernelSimResult simulateOne(const GpuSimulator &simulator,
                                const SimJob &job,
                                EngineStats *stats = nullptr) const;

    /** Cumulative memory-cache hits since construction/clearCache(). */
    uint64_t cacheHits() const { return hits_.load(); }

    /** Cumulative disk-store hits since construction/clearCache(). */
    uint64_t storeHits() const { return storeHits_.load(); }

    /** Cumulative similarity-tier projections since construction. */
    uint64_t simTierHits() const { return simTierHits_.load(); }

    /** Cumulative launches answered with a projected result. */
    uint64_t projectedLaunches() const { return projected_.load(); }

    /** Cumulative cache misses since construction/clearCache(). */
    uint64_t cacheMisses() const { return misses_.load(); }

    /** Corrupt store records skipped since construction/clearCache(). */
    uint64_t corruptSkipped() const { return corrupt_.load(); }

    /** Distinct results currently cached. */
    size_t cacheSize() const;

    /** Memo entries evicted by the memory budget since construction. */
    uint64_t memoEvictions() const
    {
        return memoEvict_.load(std::memory_order_relaxed);
    }

    /**
     * Drop every cached result, empty the quarantine set and reset the
     * hit/miss counters.
     */
    void clearCache();

    /** Distinct kernels currently quarantined. */
    size_t quarantinedCount() const;

    /** True when the kernel with this launch content hash is quarantined. */
    bool isQuarantined(uint64_t contentHash) const;

    /**
     * Pre-seed the quarantine set (campaign resume replays journal
     * quarantine records through this). Idempotent.
     */
    void quarantineKernel(uint64_t contentHash,
                          const common::TaskError &why) const;

    /** Cumulative shadow-audit accounting (engine lifetime — the lane
     *  is asynchronous, so audits cannot be attributed to one run). */
    struct AuditSnapshot
    {
        uint64_t sampled = 0;    ///< projections selected for audit
        uint64_t run = 0;        ///< ground-truth re-simulations done
        uint64_t violations = 0; ///< observed error exceeded the bound
        uint64_t shed = 0;       ///< audits dropped (overload / queue cap)
        double maxObservedErr = 0.0; ///< worst observed relative error
    };

    /** Snapshot of the audit lane's counters. */
    AuditSnapshot auditStats() const;

    /**
     * Block until every queued audit has been simulated or shed. Tests,
     * benches and the CLI's exit-path stats call this so audit effects
     * (quarantines, counters) are observable; campaigns never need to.
     */
    void auditDrain() const;

  private:
    struct Shard;

    /** Where one task's answer came from, for per-run accounting. */
    struct TaskOutcome
    {
        double seconds = 0.0;     ///< simulation time (0 on any hit)
        uint8_t memoryHit = 0;    ///< answered from the in-memory cache
        uint8_t storeHit = 0;     ///< answered from the disk store
        uint8_t simTierHit = 0;   ///< answered by a fresh projection
        uint8_t corruptSkipped = 0; ///< a corrupt store record was skipped
        uint8_t retries = 0;      ///< attempts beyond the first
        uint8_t degraded = 0;     ///< a retry ran on the reference core
        uint8_t quarantinedNew = 0; ///< this failure quarantined the kernel
        uint8_t quarantineSkip = 0; ///< skipped: kernel already quarantined
    };

    KernelSimResult runJob(const GpuSimulator &simulator,
                           uint64_t spec_hash, const SimJob &job,
                           TaskOutcome *outcome) const;

    /** Fold one task's outcome and result (job `index` of its run) into
     *  `stats`. */
    static void accountTask(EngineStats *stats, uint64_t index,
                            const TaskOutcome &outcome,
                            const common::Expected<KernelSimResult> &result);

    /** Publish `result` under `key` into `shard`, trimming LRU entries
     *  when the shard is over its memoBudgetBytes slice. */
    void publishToShard(Shard *shard, const KernelSimKey &key,
                        const KernelSimResult &result) const;

    common::Expected<KernelSimResult>
    runJobChecked(const GpuSimulator &simulator, uint64_t spec_hash,
                  const SimJob &job, TaskOutcome *outcome) const;

    /** One queued ground-truth re-simulation (self-contained: owns a
     *  descriptor copy so campaign storage may die before the audit
     *  runs). */
    struct AuditTask
    {
        pka::workload::KernelDescriptor kernel;
        uint32_t launchId = 0;
        uint64_t workloadSeed = 0;
        SimOptions opts;
        pka::silicon::GpuSpec spec;
        double projectedCycles = 0.0;
        double errorBound = 0.0;
        uint64_t donorKeyHash = 0; ///< sig entry to credit / quarantine
        KernelSimKey key;          ///< target's exact-store key
    };

    /** True when the sampler selects this target key for audit. */
    bool auditSample(uint64_t targetKeyHash) const;

    /** Queue one audit (drops + counts when the queue is full). */
    void auditEnqueue(AuditTask task) const;

    /** Body of the background audit thread. */
    void auditLoop() const;

    /** Execute one audit task (ground truth, compare, record). */
    void auditOne(const AuditTask &task) const;

    EngineOptions opts_;
    std::unique_ptr<ThreadPool> pool_;
    std::unique_ptr<Shard[]> shards_;

    mutable std::atomic<uint64_t> hits_{0};
    mutable std::atomic<uint64_t> storeHits_{0};
    mutable std::atomic<uint64_t> misses_{0};
    mutable std::atomic<uint64_t> corrupt_{0};
    mutable std::atomic<uint64_t> simTierHits_{0};
    mutable std::atomic<uint64_t> projected_{0};
    mutable std::atomic<uint64_t> memoEvict_{0};

    // Quarantine set, keyed by launch content hash and carrying the
    // terminal TaskError so skipped launches can echo the original
    // failure. quarCount_ lets the per-job probe stay a relaxed load
    // while the set is empty (the universal clean-path case).
    mutable std::mutex quar_m_;
    mutable std::unordered_map<uint64_t, common::TaskError> quarantined_;
    mutable std::atomic<size_t> quarCount_{0};

    // Shadow-audit lane: one low-priority background thread draining a
    // bounded queue of ground-truth re-simulations. Lazily started on
    // the first enqueue; joined by the destructor. All cross-thread
    // state is the queue (audit_m_/audit_cv_) plus atomics, so the lane
    // is TSan-clean by construction.
    mutable std::mutex audit_m_;
    mutable std::condition_variable audit_cv_;
    mutable std::condition_variable audit_idle_cv_;
    mutable std::deque<AuditTask> auditQueue_;
    mutable std::thread auditThread_;
    mutable bool auditStarted_ = false;
    mutable bool auditStop_ = false;
    mutable bool auditBusy_ = false;

    mutable std::atomic<uint64_t> auditSampled_{0};
    mutable std::atomic<uint64_t> auditRun_{0};
    mutable std::atomic<uint64_t> auditViolations_{0};
    mutable std::atomic<uint64_t> auditShed_{0};
    /** Worst observed relative error, as double bits (CAS-maxed). */
    mutable std::atomic<uint64_t> auditMaxErrBits_{0};
};

/** Content hash of a device spec (every timing-relevant field). */
uint64_t specContentHash(const pka::silicon::GpuSpec &spec);

} // namespace pka::sim

#endif // PKA_SIM_ENGINE_HH
