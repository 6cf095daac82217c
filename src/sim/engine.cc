#include "sim/engine.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

#include "common/fault.hh"
#include "common/logging.hh"
#include "sim/cancel.hh"
#include "sim/fnv.hh"
#include "store/file_store.hh"
#include "store/sig_index.hh"

namespace pka::sim
{

using pka::silicon::GpuSpec;
using pka::workload::KernelDescriptor;

namespace
{

/** Lock shards in the result cache. */
constexpr unsigned kCacheShards = 16;

/** Pending-audit queue bound; the oldest queued audit is dropped
 *  (counted as shed) when an enqueue would exceed it. */
constexpr size_t kAuditQueueCap = 256;

struct KeyHasher
{
    size_t operator()(const KernelSimKey &k) const
    {
        return static_cast<size_t>(kernelSimKeyHash(k));
    }
};

/**
 * Only full-run launches may be served by (or donate to) the
 * similarity tier: projection rescales complete-kernel cycles, which
 * means nothing for a run a stop policy or budget would have cut
 * short — and those runs' cycle counts depend on *when* they were cut,
 * which no instruction ratio can transport across kernels.
 */
bool
projectionEligible(const SimJob &job, const SimOptions &opts)
{
    return !job.makeStop && opts.maxThreadInstructions == 0 &&
           opts.maxCycles == 0;
}

/** A stored result fit to be a projection donor. */
bool
usableDonor(const KernelSimResult &r)
{
    return !r.projected && !r.stoppedEarly && !r.truncatedByBudget &&
           r.cycles > 0 && r.threadInstructions > 0;
}

/**
 * The paper's Table-1 projection across kernels, in two factors:
 *
 *   - per-CTA work ratio: at matched signature the per-CTA instruction
 *     mix (and so the expected IPC) agrees, so a CTA's service time
 *     scales with its instruction count;
 *   - wave ratio: a grid executes in ceil(ctas / waveSize) machine
 *     waves (waveSize = occupancy x SMs, a grid-independent capacity
 *     the donor result carries), and waves serialize while CTAs within
 *     a wave run concurrently. Rescaling by raw instruction count
 *     instead would charge a half-full wave as if its CTAs ran back to
 *     back — a 2x overestimate the moment a grid grows within one wave.
 *
 * Instruction counters still scale with total work (they count retired
 * instructions, not wall time).
 */
KernelSimResult
projectResult(const KernelSimResult &donor, const store::SigEntry &e,
              double distance, const KernelDescriptor &target)
{
    const double inst_ratio =
        static_cast<double>(target.totalThreadInstructions()) /
        e.expThreadInsts;
    const double per_cta_ratio =
        inst_ratio * static_cast<double>(e.numCtas) /
        static_cast<double>(target.numCtas());
    const uint64_t wave = donor.waveSize > 0 ? donor.waveSize : 1;
    const auto waves = [wave](uint64_t ctas) -> double {
        return static_cast<double>((ctas + wave - 1) / wave);
    };
    const double cycle_ratio =
        per_cta_ratio * waves(target.numCtas()) / waves(e.numCtas);

    KernelSimResult r;
    r.cycles = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(
               static_cast<double>(donor.cycles) * cycle_ratio)));
    r.threadInstructions = donor.threadInstructions * inst_ratio;
    r.warpInstructions = static_cast<uint64_t>(std::llround(
        static_cast<double>(donor.warpInstructions) * inst_ratio));
    r.finishedCtas = target.numCtas();
    r.inFlightCtas = 0;
    r.totalCtas = target.numCtas();
    r.waveSize = donor.waveSize;
    r.expectedWarpInstructions = target.totalWarpInstructions();
    r.dramUtilPct = donor.dramUtilPct;
    r.l2MissPct = donor.l2MissPct;
    r.projected = true;
    r.projectedFromKey = kernelSimKeyHash(e.key);
    r.projectionDistance = distance;
    r.projectionErrorBound = store::sigErrorBound(distance);
    return r;
}

} // namespace

uint64_t
specContentHash(const GpuSpec &spec)
{
    Fnv f;
    f.str(spec.name);
    f.u64(static_cast<uint64_t>(spec.generation));
    f.u64(spec.numSms);
    f.u64(spec.maxThreadsPerSm);
    f.u64(spec.maxCtasPerSm);
    f.u64(spec.maxWarpsPerSm);
    f.u64(spec.regFilePerSm);
    f.u64(spec.smemPerSm);
    f.u64(spec.issueWidth);
    f.f64(spec.coreClockGhz);
    for (double t : spec.classThroughput)
        f.f64(t);
    for (double l : spec.classLatency)
        f.f64(l);
    f.f64(spec.l1LatencyCycles);
    f.f64(spec.l2LatencyCycles);
    f.f64(spec.dramLatencyCycles);
    f.f64(spec.l2BandwidthBytesPerClk);
    f.f64(spec.dramBandwidthGBs);
    f.f64(spec.launchOverheadCycles);
    return f.h;
}

/** One lock-sharded slice of the result cache. */
struct SimEngine::Shard
{
    /** A cached result plus its last-use stamp for LRU eviction. */
    struct Entry
    {
        KernelSimResult result;
        uint64_t tick = 0;
    };

    std::mutex m;
    std::unordered_map<KernelSimKey, Entry, KeyHasher> map;

    /** Monotonic use counter; advanced under m on every hit/insert. */
    uint64_t tick = 0;

    /**
     * Approximate resident bytes of one memo entry. Cached results
     * carry no trace (the engine excludes traced runs), so the
     * footprint is the two fixed structs plus hash-node overhead.
     */
    static constexpr uint64_t kEntryBytes =
        sizeof(KernelSimKey) + sizeof(Entry) + 64;
};

SimEngine::SimEngine(EngineOptions options)
    : opts_(options)
{
    pool_ = std::make_unique<ThreadPool>(opts_.threads);
    shards_ = std::make_unique<Shard[]>(kCacheShards);
}

SimEngine::~SimEngine()
{
    {
        std::lock_guard<std::mutex> lk(audit_m_);
        auditStop_ = true;
    }
    audit_cv_.notify_all();
    if (auditThread_.joinable())
        auditThread_.join();
}

bool
SimEngine::auditSample(uint64_t targetKeyHash) const
{
    if (opts_.auditRate <= 0.0)
        return false;
    if (opts_.auditRate >= 1.0)
        return true;
    // Deterministic per-key coin: the same campaign audits the same
    // launches on every run/thread-count, so audit coverage is
    // reproducible (and testable) by construction.
    Fnv f;
    f.u64(targetKeyHash);
    f.u64(opts_.auditSeed ^ 0x9e3779b97f4a7c15ull);
    double u = static_cast<double>(f.h >> 11) * 0x1p-53;
    return u < opts_.auditRate;
}

void
SimEngine::auditEnqueue(AuditTask task) const
{
    auditSampled_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(audit_m_);
        if (auditStop_)
            return;
        if (!auditStarted_) {
            auditStarted_ = true;
            auditThread_ = std::thread([this] { auditLoop(); });
        }
        while (auditQueue_.size() >= kAuditQueueCap) {
            auditQueue_.pop_front();
            auditShed_.fetch_add(1, std::memory_order_relaxed);
        }
        auditQueue_.push_back(std::move(task));
    }
    audit_cv_.notify_one();
}

void
SimEngine::auditLoop() const
{
    std::unique_lock<std::mutex> lk(audit_m_);
    for (;;) {
        audit_cv_.wait(lk,
                       [&] { return auditStop_ || !auditQueue_.empty(); });
        if (auditStop_)
            return; // queued audits are abandoned; the lane is advisory
        AuditTask task = std::move(auditQueue_.front());
        auditQueue_.pop_front();
        auditBusy_ = true;
        lk.unlock();

        // Overload check at dequeue time: under serve pressure audit
        // work is the first thing dropped (it costs a full simulation).
        if (opts_.auditShed && opts_.auditShed()) {
            auditShed_.fetch_add(1, std::memory_order_relaxed);
        } else {
            try {
                auditOne(task);
            } catch (const std::exception &ex) {
                // A failing ground-truth run proves nothing about the
                // projection; drop the audit rather than the campaign.
                common::warnRateLimited(
                    "audit.fail",
                    common::strfmt("shadow audit: ground-truth "
                                   "re-simulation failed (%s); audit "
                                   "dropped",
                                   ex.what()));
                auditShed_.fetch_add(1, std::memory_order_relaxed);
            }
        }

        lk.lock();
        auditBusy_ = false;
        if (auditQueue_.empty())
            audit_idle_cv_.notify_all();
    }
}

void
SimEngine::auditOne(const AuditTask &task) const
{
    GpuSimulator sim(task.spec);
    KernelSimResult truth =
        sim.simulateKernel({task.kernel, task.launchId}, task.workloadSeed,
                           task.opts);
    auditRun_.fetch_add(1, std::memory_order_relaxed);
    if (truth.cycles == 0)
        return;

    const double observed =
        std::abs(task.projectedCycles - static_cast<double>(truth.cycles)) /
        static_cast<double>(truth.cycles);
    // CAS-max the worst observed error for reporting.
    uint64_t want = std::bit_cast<uint64_t>(observed);
    uint64_t cur = auditMaxErrBits_.load(std::memory_order_relaxed);
    while (std::bit_cast<double>(cur) < observed &&
           !auditMaxErrBits_.compare_exchange_weak(
               cur, want, std::memory_order_relaxed)) {
    }

    const bool violation = observed > task.errorBound;
    if (violation)
        auditViolations_.fetch_add(1, std::memory_order_relaxed);

    // Persist the truth into the exact tier: the audited kernel now
    // answers exactly for every later process (self-healing), and the
    // donor entry's audit stats / quarantine verdict persist with it.
    if (opts_.store) {
        opts_.store->put(task.key, truth);
        if (const store::SignatureIndex *idx = opts_.store->similarity())
            idx->recordAudit(task.donorKeyHash, observed, violation);
    }
}

SimEngine::AuditSnapshot
SimEngine::auditStats() const
{
    AuditSnapshot s;
    s.sampled = auditSampled_.load(std::memory_order_relaxed);
    s.run = auditRun_.load(std::memory_order_relaxed);
    s.violations = auditViolations_.load(std::memory_order_relaxed);
    s.shed = auditShed_.load(std::memory_order_relaxed);
    s.maxObservedErr = std::bit_cast<double>(
        auditMaxErrBits_.load(std::memory_order_relaxed));
    return s;
}

void
SimEngine::auditDrain() const
{
    std::unique_lock<std::mutex> lk(audit_m_);
    audit_idle_cv_.wait(
        lk, [&] { return auditQueue_.empty() && !auditBusy_; });
}

// Precondition (enforced by runJobChecked): job.kernel is non-null and
// job.opts.stop is null. May throw common::TaskException — the checked
// wrapper owns classification, retry and quarantine.
KernelSimResult
SimEngine::runJob(const GpuSimulator &simulator, uint64_t spec_hash,
                  const SimJob &job, TaskOutcome *outcome) const
{
    SimOptions opts = job.opts;
    opts.contentSeed = opts.contentSeed || opts_.contentSeed;

    // Traced/IPC-traced runs carry heavyweight payloads and replay
    // external data; keep them out of the cache. Stop policies are only
    // cacheable when the job identifies their configuration.
    const bool cacheable = opts_.memoize && opts.trace == nullptr &&
                           !opts.traceIpc &&
                           (!job.makeStop || job.stopConfigKey != 0);

    KernelSimKey key;
    Shard *shard = nullptr;
    if (cacheable) {
        key.specHash = spec_hash;
        key.contentHash = launchContentHash(*job.kernel);
        key.workloadSeed = job.workloadSeed;
        key.seedSalt = opts.contentSeed ? key.contentHash : job.launchId;
        key.stopConfigKey = job.makeStop ? job.stopConfigKey : 0;
        key.maxThreadInstructions = opts.maxThreadInstructions;
        key.maxCycles = opts.maxCycles;
        key.ipcBucketCycles = opts.ipcBucketCycles;
        key.ipcWindowBuckets = opts.ipcWindowBuckets;
        key.scheduler = static_cast<uint8_t>(opts.scheduler);

        shard = &shards_[kernelSimKeyHash(key) % kCacheShards];
        {
            std::lock_guard<std::mutex> lk(shard->m);
            auto it = shard->map.find(key);
            if (it != shard->map.end()) {
                it->second.tick = ++shard->tick;
                hits_.fetch_add(1, std::memory_order_relaxed);
                outcome->memoryHit = 1;
                if (it->second.result.projected)
                    projected_.fetch_add(1, std::memory_order_relaxed);
                return it->second.result;
            }
        }

        // Memory missed; probe the persistent store (outside the shard
        // lock — disk IO must never serialize the other workers).
        if (opts_.store) {
            KernelSimResult r;
            switch (opts_.store->get(key, &r)) {
            case store::Lookup::kHit: {
                storeHits_.fetch_add(1, std::memory_order_relaxed);
                outcome->storeHit = 1;
                publishToShard(shard, key, r);
                return r;
            }
            case store::Lookup::kCorrupt:
                corrupt_.fetch_add(1, std::memory_order_relaxed);
                outcome->corruptSkipped = 1;
                break; // fall through to similarity / simulation
            case store::Lookup::kMiss:
                break;
            }

            // Exact tier missed; probe the similarity tier for the
            // nearest stored near-duplicate kernel. A projected answer
            // is published to the memory cache (tagged, so later hits
            // stay countable) but never to the exact disk tier.
            const store::SignatureIndex *idx = opts_.store->similarity();
            if (idx && opts_.xcacheTolerance > 0 && !job.noProject &&
                projectionEligible(job, opts)) {
                store::SigProbe p = idx->probe(
                    store::signatureOf(*job.kernel), opts_.xcacheTolerance);
                KernelSimResult donor;
                if (p.hit &&
                    opts_.store->get(p.entry.key, &donor) ==
                        store::Lookup::kHit &&
                    usableDonor(donor)) {
                    KernelSimResult proj = projectResult(
                        donor, p.entry, p.distance, *job.kernel);
                    simTierHits_.fetch_add(1, std::memory_order_relaxed);
                    projected_.fetch_add(1, std::memory_order_relaxed);
                    outcome->simTierHit = 1;
                    publishToShard(shard, key, proj);
                    // Shadow audit: deterministically sample served
                    // projections for background ground-truth
                    // verification. The projection is returned either
                    // way — the audit only shapes *future* serving
                    // (quarantine, tolerance governor, healed store).
                    if (auditSample(kernelSimKeyHash(key))) {
                        AuditTask t{*job.kernel,
                                    job.launchId,
                                    job.workloadSeed,
                                    opts,
                                    simulator.spec(),
                                    static_cast<double>(proj.cycles),
                                    proj.projectionErrorBound,
                                    kernelSimKeyHash(p.entry.key),
                                    key};
                        t.opts.cancel = nullptr;
                        t.opts.stop = nullptr;
                        t.opts.trace = nullptr;
                        auditEnqueue(std::move(t));
                    }
                    return proj;
                }
            }
        }
    }

    std::unique_ptr<StopController> stop;
    if (job.makeStop) {
        stop = job.makeStop();
        opts.stop = stop.get();
    }

    auto t0 = std::chrono::steady_clock::now();
    KernelSimResult r =
        simulator.simulateKernel(job.launch(), job.workloadSeed, opts);
    outcome->seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    if (cacheable) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        // A racing task may have inserted the same key; results are
        // deterministic so either copy is the same bits.
        publishToShard(shard, key, r);
        // Persist after publishing to memory, also outside the lock. A
        // racing writer of the same key produces identical bytes.
        if (opts_.store) {
            opts_.store->put(key, r);
            // Index this kernel's signature so later near-duplicates
            // can project from it. Only complete full-run results are
            // donors; the entry references the exact record by key.
            const store::SignatureIndex *idx = opts_.store->similarity();
            if (idx && opts_.xcacheTolerance > 0 &&
                projectionEligible(job, opts) && usableDonor(r)) {
                store::SigEntry e;
                e.sig = store::signatureOf(*job.kernel);
                e.key = key;
                e.expThreadInsts = static_cast<double>(
                    job.kernel->totalThreadInstructions());
                e.expWarpInsts = job.kernel->totalWarpInstructions();
                e.numCtas = job.kernel->numCtas();
                idx->insert(e);
            }
        }
    }
    return r;
}

common::Expected<KernelSimResult>
SimEngine::runJobChecked(const GpuSimulator &simulator, uint64_t spec_hash,
                         const SimJob &job, TaskOutcome *outcome) const
{
    using common::ErrorKind;
    using common::TaskError;
    using common::TaskException;

    // Validate the job and bind its kernel identity. launchContentHash
    // throws kBadInput for a program-less launch.
    uint64_t qkey = 0;
    try {
        if (job.kernel == nullptr)
            throw TaskException(ErrorKind::kBadInput, "SimJob has no kernel");
        if (job.opts.stop != nullptr)
            throw TaskException(
                ErrorKind::kBadInput,
                "SimJob must not carry a shared StopController; "
                "use makeStop so every task gets a fresh one");
        qkey = launchContentHash(*job.kernel);
    } catch (const TaskException &ex) {
        return ex.toError();
    }

    if (quarCount_.load(std::memory_order_relaxed) != 0) {
        std::lock_guard<std::mutex> lk(quar_m_);
        auto it = quarantined_.find(qkey);
        if (it != quarantined_.end()) {
            outcome->quarantineSkip = 1;
            return it->second;
        }
    }

    const unsigned max_attempts = std::max(1u, opts_.maxTaskAttempts);
    const bool watchdog_armed =
        opts_.taskTimeoutSec > 0.0 || opts_.taskCycleBudget > 0;
    SimJob attempt = job;
    TaskError last;
    for (unsigned n = 1; n <= max_attempts; ++n) {
        // Fresh watchdog per attempt: a retry gets its full budget, and
        // the token's trip state never leaks across attempts. A
        // caller-armed token is honoured instead.
        CancelToken watchdog;
        watchdog.armWallDeadline(opts_.taskTimeoutSec);
        watchdog.armCycleBudget(opts_.taskCycleBudget);
        attempt.opts.cancel = job.opts.cancel;
        if (attempt.opts.cancel == nullptr && watchdog_armed)
            attempt.opts.cancel = &watchdog;
        try {
            if (auto f = common::faultAt("worker.exec", qkey)) {
                if (*f == common::FaultKind::kHang)
                    common::FaultInjector::instance().hang(
                        [&] { return watchdog.expired(0); });
                throw TaskException(
                    ErrorKind::kInternal,
                    common::strfmt("injected worker fault for kernel '%s'",
                                   job.kernel->program->name.c_str()));
            }
            return runJob(simulator, spec_hash, attempt, outcome);
        } catch (const TaskException &ex) {
            last = ex.toError();
        } catch (const std::exception &ex) {
            last = TaskError{ErrorKind::kInternal, ex.what()};
        }
        last.attempts = n;
        last.context = common::strfmt(
            "kernel '%s' launch %llu", job.kernel->program->name.c_str(),
            static_cast<unsigned long long>(job.launchId));
        if (last.kind == ErrorKind::kBadInput)
            break; // deterministic input error: retrying cannot help
        if (n < max_attempts) {
            ++outcome->retries;
            if (!attempt.opts.referenceCore) {
                // Degraded retry: the dense reference loop shares none
                // of the event core's skip machinery, so a transient
                // event-core fault cannot recur there.
                attempt.opts.referenceCore = true;
                outcome->degraded = 1;
            }
        }
    }

    last.quarantined = true;
    {
        std::lock_guard<std::mutex> lk(quar_m_);
        if (quarantined_.emplace(qkey, last).second) {
            outcome->quarantinedNew = 1;
            quarCount_.store(quarantined_.size(), std::memory_order_relaxed);
        }
    }
    return last;
}

void
SimEngine::accountTask(EngineStats *stats, uint64_t index,
                       const TaskOutcome &o,
                       const common::Expected<KernelSimResult> &r)
{
    ++stats->launches;
    stats->cpuSeconds += o.seconds;
    stats->taskRetries += o.retries;
    if (o.degraded)
        ++stats->degradedRuns;
    if (o.quarantinedNew)
        ++stats->quarantinedKernels;
    if (o.quarantineSkip)
        ++stats->quarantineSkips;
    if (!r.ok()) {
        ++stats->failures;
        stats->launchErrors.push_back({index, r.error()});
        return;
    }
    if (o.memoryHit)
        ++stats->cacheHits;
    else if (o.storeHit)
        ++stats->storeHits;
    else if (o.simTierHit)
        ++stats->simTierHits;
    else
        ++stats->cacheMisses;
    if (r.value().projected) {
        ++stats->projectedLaunches;
        stats->projErrBound =
            std::max(stats->projErrBound, r.value().projectionErrorBound);
    }
    if (o.corruptSkipped)
        ++stats->corruptSkipped;
}

std::vector<common::Expected<KernelSimResult>>
SimEngine::runChecked(const GpuSimulator &simulator,
                      const std::vector<SimJob> &jobs,
                      EngineStats *stats, unsigned priority) const
{
    const uint64_t spec_hash = specContentHash(simulator.spec());
    std::vector<common::Expected<KernelSimResult>> results(
        jobs.size(), common::Expected<KernelSimResult>(KernelSimResult{}));
    std::vector<TaskOutcome> outcomes(jobs.size());

    auto t0 = std::chrono::steady_clock::now();
    pool_->parallelFor(
        jobs.size(),
        [&](size_t i) {
            results[i] =
                runJobChecked(simulator, spec_hash, jobs[i], &outcomes[i]);
        },
        priority);
    double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    if (stats) {
        stats->wallSeconds += wall;
        stats->memoEvictions = memoEvict_.load(std::memory_order_relaxed);
        // Reduce per-task accounting serially in job order so even the
        // diagnostic aggregates are thread-count-invariant.
        for (size_t i = 0; i < jobs.size(); ++i)
            accountTask(stats, i, outcomes[i], results[i]);
    }
    return results;
}

KernelSimResult
SimEngine::simulateOne(const GpuSimulator &simulator, const SimJob &job,
                       EngineStats *stats) const
{
    TaskOutcome o;
    auto t0 = std::chrono::steady_clock::now();
    common::Expected<KernelSimResult> r =
        runJobChecked(simulator, specContentHash(simulator.spec()), job, &o);
    if (stats) {
        stats->memoEvictions = memoEvict_.load(std::memory_order_relaxed);
        stats->wallSeconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        accountTask(stats, 0, o, r);
    }
    if (!r.ok())
        pka::common::fatal("simulation failed: " + r.error().str());
    return std::move(r.value());
}

void
SimEngine::publishToShard(Shard *shard, const KernelSimKey &key,
                          const KernelSimResult &result) const
{
    std::lock_guard<std::mutex> lk(shard->m);
    auto [it, inserted] = shard->map.try_emplace(key);
    it->second.result = result;
    it->second.tick = ++shard->tick;
    if (!inserted || opts_.memoBudgetBytes == 0)
        return;
    // Per-shard slice of the global budget; a slice smaller than one
    // entry still keeps the newest entry, so hot keys always cache.
    uint64_t slice = opts_.memoBudgetBytes / kCacheShards;
    size_t max_entries = std::max<size_t>(
        1, static_cast<size_t>(slice / Shard::kEntryBytes));
    // Evict least-recently-used via a min-tick scan. O(shard size) per
    // eviction, but eviction only runs when the budget is configured
    // and exceeded, where wall-clock is already being traded for memory.
    while (shard->map.size() > max_entries) {
        auto victim = shard->map.begin();
        for (auto e = shard->map.begin(); e != shard->map.end(); ++e)
            if (e->second.tick < victim->second.tick)
                victim = e;
        shard->map.erase(victim);
        memoEvict_.fetch_add(1, std::memory_order_relaxed);
    }
}

size_t
SimEngine::cacheSize() const
{
    size_t total = 0;
    for (unsigned s = 0; s < kCacheShards; ++s) {
        std::lock_guard<std::mutex> lk(shards_[s].m);
        total += shards_[s].map.size();
    }
    return total;
}

void
SimEngine::clearCache()
{
    for (unsigned s = 0; s < kCacheShards; ++s) {
        std::lock_guard<std::mutex> lk(shards_[s].m);
        shards_[s].map.clear();
    }
    hits_.store(0);
    storeHits_.store(0);
    misses_.store(0);
    corrupt_.store(0);
    simTierHits_.store(0);
    projected_.store(0);
    {
        std::lock_guard<std::mutex> lk(quar_m_);
        quarantined_.clear();
        quarCount_.store(0, std::memory_order_relaxed);
    }
}

size_t
SimEngine::quarantinedCount() const
{
    return quarCount_.load(std::memory_order_relaxed);
}

bool
SimEngine::isQuarantined(uint64_t contentHash) const
{
    if (quarCount_.load(std::memory_order_relaxed) == 0)
        return false;
    std::lock_guard<std::mutex> lk(quar_m_);
    return quarantined_.count(contentHash) != 0;
}

void
SimEngine::quarantineKernel(uint64_t contentHash,
                            const common::TaskError &why) const
{
    std::lock_guard<std::mutex> lk(quar_m_);
    common::TaskError e = why;
    e.quarantined = true;
    quarantined_.emplace(contentHash, std::move(e));
    quarCount_.store(quarantined_.size(), std::memory_order_relaxed);
}

} // namespace pka::sim
