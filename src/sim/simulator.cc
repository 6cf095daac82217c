#include "sim/simulator.hh"

#include <algorithm>
#include <vector>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "sim/fnv.hh"
#include "sim/memory_model.hh"
#include "sim/sm_core.hh"
#include "sim/timing_wheel.hh"

namespace pka::sim
{

using pka::silicon::GpuSpec;
using pka::workload::KernelDescriptor;

namespace
{

/** Absolute runaway guard for a single kernel. */
constexpr uint64_t kHardCycleCap = 4'000'000'000ULL;

/** GigaThread-style CTA dispatch rate limit (CTAs per device cycle). */
constexpr double kCtaDispatchPerCycle = 4.0;

/**
 * CTA dispatch cadence in cycles: freed CTA slots are refilled in
 * batches every `dispatchQuantum` cycles rather than instantaneously
 * (real GigaThread engines have a CTA launch latency of this order).
 * The cadence is 4 cycles, shortened to the minimum global-load stall
 * (max(2, lat/6) at the 0.9 x l1Latency jitter floor) on specs whose
 * L1 is fast enough to go below it. It shapes every CTA's start cycle,
 * so changing it changes every simulated result.
 */
uint32_t
dispatchQuantum(const GpuSpec &spec)
{
    const uint64_t min_lat =
        static_cast<uint64_t>(spec.l1LatencyCycles * 0.9);
    const uint64_t min_load_stall = std::max<uint64_t>(2, min_lat / 6);
    return static_cast<uint32_t>(std::min<uint64_t>(4, min_load_stall));
}

/**
 * Event bookkeeping for the event-driven core over all SMs of `sms`.
 * SMs with ready warps are found by scanning the is_ready bitmap in
 * ascending index order (the reference core's tick order); only
 * *sleeping* SMs (no ready warp, earliest pending wake in the future)
 * live in the timing wheel, so wheel traffic is bounded by instructions
 * issued rather than cycles elapsed. Entries superseded by a re-arm or
 * by a dispatch landing on a sleeping SM go stale; the drain/validate
 * paths discard them lazily.
 */
class SmEventSet
{
  public:
    explicit SmEventSet(std::vector<SmCore> &sms)
        : sms_(sms), wheel_(static_cast<uint32_t>(sms.size())),
          sm_event_(sms.size(), UINT64_MAX), is_ready_(sms.size(), 0)
    {
    }

    /** SMs with a ready warp. */
    uint32_t numReady() const { return num_ready_; }

    /** True if SM `s` has a ready warp. */
    bool isReady(uint32_t s) const { return is_ready_[s] != 0; }

    /**
     * Re-classify SM `s` after an out-of-band state change (CTA
     * assignment): ready SMs leave the wheel, sleeping SMs (re-)arm
     * their next-wake entry. A superseded entry still queued goes
     * stale. `now` anchors wheel placement and must not exceed the next
     * cycle the owner drains at.
     */
    void
    refresh(uint32_t s, uint64_t now)
    {
        const bool ready = sms_[s].hasReady();
        if (ready != static_cast<bool>(is_ready_[s])) {
            is_ready_[s] = ready ? 1 : 0;
            if (ready)
                ++num_ready_;
            else
                --num_ready_;
        }
        const uint64_t w = ready ? UINT64_MAX : sms_[s].nextWake();
        if (w != sm_event_[s]) {
            if (sm_event_[s] != UINT64_MAX)
                ++stale_count_;
            sm_event_[s] = w;
            if (w != UINT64_MAX)
                arm(s, now, w);
        }
    }

    /**
     * Slim re-classification right after SM `s` ticked at `now`.
     * Precondition: `s` holds no valid wheel entry (it was ready, or
     * its entry was consumed by drainDue this cycle), so only the
     * ready flag and a possible new sleep entry need touching — the
     * hot path of saturated compute kernels.
     */
    void
    refreshAfterTick(uint32_t s, uint64_t now)
    {
        const bool ready = sms_[s].hasReady();
        if (ready != static_cast<bool>(is_ready_[s])) {
            is_ready_[s] = ready ? 1 : 0;
            if (ready)
                ++num_ready_;
            else
                --num_ready_;
        }
        if (!ready) {
            const uint64_t w = sms_[s].nextWake();
            if (w != sm_event_[s]) {
                sm_event_[s] = w;
                if (w != UINT64_MAX)
                    arm(s, now, w);
            }
        }
    }

    /**
     * Pop the SMs whose wake is due at `cycle` into `due`, ascending,
     * consuming their entries and discarding stale ones. No-op when
     * nothing is due; PKA_CHECKs that no event was skipped past.
     */
    void
    drainDue(uint64_t cycle, std::vector<uint32_t> &due)
    {
        due.clear();
        if (wheel_.nextWake() > cycle)
            return;
        PKA_CHECK(wheel_.nextWake() == cycle, "missed SM event");
        wheel_.drain(cycle, scratch_);
        for (uint32_t s : scratch_) {
            // Stale, or the overflow twin of a slot entry for the same
            // wake (the first copy consumed the event).
            if (sm_event_[s] != cycle) {
                --stale_count_;
                continue;
            }
            sm_event_[s] = UINT64_MAX; // consumed; re-armed later
            due.push_back(s); // drain order: ascending s
        }
    }

    /**
     * Earliest cycle with a *valid* pending SM wake, or UINT64_MAX.
     * When stale entries exist the candidate slot is drained and
     * validated first — returning a stale cycle would make the owner
     * tick (or skip-emulate) a cycle where nothing happens.
     */
    uint64_t
    nextEvent(uint64_t now)
    {
        for (;;) {
            const uint64_t nw = wheel_.nextWake();
            if (stale_count_ == 0 || nw == UINT64_MAX)
                return nw;
            wheel_.drain(nw, scratch_);
            bool any_valid = false;
            for (uint32_t s : scratch_) {
                if (sm_event_[s] == nw) {
                    arm(s, now, nw);
                    any_valid = true;
                } else {
                    --stale_count_;
                }
            }
            if (any_valid)
                return nw;
        }
    }

  private:
    /**
     * Queue the wake of SM `s`. An entry the wheel already holds for
     * `s` at `w` is counted stale: one superseded earlier (a valid one
     * would have made the caller skip), or in nextEvent() the overflow
     * twin of an entry just re-queued. The wheel merges it into the new
     * entry's bit, so it leaves the stale count.
     */
    void
    arm(uint32_t s, uint64_t now, uint64_t w)
    {
        if (!wheel_.schedule(now, w, s))
            --stale_count_;
    }

    std::vector<SmCore> &sms_;
    TimingWheel wheel_; ///< sleeping SMs by next wake
    std::vector<uint64_t> sm_event_; ///< valid wheel entry per SM
    std::vector<uint8_t> is_ready_;
    std::vector<uint32_t> scratch_;
    uint32_t num_ready_ = 0;
    uint32_t stale_count_ = 0;
};

/**
 * One kernel launch in flight: the device state (SMs, memory model,
 * dispatch limiter, IPC tracker) plus two interchangeable run loops.
 *
 * runReference() is the dense cycle loop: tick every SM every cycle,
 * with a whole-device idle fast-forward. runEventDriven() tracks ready
 * SMs in a bitmap and sleeping SMs in a device-level timing wheel of
 * next-wake cycles, ticks only SMs whose event is due, and replays
 * skipped spans through the tracker.
 *
 * Bit-identity contract: both loops tick the same SMs at the same
 * cycles in the same (ascending SM index) order, so the shared memory
 * model sees an identical access sequence; and the event core replays
 * the reference core's per-cycle protocol over skipped spans — bucket
 * completions, StopController polls, budget and cycle-cap checks,
 * dispatch-credit accrual — distinguishing spans the reference ticks
 * densely (dispatch phase, the single idle cycle after activity) from
 * spans it silently fast-forwards (whole-device idle after dispatch).
 */
class KernelRun
{
  public:
    KernelRun(const GpuSpec &spec, pka::workload::Launch l,
              uint64_t workload_seed, const SimOptions &opts)
        : spec_(spec), k_(l.config), opts_(opts),
          total_ctas_(l.config.numCtas()),
          // Per-launch RNG salt: launch id by default (independent jitter
          // per launch), or the launch's content hash under content
          // seeding (identical launches become bit-identical, hence
          // cacheable).
          launch_salt_(opts.contentSeed ? launchContentHash(l.config)
                                        : l.launchId),
          mem_(spec, workload_seed ^ (launch_salt_ * 0x9E3779B9ULL)),
          tracker_(opts.ipcBucketCycles, opts.ipcWindowBuckets,
                   opts.traceIpc),
          cycle_cap_(opts.maxCycles > 0
                         ? std::min(opts.maxCycles, kHardCycleCap)
                         : kHardCycleCap),
          // Fault-site key: launch *content*, so an armed sim.loop fault
          // targets every launch of one kernel regardless of launch id.
          // Zero (never computed) on the clean path.
          fault_key_(pka::common::kFaultInjectionCompiledIn &&
                             pka::common::FaultInjector::instance().enabled()
                         ? launchContentHash(l.config)
                         : 0)
    {
        using pka::common::ErrorKind;
        using pka::common::TaskException;
        if (k_.program == nullptr)
            throw TaskException(ErrorKind::kBadInput,
                                "launch has no program");
        if (opts.trace) {
            if (opts.trace->ctaIterations.size() != total_ctas_)
                throw TaskException(
                    ErrorKind::kBadInput,
                    "trace CTA count does not match the launch grid");
            if (opts.trace->kernelName != k_.program->name)
                throw TaskException(
                    ErrorKind::kBadInput,
                    "trace kernel name does not match the launch");
        }
        const uint32_t occ = pka::silicon::maxCtasPerSm(spec_, k_);
        r_.totalCtas = total_ctas_;
        r_.waveSize = static_cast<uint64_t>(occ) * spec_.numSms;
        r_.expectedWarpInstructions = k_.totalWarpInstructions();
        sms_.reserve(spec_.numSms);
        for (uint32_t s = 0; s < spec_.numSms; ++s)
            sms_.emplace_back(spec_, k_, mem_, workload_seed, occ,
                              opts_.scheduler,
                              opts_.trace ? &opts_.trace->ctaIterations
                                          : nullptr,
                              launch_salt_);
        free_slots_ = static_cast<uint64_t>(occ) * spec_.numSms;
        dispatch([](uint32_t) {});
        prev_ctr_ = mem_.counters();
    }

    KernelSimResult
    run()
    {
        if (opts_.stop)
            opts_.stop->beginKernel(snapshot(0));
        if (opts_.referenceCore)
            runReference();
        else
            runEventDriven();
        // Launch overhead is outside the measured IPC window but part of
        // the kernel's wall-clock cycles.
        r_.inFlightCtas = next_cta_ - r_.finishedCtas;
        r_.cycles = end_cycle_ +
                    static_cast<uint64_t>(spec_.launchOverheadCycles);
        r_.dramUtilPct = mem_.dramUtilPct(r_.cycles);
        r_.l2MissPct = mem_.l2MissPct();
        if (opts_.traceIpc)
            r_.trace = tracker_.trace();
        return std::move(r_);
    }

  private:
    /**
     * Breadth-first dispatch (one CTA per SM per pass), matching how
     * GPUs spread a grid across SMs before stacking occupancy. The
     * GigaThread-style rate limit makes occupancy (and hence IPC) ramp
     * up over the first wave instead of materializing instantaneously.
     * `on_assign(sm)` fires per placed CTA (the event core re-arms that
     * SM's event). Returns true when it stopped because every SM is
     * occupancy-full — i.e. no free slot exists anywhere.
     */
    template <typename OnAssign>
    bool
    dispatch(OnAssign &&on_assign)
    {
        size_t full_sms = 0;
        while (next_cta_ < total_ctas_ && dispatch_credit_ >= 1.0 &&
               full_sms < sms_.size()) {
            size_t s = rr_cursor_; // persistent: breadth-first survives
            rr_cursor_ = (rr_cursor_ + 1) % sms_.size(); // credit gaps
            if (sms_[s].hasFreeSlot()) {
                sms_[s].assignCta(next_cta_++);
                dispatch_credit_ -= 1.0;
                --free_slots_;
                full_sms = 0;
                on_assign(static_cast<uint32_t>(s));
            } else {
                ++full_sms;
            }
        }
        return full_sms == sms_.size();
    }

    StopController::Snapshot
    snapshot(uint64_t cycle) const
    {
        StopController::Snapshot s;
        s.cycle = cycle;
        s.finishedCtas = r_.finishedCtas;
        s.totalCtas = total_ctas_;
        s.waveSize = r_.waveSize;
        s.windowIpcMean = tracker_.windowMean();
        s.windowIpcStd = tracker_.windowStd();
        s.windowFull = tracker_.windowFull();
        return s;
    }

    /**
     * Accrue `cycles` cycles of dispatch credit, exactly as the
     * reference loop's per-cycle min(credit + rate, 2 * SMs) — the cap
     * is a fixed point, so the loop exits once saturated.
     */
    void
    accrueDispatchCredit(uint64_t cycles)
    {
        const double cap = static_cast<double>(2 * spec_.numSms);
        for (uint64_t i = 0; i < cycles; ++i) {
            dispatch_credit_ =
                std::min(dispatch_credit_ + kCtaDispatchPerCycle, cap);
            if (dispatch_credit_ >= cap)
                break;
        }
    }

    /**
     * End-of-bucket work: trace annotation, watchdog poll, fault site,
     * StopController poll, instruction-budget check. Returns true when
     * the run ends here (end_cycle_ set past `cycle`, mirroring the
     * reference loop's `++cycle; break`).
     */
    bool
    bucketSideEffects(uint64_t cycle)
    {
        // Fault site + watchdog, at the same boundaries in both cores.
        // An injected hang parks here until the watchdog trips; the poll
        // right below then reports the cancellation.
        if (auto f = pka::common::faultAt("sim.loop", fault_key_)) {
            if (*f == pka::common::FaultKind::kHang)
                pka::common::FaultInjector::instance().hang([&] {
                    return opts_.cancel && opts_.cancel->expired(cycle);
                });
            else
                throw pka::common::TaskException(
                    pka::common::ErrorKind::kSimInvariant,
                    pka::common::strfmt(
                        "injected simulator fault in kernel '%s'",
                        k_.program->name.c_str()));
        }
        if (opts_.cancel && opts_.cancel->expired(cycle + 1))
            throw pka::common::TaskException(
                opts_.cancel->reason() ==
                        CancelToken::Reason::kCancelled
                    ? pka::common::ErrorKind::kCancelled
                    : pka::common::ErrorKind::kTimeout,
                pka::common::strfmt(
                    "kernel '%s' watchdog tripped (%s) at cycle %llu",
                    k_.program->name.c_str(), opts_.cancel->reasonName(),
                    static_cast<unsigned long long>(cycle)));
        if (opts_.traceIpc) {
            MemoryModel::Counters ctr = mem_.counters();
            double d_l2 = ctr.l2Sectors - prev_ctr_.l2Sectors;
            double d_dram = ctr.dramSectors - prev_ctr_.dramSectors;
            double d_busy = ctr.dramBusy - prev_ctr_.dramBusy;
            double span = static_cast<double>(tracker_.cycles() -
                                              prev_trace_cycle_);
            tracker_.annotateLastSample(
                d_l2 > 0 ? 100.0 * d_dram / d_l2 : 0.0,
                span > 0 ? std::min(100.0, 100.0 * d_busy / span) : 0.0);
            prev_ctr_ = ctr;
            prev_trace_cycle_ = tracker_.cycles();
        }
        if (opts_.stop && opts_.stop->shouldStop(snapshot(cycle + 1))) {
            r_.stoppedEarly = true;
            end_cycle_ = cycle + 1;
            return true;
        }
        if (opts_.maxThreadInstructions > 0 &&
            r_.threadInstructions >=
                static_cast<double>(opts_.maxThreadInstructions)) {
            r_.truncatedByBudget = true;
            end_cycle_ = cycle + 1;
            return true;
        }
        return false;
    }

    /** Cycle-cap truncation at `cycle` (end_cycle_ set past it). */
    void
    capTruncate(uint64_t cycle)
    {
        if (cycle >= kHardCycleCap)
            pka::common::warn(pka::common::strfmt(
                "kernel %s exceeded the hard cycle cap; truncating",
                k_.program->name.c_str()));
        r_.truncatedByBudget = true;
        end_cycle_ = cycle + 1;
    }

    /**
     * Replay the reference core's dense ticking of the zero-activity
     * span [first, last] (dispatch phase, no effective dispatch
     * boundary, no due event): per-cycle credit accrual and countdown
     * advance, per-bucket polls, per-cycle cap check — without touching
     * any SM. Returns false when the run ended inside. Callers
     * guarantee no dispatch fires inside the span (either no slot is
     * free, so boundary cycles are state no-ops, or the span ends
     * before the next boundary), so advancing the countdown modulo the
     * quantum is exactly the reference's per-cycle increment-and-reset.
     */
    bool
    emulateDenseIdle(uint64_t first, uint64_t last)
    {
        uint64_t c = first;
        while (c <= last) {
            uint64_t to_boundary = tracker_.cyclesUntilBucketEnd();
            PKA_CHECK(cycle_cap_ >= c, "cap cycle already passed");
            uint64_t chunk = std::min(
                {last - c + 1, to_boundary, cycle_cap_ - c + 1});
            accrueDispatchCredit(chunk);
            disp_countdown_ = static_cast<uint32_t>(
                (disp_countdown_ + chunk) % dispatch_quantum_);
            tracker_.advanceIdle(chunk);
            uint64_t cyc = c + chunk - 1; // the cycle just emulated
            if (chunk == to_boundary && bucketSideEffects(cyc))
                return false;
            if (cyc >= cycle_cap_) {
                capTruncate(cyc);
                return false;
            }
            c = cyc + 1;
        }
        return true;
    }

    /** The dense cycle loop — the bit-identity reference. */
    void
    runReference()
    {
        uint64_t cycle = 0;
        while (r_.finishedCtas < total_ctas_) {
            double retired = 0.0;
            uint32_t finished_now = 0;
            for (auto &sm : sms_) {
                SmTickResult t = sm.tick(cycle);
                retired += t.threadInstsRetired;
                r_.warpInstructions += t.warpInstsIssued;
                finished_now += t.ctasFinished;
            }
            if (finished_now > 0) {
                r_.finishedCtas += finished_now;
                free_slots_ += finished_now;
            }
            if (next_cta_ < total_ctas_) {
                accrueDispatchCredit(1);
                if (++disp_countdown_ == dispatch_quantum_) {
                    disp_countdown_ = 0;
                    if (free_slots_ > 0)
                        dispatch([](uint32_t) {});
                }
            }
            r_.threadInstructions += retired;
            bool bucket_done = tracker_.push(retired);
            if (bucket_done && bucketSideEffects(cycle))
                return;
            if (cycle >= cycle_cap_) {
                capTruncate(cycle);
                return;
            }

            // Fast-forward fully idle stretches (latency-bound kernels).
            // Disabled while CTAs await dispatch so the rate limiter
            // stays cycle-accurate.
            if (retired == 0.0 && finished_now == 0 &&
                next_cta_ == total_ctas_) {
                uint64_t next_wake = UINT64_MAX;
                bool any_ready = false;
                for (const auto &sm : sms_) {
                    if (sm.hasReady()) {
                        any_ready = true;
                        break;
                    }
                    next_wake = std::min(next_wake, sm.nextWake());
                }
                if (!any_ready) {
                    PKA_CHECK(next_wake != UINT64_MAX,
                              "deadlock: no ready or pending warps");
                    if (next_wake > cycle + 1) {
                        uint64_t skip = next_wake - cycle - 1;
                        tracker_.advanceIdle(skip);
                        cycle += skip;
                    }
                }
            }
            ++cycle;
        }
        end_cycle_ = cycle;
    }

    /**
     * The event-driven loop: tick only SMs with a due event. The
     * classify/drain/validate bookkeeping lives in SmEventSet.
     */
    void
    runEventDriven()
    {
        const uint32_t n = static_cast<uint32_t>(sms_.size());
        SmEventSet ev(sms_);
        uint64_t cycle = 0;
        for (uint32_t s = 0; s < n; ++s)
            ev.refresh(s, 0); // classify SMs seeded by initial dispatch

        std::vector<uint32_t> wake_due;
        while (r_.finishedCtas < total_ctas_) {
            ev.drainDue(cycle, wake_due);
            double retired = 0.0;
            uint32_t finished_now = 0;
            // refreshAfterTick() touches only SM s's own state, so it
            // can run right after s's tick without perturbing the tick
            // order (and hence the shared memory-model access sequence).
            auto tick_sm = [&](uint32_t s) {
                SmTickResult t = sms_[s].tick(cycle);
                retired += t.threadInstsRetired;
                r_.warpInstructions += t.warpInstsIssued;
                finished_now += t.ctasFinished;
                ev.refreshAfterTick(s, cycle);
            };
            const uint32_t num_ready = ev.numReady();
            if (num_ready == n) {
                // Saturated device: every SM has a ready warp, so no
                // valid wheel entry exists (wake_due can only have held
                // stale entries, discarded by the drain). Tick densely —
                // the compute-bound hot path, where per-tick event
                // bookkeeping is pure overhead against the reference
                // loop.
                PKA_CHECK(wake_due.empty(), "valid wake on a ready SM");
                for (uint32_t s = 0; s < n; ++s)
                    tick_sm(s);
            } else if (num_ready > 0) {
                // Merge ready SMs (bitmap scan) with due wakes, both
                // ascending; a ready SM never has a valid wheel entry,
                // so the two sets are disjoint.
                size_t w = 0;
                for (uint32_t s = 0; s < n; ++s) {
                    bool woke = w < wake_due.size() && wake_due[w] == s;
                    if (woke)
                        ++w;
                    if (ev.isReady(s) || woke)
                        tick_sm(s);
                }
            } else {
                for (uint32_t s : wake_due)
                    tick_sm(s);
            }
            if (finished_now > 0) {
                r_.finishedCtas += finished_now;
                free_slots_ += finished_now;
            }
            if (next_cta_ < total_ctas_) {
                accrueDispatchCredit(1);
                if (++disp_countdown_ == dispatch_quantum_) {
                    disp_countdown_ = 0;
                    if (free_slots_ > 0)
                        dispatch(
                            [&](uint32_t s) { ev.refresh(s, cycle); });
                }
            }
            r_.threadInstructions += retired;
            bool bucket_done = tracker_.push(retired);
            if (bucket_done && bucketSideEffects(cycle))
                return;
            if (cycle >= cycle_cap_) {
                capTruncate(cycle);
                return;
            }

            if (r_.finishedCtas >= total_ctas_) {
                ++cycle; // matches the reference loop-bottom increment
                continue; // the while condition ends the run
            }

            // Pick the next cycle anything can happen at; replay the
            // reference protocol over the provably-idle span between.
            if (ev.numReady() > 0) {
                ++cycle; // some SM issues next cycle: stay dense
                continue;
            }
            if (next_cta_ < total_ctas_) {
                // Next activity: an SM wake, or — when a freed slot
                // awaits a CTA — the next dispatch boundary.
                uint64_t target = ev.nextEvent(cycle);
                if (free_slots_ > 0)
                    target = std::min(
                        target,
                        cycle + (dispatch_quantum_ - disp_countdown_));
                PKA_CHECK(target != UINT64_MAX,
                          "deadlock: no ready or pending warps");
                // The reference loop ticks these cycles densely (its
                // fast-forward is disabled during dispatch).
                if (target > cycle + 1 &&
                    !emulateDenseIdle(cycle + 1, target - 1))
                    return;
                cycle = target;
                continue;
            }
            uint64_t nw = ev.nextEvent(cycle);
            PKA_CHECK(nw != UINT64_MAX,
                      "deadlock: no ready or pending warps");
            if (nw <= cycle + 1) {
                ++cycle;
                continue;
            }
            if (retired == 0.0 && finished_now == 0) {
                // The reference fast-forward fires on this cycle:
                // silent skip, no bucket polls.
                tracker_.advanceIdle(nw - cycle - 1);
                cycle = nw;
                continue;
            }
            // After an active cycle the reference ticks exactly one
            // idle cycle (with its bucket poll and cap check), and only
            // then fast-forwards the rest of the span.
            uint64_t idle = cycle + 1;
            bool bd = tracker_.push(0.0);
            if (bd && bucketSideEffects(idle))
                return;
            if (idle >= cycle_cap_) {
                capTruncate(idle);
                return;
            }
            if (nw > idle + 1)
                tracker_.advanceIdle(nw - idle - 1);
            cycle = nw;
        }
        end_cycle_ = cycle;
    }

    const GpuSpec &spec_;
    const KernelDescriptor &k_;
    const SimOptions &opts_;
    uint64_t total_ctas_;
    uint64_t launch_salt_;
    MemoryModel mem_;
    std::vector<SmCore> sms_;
    uint64_t next_cta_ = 0;
    double dispatch_credit_ = 8.0;
    size_t rr_cursor_ = 0;
    const uint32_t dispatch_quantum_ = dispatchQuantum(spec_);
    uint32_t disp_countdown_ = 0;
    uint64_t free_slots_ = 0;
    IpcTracker tracker_;
    MemoryModel::Counters prev_ctr_;
    uint64_t prev_trace_cycle_ = 0;
    uint64_t cycle_cap_;
    uint64_t fault_key_;
    uint64_t end_cycle_ = 0;
    KernelSimResult r_;
};

} // namespace

uint64_t
launchContentHash(const KernelDescriptor &k)
{
    if (k.program == nullptr)
        throw pka::common::TaskException(pka::common::ErrorKind::kBadInput,
                                         "launch has no program");
    Fnv f;
    const auto &p = *k.program;
    f.str(p.name);
    f.u64(p.body.size());
    for (const auto &seg : p.body) {
        f.u64(static_cast<uint64_t>(seg.cls));
        f.u64(seg.count);
    }
    f.f64(p.sectorsPerAccess);
    f.f64(p.divergenceEff);
    f.f64(p.l1Locality);
    f.f64(p.l2Locality);
    f.u64(k.grid.x);
    f.u64(k.grid.y);
    f.u64(k.grid.z);
    f.u64(k.block.x);
    f.u64(k.block.y);
    f.u64(k.block.z);
    f.u64(k.regsPerThread);
    f.u64(k.smemPerBlock);
    f.u64(k.iterations);
    f.f64(k.ctaWorkCv);
    return f.h;
}

GpuSimulator::GpuSimulator(GpuSpec spec)
    : spec_(std::move(spec))
{
}

KernelSimResult
GpuSimulator::simulateKernel(pka::workload::Launch l,
                             uint64_t workload_seed,
                             const SimOptions &opts) const
{
    return KernelRun(spec_, l, workload_seed, opts).run();
}

} // namespace pka::sim
