/**
 * @file
 * Building blocks for the intra-kernel sharded simulator core: a
 * TSan-clean spin barrier for the per-epoch worker rendezvous, and the
 * per-SM event bookkeeping (ready bitmap + device-level timing wheel of
 * next-wake cycles) shared by the sequential event-driven core and the
 * per-shard worker loops.
 *
 * SmEventSet tracks a contiguous SM range [lo, hi). SMs with ready
 * warps are found by scanning the is_ready bitmap in ascending index
 * order (the reference core's tick order); only *sleeping* SMs (no
 * ready warp, earliest pending wake in the future) live in the timing
 * wheel, so wheel traffic is bounded by instructions issued rather
 * than cycles elapsed. Entries superseded by a re-arm or a dispatch
 * landing on a sleeping SM go stale; the drain/validate paths discard
 * them lazily, and a re-arm at a stale entry's own wake merges with it.
 * The wheel keys SMs by their index within the range.
 */

#ifndef PKA_SIM_SHARD_HH
#define PKA_SIM_SHARD_HH

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/logging.hh"
#include "sim/sm_core.hh"
#include "sim/timing_wheel.hh"

namespace pka::sim
{

/**
 * Sense-reversing spin/futex barrier for `parties` threads. The sharded
 * core crosses it twice per epoch (epoch start / merge start). When the
 * host has a hardware thread per party, the wait path spins hot for a
 * short while — epochs are a few microseconds, below a futex round
 * trip. When the team is oversubscribed (fewer cores than parties, so
 * some thread is always descheduled), spinning only steals cycles from
 * whoever holds the work, so waiters go straight to a futex sleep and
 * the last arrival wakes them directly.
 */
class SpinBarrier
{
  public:
    explicit SpinBarrier(uint32_t parties)
        : parties_(parties),
          spin_limit_(std::thread::hardware_concurrency() >= parties
                          ? 4096u
                          : 0u)
    {
    }

    void
    arriveAndWait()
    {
        const uint32_t gen = gen_.load(std::memory_order_acquire);
        if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            count_.store(0, std::memory_order_relaxed);
            // Release: waiters acquiring the new generation observe the
            // count reset (and everything this thread wrote before).
            gen_.fetch_add(1, std::memory_order_release);
            gen_.notify_all();
            return;
        }
        uint32_t spins = 0;
        while (gen_.load(std::memory_order_acquire) == gen) {
            if (++spins > spin_limit_)
                gen_.wait(gen, std::memory_order_acquire);
        }
    }

  private:
    std::atomic<uint32_t> count_{0};
    std::atomic<uint32_t> gen_{0};
    const uint32_t parties_;
    const uint32_t spin_limit_;
};

/**
 * Event bookkeeping for the SM range [lo, hi) of `sms`. Both simulator
 * drivers — the sequential event core over [0, n) and each shard
 * worker over its slice — run the same classify/drain/validate logic,
 * so the two cores cannot drift apart in which SMs they tick when.
 */
class SmEventSet
{
  public:
    SmEventSet(std::vector<SmCore> &sms, uint32_t lo, uint32_t hi)
        : sms_(sms), lo_(lo), hi_(hi), wheel_(hi - lo),
          sm_event_(hi - lo, UINT64_MAX), is_ready_(hi - lo, 0)
    {
    }

    /** SMs in the range with a ready warp. */
    uint32_t numReady() const { return num_ready_; }

    /** True if SM `s` (global index) has a ready warp. */
    bool isReady(uint32_t s) const { return is_ready_[s - lo_] != 0; }

    /**
     * Re-classify SM `s` after an out-of-band state change (CTA
     * assignment, parked-wake delivery): ready SMs leave the wheel,
     * sleeping SMs (re-)arm their next-wake entry. A superseded entry
     * still queued goes stale. `now` anchors wheel placement and must
     * not exceed the next cycle the owner drains at.
     */
    void
    refresh(uint32_t s, uint64_t now)
    {
        const uint32_t i = s - lo_;
        const bool ready = sms_[s].hasReady();
        if (ready != static_cast<bool>(is_ready_[i])) {
            is_ready_[i] = ready ? 1 : 0;
            if (ready)
                ++num_ready_;
            else
                --num_ready_;
        }
        const uint64_t w = ready ? UINT64_MAX : sms_[s].nextWake();
        if (w != sm_event_[i]) {
            if (sm_event_[i] != UINT64_MAX)
                ++stale_count_;
            sm_event_[i] = w;
            if (w != UINT64_MAX)
                arm(i, now, w);
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
        const uint32_t i = s - lo_;
        const bool ready = sms_[s].hasReady();
        if (ready != static_cast<bool>(is_ready_[i])) {
            is_ready_[i] = ready ? 1 : 0;
            if (ready)
                ++num_ready_;
            else
                --num_ready_;
        }
        if (!ready) {
            const uint64_t w = sms_[s].nextWake();
            if (w != sm_event_[i]) {
                sm_event_[i] = w;
                if (w != UINT64_MAX)
                    arm(i, now, w);
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
        for (uint32_t i : scratch_) {
            // Stale, or the overflow twin of a slot entry for the same
            // wake (the first copy consumed the event).
            if (sm_event_[i] != cycle) {
                --stale_count_;
                continue;
            }
            sm_event_[i] = UINT64_MAX; // consumed; re-armed later
            due.push_back(lo_ + i); // drain order: ascending s
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
            for (uint32_t i : scratch_) {
                if (sm_event_[i] == nw) {
                    arm(i, now, nw);
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
     * Queue the wake of local SM `i`. An entry the wheel already holds
     * for `i` at `w` is counted stale: one superseded earlier (a valid
     * one would have made the caller skip), or in nextEvent() the
     * overflow twin of an entry just re-queued. The wheel merges it
     * into the new entry's bit, so it leaves the stale count.
     */
    void
    arm(uint32_t i, uint64_t now, uint64_t w)
    {
        if (!wheel_.schedule(now, w, i))
            --stale_count_;
    }

    std::vector<SmCore> &sms_;
    const uint32_t lo_;
    const uint32_t hi_;
    TimingWheel wheel_; ///< sleeping SMs (local index) by next wake
    std::vector<uint64_t> sm_event_; ///< valid wheel entry per SM
    std::vector<uint8_t> is_ready_;
    std::vector<uint32_t> scratch_;
    uint32_t num_ready_ = 0;
    uint32_t stale_count_ = 0;
};

} // namespace pka::sim

#endif // PKA_SIM_SHARD_HH
