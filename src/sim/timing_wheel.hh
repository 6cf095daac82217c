/**
 * @file
 * A bucketed timing wheel for warp wake-up scheduling. Warp stalls are
 * bounded by class latency plus memory-model latency, so nearly every
 * wake lands within a small window of the current cycle: those go into
 * a power-of-two array of per-cycle slots (O(1) schedule, versus
 * O(log W) for the binary heap it replaces). Rare long waits — deep
 * memory queueing under contention — spill into a sorted overflow heap.
 *
 * Each slot is a fixed bitset over the id space [0, capacity), so
 * scheduling is one OR into a word preallocated at construction and the
 * wheel never touches the heap afterwards. The whole wheel holds
 * 2^slots_log2 × ⌈capacity/64⌉ words: 512 × 1 for an SM's warp pool
 * (≤ 64 warps on every spec), 512 × 2 for V100's 80-SM device wheel.
 *
 * Contract: the owner drains at every cycle where nextWake() is due
 * (the simulator cores tick an SM at each of its wake cycles, dense or
 * event-driven alike), so a slot only ever holds entries for a single
 * cycle. drain() walks the slot's set bits lowest first, which returns
 * due ids in ascending order without a sort — the (cycle, id) pop order
 * of the heap-based scheduler, bit for bit. An id scheduled again for a
 * wake it is already pending at merges into the one bit (schedule()
 * reports it), so it drains once.
 */

#ifndef PKA_SIM_TIMING_WHEEL_HH
#define PKA_SIM_TIMING_WHEEL_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace pka::sim
{

/** Timing wheel over ids in [0, capacity) with a sorted overflow list. */
class TimingWheel
{
  public:
    /**
     * @param capacity ids are < capacity; sizes each slot's bitset
     * @param slots_log2 wheel size; covers wakes < 2^slots_log2 ahead
     */
    explicit TimingWheel(uint32_t capacity, uint32_t slots_log2 = 9)
        : mask_((uint64_t{1} << slots_log2) - 1), capacity_(capacity),
          words_((capacity + 63) / 64),
          bits_((mask_ + 1) * words_, 0), occ_((mask_ + 1 + 63) / 64, 0)
    {
    }

    /**
     * Schedule `id` to wake at `wake` (> `now`, the current cycle).
     * Returns false when `id` was already pending in the wheel slot for
     * `wake`: the two entries merge and drain once.
     */
    bool
    schedule(uint64_t now, uint64_t wake, uint32_t id)
    {
        PKA_ASSERT(wake > now, "wake must be in the future");
        PKA_ASSERT(id < capacity_, "id beyond the wheel's capacity");
        if (wake - now > mask_) {
            overflow_.emplace(wake, id);
            return true;
        }
        const uint64_t idx = wake & mask_;
        uint64_t &word = bits_[idx * words_ + (id >> 6)];
        const uint64_t bit = uint64_t{1} << (id & 63);
        if (word & bit)
            return false;
        word |= bit;
        occ_[idx >> 6] |= uint64_t{1} << (idx & 63);
        ++wheel_count_;
        if (wake < wheel_next_)
            wheel_next_ = wake;
        return true;
    }

    /** True when nothing is scheduled. */
    bool
    empty() const
    {
        return wheel_count_ == 0 && overflow_.empty();
    }

    /** Earliest scheduled wake cycle, or UINT64_MAX when empty. */
    uint64_t
    nextWake() const
    {
        uint64_t ov =
            overflow_.empty() ? UINT64_MAX : overflow_.top().first;
        return wheel_next_ < ov ? wheel_next_ : ov;
    }

    /**
     * Pop every id due at `cycle` into `out`, ascending. Under the
     * drain-at-every-due-cycle contract all due entries wake exactly at
     * `cycle`, so the slot is taken wholesale, lowest bit first. Only a
     * drain that overflow entries join needs a sort; an id in both the
     * slot and the overflow comes out twice.
     */
    void
    drain(uint64_t cycle, std::vector<uint32_t> &out)
    {
        out.clear();
        if (wheel_next_ <= cycle) {
            const uint64_t idx = cycle & mask_;
            uint64_t *slot = &bits_[idx * words_];
            for (uint32_t w = 0; w < words_; ++w) {
                for (uint64_t word = slot[w]; word != 0;
                     word &= word - 1)
                    out.push_back((w << 6) + static_cast<uint32_t>(
                                                 std::countr_zero(word)));
                slot[w] = 0;
            }
            occ_[idx >> 6] &= ~(uint64_t{1} << (idx & 63));
            wheel_count_ -= out.size();
            wheel_next_ = wheel_count_ == 0 ? UINT64_MAX
                                            : nextOccupied(cycle);
        }
        if (overflow_.empty() || overflow_.top().first > cycle)
            return;
        do {
            out.push_back(overflow_.top().second);
            overflow_.pop();
        } while (!overflow_.empty() && overflow_.top().first <= cycle);
        std::sort(out.begin(), out.end());
    }

  private:
    /**
     * Wake cycle of the nearest occupied slot after `cycle`, found via
     * the occupancy bitmap (a handful of word scans instead of walking
     * slots one by one). Precondition: the wheel is non-empty, and
     * every pending wake lies in (cycle, cycle + mask_] — which the
     * drain-at-every-due-cycle contract guarantees.
     */
    uint64_t
    nextOccupied(uint64_t cycle) const
    {
        const uint64_t start = (cycle + 1) & mask_;
        const size_t nwords = occ_.size();
        size_t w = start >> 6;
        uint64_t word = occ_[w] & (~uint64_t{0} << (start & 63));
        for (size_t i = 0; i <= nwords; ++i) {
            if (word != 0) {
                uint64_t slot =
                    (static_cast<uint64_t>(w) << 6) +
                    static_cast<uint64_t>(std::countr_zero(word));
                return cycle + 1 + ((slot - start) & mask_);
            }
            w = w + 1 == nwords ? 0 : w + 1;
            word = occ_[w];
        }
        PKA_ASSERT(false, "nextOccupied on an empty wheel");
        return UINT64_MAX;
    }

    uint64_t mask_;
    uint32_t capacity_;
    uint32_t words_; ///< bitset words per slot
    std::vector<uint64_t> bits_; ///< slot-major: slot i's ids at [i*words_]
    std::vector<uint64_t> occ_; ///< one bit per slot: non-empty
    uint64_t wheel_count_ = 0; ///< ids pending in slots
    uint64_t wheel_next_ = UINT64_MAX; ///< exact min wake in the wheel
    using Entry = std::pair<uint64_t, uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        overflow_;
};

} // namespace pka::sim

#endif // PKA_SIM_TIMING_WHEEL_HH
