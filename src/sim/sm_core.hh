/**
 * @file
 * A streaming multiprocessor: resident CTA slots, warp contexts, a
 * ready/pending warp scheduler, and per-instruction timing. Per-cycle cost
 * is O(issue width) plus timing-wheel maintenance, so simulation cost
 * scales with instructions executed rather than cycles x warps.
 *
 * Warp state is laid out structure-of-arrays: the program-position
 * fields the issue loop touches every instruction (remaining iterations,
 * segment index, segment remainder) live in dense hot arrays, while the
 * fields only read on CTA retirement or scheduling decisions (CTA slot,
 * GTO age) sit apart — the tick loop streams through cache lines of
 * nothing but the data it mutates.
 */

#ifndef PKA_SIM_SM_CORE_HH
#define PKA_SIM_SM_CORE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "silicon/gpu_spec.hh"
#include "sim/memory_model.hh"
#include "sim/timing_wheel.hh"
#include "workload/kernel.hh"

namespace pka::sim
{

/** Warp scheduling policy. */
enum class SchedulerPolicy : uint8_t
{
    Lrr, ///< loose round-robin: ready warps issue in wake order
    Gto, ///< greedy-then-oldest: oldest resident warp issues first
};

/** Per-cycle SM outcome. */
struct SmTickResult
{
    double threadInstsRetired = 0.0;
    uint32_t warpInstsIssued = 0;
    uint32_t ctasFinished = 0;
};

/**
 * One SM executing warps of a single kernel launch. The owning simulator
 * assigns CTAs into free slots and calls tick() on every device cycle
 * the SM has work due (the dense reference core simply calls it every
 * cycle; a tick with nothing ready and no due wake is a no-op).
 */
class SmCore
{
  public:
    /**
     * @param max_resident_ctas occupancy limit for this kernel
     * @param cta_iterations optional traced per-CTA trip counts; when
     *        null, trip counts are resolved from the workload seed
     * @param launch_salt per-launch RNG salt for data-dependent CTA
     *        work (launch id, or the content hash under content
     *        seeding)
     */
    SmCore(const pka::silicon::GpuSpec &spec,
           const pka::workload::KernelDescriptor &k, MemoryModel &mem,
           uint64_t workload_seed, uint32_t max_resident_ctas,
           SchedulerPolicy policy = SchedulerPolicy::Lrr,
           const std::vector<uint32_t> *cta_iterations = nullptr,
           uint64_t launch_salt = 0);

    /** True if another CTA can be made resident. */
    bool hasFreeSlot() const { return !free_slot_ids_.empty(); }

    /** Make CTA `cta_id` resident; its warps become ready immediately. */
    void assignCta(uint64_t cta_id);

    /** Advance one cycle. */
    SmTickResult tick(uint64_t cycle);

    /** True while any warp is resident. */
    bool busy() const { return live_warps_ > 0; }

    /** True if a warp could issue this cycle. */
    bool hasReady() const { return ready_count_ != 0; }

    /** Earliest pending wake cycle, or UINT64_MAX when none pending. */
    uint64_t nextWake() const { return wheel_.nextWake(); }

    /** CTA slots currently free. */
    uint32_t freeSlotCount() const
    {
        return static_cast<uint32_t>(free_slot_ids_.size());
    }

    /**
     * Test hook: seed the GTO age counter, e.g. near 2^32 to pin the
     * regression where a 32-bit counter wrapped on long kernels and
     * corrupted oldest-first priority.
     */
    void seedAgeCounter(uint64_t v) { next_age_ = v; }

    /**
     * Warp stall for a memory instruction of class `cls` whose access
     * latency came back as `lat`.
     */
    static uint64_t
    memStall(pka::workload::InstrClass cls, uint64_t lat)
    {
        using pka::workload::InstrClass;
        if (cls == InstrClass::GlobalAtomic)
            return std::max<uint64_t>(4, lat / 2); // partly serialized
        if (isStoreClass(cls))
            return 4; // write-back: traffic charged, little warp stall
        // Loads overlap within a warp (MLP ~6 outstanding requests).
        return std::max<uint64_t>(2, lat / 6);
    }

  private:
    /** Move a woken/new warp into the ready structure. */
    void makeReady(uint32_t warp_idx);

    /** Pop the next warp to issue; requires hasReady(). */
    uint32_t popReady();

    /** True for instruction classes that access the memory model. */
    static bool isMemClass(pka::workload::InstrClass cls)
    {
        using pka::workload::InstrClass;
        return cls == InstrClass::GlobalLoad ||
               cls == InstrClass::LocalLoad ||
               cls == InstrClass::GlobalAtomic ||
               cls == InstrClass::GlobalStore ||
               cls == InstrClass::LocalStore;
    }

    /** True for the memory classes whose warp stall is a fixed 4. */
    static bool isStoreClass(pka::workload::InstrClass cls)
    {
        using pka::workload::InstrClass;
        return cls == InstrClass::GlobalStore ||
               cls == InstrClass::LocalStore;
    }

    /** Stall for a non-memory instruction of class `cls` (pure). */
    uint64_t localStall(pka::workload::InstrClass cls) const;

    const pka::silicon::GpuSpec &spec_;
    const pka::workload::KernelDescriptor &k_;
    MemoryModel &mem_;
    uint64_t seed_;
    uint64_t launch_salt_;

    // Warp state, structure-of-arrays. Hot: touched per issued
    // instruction. Cold: touched on retirement/scheduling only.
    std::vector<uint32_t> rem_iters_; ///< hot: loop trips left
    std::vector<uint32_t> seg_idx_;   ///< hot: current program segment
    std::vector<uint32_t> seg_rem_;   ///< hot: instructions left in it
    std::vector<uint16_t> cta_slot_;  ///< cold: owning CTA slot
    std::vector<uint64_t> age_;       ///< cold: GTO assignment sequence

    std::vector<uint32_t> slot_live_warps_;
    std::vector<uint16_t> free_slot_ids_;
    std::vector<uint32_t> free_warp_ids_;
    std::deque<uint32_t> ready_; ///< LRR ready queue
    using AgeEntry = std::pair<uint64_t, uint32_t>;
    std::priority_queue<AgeEntry, std::vector<AgeEntry>,
                        std::greater<AgeEntry>>
        ready_by_age_;         ///< GTO ready set (oldest first)
    TimingWheel wheel_;        ///< pending warps keyed by wake cycle
    std::vector<uint32_t> wake_scratch_; ///< drain buffer, reused
    SchedulerPolicy policy_;
    const std::vector<uint32_t> *trace_iters_;
    uint64_t next_age_ = 0; ///< 64-bit: never wraps within a kernel
    uint32_t live_warps_ = 0;
    uint32_t ready_count_ = 0; ///< warps in the ready structure
    double retire_per_inst_; ///< thread insts per warp inst (divergence)
};

} // namespace pka::sim

#endif // PKA_SIM_SM_CORE_HH
