#include "sim/sm_core.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "sim/trace.hh"

namespace pka::sim
{

using pka::workload::InstrClass;
using pka::workload::KernelDescriptor;

SmCore::SmCore(const pka::silicon::GpuSpec &spec, const KernelDescriptor &k,
               MemoryModel &mem, uint64_t workload_seed,
               uint32_t max_resident_ctas, SchedulerPolicy policy,
               const std::vector<uint32_t> *cta_iterations,
               uint64_t launch_salt)
    : spec_(spec), k_(k), mem_(mem), seed_(workload_seed),
      launch_salt_(launch_salt),
      wheel_(max_resident_ctas * static_cast<uint32_t>(k.warpsPerCta())),
      policy_(policy), trace_iters_(cta_iterations)
{
    PKA_ASSERT(max_resident_ctas > 0, "SM needs at least one CTA slot");
    const uint32_t warps_per_cta = static_cast<uint32_t>(k.warpsPerCta());
    const uint32_t pool = max_resident_ctas * warps_per_cta;
    rem_iters_.resize(pool);
    seg_idx_.resize(pool);
    seg_rem_.resize(pool);
    cta_slot_.resize(pool);
    age_.resize(pool);
    slot_live_warps_.assign(max_resident_ctas, 0);
    free_slot_ids_.reserve(max_resident_ctas);
    for (uint16_t s = 0; s < max_resident_ctas; ++s)
        free_slot_ids_.push_back(s);
    free_warp_ids_.reserve(pool);
    for (uint32_t wi = 0; wi < pool; ++wi)
        free_warp_ids_.push_back(wi);
    retire_per_inst_ = 32.0 * k.program->divergenceEff;
}

void
SmCore::assignCta(uint64_t cta_id)
{
    PKA_ASSERT(hasFreeSlot(), "assignCta without a free slot");
    uint16_t slot = free_slot_ids_.back();
    free_slot_ids_.pop_back();

    // Data-dependent per-CTA work: from the trace when replaying one,
    // otherwise resolved from the workload seed.
    uint32_t iters =
        trace_iters_
            ? (*trace_iters_)[cta_id]
            : resolveCtaIterations(k_, seed_, cta_id, launch_salt_);

    const uint32_t warps_per_cta = static_cast<uint32_t>(k_.warpsPerCta());
    slot_live_warps_[slot] = warps_per_cta;
    for (uint32_t w = 0; w < warps_per_cta; ++w) {
        PKA_ASSERT(!free_warp_ids_.empty(), "warp pool exhausted");
        uint32_t wi = free_warp_ids_.back();
        free_warp_ids_.pop_back();
        rem_iters_[wi] = iters;
        seg_idx_[wi] = 0;
        seg_rem_[wi] = k_.program->body.front().count;
        cta_slot_[wi] = slot;
        age_[wi] = next_age_++;
        makeReady(wi);
        ++live_warps_;
    }
}

uint64_t
SmCore::localStall(InstrClass cls) const
{
    if (cls == InstrClass::Sync)
        // Barrier skew approximation: scales with CTA width.
        return static_cast<uint64_t>(
            spec_.classLatency[static_cast<size_t>(cls)] +
            k_.warpsPerCta());
    // Instruction-level parallelism: ~2 independent instructions in
    // flight per warp hide half the pipe latency.
    return static_cast<uint64_t>(std::max(
        2.0, spec_.classLatency[static_cast<size_t>(cls)] / 2.0));
}

SmTickResult
SmCore::tick(uint64_t cycle)
{
    SmTickResult r;
    // Wake stalled warps whose operands arrived; their in-flight
    // instruction retires now (retire-at-completion keeps the IPC signal
    // free of dispatch-burst artifacts). The wheel drains in ascending
    // warp order, matching the (cycle, warp) pop order of the wake heap
    // it replaced, so LRR issue order is unchanged.
    wheel_.drain(cycle, wake_scratch_);
    for (uint32_t wi : wake_scratch_) {
        makeReady(wi);
        r.threadInstsRetired += retire_per_inst_;
    }

    const auto &body = k_.program->body;
    for (uint32_t slot_issue = 0;
         slot_issue < spec_.issueWidth && hasReady(); ++slot_issue) {
        uint32_t wi = popReady();

        InstrClass cls = body[seg_idx_[wi]].cls;
        ++r.warpInstsIssued;

        // Advance the warp's position in its program.
        bool done = false;
        if (--seg_rem_[wi] == 0) {
            if (++seg_idx_[wi] == body.size()) {
                seg_idx_[wi] = 0;
                if (--rem_iters_[wi] == 0)
                    done = true;
            }
            seg_rem_[wi] = body[seg_idx_[wi]].count;
        }

        if (done) {
            // The final instruction retires at issue: the warp leaves the
            // machine and has no wake event to carry the credit.
            r.threadInstsRetired += retire_per_inst_;
            --live_warps_;
            free_warp_ids_.push_back(wi);
            uint16_t slot = cta_slot_[wi];
            PKA_ASSERT(slot_live_warps_[slot] > 0, "CTA underflow");
            if (--slot_live_warps_[slot] == 0) {
                ++r.ctasFinished;
                free_slot_ids_.push_back(slot);
            }
        }

        if (isMemClass(cls)) {
            // Memory traffic is charged even for a final instruction
            // (the access is in flight when the warp retires).
            uint64_t lat = mem_.access(*k_.program, cycle);
            if (!done)
                wheel_.schedule(cycle, cycle + memStall(cls, lat), wi);
        } else if (!done) {
            wheel_.schedule(cycle, cycle + localStall(cls), wi);
        }
    }
    return r;
}

void
SmCore::makeReady(uint32_t warp_idx)
{
    ++ready_count_;
    if (policy_ == SchedulerPolicy::Gto)
        ready_by_age_.emplace(age_[warp_idx], warp_idx);
    else
        ready_.push_back(warp_idx);
}

uint32_t
SmCore::popReady()
{
    --ready_count_;
    if (policy_ == SchedulerPolicy::Gto) {
        uint32_t wi = ready_by_age_.top().second;
        ready_by_age_.pop();
        return wi;
    }
    uint32_t wi = ready_.front();
    ready_.pop_front();
    return wi;
}

} // namespace pka::sim
