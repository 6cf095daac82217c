#include "silicon/silicon_gpu.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pka::silicon
{

using pka::common::Rng;
using pka::workload::InstrClass;
using pka::workload::KernelDescriptor;
using pka::workload::Workload;

double
AppExecution::avgDramUtilPct() const
{
    double weighted = 0.0;
    for (const auto &l : launches)
        weighted += l.dramUtilPct * static_cast<double>(l.cycles);
    return totalCycles == 0 ? 0.0
                            : weighted / static_cast<double>(totalCycles);
}

SiliconGpu::SiliconGpu(GpuSpec spec)
    : spec_(std::move(spec))
{
}

ConfigModel
SiliconGpu::model(const KernelDescriptor &k) const
{
    PKA_ASSERT(k.program != nullptr, "launch has no program");
    const auto &prog = *k.program;

    const uint32_t occ = maxCtasPerSm(spec_, k);
    const uint64_t ctas = k.numCtas();
    const uint64_t warps_per_cta = k.warpsPerCta();
    const uint64_t sms_busy =
        std::min<uint64_t>(spec_.numSms, std::max<uint64_t>(1, ctas));
    const double waves =
        static_cast<double>(ctas) /
        (static_cast<double>(occ) * static_cast<double>(spec_.numSms));
    const double resident_warps =
        static_cast<double>(std::min<uint64_t>(
            occ * warps_per_cta,
            std::min<uint64_t>(spec_.maxWarpsPerSm,
                               (ctas * warps_per_cta + sms_busy - 1) /
                                   sms_busy)));

    // Per-SM work (warp instructions), balanced over the busy SMs.
    const uint64_t total_warp_insts = k.totalWarpInstructions();
    const double warp_insts_per_sm =
        static_cast<double>(total_warp_insts) /
        static_cast<double>(sms_busy);

    // Expected memory latency per global access given locality. Hit rates
    // are de-rated by the cold-start warm-up the caches experience over
    // the kernel (mirroring the simulator's warm(a) = a / (a + W) model
    // averaged over all accesses).
    double global_accesses_per_iter = 0.0;
    for (const auto &seg : prog.body)
        if (pka::workload::isGlobalMemClass(seg.cls))
            global_accesses_per_iter += seg.count;
    const double total_accesses =
        global_accesses_per_iter * k.iterations *
        static_cast<double>(warps_per_cta) * static_cast<double>(ctas);
    constexpr double kWarmupAccesses = 5000.0;
    const double avg_warm =
        total_accesses > 0.0
            ? 1.0 - (kWarmupAccesses / total_accesses) *
                        std::log1p(total_accesses / kWarmupAccesses)
            : 1.0;
    const double l1_hit = prog.l1Locality * std::max(0.0, avg_warm);
    const double l2_hit =
        prog.l2Locality * (0.25 + 0.75 * std::max(0.0, avg_warm));
    const double mem_lat =
        l1_hit * spec_.l1LatencyCycles +
        (1.0 - l1_hit) * (l2_hit * spec_.l2LatencyCycles +
                          (1.0 - l2_hit) * spec_.dramLatencyCycles);

    // Average issue-to-ready stall per warp instruction.
    double weight_sum = 0.0;
    double stall_sum = 0.0;
    for (const auto &seg : prog.body) {
        double lat =
            spec_.classLatency[static_cast<size_t>(seg.cls)];
        if (seg.cls == InstrClass::GlobalLoad ||
            seg.cls == InstrClass::LocalLoad ||
            seg.cls == InstrClass::GlobalAtomic) {
            lat = mem_lat * prog.sectorsPerAccess /
                  std::max(1.0, prog.sectorsPerAccess * 0.5);
        }
        stall_sum += lat * seg.count;
        weight_sum += seg.count;
    }
    const double avg_stall = weight_sum > 0 ? stall_sum / weight_sum : 4.0;

    // Bound 1: SM front-end issue rate, latency-hiding limited.
    const double issue_rate =
        std::min(static_cast<double>(spec_.issueWidth),
                 resident_warps / std::max(1.0, avg_stall / 8.0));
    double cycles_per_sm = warp_insts_per_sm / std::max(0.05, issue_rate);

    // Bound 2: per-class pipe throughput.
    for (size_t c = 0; c < pka::workload::kNumInstrClasses; ++c) {
        double per_iter = static_cast<double>(
            prog.classInstrsPerIteration(static_cast<InstrClass>(c)));
        if (per_iter <= 0)
            continue;
        double insts_per_sm = per_iter * k.iterations *
                              static_cast<double>(warps_per_cta) *
                              static_cast<double>(ctas) /
                              static_cast<double>(sms_busy);
        double tp = std::max(0.05, spec_.classThroughput[c]);
        cycles_per_sm = std::max(cycles_per_sm, insts_per_sm / tp);
    }

    // Bound 3: device-wide DRAM and L2 bandwidth.
    const double sectors = total_accesses * prog.sectorsPerAccess;
    const double l2_sectors = sectors * (1.0 - l1_hit);
    const double dram_sectors = l2_sectors * (1.0 - l2_hit);
    const double l2_bytes = l2_sectors * 32.0;
    const double dram_bytes = dram_sectors * 32.0;
    const double mem_cycles =
        std::max(dram_bytes / spec_.dramBytesPerClk(),
                 l2_bytes / spec_.l2BandwidthBytesPerClk);

    double busy_cycles = std::max(cycles_per_sm, mem_cycles);

    // Wave quantization: partial final waves leave SMs idle but still pay
    // nearly a full wave of time when per-CTA runtimes are uniform.
    if (ctas > static_cast<uint64_t>(occ) * spec_.numSms) {
        const double wave_quant = std::ceil(waves) / waves;
        busy_cycles *= 1.0 + 0.6 * (wave_quant - 1.0);
    }

    // Ramp-up/drain plus launch overhead.
    ConfigModel m;
    m.cycles = busy_cycles + avg_stall + spec_.launchOverheadCycles;

    // Data-dependent jitter (applied per launch by jitter()): identical
    // across GPU generations, stronger for irregular kernels. Stragglers
    // additionally stretch irregular kernels with few CTAs per wave.
    m.sigma = 0.02 + 0.10 * k.ctaWorkCv;
    if (k.ctaWorkCv > 0.0) {
        const double per_wave_ctas = static_cast<double>(
            std::min<uint64_t>(ctas, static_cast<uint64_t>(occ) *
                                         spec_.numSms));
        m.straggler = 1.0 + 0.5 * k.ctaWorkCv / std::sqrt(per_wave_ctas);
    }

    m.threadInsts =
        static_cast<double>(total_warp_insts) * 32.0 * prog.divergenceEff;
    m.dramBytes = dram_bytes;
    m.l2MissPct = l2_sectors > 0 ? 100.0 * dram_sectors / l2_sectors : 0.0;
    return m;
}

KernelExecution
SiliconGpu::jitter(const ConfigModel &m, uint64_t workload_seed,
                   uint32_t launch_id) const
{
    Rng jrng = Rng::forKey(workload_seed, launch_id, 0x51C0);
    double cycles = m.cycles;
    cycles *= jrng.jitter(m.sigma);
    // Multiplying by a straggler of exactly 1.0 (regular kernels) leaves
    // the cycles unchanged bit for bit.
    cycles *= m.straggler;

    KernelExecution r;
    r.cycles = static_cast<uint64_t>(std::max(1.0, cycles));
    r.seconds = static_cast<double>(r.cycles) /
                (spec_.coreClockGhz * 1e9);
    r.threadIpc = m.threadInsts / static_cast<double>(r.cycles);
    r.dramUtilPct = 100.0 * m.dramBytes /
                    (spec_.dramBytesPerClk() *
                     static_cast<double>(r.cycles));
    r.dramUtilPct = std::min(r.dramUtilPct, 100.0);
    r.l2MissPct = m.l2MissPct;
    return r;
}

AppExecution
SiliconGpu::run(const Workload &w) const
{
    AppExecution app;
    app.launches.reserve(w.launches.size());
    forEachLaunch(w, w.launches.size(),
                  [&app](size_t, const KernelExecution &e) {
                      app.totalCycles += e.cycles;
                      app.totalSeconds += e.seconds;
                      app.launches.push_back(e);
                  });
    return app;
}

} // namespace pka::silicon
