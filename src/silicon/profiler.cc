#include "silicon/profiler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pka::silicon
{

using pka::common::Rng;
using pka::workload::InstrClass;
using pka::workload::KernelDescriptor;
using pka::workload::Workload;

std::array<double, KernelMetrics::kCount>
KernelMetrics::toArray() const
{
    return {coalescedGlobalLoads, coalescedGlobalStores,
            coalescedLocalLoads, threadGlobalLoads, threadGlobalStores,
            threadLocalLoads, threadSharedLoads, threadSharedStores,
            threadGlobalAtomics, instructions, divergenceEff, numCtas};
}

const char *
KernelMetrics::name(size_t i)
{
    static const char *names[KernelMetrics::kCount] = {
        "coalesced_global_loads", "coalesced_global_stores",
        "coalesced_local_loads", "thread_global_loads",
        "thread_global_stores", "thread_local_loads",
        "thread_shared_loads", "thread_shared_stores",
        "thread_global_atomics", "instructions", "divergence_eff",
        "num_ctas"};
    PKA_ASSERT(i < KernelMetrics::kCount, "metric index out of range");
    return names[i];
}

KernelMetrics
deriveKernelMetrics(const KernelDescriptor &k)
{
    const auto &prog = *k.program;
    const double warp_execs =
        static_cast<double>(k.numCtas()) *
        static_cast<double>(k.warpsPerCta()) * k.iterations;
    auto cls = [&](InstrClass c) {
        return warp_execs *
               static_cast<double>(prog.classInstrsPerIteration(c));
    };

    KernelMetrics m;
    m.threadGlobalLoads = cls(InstrClass::GlobalLoad);
    m.threadGlobalStores = cls(InstrClass::GlobalStore);
    m.threadLocalLoads = cls(InstrClass::LocalLoad);
    m.threadSharedLoads = cls(InstrClass::SharedLoad);
    m.threadSharedStores = cls(InstrClass::SharedStore);
    m.threadGlobalAtomics = cls(InstrClass::GlobalAtomic);
    m.coalescedGlobalLoads =
        m.threadGlobalLoads * prog.sectorsPerAccess;
    m.coalescedGlobalStores =
        m.threadGlobalStores * prog.sectorsPerAccess;
    m.coalescedLocalLoads = m.threadLocalLoads * prog.sectorsPerAccess;
    m.instructions =
        warp_execs * static_cast<double>(prog.instrsPerIteration());
    m.divergenceEff = 32.0 * prog.divergenceEff;
    m.numCtas = static_cast<double>(k.numCtas());
    return m;
}

namespace
{

/** Apply a small deterministic measurement noise to all counters. */
void
addMeasurementNoise(KernelMetrics &m, uint64_t seed, uint32_t launch_id)
{
    Rng rng = Rng::forKey(seed, launch_id, 0x0ECF);
    auto n = [&rng](double &v) {
        if (v > 0)
            v *= 1.0 + rng.normal(0.0, 0.004);
    };
    n(m.coalescedGlobalLoads);
    n(m.coalescedGlobalStores);
    n(m.coalescedLocalLoads);
    n(m.threadGlobalLoads);
    n(m.threadGlobalStores);
    n(m.threadLocalLoads);
    n(m.threadSharedLoads);
    n(m.threadSharedStores);
    n(m.threadGlobalAtomics);
    n(m.instructions);
}

} // namespace

DetailedProfiler::DetailedProfiler(const SiliconGpu &gpu)
    : gpu_(gpu)
{
}

std::vector<DetailedProfile>
DetailedProfiler::profile(const Workload &w, size_t max_kernels) const
{
    size_t count = w.launches.size();
    if (max_kernels > 0)
        count = std::min(count, max_kernels);
    // Per configuration: its silicon model and noise-free counters.
    struct ConfigProfile
    {
        ConfigModel model;
        KernelMetrics metrics;
        const std::string *name;
    };
    std::vector<DetailedProfile> out;
    out.reserve(count);
    w.launches.forEachLaunch(
        count,
        [this](const KernelDescriptor &k) {
            return ConfigProfile{gpu_.model(k), deriveKernelMetrics(k),
                                 &k.program->name};
        },
        [&](size_t i, const ConfigProfile &c) {
            DetailedProfile p;
            p.launchId = static_cast<uint32_t>(i);
            p.kernelName = *c.name;
            p.metrics = c.metrics;
            addMeasurementNoise(p.metrics, w.seed, p.launchId);
            p.cycles = gpu_.jitter(c.model, w.seed, p.launchId).cycles;
            out.push_back(std::move(p));
        });
    return out;
}

DetailedProfile
DetailedProfiler::profileLaunch(const Workload &w, size_t index) const
{
    PKA_ASSERT(index < w.launches.size(), "launch index out of range");
    const pka::workload::Launch l = w.launches[index];
    DetailedProfile p;
    p.launchId = l.launchId;
    p.kernelName = l.config.program->name;
    p.metrics = deriveKernelMetrics(l.config);
    addMeasurementNoise(p.metrics, w.seed, l.launchId);
    p.cycles = gpu_.execute(l, w.seed).cycles;
    return p;
}

double
DetailedProfiler::costSeconds(const Workload &w, size_t max_kernels) const
{
    size_t count = w.launches.size();
    if (max_kernels > 0)
        count = std::min(count, max_kernels);
    double cost = 0.0;
    gpu_.forEachLaunch(w, count, [&cost](size_t, const KernelExecution &e) {
        cost += kPerKernelOverheadSec + kReplayFactor * e.seconds;
    });
    return cost;
}

LightweightProfiler::LightweightProfiler(const SiliconGpu &gpu)
    : gpu_(gpu)
{
}

std::vector<LightProfile>
LightweightProfiler::profile(const Workload &w) const
{
    std::vector<LightProfile> out;
    out.reserve(w.launches.size());
    for (const auto l : w.launches) {
        LightProfile p;
        p.launchId = l.launchId;
        p.kernelName = l.config.program->name;
        p.grid = l.config.grid;
        p.block = l.config.block;
        p.tensorDims = l.config.tensorDims;
        out.push_back(std::move(p));
    }
    return out;
}

double
LightweightProfiler::costSeconds(const Workload &w) const
{
    double app = 0.0;
    gpu_.forEachLaunch(w, w.launches.size(),
                       [&app](size_t, const KernelExecution &e) {
                           app += e.seconds;
                       });
    return app * 1.15 + 2e-6 * static_cast<double>(w.launches.size());
}

} // namespace pka::silicon
