#include "workload/kernel.hh"

#include <bit>
#include <limits>
#include <unordered_set>

#include "common/logging.hh"

namespace pka::workload
{

const char *
instrClassName(InstrClass cls)
{
    switch (cls) {
      case InstrClass::IntAlu: return "int_alu";
      case InstrClass::FpAlu: return "fp_alu";
      case InstrClass::Sfu: return "sfu";
      case InstrClass::Tensor: return "tensor";
      case InstrClass::GlobalLoad: return "global_ld";
      case InstrClass::GlobalStore: return "global_st";
      case InstrClass::LocalLoad: return "local_ld";
      case InstrClass::LocalStore: return "local_st";
      case InstrClass::SharedLoad: return "shared_ld";
      case InstrClass::SharedStore: return "shared_st";
      case InstrClass::GlobalAtomic: return "global_atom";
      case InstrClass::Branch: return "branch";
      case InstrClass::Sync: return "sync";
      default: break;
    }
    pka::common::panic("unknown instruction class");
}

bool
isGlobalMemClass(InstrClass cls)
{
    return cls == InstrClass::GlobalLoad || cls == InstrClass::GlobalStore ||
           cls == InstrClass::LocalLoad || cls == InstrClass::LocalStore ||
           cls == InstrClass::GlobalAtomic;
}

uint64_t
Program::instrsPerIteration() const
{
    uint64_t n = 0;
    for (const auto &s : body)
        n += s.count;
    return n;
}

uint64_t
Program::classInstrsPerIteration(InstrClass cls) const
{
    uint64_t n = 0;
    for (const auto &s : body)
        if (s.cls == cls)
            n += s.count;
    return n;
}

uint64_t
KernelDescriptor::totalThreadInstructions() const
{
    PKA_ASSERT(program != nullptr, "launch has no program");
    return totalThreads() * iterations * program->instrsPerIteration();
}

uint64_t
KernelDescriptor::totalWarpInstructions() const
{
    PKA_ASSERT(program != nullptr, "launch has no program");
    return numCtas() * warpsPerCta() * iterations *
           program->instrsPerIteration();
}

namespace
{

/** Configurations equal bit for bit (see LaunchStream). */
bool
sameConfiguration(const KernelDescriptor &a, const KernelDescriptor &b)
{
    return a.program == b.program && a.grid == b.grid &&
           a.block == b.block && a.regsPerThread == b.regsPerThread &&
           a.smemPerBlock == b.smemPerBlock && a.iterations == b.iterations &&
           std::bit_cast<uint64_t>(a.ctaWorkCv) ==
               std::bit_cast<uint64_t>(b.ctaWorkCv) &&
           a.tensorDims == b.tensorDims;
}

/** Hash of every field sameConfiguration compares. */
uint64_t
configHash(const KernelDescriptor &k)
{
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](uint64_t v) {
        h = (h ^ v) * 0x100000001B3ULL;
        h ^= h >> 29;
    };
    mix(reinterpret_cast<uintptr_t>(k.program.get()));
    mix(k.grid.x);
    mix(k.grid.y);
    mix(k.grid.z);
    mix(k.block.x);
    mix(k.block.y);
    mix(k.block.z);
    mix(k.regsPerThread);
    mix(k.smemPerBlock);
    mix(k.iterations);
    mix(std::bit_cast<uint64_t>(k.ctaWorkCv));
    mix(k.tensorDims.size());
    for (uint32_t d : k.tensorDims)
        mix(d);
    return h;
}

} // namespace

uint32_t
LaunchStream::intern(KernelDescriptor k)
{
    const uint64_t h = configHash(k);
    auto [lo, hi] = lookup_.equal_range(h);
    for (auto it = lo; it != hi; ++it)
        if (sameConfiguration(configs_[it->second], k))
            return it->second;
    const auto c = static_cast<uint32_t>(configs_.size());
    configs_.push_back(std::move(k));
    lookup_.emplace(h, c);
    return c;
}

void
LaunchStream::push_back(KernelDescriptor k)
{
    PKA_ASSERT(index_.size() < std::numeric_limits<uint32_t>::max(),
               "launch stream reached 2^32 launches");
    index_.push_back(intern(std::move(k)));
}

void
LaunchStream::replace(size_t i, KernelDescriptor k)
{
    PKA_ASSERT(i < index_.size(), "launch index out of range");
    index_[i] = intern(std::move(k));
}

std::vector<uint64_t>
LaunchStream::launchCounts() const
{
    std::vector<uint64_t> n(configs_.size(), 0);
    for (uint32_t c : index_)
        ++n[c];
    return n;
}

uint64_t
Workload::totalThreadInstructions() const
{
    const std::vector<uint64_t> n = launches.launchCounts();
    uint64_t total = 0;
    for (size_t c = 0; c < n.size(); ++c)
        if (n[c] > 0)
            total += n[c] * launches.configs()[c].totalThreadInstructions();
    return total;
}

uint64_t
Workload::totalWarpInstructions() const
{
    const std::vector<uint64_t> n = launches.launchCounts();
    uint64_t total = 0;
    for (size_t c = 0; c < n.size(); ++c)
        if (n[c] > 0)
            total += n[c] * launches.configs()[c].totalWarpInstructions();
    return total;
}

size_t
Workload::distinctPrograms() const
{
    const std::vector<uint64_t> n = launches.launchCounts();
    std::unordered_set<const Program *> set;
    for (size_t c = 0; c < n.size(); ++c)
        if (n[c] > 0)
            set.insert(launches.configs()[c].program.get());
    return set.size();
}

} // namespace pka::workload
