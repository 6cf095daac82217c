#include "workload/builder.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pka::workload
{

ProgramBuilder::ProgramBuilder(std::string name)
{
    prog_.name = std::move(name);
}

ProgramBuilder &
ProgramBuilder::seg(InstrClass cls, uint32_t count)
{
    if (count > 0)
        prog_.body.push_back(Segment{cls, count});
    return *this;
}

ProgramBuilder &
ProgramBuilder::mem(double sectors_per_access, double l1_locality,
                    double l2_locality)
{
    PKA_ASSERT(sectors_per_access >= 1.0 && sectors_per_access <= 32.0,
               "sectors per access must be in [1, 32]");
    prog_.sectorsPerAccess = sectors_per_access;
    prog_.l1Locality = std::clamp(l1_locality, 0.0, 1.0);
    prog_.l2Locality = std::clamp(l2_locality, 0.0, 1.0);
    return *this;
}

ProgramBuilder &
ProgramBuilder::divergence(double eff)
{
    PKA_ASSERT(eff > 0.0 && eff <= 1.0, "divergence efficiency in (0, 1]");
    prog_.divergenceEff = eff;
    return *this;
}

ProgramPtr
ProgramBuilder::build()
{
    PKA_ASSERT(!prog_.body.empty(), "program body must not be empty");
    return std::make_shared<const Program>(std::move(prog_));
}

WorkloadBuilder::WorkloadBuilder(std::string suite, std::string name,
                                 uint64_t seed, double scale)
{
    wl_.suite = std::move(suite);
    wl_.name = std::move(name);
    wl_.seed = seed;
    wl_.scale = scale;
}

WorkloadBuilder &
WorkloadBuilder::launch(ProgramPtr program, Dim3 grid, Dim3 block,
                        LaunchOpts opts)
{
    PKA_ASSERT(program != nullptr, "launch needs a program");
    PKA_ASSERT(grid.total() > 0 && block.total() > 0,
               "grid and block must be non-empty");
    PKA_ASSERT(block.total() <= 1024, "more than 1024 threads per block");
    KernelDescriptor k;
    k.program = std::move(program);
    k.grid = grid;
    k.block = block;
    k.regsPerThread = opts.regs;
    k.smemPerBlock = opts.smem;
    k.iterations = std::max<uint32_t>(1, opts.iterations);
    k.ctaWorkCv = opts.ctaWorkCv;
    k.tensorDims = std::move(opts.tensorDims);
    wl_.launches.push_back(std::move(k));
    return *this;
}

Workload
WorkloadBuilder::build()
{
    PKA_ASSERT(!wl_.launches.empty(), "workload has no launches");
    return std::move(wl_);
}

} // namespace pka::workload
