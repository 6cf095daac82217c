/**
 * @file
 * Fluent builders used by the suite generators to assemble programs and
 * kernel-launch streams.
 */

#ifndef PKA_WORKLOAD_BUILDER_HH
#define PKA_WORKLOAD_BUILDER_HH

#include <string>
#include <vector>

#include "workload/kernel.hh"

namespace pka::workload
{

/** Fluent builder for Program instances. */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::string name);

    /** Append `count` per-thread instructions of class `cls`. */
    ProgramBuilder &seg(InstrClass cls, uint32_t count);

    /** Set memory behaviour: sectors/warp-access and L1/L2 hit locality. */
    ProgramBuilder &mem(double sectors_per_access, double l1_locality,
                        double l2_locality);

    /** Set average active-thread fraction per warp instruction. */
    ProgramBuilder &divergence(double eff);

    /** Finalize into a shared immutable program. */
    ProgramPtr build();

  private:
    Program prog_;
};

/** Options for a single launch added through WorkloadBuilder. */
struct LaunchOpts
{
    uint16_t regs = 32;
    uint32_t smem = 0;
    uint32_t iterations = 1;
    double ctaWorkCv = 0.0;
    std::vector<uint32_t> tensorDims;
};

/** Fluent builder for Workload launch streams. */
class WorkloadBuilder
{
  public:
    WorkloadBuilder(std::string suite, std::string name, uint64_t seed,
                    double scale = 1.0);

    /** Append one launch; its id is its position in the stream. */
    WorkloadBuilder &launch(ProgramPtr program, Dim3 grid, Dim3 block,
                            LaunchOpts opts = {});

    /** Number of launches added so far. */
    size_t size() const { return wl_.launches.size(); }

    /** Finalize the workload. */
    Workload build();

  private:
    Workload wl_;
};

} // namespace pka::workload

#endif // PKA_WORKLOAD_BUILDER_HH
