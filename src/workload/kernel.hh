/**
 * @file
 * The workload intermediate representation.
 *
 * A GPU application is modeled as a chronological stream of kernel launches
 * (`Workload`). Each launch is a launch configuration (`KernelDescriptor`)
 * at a position in the stream: a `Program` — the kernel *code identity* —
 * plus launch parameters: grid/block dimensions, per-thread loop trip
 * count, resource usage and irregularity knobs. The stream
 * (`LaunchStream`) stores each distinct configuration once plus one 32-bit
 * configuration index per launch, and a launch's id is its position.
 * Programs are deliberately compact: a list of per-iteration
 * instruction-class segments plus memory-behaviour parameters, which is
 * exactly the information the paper's Table-2 microarchitecture-agnostic
 * counters are derived from.
 */

#ifndef PKA_WORKLOAD_KERNEL_HH
#define PKA_WORKLOAD_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace pka::workload
{

/** CUDA-style 3D extent. */
struct Dim3
{
    uint32_t x = 1;
    uint32_t y = 1;
    uint32_t z = 1;

    uint64_t total() const
    {
        return static_cast<uint64_t>(x) * y * z;
    }

    bool operator==(const Dim3 &) const = default;
};

/** Instruction classes modeled by the simulator and profilers. */
enum class InstrClass : uint8_t
{
    IntAlu,       ///< integer ALU op
    FpAlu,        ///< single/double FP op
    Sfu,          ///< special function (transcendental)
    Tensor,       ///< tensor-core MMA
    GlobalLoad,   ///< global-memory load
    GlobalStore,  ///< global-memory store
    LocalLoad,    ///< local-memory (spill) load
    LocalStore,   ///< local-memory (spill) store
    SharedLoad,   ///< shared-memory load
    SharedStore,  ///< shared-memory store
    GlobalAtomic, ///< global atomic
    Branch,       ///< branch/control
    Sync,         ///< barrier
    NumClasses
};

/** Number of modeled instruction classes. */
constexpr size_t kNumInstrClasses =
    static_cast<size_t>(InstrClass::NumClasses);

/** Human-readable instruction class name. */
const char *instrClassName(InstrClass cls);

/** True for classes that access the global-memory hierarchy. */
bool isGlobalMemClass(InstrClass cls);

/**
 * One homogeneous run of instructions inside a loop iteration: `count`
 * instructions of class `cls` executed by each thread.
 */
struct Segment
{
    InstrClass cls;
    uint32_t count;
};

/**
 * A kernel's code identity: the per-iteration instruction body plus
 * architecture-agnostic memory-behaviour parameters.
 */
struct Program
{
    /** Kernel function name as a profiler would report it. */
    std::string name;

    /** Per-thread instruction body for one loop iteration. */
    std::vector<Segment> body;

    /**
     * Average 32B sectors generated per global-memory warp access.
     * 1.0 is perfectly coalesced, 32.0 fully scattered.
     */
    double sectorsPerAccess = 1.0;

    /**
     * Average fraction of threads active per issued warp instruction
     * (Nsight's thread_inst_executed_per_inst_executed / 32). 1.0 means no
     * control divergence.
     */
    double divergenceEff = 1.0;

    /** Probability a global-memory sector hits in the L1 cache. */
    double l1Locality = 0.5;

    /** Probability an L1-missing sector hits in the L2 cache. */
    double l2Locality = 0.5;

    /** Per-thread instructions per loop iteration (sum over body). */
    uint64_t instrsPerIteration() const;

    /** Per-thread instructions of one class per loop iteration. */
    uint64_t classInstrsPerIteration(InstrClass cls) const;
};

/** Shared immutable program handle. */
using ProgramPtr = std::shared_ptr<const Program>;

/**
 * A launch configuration: program + launch parameters. Every launch of a
 * stream is one configuration at one position (see Launch); launches that
 * repeat a configuration share it.
 */
struct KernelDescriptor
{
    /** Code identity. */
    ProgramPtr program;

    /** Grid dimensions (thread blocks). */
    Dim3 grid;

    /** Block dimensions (threads). */
    Dim3 block;

    /** Registers per thread (occupancy limiter). */
    uint16_t regsPerThread = 32;

    /** Static shared memory per block in bytes (occupancy limiter). */
    uint32_t smemPerBlock = 0;

    /** Per-thread loop trip count (dynamic work scale). */
    uint32_t iterations = 1;

    /**
     * Coefficient of variation of per-CTA work, modeling data-dependent
     * irregularity (e.g. BFS frontiers). 0 = perfectly regular.
     */
    double ctaWorkCv = 0.0;

    /**
     * Optional tensor-shape annotation mimicking PyProf NVTX metadata;
     * empty for non-ML workloads. Only visible to lightweight profiling.
     */
    std::vector<uint32_t> tensorDims;

    /** Thread blocks in the grid. */
    uint64_t numCtas() const { return grid.total(); }

    /** Threads per block. */
    uint64_t threadsPerCta() const { return block.total(); }

    /** Warps per block (32 threads per warp, rounded up). */
    uint64_t warpsPerCta() const { return (threadsPerCta() + 31) / 32; }

    /** Total threads in the launch. */
    uint64_t totalThreads() const { return numCtas() * threadsPerCta(); }

    /** Total per-launch thread instructions (all iterations). */
    uint64_t totalThreadInstructions() const;

    /** Total warp-level issue slots the simulator will execute. */
    uint64_t totalWarpInstructions() const;
};

/**
 * One launch of a stream: its configuration and its chronological launch
 * id, which is its position in the stream. A view into the stream's
 * configuration table; it must not outlive the stream.
 */
struct Launch
{
    const KernelDescriptor &config;
    uint32_t launchId = 0;
};

/**
 * A chronological launch stream that stores each distinct configuration
 * once, plus one 32-bit configuration index per launch. Appending interns:
 * a configuration equal bit for bit to one already stored — the same
 * Program object, equal launch fields and tensor dims, and `ctaWorkCv`
 * compared as its bit pattern (so -0.0 and 0.0 differ) — reuses its
 * index, so a launch's content hash is that of the descriptor appended.
 * The stream hands out no mutable reference to a configuration, since
 * launches share them; replace() re-interns instead.
 */
class LaunchStream
{
  public:
    /** Forward iterator yielding Launch views in launch order. */
    class Iterator
    {
      public:
        Iterator(const LaunchStream *s, size_t i) : s_(s), i_(i) {}
        Launch operator*() const { return (*s_)[i_]; }
        Iterator &operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const Iterator &o) const { return i_ == o.i_; }

      private:
        const LaunchStream *s_;
        size_t i_;
    };

    /** Number of launches. */
    size_t size() const { return index_.size(); }
    bool empty() const { return index_.empty(); }

    /** Launch `i` (unchecked, like std::vector's operator[]). */
    Launch operator[](size_t i) const
    {
        return {configs_[index_[i]], static_cast<uint32_t>(i)};
    }

    Iterator begin() const { return {this, 0}; }
    Iterator end() const { return {this, index_.size()}; }

    /** Append one launch of configuration `k`; its id is its position. */
    void push_back(KernelDescriptor k);

    /** Make launch `i` a launch of configuration `k`. */
    void replace(size_t i, KernelDescriptor k);

    /** The distinct configurations, in order of first appearance. A
     *  configuration no launch refers to any more (after replace())
     *  stays in the table. */
    const std::vector<KernelDescriptor> &configs() const { return configs_; }

    /** Index into configs() of launch `i`'s configuration. */
    uint32_t configIndex(size_t i) const { return index_[i]; }

    /** Launches per configuration, indexed like configs(). */
    std::vector<uint64_t> launchCounts() const;

    /**
     * Call visit(i, value) for launches [0, count) in launch order, where
     * value = per_config(launch i's configuration) is evaluated once per
     * configuration, at its first launch.
     */
    template <class PerConfig, class Visit>
    void
    forEachLaunch(size_t count, PerConfig &&per_config, Visit &&visit) const
    {
        using Value = std::decay_t<
            std::invoke_result_t<PerConfig &, const KernelDescriptor &>>;
        std::vector<std::optional<Value>> values(configs_.size());
        for (size_t i = 0; i < count; ++i) {
            std::optional<Value> &v = values[index_[i]];
            if (!v)
                v = per_config(configs_[index_[i]]);
            visit(i, *v);
        }
    }

  private:
    uint32_t intern(KernelDescriptor k);

    std::vector<KernelDescriptor> configs_;
    std::vector<uint32_t> index_;
    /** Configuration hash -> configs_ index, for interning. */
    std::unordered_multimap<uint64_t, uint32_t> lookup_;
};

/**
 * An application: a named, suite-tagged chronological stream of kernel
 * launches.
 */
struct Workload
{
    /** Benchmark suite (e.g. "rodinia"). */
    std::string suite;

    /** Application name (e.g. "gaussian_208"). */
    std::string name;

    /** Stable id used to seed per-workload random streams. */
    uint64_t seed = 0;

    /**
     * Scale factor applied when generating this workload relative to the
     * paper's full-size run (1.0 = full size). Recorded so experiment
     * output can document the substitution.
     */
    double scale = 1.0;

    /** Chronological launch stream. */
    LaunchStream launches;

    /** Sum of totalThreadInstructions over all launches. */
    uint64_t totalThreadInstructions() const;

    /** Sum of warp-level issue slots over all launches. */
    uint64_t totalWarpInstructions() const;

    /** Number of distinct Program identities in the stream. */
    size_t distinctPrograms() const;
};

} // namespace pka::workload

#endif // PKA_WORKLOAD_KERNEL_HH
