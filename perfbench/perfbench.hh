/**
 * @file
 * The end-to-end benchmark's own arithmetic, kept apart from the driver
 * so the self-tests can check it: the per-app result digest, in-memory
 * layer spans with self time, and the metric names the benchmark
 * reports.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/experiments.hh"

namespace perfbench
{

// ---------------------------------------------------------------------
// Result digest

/** Everything one app evaluation produced that the digest covers. The
 *  optional parts are absent for workloads that do not run them. */
struct AppOutcome
{
    std::string app;
    double siliconCycles = 0.0;
    double siliconIpc = 0.0;         ///< evaluateApp only
    double siliconPksErrorPct = 0.0; ///< evaluateApp only
    pka::core::SelectionOutcome selection;
    pka::core::AppProjection pks;
    pka::core::AppProjection pka;
    bool fullySimulated = false;
    pka::core::FullSimResult fullSim;
    bool hasBaselines = false;
    pka::core::TBPointResult tbpoint;
    pka::core::BaselineResult firstN;
};

/** The result fields a core::AppEvaluation and a core::runPka call
 *  share with the benchmark's digest. */
AppOutcome outcomeOf(const pka::core::AppEvaluation &ev);

/** Digest of the evaluation part: silicon cycles and IPC, the
 *  selection (path, representatives, members, weights, detailed count,
 *  profiling cost) and its silicon-side error, PKS/PKA projected and
 *  simulated cycles, and full-simulation cycles — exact bits. */
uint64_t evaluationDigest(const AppOutcome &o);

/** Digest of the whole outcome: the evaluation part plus TBPoint's
 *  groups and projection and the first-N cycles when present. */
uint64_t appDigest(const AppOutcome &o);

/** 16 lowercase hex digits. */
std::string hex16(uint64_t v);

/** |PKA projected − silicon| / silicon, in percent (the repo's
 *  analytic silicon model is the reference). */
double pkaErrorPct(const AppOutcome &o);

/** Simulated-cycle reduction of PKA as core::AppEvaluation::
 *  pkaSpeedupVsFull defines it: full-simulation cycles (silicon cycles
 *  where full simulation is out of reach) over PKA-simulated cycles. */
double simReduction(const AppOutcome &o);

// ---------------------------------------------------------------------
// Spans

/** One recorded span; times are seconds since the tracer's epoch. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
    int run = 0;     ///< pass the span belongs to
};

/**
 * In-memory span recorder for the benchmark's own calls into the
 * program's layers. Single-threaded: the driver opens and closes spans
 * from its one thread, so a span's parent is the innermost open span.
 */
class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    Tracer();

    /** Open a span under the innermost open one; returns its index. */
    int begin(std::string name, int run);

    /** Close span `id` (must be the innermost open span). */
    void end(int id);

    /** Record a finished span directly (tests and replays). */
    int add(Span s);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time per span name over the spans of `run`: each span's
     *  duration minus the part of it its child spans cover. */
    std::map<std::string, double> selfSeconds(int run) const;

    /** Share of span `root`'s duration covered by its children, in
     *  percent. */
    double coveragePct(int root) const;

    /** Write every span as Chrome trace-event JSON ("X" events, one
     *  track per pass), loadable by Perfetto or chrome://tracing. */
    void writeChromeTrace(std::ostream &os) const;

  private:
    /** Seconds of span `id` covered by the union of its children. */
    double childCover(int id) const;

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a null tracer makes it a no-op. */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, int run);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
    int id_ = -1;
};

// ---------------------------------------------------------------------
// Metric names

/** A reported metric's name and unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The metrics an untraced run reports, in order. */
const std::vector<MetricDef> &endToEndMetrics();

/** The metrics a traced run reports, in order. */
const std::vector<MetricDef> &perLayerMetrics();

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
