/**
 * @file
 * The `pka` command-line driver — the reproduction's equivalent of the
 * paper artifact's automation scripts. The pipeline can run staged
 * through files (profile -> select -> simulate) or end-to-end (analyze):
 *
 *   pka list [--suite S]
 *   pka profile <workload> [--gpu G] [--limit N] [--light] [--out FILE]
 *   pka select <workload> [--profiles FILE] [--target-error PCT]
 *              [--max-k K] [--out FILE]
 *   pka simulate <workload> [--gpu G] [--selection FILE] [--pkp]
 *                [--threshold S] [--first-n INSTS]
 *   pka analyze <workload> [--gpu G] [--mlperf-scale X]
 *
 * GPUs: volta (default), turing, ampere. MLPerf workloads honour
 * --mlperf-scale everywhere.
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "cli_args.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/table.hh"
#include "core/baselines.hh"
#include "core/experiments.hh"
#include "core/pka.hh"
#include "core/profile_validator.hh"
#include "core/serialize.hh"
#include "core/stability.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/engine.hh"
#include "sim/trace.hh"
#include "store/file_store.hh"
#include "store/fsck.hh"
#include "store/sig_index.hh"
#include "silicon/profiler.hh"
#include "silicon/silicon_gpu.hh"
#include "sim/simulator.hh"
#include "workload/suites.hh"

using namespace pka;
using pka::tools::CliArgs;

namespace
{

const char *kUsage = R"(usage: pka <command> [options]

commands:
  list      list registry workloads        [--suite S]
  profile   profile a workload on silicon  <workload> [--gpu G] [--limit N]
                                           [--light] [--out FILE]
  select    run Principal Kernel Selection <workload> [--profiles FILE]
                                           [--target-error PCT] [--max-k K]
                                           [--out FILE]
  simulate  run the cycle-level simulator  <workload> [--gpu G] [--pkp]
                                           [--selection FILE]
                                           [--threshold S] [--first-n N]
                                           [--force]
  trace     capture kernel traces          <workload> [--limit N]
                                           [--out FILE]
  analyze   full PKA, end to end           <workload> [--gpu G]
  fsck      scrub/repair a result store    --cache-dir DIR [--repair]
                                           [--store-budget-mb N]
  serve     long-running campaign daemon   --listen ADDR --cache-dir DIR
                                           [--max-campaigns N]
                                           [--launch-quota N]
                                           [--max-sessions N]
                                           [--io-timeout SEC]
  client    talk to a serve daemon         --connect ADDR <workload>
                                           [--session KEY] [--resume]
                                           [--id C] [--priority N]
                                           [--stream] [--warmup N]
                                           [--reservoir N] [--pkp]
                                           [--feed-chunk N]
                                           [--stats] [--shutdown]

common options:
  --gpu volta|turing|ampere   device (default volta)
  --mlperf-scale X            MLPerf launch-count scale, in (0, 100]
                              (default 0.02)
  --threads N                 simulation worker threads
                              (default: hardware concurrency)
  --no-memo                   disable the kernel-result cache
  --content-seed              seed stochastic structure from launch
                              content rather than launch id, so
                              identical launches share cache entries
  --cache-dir DIR             persist kernel results in a content-
                              addressed store under DIR; warm re-runs
                              answer cached launches from disk instead
                              of re-simulating
  --resume                    resume an interrupted campaign from DIR's
                              journal (requires --cache-dir); resumed
                              runs are bit-identical to uninterrupted
                              ones
  --store-stats               print persistent-store counters on exit
  --xcache                    enable the similarity-tiered result cache
                              (requires --cache-dir): exact-cache
                              misses may be answered by *projecting*
                              the result of a stored near-duplicate
                              kernel, tagged with provenance and an
                              error bound, instead of simulating.
                              Default off — without it every output is
                              bit-identical to an exact-only run
  --xcache-tolerance T        max signature distance for a projection
                              (default 0.05, range (0, 1]); a distance
                              t bounds per-CTA counter mismatch by
                              e^t - 1, which is the reported error tag

accuracy SLO (simulate/analyze/serve; both require --xcache):
  --audit-rate F              shadow-audit sampling rate in [0,1]: a
                              deterministic fraction F of similarity-
                              served projections is re-simulated on a
                              background lane and compared against
                              ground truth; a projection whose observed
                              error exceeds its certified bound
                              quarantines the donor signature entry
                              (persisted, survives restarts) and
                              tightens the local tolerance governor.
                              Default 0 = off; auditing never changes
                              the campaign's own outputs
  --audit-seed N              audit sampling seed (default 0)
  --error-budget F            campaign accuracy budget: mean certified
                              projection error (sum of per-launch error
                              bounds over all launches) the campaign
                              may accumulate. Exceeding it mid-campaign
                              switches the remaining launches to
                              simulate-through (no more projections);
                              the campaign completes and the process
                              exits 8. Default 0 = unbudgeted

resource budgets (simulate/analyze/serve):
  --store-budget-mb N         cap the cache dir at N MiB; the store
                              evicts its oldest records to stay under
                              the budget (with fsck: one-shot compaction
                              to N MiB). Default 0 = unbounded
  --memo-budget-mb N          cap the in-memory kernel-result memo cache
                              and the resident similarity index at N MiB
                              (LRU eviction). Default 0 = unbounded

a full disk never kills a campaign: on ENOSPC (or any other permanent
write failure) the store degrades to compute-through mode — results
stop persisting, a typed warning is printed once, and the campaign
finishes with bit-identical aggregates

fault tolerance (simulate/analyze):
  --task-timeout SEC          per-launch wall-clock watchdog; a launch
                              that exceeds it is cancelled and retried
                              on the reference core
  --max-retries N             executions to retry a failing launch
                              before quarantining its kernel (default 1)
  --min-quorum F              tolerate failed launches: the campaign
                              succeeds when >= F of its launches
                              completed (failed ones are dropped and the
                              totals reweighted); without fault-
                              tolerance flags any failure is fatal
  --fail-fast                 stop at the first failed chunk and exit
                              non-zero with the per-launch error report
  --faults SPEC               arm deterministic fault injection, e.g.
                              'store.read:io:250,worker.exec:throw'
                              (requires a PKA_FAULT_INJECTION build)
  --fault-seed N              fault-injection seed (default 1)

robustness (select/analyze):
  --strict-profiles           treat malformed silicon profiles as a hard
                              error (exit 4) instead of deterministically
                              repairing or excluding them
  --abstain-threshold F       two-level ensemble confidence gate in
                              [0,1]: abstain below F and map the launch
                              by nearest PCA centroid (default 0 = off)
  --stability                 bootstrap the selection and report a CI on
                              projected cycles plus per-group stability
  --stability-bootstrap N     bootstrap replicates (default 32)

serve/client:
  --listen ADDR               host:port (port 0 = ephemeral) or
                              unix:/path (serve)
  --connect ADDR              daemon address (client)
  --session KEY               session key; reconnecting with the same
                              key and --resume continues interrupted
                              campaigns bit-identically
  --max-campaigns N           concurrent campaigns admitted (default 8);
                              further requests get a typed rejection
  --launch-quota N            per-campaign launch budget (default 0 =
                              unlimited); a campaign that exceeds it
                              stops with a typed rejection, its
                              journaled progress intact
  --max-sessions N            distinct session keys (default 64)
  --io-timeout SEC            per-connection read/write deadline; a peer
                              idle (or not reading) past it is dropped
                              instead of pinning a session thread
                              (serve; default 0 = none)
  --stream                    streaming campaign: launches are profiled
                              as fed and classified online with bounded
                              resident memory (client)
  --warmup N / --reservoir N  online-selection warmup buffer and
                              re-cluster reservoir sizes (client)
  --feed-chunk N              launches per FEED message (default 32)
  --stats / --shutdown        query daemon stats / stop the daemon

client exit codes: 0 success; 3 campaign quorum not met; 4 request
rejected as malformed (bad-input); 5 quota/policy rejection;
6 connection or protocol failure; 7 daemon overloaded or draining
(pressure, not policy — retry later); 8 accuracy budget exceeded
(campaign completed, tail ran simulate-through).

serve signals: SIGTERM drains gracefully (stop admitting, finish
in-flight campaigns, flush journals, exit 0); SIGINT stops now.
)";

silicon::GpuSpec
specFor(const std::string &name)
{
    if (name == "volta")
        return silicon::voltaV100();
    if (name == "turing")
        return silicon::turingRtx2060();
    if (name == "ampere")
        return silicon::ampereRtx3070();
    common::fatal("unknown GPU '" + name +
                  "' (expected volta, turing or ampere)");
}

/** Journaled-checkpoint config from --cache-dir/--resume (dir may be
 *  empty, meaning checkpointing is off). */
core::CampaignCheckpoint
checkpointFor(const CliArgs &args)
{
    core::CampaignCheckpoint cp;
    cp.dir = args.get("cache-dir");
    cp.resume = args.has("resume");
    return cp;
}

/** True when any fault-tolerance knob was touched: failures then become
 *  policy decisions (quorum, reweighting) instead of instant fatal. */
bool
wantsTolerantCampaign(const CliArgs &args)
{
    return args.has("min-quorum") || args.has("fail-fast") ||
           args.has("task-timeout") || args.has("max-retries") ||
           args.has("faults") || args.has("error-budget");
}

/** Campaign failure policy from --min-quorum/--fail-fast/--error-budget. */
core::CampaignPolicy
policyFor(const CliArgs &args)
{
    core::CampaignPolicy p;
    p.minQuorum = args.getNumInRange("min-quorum", 1.0, 0.0, 1.0);
    p.failFast = args.has("fail-fast");
    p.errorBudget = args.getNumInRange("error-budget", 0.0, 0.0, 1.0);
    if (p.errorBudget > 0.0 && !args.has("xcache"))
        common::fatal("--error-budget requires --xcache (only projected "
                      "results accrue certified error)");
    return p;
}

/**
 * Map the accuracy SLO onto the exit code: a campaign that tripped its
 * error budget completed (the tail ran simulate-through), but the
 * result is typed as degraded — exit 8, after any quorum failure.
 */
int
reportAccuracy(const char *stage, int health_rc, bool degraded,
               double certified)
{
    if (!degraded)
        return health_rc;
    std::fprintf(stderr,
                 "%s: accuracy budget exceeded (mean certified error "
                 "%.4f); remaining launches ran simulate-through\n",
                 stage, certified);
    return health_rc != 0 ? health_rc : 8;
}

/**
 * Print the structured per-launch failure report and map campaign
 * health to the process exit code: 0 when the quorum held, 3 when it
 * did not (or --fail-fast stopped the run).
 */
int
reportCampaignHealth(const char *stage, uint64_t failed,
                     uint64_t quarantined, bool quorum_met,
                     const std::vector<sim::LaunchFailure> &failures)
{
    if (failures.empty() && quorum_met)
        return 0;
    std::fprintf(stderr,
                 "%s: %llu launch(es) failed, %llu kernel(s) "
                 "quarantined, quorum %s\n",
                 stage, static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(quarantined),
                 quorum_met ? "met" : "NOT met");
    for (const auto &f : failures)
        std::fprintf(stderr, "  launch %llu: %s\n",
                     static_cast<unsigned long long>(f.index),
                     f.error.str().c_str());
    return quorum_met ? 0 : 3;
}

/** PKA options from the shared robustness flags. */
core::PkaOptions
pkaOptionsFor(const CliArgs &args)
{
    core::PkaOptions opts;
    opts.strictProfiles = args.has("strict-profiles");
    opts.abstainThreshold =
        args.getNumInRange("abstain-threshold", 0.0, 0.0, 1.0);
    opts.pks.validation = opts.strictProfiles
                              ? core::ValidationPolicy::kStrict
                              : core::ValidationPolicy::kRepair;
    return opts;
}

/** Print the selection's robustness accounting (only when something
 *  actually happened, so default clean runs keep their exact output). */
void
reportSelectionRobustness(FILE *out, const core::SelectionOutcome &sel)
{
    const auto &v = sel.validation;
    if (v.clean() && sel.abstentions == 0)
        return;
    std::fprintf(out,
                 "robustness: %zu profile(s) excluded, %llu value(s) "
                 "repaired, %zu abstention(s) (%zu fallback-mapped, "
                 "mean confidence %.3f)\n",
                 v.excludedLaunchIds.size(),
                 static_cast<unsigned long long>(v.repairedValues),
                 sel.abstentions, sel.fallbackMapped,
                 sel.meanEnsembleConfidence);
}

/**
 * Bootstrap-stability report over detailed profiles (--stability).
 * Screens, selects a baseline and resamples; prints the CI and the
 * member-weighted group stability. Returns 4 on a strict-validation
 * error, 0 otherwise.
 */
int
reportStability(const CliArgs &args, FILE *out,
                std::vector<silicon::DetailedProfile> profiles,
                const core::PkaOptions &opts)
{
    core::ProfileValidator validator(opts.pks.validation);
    auto screened = validator.screenDetailed(profiles);
    if (!screened.ok()) {
        std::fprintf(stderr, "stability: %s\n",
                     screened.error().str().c_str());
        return 4;
    }
    if (profiles.empty()) {
        std::fprintf(stderr,
                     "stability: no usable profiles after screening\n");
        return 4;
    }
    core::StabilityOptions so;
    so.replicates = static_cast<uint32_t>(
        args.getUint("stability-bootstrap", 32, 2, 100000));
    so.pks = opts.pks;
    core::PksResult baseline =
        core::principalKernelSelection(profiles, so.pks);
    core::StabilityReport rep =
        core::selectionStability(profiles, baseline, so);
    std::fprintf(out,
                 "stability: projected %.4e, %.0f%% CI [%.4e, %.4e] "
                 "(half-width %.2f%% of baseline)\n",
                 rep.baselineProjectedCycles, so.ciLevel * 100.0,
                 rep.ciLow, rep.ciHigh, rep.relativeHalfWidth * 100.0);
    std::fprintf(out,
                 "stability: mean group co-membership %.3f over %u "
                 "bootstrap replicates\n",
                 rep.meanStability, rep.replicates);
    for (size_t g = 0; g < rep.groupStability.size(); ++g)
        std::fprintf(out,
                     "  group %zu (rep launch %u, weight %.0f): %.3f\n", g,
                     baseline.groups[g].representative,
                     baseline.groups[g].weight, rep.groupStability[g]);
    return 0;
}

/** --mlperf-scale, in (0, workload::kMaxMlperfScale]. */
double
mlperfScale(const CliArgs &args)
{
    return args.getPositiveNum("mlperf-scale", 0.02,
                               workload::kMaxMlperfScale);
}

workload::Workload
loadWorkload(const CliArgs &args, size_t positional_idx)
{
    if (args.positionals().size() <= positional_idx)
        common::fatal("missing workload name operand");
    workload::GenOptions g;
    g.mlperfScale = mlperfScale(args);
    auto w = workload::buildWorkload(args.positionals()[positional_idx], g);
    if (!w)
        common::fatal("unknown workload '" +
                      args.positionals()[positional_idx] +
                      "' (try `pka list`)");
    return std::move(*w);
}

/** Write to --out or stdout. */
void
emit(const CliArgs &args, const std::string &content)
{
    std::string path = args.get("out");
    if (path.empty()) {
        std::cout << content;
        return;
    }
    std::ofstream os(path);
    if (!os)
        common::fatal("cannot open '" + path + "' for writing");
    os << content;
    std::fprintf(stderr, "wrote %s\n", path.c_str());
}

int
cmdList(const CliArgs &args)
{
    workload::GenOptions g;
    g.mlperfScale = mlperfScale(args);
    std::string suite = args.get("suite");
    common::TextTable t({"suite", "workload", "launches",
                         "distinct kernels", "warp instructions"});
    for (const auto &w : workload::allWorkloads(g)) {
        if (!suite.empty() && w.suite != suite)
            continue;
        t.row()
            .cell(w.suite)
            .cell(w.name)
            .intCell(static_cast<long long>(w.launches.size()))
            .intCell(static_cast<long long>(w.distinctPrograms()))
            .cell(common::humanCount(
                static_cast<double>(w.totalWarpInstructions())));
    }
    t.print(std::cout);
    return 0;
}

int
cmdProfile(const CliArgs &args)
{
    auto w = loadWorkload(args, 0);
    silicon::SiliconGpu gpu(specFor(args.get("gpu", "volta")));
    std::ostringstream out;
    if (args.has("light")) {
        silicon::LightweightProfiler prof(gpu);
        core::writeLightProfiles(out, prof.profile(w));
        std::fprintf(stderr,
                     "lightweight profiling cost (modeled): %s\n",
                     common::humanTime(prof.costSeconds(w)).c_str());
    } else {
        silicon::DetailedProfiler prof(gpu);
        size_t limit = static_cast<size_t>(args.getUint("limit", 0));
        core::writeDetailedProfiles(out, prof.profile(w, limit));
        std::fprintf(stderr, "detailed profiling cost (modeled): %s\n",
                     common::humanTime(prof.costSeconds(w, limit)).c_str());
    }
    emit(args, out.str());
    return 0;
}

int
cmdSelect(const CliArgs &args)
{
    auto w = loadWorkload(args, 0);
    silicon::SiliconGpu gpu(specFor(args.get("gpu", "volta")));

    core::PkaOptions opts = pkaOptionsFor(args);
    opts.pks.targetErrorPct =
        args.getPositiveNum("target-error", 5.0, 100.0);
    opts.pks.maxK = static_cast<uint32_t>(
        args.getUint("max-k", 20, 1, 1u << 20));

    core::SelectionOutcome sel;
    std::vector<silicon::DetailedProfile> stability_profiles;
    if (args.has("profiles")) {
        std::ifstream is(args.get("profiles"));
        if (!is)
            common::fatal("cannot read '" + args.get("profiles") + "'");
        auto profiles = core::readDetailedProfiles(is);
        auto pks =
            core::principalKernelSelectionChecked(profiles, opts.pks);
        if (!pks.ok()) {
            std::fprintf(stderr, "selection: %s\n",
                         pks.error().str().c_str());
            return 4;
        }
        sel.validation = pks.value().validation;
        sel.groups = std::move(pks.value().groups);
        sel.detailedCount =
            profiles.size() - sel.validation.excludedLaunchIds.size();
        std::fprintf(stderr, "selection from %zu profiles: %u groups, "
                             "projected error %.2f%%\n",
                     profiles.size(), pks.value().chosenK,
                     pks.value().projectedErrorPct);
        stability_profiles = std::move(profiles);
    } else {
        auto checked = core::selectKernelsChecked(w, gpu, opts);
        if (!checked.ok()) {
            std::fprintf(stderr, "selection: %s\n",
                         checked.error().str().c_str());
            return 4;
        }
        sel = std::move(checked.value());
        std::fprintf(stderr, "selection: %zu groups (%s profiling, "
                             "modeled cost %s)\n",
                     sel.groups.size(),
                     sel.usedTwoLevel ? "two-level" : "full detailed",
                     common::humanTime(sel.profilingCostSec).c_str());
        if (args.has("stability")) {
            silicon::DetailedProfiler prof(gpu);
            stability_profiles = prof.profile(
                w, sel.usedTwoLevel ? opts.twoLevelDetailedKernels : 0);
        }
    }
    reportSelectionRobustness(stderr, sel);
    if (args.has("stability")) {
        int rc = reportStability(args, stderr,
                                 std::move(stability_profiles), opts);
        if (rc != 0)
            return rc;
    }
    std::ostringstream out;
    core::writeSelection(out, sel);
    emit(args, out.str());
    return 0;
}

int
cmdSimulate(const CliArgs &args, const sim::SimEngine &engine)
{
    auto w = loadWorkload(args, 0);
    sim::GpuSimulator simulator(specFor(args.get("gpu", "volta")));

    if (args.has("first-n")) {
        auto res = core::firstNInstructions(
            engine, simulator, w,
            static_cast<uint64_t>(args.getPositiveNum("first-n", 1e9)));
        std::printf("first-N baseline: simulated %.3e cycles (%.3e "
                    "thread insts), projected app cycles %.3e%s\n",
                    res.simulatedCycles, res.simulatedThreadInsts,
                    res.projectedAppCycles,
                    res.completed ? " (budget never hit)" : "");
        return 0;
    }

    if (args.has("selection")) {
        std::ifstream is(args.get("selection"));
        if (!is)
            common::fatal("cannot read '" + args.get("selection") + "'");
        core::SelectionOutcome sel = core::readSelection(is);
        core::PkpOptions pkp;
        pkp.threshold = args.getPositiveNum("threshold", 0.25);
        core::CampaignCheckpoint cp = checkpointFor(args);
        core::CampaignPolicy policy = policyFor(args);
        core::AppProjection proj = core::simulateSelection(
            engine, simulator, w, sel, args.has("pkp") ? &pkp : nullptr,
            cp.dir.empty() ? nullptr : &cp,
            wantsTolerantCampaign(args) ? &policy : nullptr);
        std::printf("selection-based simulation (%zu representatives%s):\n"
                    "  projected cycles %.4e, IPC %.1f, DRAM util %.1f%%\n"
                    "  simulated cycles %.4e (%.2fs wall, %.2fs cpu, "
                    "%llu cache hits / %llu store hits / %llu misses)\n",
                    sel.groups.size(), args.has("pkp") ? ", PKP" : "",
                    proj.projectedCycles, proj.projectedIpc(),
                    proj.projectedDramUtilPct, proj.simulatedCycles,
                    proj.simulatedWallSeconds, proj.simulatedCpuSeconds,
                    static_cast<unsigned long long>(proj.cacheHits),
                    static_cast<unsigned long long>(proj.storeHits),
                    static_cast<unsigned long long>(proj.cacheMisses));
        if (proj.projectedLaunches > 0)
            std::printf("  similarity tier: %llu representative(s) "
                        "projected (%llu fresh), worst-case est. error "
                        "%.2f%%\n",
                        static_cast<unsigned long long>(
                            proj.projectedLaunches),
                        static_cast<unsigned long long>(proj.simTierHits),
                        100.0 * proj.projErrBound);
        int rc = reportCampaignHealth("selection simulation",
                                      proj.failedLaunches,
                                      proj.quarantinedKernels,
                                      proj.quorumMet, proj.failures);
        return reportAccuracy("selection simulation", rc,
                              proj.accuracyDegraded, proj.certifiedError);
    }

    if (!core::isFullySimulable(w) && !args.has("force"))
        common::fatal(
            "full simulation of an MLPerf-scale stream would take hours "
            "to days on this host (that is the paper's premise); use "
            "--selection/--pkp, or pass --force to insist");

    core::CampaignCheckpoint cp = checkpointFor(args);
    core::CampaignPolicy policy = policyFor(args);
    core::FullSimResult fs =
        core::fullSimulate(engine, simulator, w,
                           cp.dir.empty() ? nullptr : &cp,
                           wantsTolerantCampaign(args) ? &policy : nullptr);
    if (fs.resumedLaunches > 0)
        std::fprintf(stderr, "resumed: %llu of %zu launches already "
                             "journaled complete\n",
                     static_cast<unsigned long long>(fs.resumedLaunches),
                     w.launches.size());
    std::printf("full simulation: %.4e cycles, IPC %.1f, DRAM util "
                "%.1f%% (%zu launches, %.2fs wall / %.2fs cpu, "
                "%llu cache hits / %llu store hits / %llu misses, "
                "projected %s at Accel-Sim rates)\n",
                fs.cycles, fs.ipc(), fs.dramUtilPct, fs.perKernel.size(),
                fs.wallSeconds, fs.cpuSeconds,
                static_cast<unsigned long long>(fs.cacheHits),
                static_cast<unsigned long long>(fs.storeHits),
                static_cast<unsigned long long>(fs.cacheMisses),
                common::humanTime(fs.cycles / core::kSimCyclesPerSecond)
                    .c_str());
    if (fs.projectedLaunches > 0)
        std::printf("similarity tier: %llu of %zu launches projected "
                    "(%.1f%%, %llu fresh), worst-case est. error %.2f%%\n",
                    static_cast<unsigned long long>(fs.projectedLaunches),
                    w.launches.size(), fs.projectedPct(),
                    static_cast<unsigned long long>(fs.simTierHits),
                    100.0 * fs.projErrBound);
    int rc = reportCampaignHealth("full simulation", fs.failedLaunches,
                                  fs.quarantinedKernels, fs.quorumMet,
                                  fs.failures);
    return reportAccuracy("full simulation", rc, fs.accuracyDegraded,
                          fs.certifiedError);
}

int
cmdTrace(const CliArgs &args)
{
    auto w = loadWorkload(args, 0);
    size_t limit = static_cast<size_t>(args.getUint("limit", 0));
    size_t count =
        limit > 0 ? std::min(limit, w.launches.size()) : w.launches.size();
    std::vector<sim::KernelTrace> traces;
    traces.reserve(count);
    for (size_t i = 0; i < count; ++i)
        traces.push_back(sim::captureTrace(w.launches[i], w.seed));
    std::ostringstream out;
    sim::writeTraces(out, traces);
    emit(args, out.str());
    std::fprintf(stderr, "captured %zu launch traces\n", traces.size());
    return 0;
}

int
cmdAnalyze(const CliArgs &args, const sim::SimEngine &engine)
{
    workload::GenOptions g;
    g.mlperfScale = mlperfScale(args);
    workload::GenOptions gp = g;
    gp.underProfiler = true;
    if (args.positionals().empty())
        common::fatal("missing workload name operand");
    auto traced = workload::buildWorkload(args.positionals()[0], g);
    auto profiled = workload::buildWorkload(args.positionals()[0], gp);
    if (!traced || !profiled)
        common::fatal("unknown workload '" + args.positionals()[0] + "'");

    auto spec = specFor(args.get("gpu", "volta"));
    silicon::SiliconGpu gpu(spec);
    sim::GpuSimulator simulator(spec);
    core::CampaignCheckpoint cp = checkpointFor(args);
    core::CampaignPolicy policy = policyFor(args);
    core::PkaOptions opts = pkaOptionsFor(args);
    common::Expected<core::PkaAppResult> checked = core::runPkaChecked(
        engine, *traced, *profiled, gpu, simulator, opts,
        cp.dir.empty() ? nullptr : &cp,
        wantsTolerantCampaign(args) ? &policy : nullptr);
    if (!checked.ok()) {
        // Strict validation failures exit with a distinct code instead
        // of the generic fatal.
        if (!opts.strictProfiles)
            common::fatal(checked.error().str());
        std::fprintf(stderr, "selection: %s\n",
                     checked.error().str().c_str());
        return 4;
    }
    const core::PkaAppResult &res = checked.value();
    if (res.excluded) {
        std::printf("EXCLUDED: %s\n", res.exclusionReason.c_str());
        return 2;
    }
    auto sil = gpu.run(*traced);
    double sil_cycles = static_cast<double>(sil.totalCycles);
    std::printf("workload: %s on %s (%zu launches)\n",
                traced->name.c_str(), spec.name.c_str(),
                traced->launches.size());
    std::printf("selection: %zu groups, %s profiling\n",
                res.selection.groups.size(),
                res.selection.usedTwoLevel ? "two-level" : "detailed");
    reportSelectionRobustness(stdout, res.selection);
    if (args.has("stability")) {
        silicon::DetailedProfiler prof(gpu);
        auto profiles = prof.profile(
            *profiled, res.selection.usedTwoLevel
                           ? opts.twoLevelDetailedKernels
                           : 0);
        int rc = reportStability(args, stdout, std::move(profiles), opts);
        if (rc != 0)
            return rc;
    }
    std::printf("silicon:   %.4e cycles\n", sil_cycles);
    std::printf("PKS:       %.4e projected (%.1f%% err), %.3e simulated\n",
                res.pks.projectedCycles,
                common::pctError(res.pks.projectedCycles, sil_cycles),
                res.pks.simulatedCycles);
    std::printf("PKA:       %.4e projected (%.1f%% err), %.3e simulated\n",
                res.pka.projectedCycles,
                common::pctError(res.pka.projectedCycles, sil_cycles),
                res.pka.simulatedCycles);
    std::printf("sim cache: %llu memory hits / %llu store hits / "
                "%llu simulated\n",
                static_cast<unsigned long long>(res.pks.cacheHits +
                                                res.pka.cacheHits),
                static_cast<unsigned long long>(res.pks.storeHits +
                                                res.pka.storeHits),
                static_cast<unsigned long long>(res.pks.cacheMisses +
                                                res.pka.cacheMisses));
    if (res.pks.projectedLaunches + res.pka.projectedLaunches > 0)
        std::printf("similarity: %llu launch(es) projected, worst-case "
                    "est. error %.2f%%\n",
                    static_cast<unsigned long long>(
                        res.pks.projectedLaunches +
                        res.pka.projectedLaunches),
                    100.0 * std::max(res.pks.projErrBound,
                                     res.pka.projErrBound));
    int rc_pks = reportCampaignHealth(
        "PKS stage", res.pks.failedLaunches, res.pks.quarantinedKernels,
        res.pks.quorumMet, res.pks.failures);
    rc_pks = reportAccuracy("PKS stage", rc_pks, res.pks.accuracyDegraded,
                            res.pks.certifiedError);
    int rc_pka = reportCampaignHealth(
        "PKA stage", res.pka.failedLaunches, res.pka.quarantinedKernels,
        res.pka.quorumMet, res.pka.failures);
    rc_pka = reportAccuracy("PKA stage", rc_pka, res.pka.accuracyDegraded,
                            res.pka.certifiedError);
    return rc_pks != 0 ? rc_pks : rc_pka;
}

/**
 * Offline store scrub: `pka fsck --cache-dir DIR [--repair]
 * [--store-budget-mb N]`. Scans every record, signature entry and
 * journal, reports what it found and (with --repair) quarantines,
 * renames, truncates and sweeps. Exit 0 when the tree is sound (or was
 * just repaired), 1 when damage was found and left in place.
 */
int
cmdFsck(const CliArgs &args)
{
    if (!args.has("cache-dir"))
        common::fatal("fsck requires --cache-dir");
    store::FsckOptions fo;
    fo.repair = args.has("repair");
    fo.budgetBytes =
        args.getUint("store-budget-mb", 0, 0, 1u << 30) * (1ull << 20);

    store::FsckReport rep = store::fsckStore(args.get("cache-dir"), fo);

    common::TextTable t(
        {"tier", "scanned", "valid", "corrupt", "misnamed", "renamed"});
    t.row()
        .cell("records")
        .intCell(static_cast<long long>(rep.recordsScanned))
        .intCell(static_cast<long long>(rep.recordsValid))
        .intCell(static_cast<long long>(rep.recordsCorrupt))
        .intCell(static_cast<long long>(rep.recordsMisnamed))
        .intCell(static_cast<long long>(rep.recordsRenamed));
    t.row()
        .cell("signatures")
        .intCell(static_cast<long long>(rep.sigScanned))
        .intCell(static_cast<long long>(rep.sigValid))
        .intCell(static_cast<long long>(rep.sigCorrupt))
        .intCell(static_cast<long long>(rep.sigMisnamed))
        .intCell(static_cast<long long>(rep.sigRenamed));
    t.print(std::cout);
    if (rep.sigLegacy > 0 || rep.sigVersionSkew > 0)
        std::printf("sig audit: %llu legacy (pre-audit) entr%s read as "
                    "unaudited, %llu version-skewed (rejected)\n",
                    static_cast<unsigned long long>(rep.sigLegacy),
                    rep.sigLegacy == 1 ? "y" : "ies",
                    static_cast<unsigned long long>(rep.sigVersionSkew));
    std::printf("journals: %llu scanned, %llu torn (%llu truncated), "
                "%llu unreadable\n",
                static_cast<unsigned long long>(rep.journalsScanned),
                static_cast<unsigned long long>(rep.journalsTorn),
                static_cast<unsigned long long>(rep.journalsTruncated),
                static_cast<unsigned long long>(rep.journalsBad));
    std::printf("staging:  %llu orphaned tmp file(s)%s\n",
                static_cast<unsigned long long>(rep.tmpOrphans),
                fo.repair && rep.tmpOrphans > 0 ? " (swept)" : "");
    if (rep.quarantinedFiles > 0)
        std::printf("quarantined %llu file(s) under <cache-dir>/"
                    "quarantine/\n",
                    static_cast<unsigned long long>(rep.quarantinedFiles));
    if (fo.budgetBytes != 0)
        std::printf("compaction: evicted %llu record(s) / %llu bytes to "
                    "meet the %llu MiB budget\n",
                    static_cast<unsigned long long>(rep.evictedRecords),
                    static_cast<unsigned long long>(rep.evictedBytes),
                    static_cast<unsigned long long>(fo.budgetBytes >>
                                                    20));

    if (rep.clean()) {
        std::printf("store is clean (%llu records, %llu bytes)\n",
                    static_cast<unsigned long long>(rep.recordsValid),
                    static_cast<unsigned long long>(rep.recordBytes));
        return 0;
    }
    if (fo.repair) {
        std::printf("store repaired (damage quarantined under "
                    "<cache-dir>/quarantine/, nothing deleted)\n");
        return 0;
    }
    std::printf("store has damage; re-run with --repair to fix\n");
    return 1;
}

/** Engine configuration from the CLI flags (batch commands and serve
 *  each build their one engine from it). */
sim::EngineOptions
engineOptionsFor(const CliArgs &args)
{
    sim::EngineOptions eo;
    eo.threads = static_cast<unsigned>(args.getUint(
        "threads", 0, 0, std::numeric_limits<unsigned>::max()));
    eo.memoize = !args.has("no-memo");
    eo.contentSeed = args.has("content-seed");
    eo.taskTimeoutSec = args.getPositiveNum("task-timeout", 0.0);
    eo.maxTaskAttempts =
        static_cast<unsigned>(args.getUint("max-retries", 1, 0, 100)) + 1;
    eo.memoBudgetBytes =
        args.getUint("memo-budget-mb", 0, 0, 1u << 30) * (1ull << 20);
    if (args.has("xcache")) {
        if (!args.has("cache-dir"))
            common::fatal("--xcache requires --cache-dir (the signature "
                          "index lives under the store root)");
        // Hardened parse: NaN, negatives, zero, trailing garbage and
        // anything above 1 are all fatal here, not silently clamped.
        eo.xcacheTolerance =
            args.getPositiveNum("xcache-tolerance", 0.05, 1.0);
        eo.auditRate = args.getNumInRange("audit-rate", 0.0, 0.0, 1.0);
        eo.auditSeed = args.getUint(
            "audit-seed", 0, 0, std::numeric_limits<uint64_t>::max());
    } else if (args.has("xcache-tolerance")) {
        common::fatal("--xcache-tolerance requires --xcache");
    } else if (args.has("audit-rate")) {
        common::fatal("--audit-rate requires --xcache (only similarity "
                      "projections are audited)");
    }
    return eo;
}

int
cmdServe(const CliArgs &args)
{
    if (!args.has("cache-dir"))
        common::fatal("serve requires --cache-dir");

    serve::ServerOptions so;
    so.listen = args.get("listen", "127.0.0.1:0");
    so.cacheDir = args.get("cache-dir");
    so.engine = engineOptionsFor(args);
    so.limits.maxConcurrentCampaigns = static_cast<size_t>(
        args.getUint("max-campaigns", 8, 1, 1u << 20));
    so.limits.campaignLaunchQuota =
        args.getUint("launch-quota", 0, 0,
                     std::numeric_limits<uint64_t>::max());
    so.limits.maxSessions = static_cast<size_t>(
        args.getUint("max-sessions", 64, 1, 1u << 20));
    so.ioTimeoutSec = static_cast<unsigned>(
        args.getUint("io-timeout", 0, 0, 86400));
    so.storeBudgetBytes =
        args.getUint("store-budget-mb", 0, 0, 1u << 30) * (1ull << 20);
    so.memoBudgetBytes =
        args.getUint("memo-budget-mb", 0, 0, 1u << 30) * (1ull << 20);
    so.errorBudget = args.getNumInRange("error-budget", 0.0, 0.0, 1.0);
    if (so.errorBudget > 0.0 && !args.has("xcache"))
        common::fatal("--error-budget requires --xcache (only projected "
                      "results accrue certified error)");

    // Handle SIGINT/SIGTERM via sigwait on a dedicated thread: shutdown
    // takes locks, so it must run in normal thread context, not in an
    // async signal handler. The mask is inherited by server threads.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    auto started = serve::Server::start(so);
    if (!started.ok())
        common::fatal("serve: " + started.error().str());
    serve::Server *srv = started.value().get();

    // SIGTERM = graceful drain (in-flight campaigns finish, journals
    // flush, then exit 0); SIGINT = stop now. Either way the daemon
    // exits cleanly — operators and process supervisors can rely on
    // TERM never losing an admitted campaign.
    std::thread sig_thread([&sigs, srv] {
        int sig = 0;
        if (sigwait(&sigs, &sig) == 0) {
            if (sig == SIGTERM)
                srv->drain();
            else
                srv->shutdown();
        }
    });

    std::printf("pka serve: listening on %s\n", srv->address().c_str());
    std::fflush(stdout);
    srv->wait();
    // SHUTDOWN-verb path: unblock sigwait so the thread can exit. The
    // signal is process-directed, so sigwait is eligible to consume it;
    // if the thread already woke (signal path), it stays pending,
    // blocked and harmless until exit.
    kill(getpid(), SIGTERM);
    sig_thread.join();
    std::fprintf(stderr,
                 "pka serve: %s (%llu campaign(s) completed, "
                 "peak %zu concurrent, %llu similarity hit(s), %llu "
                 "launch(es) projected)\n",
                 srv->draining() ? "drained" : "shut down",
                 static_cast<unsigned long long>(
                     srv->campaignsCompleted()),
                 srv->peakConcurrentCampaigns(),
                 static_cast<unsigned long long>(srv->simTierHits()),
                 static_cast<unsigned long long>(
                     srv->projectedLaunches()));
    return 0;
}

/** Read a reply field, exiting 6 (protocol failure) when malformed. */
uint64_t
replyUint(const serve::Message &m, const std::string &key)
{
    common::Expected<uint64_t> v = m.getUint(key, 0);
    if (!v.ok()) {
        std::fprintf(stderr, "client: malformed reply field '%s': %s\n",
                     key.c_str(), v.error().str().c_str());
        std::exit(6);
    }
    return v.value();
}

double
replyDouble(const serve::Message &m, const std::string &key)
{
    common::Expected<double> v = m.getDouble(key, 0.0);
    if (!v.ok()) {
        std::fprintf(stderr, "client: malformed reply field '%s': %s\n",
                     key.c_str(), v.error().str().c_str());
        std::exit(6);
    }
    return v.value();
}

/** Map an ERR reply to the documented client exit codes. */
int
clientErrExit(const serve::Message &m)
{
    common::TaskError e = serve::errorFromMessage(m);
    std::fprintf(stderr, "client: server rejected request: %s\n",
                 e.str().c_str());
    if (e.kind == common::ErrorKind::kOverloaded)
        return 7; // pressure, not policy: safe to retry later
    if (e.kind == common::ErrorKind::kRejected)
        return 5;
    if (e.kind == common::ErrorKind::kBadInput)
        return 4;
    return 6;
}

int
clientTransportExit(const common::TaskError &e)
{
    std::fprintf(stderr, "client: %s\n", e.str().c_str());
    return 6;
}

int
cmdClient(const CliArgs &args)
{
    if (!args.has("connect"))
        common::fatal("client requires --connect ADDR");
    auto connected = serve::Client::connect(args.get("connect"));
    if (!connected.ok())
        return clientTransportExit(connected.error());
    serve::Client client = std::move(connected.value());

    if (args.has("shutdown")) {
        // The daemon may tear the connection down right after (or even
        // while) acknowledging, so a read failure here still counts as
        // success.
        auto r = client.call(serve::Message{"SHUTDOWN", {}});
        if (r.ok() && r.value().verb == "ERR")
            return clientErrExit(r.value());
        std::printf("daemon shutting down\n");
        return 0;
    }

    if (args.has("stats")) {
        auto r = client.call(serve::Message{"STATS", {}});
        if (!r.ok())
            return clientTransportExit(r.error());
        if (r.value().verb == "ERR")
            return clientErrExit(r.value());
        const serve::Message &m = r.value();
        std::printf(
            "daemon: %llu active campaign(s) (peak %llu, %llu "
            "rejected), %llu session(s), %llu completed, %llu "
            "threads\n"
            "cache:  %llu memory hits / %llu store hits / %llu "
            "simulated\n",
            static_cast<unsigned long long>(replyUint(m, "campaigns")),
            static_cast<unsigned long long>(replyUint(m, "peak")),
            static_cast<unsigned long long>(replyUint(m, "rejected")),
            static_cast<unsigned long long>(replyUint(m, "sessions")),
            static_cast<unsigned long long>(replyUint(m, "completed")),
            static_cast<unsigned long long>(replyUint(m, "threads")),
            static_cast<unsigned long long>(replyUint(m, "cache_hits")),
            static_cast<unsigned long long>(replyUint(m, "store_hits")),
            static_cast<unsigned long long>(
                replyUint(m, "cache_misses")));
        // Fleet dedup: launches answered by projecting another app's
        // stored result instead of simulating. Absent fields (an older
        // daemon) default to 0.
        uint64_t sim_hits = replyUint(m, "sim_hits");
        uint64_t projected = replyUint(m, "projected");
        uint64_t sim_total = replyUint(m, "cache_hits") +
                             replyUint(m, "store_hits") + sim_hits +
                             replyUint(m, "cache_misses");
        std::printf("xcache: %llu similarity hit(s), %llu projected "
                    "(%.1f%% fleet dedup)\n",
                    static_cast<unsigned long long>(sim_hits),
                    static_cast<unsigned long long>(projected),
                    sim_total == 0 ? 0.0
                                   : 100.0 * static_cast<double>(sim_hits) /
                                         static_cast<double>(sim_total));
        // Shadow-audit counters (absent fields — an older daemon, or
        // auditing off — default to 0 and the line still prints, so
        // operators can assert on it unconditionally).
        std::printf("audit:  %llu sampled / %llu run / %llu shed, "
                    "%llu violation(s), %llu quarantined sig(s), "
                    "worst observed error %.4f\n",
                    static_cast<unsigned long long>(
                        replyUint(m, "audit_sampled")),
                    static_cast<unsigned long long>(
                        replyUint(m, "audit_run")),
                    static_cast<unsigned long long>(
                        replyUint(m, "audit_shed")),
                    static_cast<unsigned long long>(
                        replyUint(m, "audit_violations")),
                    static_cast<unsigned long long>(
                        replyUint(m, "quarantined_sigs")),
                    replyDouble(m, "audit_max_err"));
        return 0;
    }

    auto h = client.hello(args.get("session", "default"),
                          args.has("resume"));
    if (!h.ok())
        return clientTransportExit(h.error());
    if (h.value().verb == "ERR")
        return clientErrExit(h.value());

    if (args.positionals().empty())
        common::fatal("missing workload name operand");
    const std::string workload = args.positionals()[0];
    const std::string id = args.get("id", "c0");

    auto on_event = [](const serve::Message &ev) {
        std::string kind = ev.get("kind");
        if (kind == "progress")
            std::fprintf(stderr, "event: %s/%s launches done\n",
                         ev.get("done").c_str(), ev.get("total").c_str());
        else
            std::fprintf(stderr, "event: %s\n",
                         formatMessage(ev).c_str());
    };

    auto add_common = [&](serve::Message &req) {
        req.add("id", id)
            .add("workload", workload)
            .add("gpu", args.get("gpu", "volta"))
            .addDouble("scale", mlperfScale(args))
            .addUint("priority", args.getUint("priority", 0, 0, 1000))
            .addDouble("quorum",
                       args.getNumInRange("min-quorum", 1.0, 0.0, 1.0));
        if (args.has("resume"))
            req.add("resume", "1");
    };

    if (!args.has("stream")) {
        serve::Message req{"RUN", {}};
        add_common(req);
        auto r = client.call(req, on_event);
        if (!r.ok())
            return clientTransportExit(r.error());
        if (r.value().verb == "ERR")
            return clientErrExit(r.value());
        const serve::Message &m = r.value();
        if (replyUint(m, "resumed") > 0)
            std::fprintf(stderr, "resumed: %llu of %llu launches "
                                 "already journaled complete\n",
                         static_cast<unsigned long long>(
                             replyUint(m, "resumed")),
                         static_cast<unsigned long long>(
                             replyUint(m, "launches")));
        // Same leading format as the batch `simulate` command, so CI can
        // diff the deterministic prefix bit-for-bit against a local run.
        std::printf("full simulation: %.4e cycles, IPC %.1f, DRAM util "
                    "%.1f%% (%llu launches, %llu cache hits / %llu "
                    "store hits / %llu misses)\n",
                    replyDouble(m, "cycles"), replyDouble(m, "ipc"),
                    replyDouble(m, "dram"),
                    static_cast<unsigned long long>(
                        replyUint(m, "launches")),
                    static_cast<unsigned long long>(
                        replyUint(m, "cache_hits")),
                    static_cast<unsigned long long>(
                        replyUint(m, "store_hits")),
                    static_cast<unsigned long long>(
                        replyUint(m, "cache_misses")));
        // Similarity-tier fields arrive only from an xcache-enabled
        // daemon with projections; older daemons default them to 0 and
        // the line stays suppressed, keeping the prefix diffable.
        if (replyUint(m, "projected") > 0)
            std::printf("similarity tier: %llu launch(es) projected, "
                        "worst-case est. error %.2f%%\n",
                        static_cast<unsigned long long>(
                            replyUint(m, "projected")),
                        100.0 * replyDouble(m, "proj_err"));
        uint64_t failed = replyUint(m, "failed");
        bool quorum_met = replyUint(m, "quorum") == 1;
        if (failed > 0 || !quorum_met)
            std::fprintf(stderr,
                         "full simulation: %llu launch(es) failed, %llu "
                         "kernel(s) quarantined, quorum %s\n",
                         static_cast<unsigned long long>(failed),
                         static_cast<unsigned long long>(
                             replyUint(m, "quarantined")),
                         quorum_met ? "met" : "NOT met");
        // The daemon's accuracy SLO mirrors the batch path: the
        // campaign completed, but the typed degradation surfaces as
        // exit 8 (absent field = older daemon = 0 = clean).
        bool degraded = replyUint(m, "accuracy") == 1;
        if (degraded)
            std::fprintf(stderr,
                         "full simulation: accuracy budget exceeded "
                         "(mean certified error %.4f); tail ran "
                         "simulate-through\n",
                         replyDouble(m, "cert_err"));
        if (!quorum_met)
            return 3;
        return degraded ? 8 : 0;
    }

    serve::Message req{"STREAM", {}};
    add_common(req);
    if (args.has("warmup"))
        req.addUint("warmup", args.getUint("warmup", 64, 1, 1u << 20));
    if (args.has("reservoir"))
        req.addUint("reservoir",
                    args.getUint("reservoir", 96, 1, 1u << 20));
    if (args.has("pkp")) {
        req.add("pkp", "1");
        req.addDouble("threshold", args.getPositiveNum("threshold", 0.25));
    }
    auto opened = client.call(req, on_event);
    if (!opened.ok())
        return clientTransportExit(opened.error());
    if (opened.value().verb == "ERR")
        return clientErrExit(opened.value());
    uint64_t total = replyUint(opened.value(), "launches");

    uint64_t chunk = args.getUint("feed-chunk", 32, 1, 1u << 20);
    for (uint64_t from = 0; from < total; from += chunk) {
        serve::Message feed{"FEED", {}};
        feed.add("id", id).addUint("from", from).addUint(
            "count", std::min(chunk, total - from));
        auto fr = client.call(feed, on_event);
        if (!fr.ok())
            return clientTransportExit(fr.error());
        if (fr.value().verb == "ERR")
            return clientErrExit(fr.value());
    }

    serve::Message end{"END", {}};
    end.add("id", id);
    auto er = client.call(end, on_event);
    if (!er.ok())
        return clientTransportExit(er.error());
    if (er.value().verb == "ERR")
        return clientErrExit(er.value());
    const serve::Message &m = er.value();
    std::printf(
        "streaming selection (%llu groups from %llu launches, %llu "
        "drift events, %llu refits, %llu resident profiles / %llu "
        "bytes):\n"
        "  projected cycles %.4e, IPC %.1f, DRAM util %.1f%%\n"
        "  simulated cycles %.4e, profiled %.4e (%.1f%% err)\n",
        static_cast<unsigned long long>(replyUint(m, "groups")),
        static_cast<unsigned long long>(replyUint(m, "observed")),
        static_cast<unsigned long long>(replyUint(m, "drift")),
        static_cast<unsigned long long>(replyUint(m, "refits")),
        static_cast<unsigned long long>(replyUint(m, "resident")),
        static_cast<unsigned long long>(replyUint(m, "resident_bytes")),
        replyDouble(m, "projected"), replyDouble(m, "ipc"),
        replyDouble(m, "dram"), replyDouble(m, "simulated"),
        replyDouble(m, "profiled"), replyDouble(m, "sil_err_pct"));
    if (replyUint(m, "failed") > 0 || replyUint(m, "quorum") == 0)
        std::fprintf(stderr,
                     "streaming simulation: %llu launch(es) failed, "
                     "quorum %s\n",
                     static_cast<unsigned long long>(
                         replyUint(m, "failed")),
                     replyUint(m, "quorum") == 1 ? "met" : "NOT met");
    return replyUint(m, "quorum") == 1 ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fputs(kUsage, stderr);
        return 1;
    }
    std::string cmd = argv[1];
    CliArgs args(argc, argv, 2,
                 {"light", "pkp", "force", "no-memo", "content-seed",
                  "resume", "store-stats", "fail-fast", "strict-profiles",
                  "stability", "stream", "stats", "shutdown", "xcache",
                  "repair"},
                 {"abstain-threshold", "audit-rate", "audit-seed",
                  "cache-dir", "connect", "error-budget", "fault-seed",
                  "faults", "feed-chunk", "first-n", "gpu", "id",
                  "io-timeout", "launch-quota", "limit", "listen",
                  "max-campaigns", "max-k", "max-retries", "max-sessions",
                  "memo-budget-mb", "min-quorum", "mlperf-scale", "out",
                  "priority", "profiles", "reservoir", "selection",
                  "session", "stability-bootstrap", "store-budget-mb",
                  "suite", "target-error", "task-timeout", "threads",
                  "threshold", "warmup", "xcache-tolerance"});

    if (args.has("faults")) {
        if (!common::kFaultInjectionCompiledIn)
            common::fatal("--faults requires a PKA_FAULT_INJECTION build "
                          "(cmake -DPKA_FAULT_INJECTION=ON)");
        std::string err;
        if (!common::FaultInjector::instance().configureFromString(
                args.get("faults"), args.getUint("fault-seed", 1), &err))
            common::fatal("malformed --faults spec: " + err);
    }

    // serve/client bypass the engine setup below: the daemon owns its
    // engine and store (the cache dir must not be double-opened), and
    // the client holds no engine at all.
    if (cmd == "serve")
        return cmdServe(args);
    if (cmd == "client")
        return cmdClient(args);
    // fsck is strictly offline — it must not open the store it scrubs.
    if (cmd == "fsck")
        return cmdFsck(args);

    sim::EngineOptions eo = engineOptionsFor(args);

    // The persistent store outlives every command (the engine holds a
    // non-owning pointer to it).
    std::unique_ptr<store::KernelResultStore> store;
    if (args.has("cache-dir")) {
        try {
            store = std::make_unique<store::KernelResultStore>(
                args.get("cache-dir"), args.has("xcache"));
        } catch (const common::TaskException &ex) {
            common::fatal("cannot open result store: " +
                          std::string(ex.what()));
        }
        uint64_t disk_mb =
            args.getUint("store-budget-mb", 0, 0, 1u << 30);
        if (disk_mb != 0)
            store->setDiskBudgetBytes(disk_mb * (1ull << 20));
        if (eo.memoBudgetBytes != 0)
            store->setMemoryBudgetBytes(eo.memoBudgetBytes);
        eo.store = store.get();
    } else if (args.has("resume")) {
        common::fatal("--resume requires --cache-dir");
    }
    // Declared after the store so it is destroyed first: its destructor
    // joins the audit thread, which may still be writing to the store.
    const sim::SimEngine engine(eo);

    auto finish = [&](int rc) {
        if (store && args.has("store-stats")) {
            store::StoreStatsSnapshot s = store->stats();
            std::fprintf(
                stderr,
                "store: %llu hits / %llu misses (%.1f%% hit rate), "
                "%llu corrupt skipped, %llu key mismatches, "
                "%llu records written (%llu failed), "
                "%llu bytes read / %llu written, "
                "%llu I/O retries (%llu exhausted), "
                "%llu orphans swept\n",
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses), s.hitRatePct(),
                static_cast<unsigned long long>(s.corruptSkipped),
                static_cast<unsigned long long>(s.keyMismatches),
                static_cast<unsigned long long>(s.puts),
                static_cast<unsigned long long>(s.putFailures),
                static_cast<unsigned long long>(s.bytesRead),
                static_cast<unsigned long long>(s.bytesWritten),
                static_cast<unsigned long long>(s.ioRetries),
                static_cast<unsigned long long>(s.retryExhausted),
                static_cast<unsigned long long>(s.orphansSwept));
            // Resilience counters print only when something happened,
            // keeping clean runs' output byte-stable.
            if (s.degraded != 0 || s.putsSkippedDegraded != 0 ||
                s.evictedRecords != 0)
                std::fprintf(
                    stderr,
                    "store: %s, %llu put(s) skipped (compute-through), "
                    "%llu record(s) / %llu bytes evicted for budget\n",
                    s.degraded ? "DEGRADED (compute-through)" : "healthy",
                    static_cast<unsigned long long>(s.putsSkippedDegraded),
                    static_cast<unsigned long long>(s.evictedRecords),
                    static_cast<unsigned long long>(s.evictedBytes));
            if (const store::SignatureIndex *idx = store->similarity()) {
                store::SigIndexStatsSnapshot g = idx->stats();
                std::fprintf(
                    stderr,
                    "sig:   %zu entries (%llu loaded, %llu corrupt "
                    "skipped), %llu probes / %llu hits, "
                    "%llu inserts (%llu failed), %llu I/O retries, "
                    "%llu orphans swept\n",
                    idx->size(), static_cast<unsigned long long>(g.loaded),
                    static_cast<unsigned long long>(g.corruptSkipped),
                    static_cast<unsigned long long>(g.probes),
                    static_cast<unsigned long long>(g.probeHits),
                    static_cast<unsigned long long>(g.inserts),
                    static_cast<unsigned long long>(g.insertFailures),
                    static_cast<unsigned long long>(g.ioRetries),
                    static_cast<unsigned long long>(g.orphansSwept));
                // Similarity-audit section: printed only when auditing
                // was active, keeping audit-off output byte-stable.
                engine.auditDrain();
                // Re-snapshot after the drain: audits that completed
                // during it recorded into the index.
                g = idx->stats();
                sim::SimEngine::AuditSnapshot au = engine.auditStats();
                if (au.sampled > 0 || g.auditsRecorded > 0)
                    std::fprintf(
                        stderr,
                        "audit: %llu sampled / %llu run / %llu shed, "
                        "%llu violation(s), worst observed error %.4f, "
                        "%llu entr%s quarantined, governor %llu "
                        "tighten(s) / %llu relax(es), min scale %.3f\n",
                        static_cast<unsigned long long>(au.sampled),
                        static_cast<unsigned long long>(au.run),
                        static_cast<unsigned long long>(au.shed),
                        static_cast<unsigned long long>(au.violations),
                        au.maxObservedErr,
                        static_cast<unsigned long long>(g.quarantined),
                        g.quarantined == 1 ? "y" : "ies",
                        static_cast<unsigned long long>(
                            g.governorTightened),
                        static_cast<unsigned long long>(
                            g.governorRelaxed),
                        g.governorMinScale);
            }
        }
        return rc;
    };

    if (cmd == "list")
        return finish(cmdList(args));
    if (cmd == "profile")
        return finish(cmdProfile(args));
    if (cmd == "select")
        return finish(cmdSelect(args));
    if (cmd == "simulate")
        return finish(cmdSimulate(args, engine));
    if (cmd == "trace")
        return finish(cmdTrace(args));
    if (cmd == "analyze")
        return finish(cmdAnalyze(args, engine));
    if (cmd == "--help" || cmd == "help") {
        std::fputs(kUsage, stdout);
        return 0;
    }
    std::fprintf(stderr, "unknown command '%s'\n\n%s", cmd.c_str(),
                 kUsage);
    return 1;
}
