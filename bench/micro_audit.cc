/**
 * @file
 * Shadow-audit acceptance bench: drives the accuracy layer end to end
 * against an *adversarial* fleet and emits BENCH_audit.json. Four
 * phases:
 *
 *   1. Adversarial near-miss detection. Kernels engineered to collide
 *      in signature space — identical instruction mix, divergence and
 *      sector counts, opposite cache locality — so the similarity tier
 *      certifies their projections at bound 0 while true cycles
 *      diverge. The audit lane must detect the lie from ground truth,
 *      quarantine the lying donor, and heal the store (later twins
 *      simulate and serve exactly).
 *   2. Honest-fleet certified error. A grid/iteration-perturbed fleet
 *      projected under auditing: per-launch certified bounds are
 *      accumulated into the campaign's mean certified error, which
 *      must stay within the configured budget (no degradation), and
 *      the observed projection errors must respect their bounds.
 *   3. Error-budget trip. The same fleet under a budget far below one
 *      projection's bound: the campaign must complete with the typed
 *      accuracy-degraded outcome and a simulate-through tail.
 *   4. Clean-path bit-identity. With auditing and the tier off, the
 *      campaign's aggregates must be bit-identical to a plain engine.
 *
 * `--quick` shrinks the fleet and exits non-zero unless every phase's
 * gate holds — the CI acceptance gate.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "core/experiments.hh"
#include "core/pka.hh"
#include "silicon/gpu_spec.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "store/file_store.hh"
#include "store/sig_index.hh"
#include "workload/builder.hh"

namespace fs = std::filesystem;
using namespace pka;
using namespace pka::workload;

namespace
{

/** A kernel whose cache locality is invisible to the 12 signature
 *  counters: instruction mix, divergence and sectors stay fixed while
 *  cycle behaviour moves with `locality`. Two of these with different
 *  locality are the adversarial near-miss pair — same quantized
 *  signature, divergent cycles. */
ProgramPtr
blindProg(const std::string &name, double locality)
{
    return ProgramBuilder(name)
        .seg(InstrClass::GlobalLoad, 4)
        .seg(InstrClass::FpAlu, 6)
        .seg(InstrClass::GlobalStore, 2)
        .mem(2.0, locality, locality)
        .divergence(1.0)
        .build();
}

KernelDescriptor
launchOf(ProgramPtr p, uint32_t ctas, uint32_t iters)
{
    KernelDescriptor k;
    k.program = std::move(p);
    k.grid = {ctas, 1, 1};
    k.block = {128, 1, 1};
    k.iterations = iters;
    return k;
}

sim::EngineOptions
engineOpts(const store::KernelResultStore *store, double tolerance,
           double audit_rate)
{
    sim::EngineOptions eo;
    eo.store = store;
    eo.xcacheTolerance = tolerance;
    eo.auditRate = audit_rate;
    return eo;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
    return v[i];
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;

    sim::GpuSimulator simulator(silicon::voltaV100());
    fs::path root = fs::temp_directory_path() /
                    ("pka_micro_audit_" + std::to_string(::getpid()));
    std::string json = "{\n";
    bool gate_ok = true;
    auto gate = [&](bool ok, const char *what) {
        if (!ok) {
            gate_ok = false;
            std::fprintf(stderr, "micro_audit: gate FAILED: %s\n", what);
        }
    };

    // ---- Phase 1: adversarial near-miss detection -------------------
    bench::banner("adversarial near-miss detection");
    {
        store::KernelResultStore store((root / "adv").string(),
                                       /*similarity=*/true);
        sim::SimEngine engine(engineOpts(&store, 0.05, 1.0));
        const size_t adversaries = quick ? 4 : 12;

        // The honest donor seeds the index...
        KernelDescriptor donor =
            launchOf(blindProg("hot", 0.95), 60, 2);
        sim::SimJob jd;
        jd.setLaunch({donor, 0});
        jd.workloadSeed = 7;
        engine.simulateOne(simulator, jd);

        // ...and every adversary collides with it at distance 0: each
        // is served a certified-exact projection that is actually wrong
        // — until the audit lane quarantines the liar. Later cold
        // adversaries that simulated become honest donors for their own
        // cold twins, so projection itself resumes; the invariant is
        // that the *hot* liar never serves again.
        std::vector<double> observed; // |projected - truth| / truth
        uint64_t served_projected = 0, healed_simulated = 0;
        uint64_t liar_key = 0, served_from_liar = 0;
        for (size_t i = 0; i < adversaries; ++i) {
            KernelDescriptor adv =
                launchOf(blindProg("cold" + std::to_string(i), 0.05), 60, 2);
            const Launch adv_launch{adv, static_cast<uint32_t>(1 + i)};
            PKA_ASSERT(store::sigDistance(store::signatureOf(donor),
                                          store::signatureOf(adv)) == 0.0,
                       "adversary must collide in signature space");
            sim::SimJob j;
            j.setLaunch(adv_launch);
            j.workloadSeed = 7;
            sim::KernelSimResult r = engine.simulateOne(simulator, j);
            if (r.projected) {
                ++served_projected;
                // The first projection's donor IS the hot liar.
                if (liar_key == 0)
                    liar_key = r.projectedFromKey;
                if (r.projectedFromKey == liar_key)
                    ++served_from_liar;
                sim::KernelSimResult truth =
                    simulator.simulateKernel(adv_launch, 7);
                double want = static_cast<double>(truth.cycles);
                observed.push_back(
                    want > 0 ? std::abs(static_cast<double>(r.cycles) -
                                        want) /
                                   want
                             : 0.0);
            } else {
                ++healed_simulated;
            }
            // Let the lane catch up between launches so the quarantine
            // lands while adversaries are still arriving — the healing
            // is what phase 1 measures, not queue throughput.
            engine.auditDrain();
        }
        sim::SimEngine::AuditSnapshot au = engine.auditStats();
        store::SigIndexStatsSnapshot ix = store.similarity()->stats();
        double worst_obs = observed.empty()
                               ? 0.0
                               : *std::max_element(observed.begin(),
                                                   observed.end());

        json += common::strfmt(
            "  \"adversarial\": {\"adversaries\": %zu, "
            "\"served_projected\": %llu, \"served_from_liar\": %llu, "
            "\"healed_simulated\": %llu, "
            "\"audits_run\": %llu, \"violations\": %llu, "
            "\"quarantined\": %llu, \"worst_observed_err\": %.5f},\n",
            adversaries, static_cast<unsigned long long>(served_projected),
            static_cast<unsigned long long>(served_from_liar),
            static_cast<unsigned long long>(healed_simulated),
            static_cast<unsigned long long>(au.run),
            static_cast<unsigned long long>(au.violations),
            static_cast<unsigned long long>(ix.quarantined), worst_obs);

        // Detection: the first adversary was served a lie (nonzero
        // observed error against a certified-exact bound), the lane
        // flagged it, quarantined the liar, and the liar never served
        // another launch.
        gate(served_projected >= 1, "no adversary was ever projected");
        gate(worst_obs > 0.0, "the projection was not actually wrong");
        gate(au.violations >= 1, "no violation detected");
        gate(ix.quarantined >= 1, "lying donor not quarantined");
        gate(served_from_liar == 1,
             "quarantine did not stop the liar from serving");
        gate(healed_simulated >= 1, "no adversary was healed to truth");
    }

    // ---- Phase 2 + 3: honest fleet under a budget -------------------
    bench::banner("fleet certified error vs budget");
    const size_t fleet_launches = quick ? 10 : 40;
    Workload fleet;
    fleet.suite = "bench";
    fleet.name = "audit_fleet";
    fleet.seed = 7;
    // Launch 0/1: the two donor shapes (2- and 3-iteration variants).
    // The rest alternate: grid-scaled twins (distance 0, certified 0)
    // and cross-iteration twins (distance d > 0, certified e^d - 1).
    ProgramPtr p = blindProg("fleet", 0.6);
    fleet.launches.push_back(launchOf(p, 60, 2));
    fleet.launches.push_back(launchOf(p, 60, 3));
    for (uint32_t i = 2; i < fleet_launches; ++i)
        fleet.launches.push_back(
            launchOf(p, 60 + 10 * (i % 7), 2 + i % 2));
    double d = store::sigDistance(
        store::signatureOf(fleet.launches[0].config),
        store::signatureOf(fleet.launches[1].config));
    PKA_ASSERT(d > 0.0, "iteration shift must move the signature");
    const double tolerance = d * 1.5;

    double fleet_mean_cert = 0.0, fleet_cert_p95 = 0.0;
    {
        store::KernelResultStore store((root / "fleet").string(),
                                       /*similarity=*/true);
        sim::SimEngine engine(engineOpts(&store, tolerance, 0.25));
        core::CampaignCheckpoint cp; // chunked, no journal
        cp.chunkLaunches = 8;
        core::CampaignPolicy policy;
        policy.errorBudget = 0.5; // generous: the fleet must fit
        core::FullSimResult run = core::fullSimulate(
            engine, simulator, fleet, &cp, &policy);
        engine.auditDrain();

        std::vector<double> cert;
        for (const auto &k : run.perKernel)
            if (k.projected)
                cert.push_back(k.projErrBound);
        fleet_mean_cert = run.certifiedError;
        fleet_cert_p95 = percentile(cert, 0.95);
        sim::SimEngine::AuditSnapshot au = engine.auditStats();

        json += common::strfmt(
            "  \"fleet\": {\"launches\": %zu, \"projected\": %llu, "
            "\"mean_cert_err\": %.5f, \"cert_p95\": %.5f, "
            "\"budget\": %.3f, \"degraded\": %s, "
            "\"audits_sampled\": %llu, \"audits_run\": %llu},\n",
            fleet.launches.size(),
            static_cast<unsigned long long>(run.projectedLaunches),
            fleet_mean_cert, fleet_cert_p95, policy.errorBudget,
            run.accuracyDegraded ? "true" : "false",
            static_cast<unsigned long long>(au.sampled),
            static_cast<unsigned long long>(au.run));

        gate(run.projectedLaunches > 0, "fleet never projected");
        gate(!run.accuracyDegraded,
             "fleet tripped a budget it should fit");
        gate(fleet_mean_cert <= policy.errorBudget,
             "mean certified error above budget");
        gate(fleet_cert_p95 <= store::sigErrorBound(tolerance) + 1e-12,
             "certified p95 above the tolerance bound");
    }

    bench::banner("error-budget trip -> simulate-through");
    {
        store::KernelResultStore store((root / "trip").string(),
                                       /*similarity=*/true);
        sim::SimEngine engine(engineOpts(&store, tolerance, 0.0));
        core::CampaignCheckpoint cp;
        cp.chunkLaunches = 4;
        core::CampaignPolicy policy;
        policy.errorBudget = 1e-4; // below one projection's bound
        core::FullSimResult run = core::fullSimulate(
            engine, simulator, fleet, &cp, &policy);

        json += common::strfmt(
            "  \"budget_trip\": {\"budget\": %.5f, \"degraded\": %s, "
            "\"cert_err\": %.5f, \"projected\": %llu, "
            "\"launches\": %zu, \"failed\": %llu},\n",
            policy.errorBudget, run.accuracyDegraded ? "true" : "false",
            run.certifiedError,
            static_cast<unsigned long long>(run.projectedLaunches),
            fleet.launches.size(),
            static_cast<unsigned long long>(run.failedLaunches));

        // The typed accuracy outcome: tripped, complete, tail simulated.
        gate(run.accuracyDegraded, "budget never tripped");
        gate(run.failedLaunches == 0, "simulate-through lost launches");
        gate(run.perKernel.size() == fleet.launches.size(),
             "campaign did not complete");
        gate(run.projectedLaunches < fleet.launches.size() / 2,
             "tail kept projecting after the trip");
    }

    // ---- Phase 4: clean-path bit-identity ---------------------------
    bench::banner("clean-path bit-identity");
    {
        // Tier and audit off, store on: must equal a storeless engine.
        store::KernelResultStore store((root / "ident").string(),
                                       /*similarity=*/true);
        sim::SimEngine with_store(engineOpts(&store, 0.0, 0.0));
        sim::SimEngine plain{sim::EngineOptions{}};
        core::FullSimResult a =
            core::fullSimulate(with_store, simulator, fleet);
        core::FullSimResult b =
            core::fullSimulate(plain, simulator, fleet);
        bool identical = a.cycles == b.cycles &&
                         a.threadInsts == b.threadInsts &&
                         a.perKernel.size() == b.perKernel.size();
        for (size_t i = 0; identical && i < a.perKernel.size(); ++i)
            identical = a.perKernel[i].cycles == b.perKernel[i].cycles;

        json += common::strfmt(
            "  \"identity\": {\"bit_identical\": %s},\n",
            identical ? "true" : "false");
        gate(identical, "clean path diverged from a plain engine");
    }

    json += common::strfmt("  \"quick\": %s\n}\n",
                           quick ? "true" : "false");
    std::fputs(json.c_str(), stdout);
    if (FILE *out = std::fopen("BENCH_audit.json", "w")) {
        std::fputs(json.c_str(), out);
        std::fclose(out);
        std::printf("wrote BENCH_audit.json\n");
    }

    std::error_code ec;
    fs::remove_all(root, ec);
    return gate_ok ? 0 : 1;
}
