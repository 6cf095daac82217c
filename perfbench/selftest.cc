/**
 * @file
 * Self-tests for the benchmark's own arithmetic: digest stability, span
 * self time and the median. Exits non-zero when a check fails, else
 * lists the reported metrics, which run.py holds BENCHMARK.json to;
 * `python3 perfbench/run.py --selftest` builds and runs it.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/stats.hh"
#include "perfbench.hh"

using namespace perfbench;

namespace
{

int failures = 0;

#define CHECK(cond)                                                           \
    do {                                                                      \
        if (!(cond)) {                                                        \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,       \
                         __LINE__, #cond);                                    \
            ++failures;                                                       \
        }                                                                     \
    } while (0)

bool
near(double a, double b)
{
    return std::abs(a - b) < 1e-12;
}

AppOutcome
sampleOutcome()
{
    AppOutcome o;
    o.app = "gramschmidt";
    o.siliconCycles = 1.25e7;
    o.siliconIpc = 1.5;
    o.siliconPksErrorPct = 2.0;
    pka::core::KernelGroup g;
    g.representative = 3;
    g.members = {3, 4, 9};
    g.weight = 3.0;
    o.selection.groups = {g};
    o.selection.detailedCount = 3;
    o.selection.profilingCostSec = 0.25;
    o.pks.projectedCycles = 1.5e7;
    o.pks.simulatedCycles = 5.0e6;
    o.pka.projectedCycles = 1.3e7;
    o.pka.simulatedCycles = 1.0e6;
    o.fullySimulated = true;
    o.fullSim.cycles = 1.2e7;
    o.hasBaselines = true;
    o.tbpoint.groups = {g};
    o.tbpoint.chosenThreshold = 0.05;
    o.firstN.simulatedCycles = 2.0e6;
    return o;
}

void
testDigest()
{
    const AppOutcome o = sampleOutcome();
    // Pinned: the digest is a pure function of the covered bits, so it
    // must not move between builds, runs or hosts.
    CHECK(hex16(appDigest(o)) == hex16(appDigest(sampleOutcome())));
    CHECK(hex16(evaluationDigest(o)) == "b3821e584a7d83c5");
    CHECK(hex16(appDigest(o)) == "3b3d5d9d0d771987");
    CHECK(hex16(0xabcULL) == "0000000000000abc");

    AppOutcome w = o; // one ulp in a weight
    w.selection.groups[0].weight = std::nextafter(3.0, 4.0);
    CHECK(appDigest(w) != appDigest(o));
    AppOutcome m = o; // membership, same weight
    m.selection.groups[0].members = {3, 4, 10};
    CHECK(appDigest(m) != appDigest(o));
    AppOutcome t = o; // TBPoint is outside the evaluation part
    t.tbpoint.chosenThreshold = 0.1;
    CHECK(evaluationDigest(t) == evaluationDigest(o));
    CHECK(appDigest(t) != appDigest(o));
    AppOutcome d = o; // selection bookkeeping is covered
    d.selection.detailedCount = 2;
    CHECK(evaluationDigest(d) != evaluationDigest(o));
    AppOutcome e = o; // so is the silicon-side selection error
    e.siliconPksErrorPct = 0.5;
    CHECK(evaluationDigest(e) != evaluationDigest(o));
    AppOutcome f = o; // first-N cycles are covered
    f.firstN.simulatedCycles += 1.0;
    CHECK(appDigest(f) != appDigest(o));

    CHECK(near(pkaErrorPct(o), 4.0));
    CHECK(near(simReduction(o), 12.0));
    AppOutcome s = o; // no full simulation: silicon stands in
    s.fullySimulated = false;
    CHECK(near(simReduction(s), 12.5));
}

void
testSpans()
{
    Tracer t;
    int root = t.add({"bench.pass", 0.0, 10.0, -1, 0});
    int a = t.add({"sim.pks", 1.0, 4.0, root, 0});
    t.add({"sim.pka", 3.0, 6.0, root, 0}); // overlaps sim.pks
    t.add({"silicon.run", 2.0, 3.0, a, 0});
    t.add({"sim.pks", 0.0, 100.0, -1, 1}); // another pass
    auto self = t.selfSeconds(0);
    CHECK(near(self["bench.pass"], 5.0)); // children cover [1, 6]
    CHECK(near(self["sim.pks"], 2.0));
    CHECK(near(self["sim.pka"], 3.0));
    CHECK(near(self["silicon.run"], 1.0));
    CHECK(near(t.coveragePct(root), 50.0));
    CHECK(near(t.selfSeconds(1)["sim.pks"], 100.0));

    // Recorded spans nest under the innermost open span.
    Tracer live;
    {
        Scope outer(&live, "outer", 2);
        Scope inner(&live, "inner", 2);
    }
    Scope off(nullptr, "ignored", 0);
    CHECK(live.spans().size() == 2);
    CHECK(live.spans()[0].parent == -1);
    CHECK(live.spans()[1].parent == 0);
    CHECK(live.spans()[1].end <= live.spans()[0].end);
    CHECK(live.selfSeconds(2).at("outer") >= 0.0);
}

void
testMedian()
{
    CHECK(near(pka::common::median({3.0, 1.0, 2.0}), 2.0));
    CHECK(near(pka::common::median({4.0, 1.0, 2.0, 3.0}), 2.5));
    CHECK(near(pka::common::median({}), 0.0));
}

} // namespace

int
main()
{
    testDigest();
    testSpans();
    testMedian();
    if (failures) {
        std::fprintf(stderr, "perfbench self-test: %d check(s) failed\n",
                     failures);
        return 1;
    }
    // The names the driver reports, for run.py to hold BENCHMARK.json to.
    for (const MetricDef &d : endToEndMetrics())
        std::printf("metric end_to_end %s %s\n", d.name, d.unit);
    for (const MetricDef &d : perLayerMetrics())
        std::printf("metric per_layer %s %s\n", d.name, d.unit);
    std::printf("perfbench self-test: all checks passed\n");
    return 0;
}
