/**
 * @file
 * Table 4: the paper's main result table. For every workload: Principal
 * Kernel Selection error/speedup on Volta/Turing/Ampere silicon (groups
 * selected once on Volta), Accel-Sim-style simulation error, PKS and PKA
 * simulation error + projected simulation hours + speedup, and the DRAM
 * utilization reported by full simulation versus projected by PKA.
 * Profiler-sensitive workloads print "*" (kernel-count mismatch), and
 * MLPerf rows have no full-simulation columns, as in the paper.
 */

#include <cstdio>
#include <iostream>
#include <map>

#include "bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/experiments.hh"
#include "silicon/silicon_gpu.hh"
#include "workload/suites.hh"

using namespace pka;

namespace
{

struct Record
{
    std::string suite, name, family;
    bool excluded = false;
    bool mlperf = false;
    // Silicon PKS per generation.
    double sil_err[3] = {0, 0, 0};
    double sil_su[3] = {1, 1, 1};
    // Volta simulation.
    double sim_err = 0;
    double pks_err = 0, pks_hours = 0, pks_su = 1;
    double pka_err = 0, pka_hours = 0, pka_su = 1;
    double dram_full = 0, dram_pka = 0;
    bool has_full_sim = false;
};

/** DeepBench/CUTLASS rows aggregate into per-family means. */
std::string
familyOf(const std::string &suite, const std::string &name)
{
    if (suite != "deepbench" && suite != "cutlass")
        return name;
    auto pos = name.rfind("_in");
    if (suite == "deepbench" && pos != std::string::npos)
        return name.substr(0, pos) + " (mean)";
    if (suite == "cutlass")
        return name.substr(0, name.find('_')) + " (mean)";
    return name;
}

} // namespace

int
main()
{
    sim::SimEngine engine(bench::engineOptionsFromEnv());

    bench::banner("Table 4: PKS/PKA error and speedup, silicon and "
                  "simulation (Volta-selected kernels)");

    const silicon::GpuSpec specs[3] = {silicon::voltaV100(),
                                       silicon::turingRtx2060(),
                                       silicon::ampereRtx3070()};
    silicon::SiliconGpu volta(specs[0]);
    sim::GpuSimulator simulator(specs[0]);

    std::vector<Record> recs;
    for (const auto &pair : core::buildAllPairs()) {
        const auto &w = pair.traced;
        Record r;
        r.suite = w.suite;
        r.name = w.name;
        r.family = familyOf(w.suite, w.name);
        r.mlperf = w.suite == "mlperf";

        core::PkaAppResult res =
            core::runPka(engine, w, pair.profiled, volta, simulator);
        if (res.excluded) {
            r.excluded = true;
            recs.push_back(r);
            continue;
        }

        // Silicon PKS across generations (Volta-selected groups); MLPerf
        // does not fit the consumer cards' memory.
        int gens = r.mlperf ? 1 : 3;
        for (int g = 0; g < gens; ++g) {
            silicon::SiliconGpu gpu(specs[g]);
            auto app = gpu.run(w);
            std::vector<uint64_t> cycles(w.launches.size());
            for (size_t i = 0; i < app.launches.size(); ++i)
                cycles[i] = app.launches[i].cycles;
            auto ev =
                core::evaluateSelection(res.selection.groups, cycles);
            r.sil_err[g] = ev.errorPct;
            r.sil_su[g] = ev.speedup;
        }

        auto sil = volta.run(w);
        double sil_cycles = static_cast<double>(sil.totalCycles);
        r.pks_err =
            common::pctError(res.pks.projectedCycles, sil_cycles);
        r.pka_err =
            common::pctError(res.pka.projectedCycles, sil_cycles);
        r.pks_hours = core::projectedSimHours(res.pks.simulatedCycles);
        r.pka_hours = core::projectedSimHours(res.pka.simulatedCycles);
        r.dram_pka = res.pka.projectedDramUtilPct;

        if (core::isFullySimulable(w)) {
            auto fs = core::fullSimulate(engine, simulator, w);
            r.has_full_sim = true;
            r.sim_err = common::pctError(fs.cycles, sil_cycles);
            r.pks_su = res.pks.simulatedCycles > 0
                           ? fs.cycles / res.pks.simulatedCycles
                           : 1.0;
            r.pka_su = res.pka.simulatedCycles > 0
                           ? fs.cycles / res.pka.simulatedCycles
                           : 1.0;
            r.dram_full = fs.dramUtilPct;
        } else {
            // The paper reports PKA speedup relative to PKS for MLPerf.
            r.pks_su = 1.0;
            r.pka_su = res.pka.simulatedCycles > 0
                           ? res.pks.simulatedCycles /
                                 res.pka.simulatedCycles
                           : 1.0;
        }
        recs.push_back(r);
    }

    // Aggregate family means for CUTLASS/DeepBench.
    std::vector<Record> rows;
    std::map<std::string, std::pair<Record, int>> family_acc;
    std::vector<std::string> family_order;
    for (const auto &r : recs) {
        if (r.family == r.name) {
            rows.push_back(r);
            continue;
        }
        auto [it, fresh] =
            family_acc.try_emplace(r.family, std::make_pair(r, 0));
        if (fresh) {
            family_order.push_back(r.family);
            it->second.first.name = r.family;
            if (r.excluded)
                it->second.second = -1000; // whole family excluded
        }
        if (r.excluded || it->second.second < 0)
            continue;
        Record &acc = it->second.first;
        int n = it->second.second;
        auto avg = [n](double a, double b) {
            return (a * n + b) / (n + 1);
        };
        for (int g = 0; g < 3; ++g) {
            acc.sil_err[g] = avg(acc.sil_err[g], r.sil_err[g]);
            acc.sil_su[g] = avg(acc.sil_su[g], r.sil_su[g]);
        }
        acc.sim_err = avg(acc.sim_err, r.sim_err);
        acc.pks_err = avg(acc.pks_err, r.pks_err);
        acc.pka_err = avg(acc.pka_err, r.pka_err);
        acc.pks_hours = acc.pks_hours + r.pks_hours;
        acc.pka_hours = acc.pka_hours + r.pka_hours;
        acc.pks_su = avg(acc.pks_su, r.pks_su);
        acc.pka_su = avg(acc.pka_su, r.pka_su);
        acc.dram_full = avg(acc.dram_full, r.dram_full);
        acc.dram_pka = avg(acc.dram_pka, r.dram_pka);
        ++it->second.second;
    }
    // Splice family means back in suite order.
    for (const auto &f : family_order) {
        auto &e = family_acc.at(f);
        if (e.second < 0)
            e.first.excluded = true;
        rows.push_back(e.first);
    }

    common::TextTable t({"application", "VoltaE", "VoltaSU", "TuringE",
                         "TuringSU", "AmpereE", "AmpereSU", "SimErr",
                         "PKSErr", "PKS[H]", "PKS SU", "PKAErr",
                         "PKA[H]", "PKA SU", "DRAM full", "DRAM PKA"});
    std::string cur_suite;
    for (const auto &r : rows) {
        if (r.suite != cur_suite) {
            cur_suite = r.suite;
            t.row().cell("--- " + cur_suite + " ---");
        }
        t.row().cell(r.name);
        if (r.excluded) {
            for (int i = 0; i < 15; ++i)
                t.cell("*");
            continue;
        }
        t.num(r.sil_err[0], 1).num(r.sil_su[0], 1);
        if (r.mlperf) {
            t.cell("*").cell("*").cell("*").cell("*");
        } else {
            t.num(r.sil_err[1], 1).num(r.sil_su[1], 1);
            t.num(r.sil_err[2], 1).num(r.sil_su[2], 1);
        }
        if (r.has_full_sim)
            t.num(r.sim_err, 1);
        else
            t.cell("*");
        t.num(r.pks_err, 1).num(r.pks_hours, 2).num(r.pks_su, 1);
        t.num(r.pka_err, 1).num(r.pka_hours, 2).num(r.pka_su, 1);
        if (r.has_full_sim)
            t.num(r.dram_full, 1);
        else
            t.cell("*");
        t.num(r.dram_pka, 1);
    }
    t.print(std::cout);

    // Suite-level summaries the paper quotes in the text.
    std::map<std::string, std::vector<const Record *>> by_suite;
    for (const auto &r : recs)
        if (!r.excluded)
            by_suite[r.suite].push_back(&r);
    std::printf("\nSuite summaries (Volta silicon PKS):\n");
    for (const auto &[suite, rs] : by_suite) {
        std::vector<double> errs, sus;
        for (const auto *r : rs) {
            errs.push_back(r->sil_err[0]);
            sus.push_back(r->sil_su[0]);
        }
        std::printf("  %-10s mean error %5.1f%%  geomean speedup %8.1fx "
                    "(%zu apps)\n",
                    suite.c_str(), common::mean(errs),
                    common::geomean(sus), rs.size());
    }
    return 0;
}
