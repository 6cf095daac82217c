#!/usr/bin/env python3
"""End-to-end PKA benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record

Run from the repository root. The first call configures and builds the
driver (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench; later calls rebuild only what changed. The driver
runs the workload's apps, as perfbench/workloads.json lists them, as a
closed loop for S seconds (default: BENCHMARK.json's run_seconds) and
prints a JSON report; this script checks every app's result digest,
compares seeds recorded in workloads.json against their recorded digests
and deterministic metrics, and prints, as its last stdout line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). The line before it holds the run facts.

--selftest builds and runs the benchmark's arithmetic self-tests and
checks BENCHMARK.json against the metric names the driver reports.
--record re-measures the recorded seeds and rewrites the "inputs" and
"recorded" entries of workloads.json (after an intended change to
results; review the diff).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS_JSON = os.path.join(HERE, "workloads.json")
DRIVER_TIMEOUT_S = 170
INPUT_METRICS = ("workload.launches", "workload.distinct_kernels",
                 "workload.warp_insts")
RESULT_METRICS = ("pka_error_pct", "sim_reduction_x")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure (a no-op when nothing changed), then build the driver and
    self-test incrementally."""
    cmd = ["cmake", "-S", HERE, "-B", BUILD]
    if (shutil.which("ninja") and
            not os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--parallel",
                    str(os.cpu_count() or 1), "--target", "perfbench_driver",
                    "perfbench_selftest"], check=True, stdout=sys.stderr)


def run_driver(workload, spec, seed, seconds, trace):
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", OUT,
           "--store-pass", "1" if spec["store_pass"] else "0"]
    for app in spec["apps"]:
        scale = app.get("mlperf_scale")
        cmd += ["--app", f"{app['kind']}:{app['app']}" +
                (f":{scale!r}" if scale is not None else "")]
    # subprocess.run kills and reaps the driver if it overruns.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_defs(trace):
    bench = load_json(BENCHMARK_JSON)
    return bench["per_layer" if trace else "end_to_end"]


def judge(report, trace, workloads):
    """Turn a driver report into (correct, attempted, failed, metrics)."""
    spec = workloads["workloads"][report["workload"]]
    recorded = spec["recorded"].get(str(report["seed"]))
    evals = report["evaluations"]
    correct = True

    apps = [e["app"] for e in evals if e["pass"] == 0]
    if recorded and apps != list(recorded["digests"]):
        log(f"evaluated {apps}, recorded {list(recorded['digests'])}")
        correct = False

    failed_apps = set()
    for e in evals:
        want = recorded["digests"].get(e["app"]) if recorded else None
        if e["ok"] and want is not None and e["digest"] != want:
            e["ok"] = False
            e["error"] = f"digest {e['digest']} != recorded {want}"
        if not e["ok"]:
            failed_apps.add(e["app"])
            log(f"FAILED {e['app']} (pass {e['pass']}): {e['error']}")
    attempted = len(evals)
    failed = sum(1 for e in evals if not e["ok"])

    metrics = dict(report["metrics"])
    if not trace:
        metrics["completed_pct"] = 100.0 * (attempted - failed) / attempted
    if recorded and not trace:
        for k in RESULT_METRICS:
            if metrics[k] != recorded[k]:
                log(f"{k} {metrics[k]!r} != recorded {recorded[k]!r}")
                correct = False
    if trace:
        for k in INPUT_METRICS:
            if metrics[k] != spec["inputs"][k]:
                log(f"{k} {metrics[k]!r} != recorded {spec['inputs'][k]!r}")
                correct = False

    defs = metric_defs(trace)
    if sorted(metrics) != sorted(d["name"] for d in defs):
        log(f"driver metrics {sorted(metrics)} differ from BENCHMARK.json")
        correct = False
    out = {d["name"]: {"value": metrics.get(d["name"], 0.0),
                       "unit": d["unit"]} for d in defs}
    if failed_apps:
        log("failed apps: " + ", ".join(sorted(failed_apps)))
    return correct and failed == 0, attempted, failed, out


def measure(args):
    workloads = load_json(WORKLOADS_JSON)
    if args.workload not in workloads["workloads"]:
        log(f"unknown workload {args.workload!r}")
        return 2
    build()
    seconds = args.seconds
    if seconds is None:
        seconds = load_json(BENCHMARK_JSON)["run_seconds"]
    spec = workloads["workloads"][args.workload]
    report = run_driver(args.workload, spec, args.seed, seconds, args.trace)
    correct, attempted, failed, metrics = judge(report, args.trace,
                                                workloads)
    facts = dict(report["facts"], workload=report["workload"],
                 seed=report["seed"], trace=report["trace"],
                 passes=report["passes"], samples=report["samples"],
                 trace_file=os.path.relpath(report["trace_file"], ROOT)
                 if report["trace_file"] else "")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as f:
        json.dump({"facts": facts, "result": result,
                   "evaluations": report["evaluations"]}, f, indent=1)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


def check_benchmark_json(selftest_lines):
    """BENCHMARK.json names exactly what the driver reports."""
    bench = load_json(BENCHMARK_JSON)
    problems = []
    reported = {"end_to_end": [], "per_layer": []}
    for line in selftest_lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            reported[parts[1]].append({"name": parts[2], "unit": parts[3]})
    for section, defs in reported.items():
        listed = [{"name": d["name"], "unit": d["unit"]}
                  for d in bench[section]]
        if listed != defs:
            problems.append(f"{section} in BENCHMARK.json differs from the "
                            f"driver's metrics")
    bounds = {d["name"]: d["bound"] for d in bench["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append("end_to_end bounds must lie in (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must carry the largest bound")
    listed = [w["name"] for w in bench["workloads"]]
    if listed != list(load_json(WORKLOADS_JSON)["workloads"]):
        problems.append("BENCHMARK.json and workloads.json list different "
                        "workloads")
    return problems


def selftest():
    build()
    proc = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    problems = [] if proc.returncode == 0 else ["arithmetic self-test failed"]
    problems += check_benchmark_json(lines)
    for p in problems:
        log(p)
    log("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def record():
    workloads = load_json(WORKLOADS_JSON)
    build()
    for name, spec in workloads["workloads"].items():
        traced = run_driver(name, spec, 0, 0, 1)
        spec["inputs"] = {k: traced["metrics"][k] for k in INPUT_METRICS}
        spec["recorded"] = {}
        for seed in workloads["recorded_seeds"]:
            report = run_driver(name, spec, seed, 0, 0)
            bad = [e for r in (traced, report) for e in r["evaluations"]
                   if not e["ok"]]
            if bad:
                log(f"{name} seed {seed}: not recording failed runs {bad}")
                return 1
            spec["recorded"][str(seed)] = dict(
                {k: report["metrics"][k] for k in RESULT_METRICS},
                digests={e["app"]: e["digest"]
                         for e in report["evaluations"] if e["pass"] == 0})
            log(f"recorded {name} seed {seed}")
    with open(WORKLOADS_JSON, "w", encoding="utf-8") as f:
        json.dump(workloads, f, indent=2)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record", action="store_true")
    args = p.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.record:
            return record()
        if not args.workload:
            p.error("--workload is required")
        return measure(args)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
