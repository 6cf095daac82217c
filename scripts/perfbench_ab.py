#!/usr/bin/env python3
"""Interleaved A/B of the end-to-end benchmark between two checkouts.

    python3 scripts/perfbench_ab.py --parent DIR --change DIR \\
        --workload NAME [--seed N] [--pairs 10] [--seconds S] \\
        [--trace 0|1] [--json OUT]

DIR is the root of a checkout (a parent commit and a change, each in its
own directory). Each pair runs `python3 perfbench/run.py` once in each
checkout, back to back, parent first in even pairs and change first in
odd ones, so a slow stretch of the host hits both sides alike. Before
the first pair each checkout runs `run.py --selftest`, which also builds
its benchmark binary, so no timed run pays for a build.

Every run is printed as it finishes. The summary gives, for each metric
of BENCHMARK.json (its end-to-end metrics, or its per-layer ones with
--trace 1): each side's median and quartiles (Python's
statistics.quantiles, default method), the pairs the change won, tied
and lost, and for end-to-end metrics the change of the medians against
the metric's bound, signed so that a positive change is worse. A gain
is marked CLEAR when the change won at least 9 in 10 pairs and its
median is better by more than the parent's interquartile range.

With --json, every run is written with its per-pass samples, and the
summary with it. Only BENCHMARK.json is read; nothing under perfbench/
is touched. Exit status is 1 when any run failed or reported
correct: false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(root, args):
    """One run.py call in `root`: (facts, result) or (None, error)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"exit {proc.returncode}: " + " | ".join(tail)
    return json.loads(lines[-2])["facts"], json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def fmt(x):
    return f"{x:.4g}"


def summarize(defs, runs, bounded):
    """Print the per-metric table; return the metric summaries."""
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"])
             if p is not None and c is not None]
    out = {}
    print(f"\n{len(pairs)} complete pairs")
    for d in defs:
        name, lower = d["name"], d["better"] == "lower"
        pv = [p["metrics"][name]["value"] for p, _ in pairs]
        cv = [c["metrics"][name]["value"] for _, c in pairs]
        if not pv:
            continue
        won = sum(1 for a, b in zip(pv, cv) if (b < a if lower else b > a))
        tied = sum(1 for a, b in zip(pv, cv) if a == b)
        pm, cm = statistics.median(pv), statistics.median(cv)
        (p1, p3), (c1, c3) = quartiles(pv), quartiles(cv)
        worse = (cm - pm) if lower else (pm - cm)
        rel = worse / abs(pm) if pm else 0.0
        gain = -worse
        clear = won >= 0.9 * len(pairs) and gain > p3 - p1
        line = (f"{name:24s} parent {fmt(pm)} [{fmt(p1)}, {fmt(p3)}]  "
                f"change {fmt(cm)} [{fmt(c1)}, {fmt(c3)}]  "
                f"won {won} tied {tied} lost {len(pairs) - won - tied}  "
                f"{rel * 100:+.1f}%")
        if bounded:
            line += (f" (bound {d['bound'] * 100:.0f}%: "
                     f"{'EXCEEDED' if rel > d['bound'] else 'ok'})")
        if clear:
            line += " CLEAR"
        print(line)
        out[name] = {"parent": {"median": pm, "q1": p1, "q3": p3},
                     "change": {"median": cm, "q1": c1, "q3": c3},
                     "won": won, "tied": tied, "pairs": len(pairs),
                     "worse_pct": rel * 100, "clear_gain": clear}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write every run and the summary here")
    args = ap.parse_args()

    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"),
              encoding="utf-8") as f:
        bench = json.load(f)
    defs = bench["per_layer" if args.trace else "end_to_end"]

    for side, root in roots.items():
        proc = subprocess.run([sys.executable, "perfbench/run.py",
                               "--selftest"], cwd=root,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{side}: self-test failed\n{proc.stderr}")
            return 1

    runs = {"parent": [], "change": []}
    facts = {}
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            t0 = time.monotonic()
            got, result = run_once(roots[side], args)
            took = time.monotonic() - t0
            if got is None:
                print(f"pair {i} {side}: FAILED ({result})", flush=True)
                runs[side].append(None)
                ok = False
                continue
            facts[side] = got
            # Keep each run's per-pass samples (setup_s, wall_s, cpu_s).
            result["samples"] = got.get("samples", {})
            runs[side].append(result)
            ok = ok and result["correct"]
            vals = " ".join(f"{k}={fmt(v['value'])}"
                            for k, v in result["metrics"].items())
            print(f"pair {i} {side}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"{vals} ({took:.0f} s)", flush=True)

    cpus = {side: f.get("nproc") for side, f in facts.items()}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"host_cpus {cpus}")
    summary = summarize(defs, runs, bounded=not args.trace)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "facts": facts, "runs": runs,
                       "summary": summary}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
