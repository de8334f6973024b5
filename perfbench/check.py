#!/usr/bin/env python3
"""Smoke run and run-to-run agreement check for perfbench/run.py.

Run from the root of a checkout:

    python3 perfbench/check.py smoke
        Every workload once at --seconds 1, untraced and traced: the last
        line must be a correct result carrying exactly the metrics that
        BENCHMARK.json declares, with their units. Also checks that a
        directory holding only BENCHMARK.json and perfbench/ fails without
        printing a result.

    python3 perfbench/check.py agree [--runs 10] [--sets 2] [--workloads a,b]
        `sets` sets of `runs` untraced runs per workload (seeds 1..runs).
        For each end-to-end metric it reports the spread of each set (the
        distance between the first and third quartile over the median) and
        how far, in either direction, the later sets' medians lie from the
        first's. Fails when a spread or a drift exceeds the metric's bound;
        flags spreads above a third of the bound as unsteady.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "check")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace, cwd=ROOT):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=900)
    lines = res.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return res.returncode, result, res.stderr


def smoke(spec):
    problems = []
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            rc, result, err = run_once(spec, w["name"], 1, 1, trace)
            tag = f"{w['name']} --trace {trace}"
            if rc != 0 or result is None:
                problems.append(f"{tag}: exit {rc}, no result\n{err[-2000:]}")
                continue
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in got if k in want and got[k] != want[k]]}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: {result['failed']} of "
                                f"{result['attempted']} failed")
            print(f"smoke {tag}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    rc, result, _ = run_once(spec, spec["workloads"][0]["name"], 1, 1, 0, bare)
    shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or result is not None:
        problems.append("a directory without the sources produced a result")
    print(f"smoke bare directory: exit {rc}, result {result is not None}")
    return problems


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def agree(spec, runs, sets, workloads):
    os.makedirs(OUT_DIR, exist_ok=True)
    seconds = spec["run_seconds"]
    results = {}  # workload -> [set][run] metrics
    for s in range(sets):
        for w in workloads:
            for seed in range(1, runs + 1):
                rc, result, err = run_once(spec, w, seed, seconds, 0)
                if rc != 0 or result is None or not result["correct"]:
                    print(f"{w} seed {seed}: exit {rc}\n{err[-2000:]}")
                    return [f"{w} seed {seed} failed"]
                results.setdefault(w, [[] for _ in range(sets)])[s].append(
                    {k: v["value"] for k, v in result["metrics"].items()})
                print(f"set {s + 1} {w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                    flush=True)
    with open(os.path.join(OUT_DIR, "agree.json"), "w") as f:
        json.dump(results, f, indent=1)
    problems = []
    print(f"\n{'workload':14} {'metric':13} {'bound':>6} "
          + " ".join(f"{'spread' + str(i + 1):>8}" for i in range(sets))
          + " " + " ".join(f"{'drift' + str(i + 1):>7}" for i in range(1, sets)))
    for w, per_set in results.items():
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r[name] for r in runs_] for runs_ in per_set]
            spreads = [spread(v) for v in vals]
            meds = [statistics.median(v) for v in vals]
            drifts = [abs(md - meds[0]) / meds[0] for md in meds[1:]]
            flag = ""
            if max(spreads) > bound:
                problems.append(f"{w} {name}: spread {max(spreads):.3f} > bound {bound}")
                flag = "  SPREAD"
            elif max(spreads) > bound / 3:
                flag = "  unsteady (> bound/3)"
            if drifts and max(drifts) > bound:
                problems.append(f"{w} {name}: drift {max(drifts):.3f} > bound {bound}")
                flag += "  DRIFT"
            print(f"{w:14} {name:13} {bound:6.3f} "
                  + " ".join(f"{x:8.3f}" for x in spreads) + " "
                  + " ".join(f"{x:7.3f}" for x in drifts) + flag)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("smoke", "agree"))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    spec = load_spec()
    if args.mode == "smoke":
        problems = smoke(spec)
    else:
        names = [w["name"] for w in spec["workloads"]]
        chosen = args.workloads.split(",") if args.workloads else names
        problems = agree(spec, args.runs, args.sets, chosen)
    for p in problems:
        print("FAIL " + p)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
