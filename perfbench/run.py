#!/usr/bin/env python3
"""Host-clock benchmark of sncube: cube builds and serving under refresh.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build_uniform --seed 1 --seconds 10 --trace 0

It builds `sncube` and `perfbench_tool` from the checkout's sources into
.bench_build/, makes its inputs from --seed, measures, checks every output
and prints one JSON object as the last line of stdout: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1. README.md in this
directory defines every metric and why each workload exists.
"""
import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
SNCUBE = os.path.join(BUILD_DIR, "sncube")
TOOL = os.path.join(BUILD_DIR, "perfbench_tool")

PROCS = 4          # `sncube build --procs`
SETUPS = 3         # set-up repetitions per run; setup_s is their median
MIN_BUILDS = 3     # timed builds per run, at least
DELTA_ROWS = 1000  # facts per refresh delta (the `serve --refresh-rows` default)
SESSIONS = 3       # serving sessions per run, one after each of the first builds
REFRESHES = 2      # deltas installed per serving session
QUERIES_PER_S = 300  # a session issues QUERIES_PER_S * --seconds queries

D8 = [256, 128, 64, 32, 16, 8, 6, 4]
D6 = [256, 128, 64, 32, 16, 8]

# A workload is the input its timed builds cube. Serving is the same in
# every workload: serve_refresh's cube, built in set-up, under one traffic.
SERVED = dict(rows=200000, cards=D6, alpha=0.0)
WORKLOADS = {
    "build_uniform": dict(rows=200000, cards=D8, alpha=0.0),
    "build_skewed": dict(rows=400000, cards=D8, alpha=2.0),
    "serve_refresh": SERVED,
}

SPAN_METRICS = {  # per-layer metric -> span name in trace-build output
    "relation.read_csv_s": "relation.read_csv",
    "net.cluster_run_s": "net.cluster_run",
    "relation.concat_s": "relation.concat",
    "seqcube.save_cube_s": "seqcube.save_cube",
}


class BenchError(Exception):
    """Set-up or build failure: the run cannot produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def declared_units(section):
    """{metric: unit} of a BENCHMARK.json section, the single list of metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def build_program():
    for need in ("src/CMakeLists.txt", "tools/sncube_cli.cc"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} is missing: run from a checkout of the repository")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        check(["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen, "configure")
    check(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
           "--target", "sncube", "perfbench_tool"], "build")


def check(cmd, what):
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         text=True)
    if res.returncode != 0:
        log(res.stdout[-4000:])
        raise BenchError(f"{what} failed: {' '.join(cmd)}")
    return res.stdout


def spawn(cmd, log_path):
    """Runs cmd; returns (seconds from spawn to exit, exit code, peak RSS MB, output)."""
    with open(log_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path) as f:
        output = f.read()
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0, output


def dir_mb(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total / 1048576.0


def alphas(spec):
    return ",".join(str(spec["alpha"]) for _ in spec["cards"])


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Run:
    def __init__(self, name, seed, seconds):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.w = WORKLOADS[name]
        self.dir = fresh_dir(os.path.join(WORK_DIR, name))
        self.attempted = 0
        self.failed = 0
        self.builds = []  # verified (build_s, sim_s, cube_mb, peak_rss_mb, dir)
        self.rss = []
        self.csv = self.ref = self.goldens = self.served = None

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def queries(self):
        return max(REFRESHES + 1, int(round(QUERIES_PER_S * self.seconds)))

    # ---- set-up: inputs, reference digests, goldens, the served cube ----
    def generate(self, spec, csv):
        check([SNCUBE, "generate", "--rows", str(spec["rows"]),
               "--cards", ",".join(map(str, spec["cards"])),
               "--alphas", alphas(spec), "--seed", str(self.seed),
               "--out", csv], "generate")
        return csv

    def setup(self):
        d = fresh_dir(self.path("setup"))
        ref, gold, served = (os.path.join(d, n)
                             for n in ("ref.txt", "goldens.txt", "served"))
        t0 = time.perf_counter()
        csv = self.generate(self.w, os.path.join(d, "facts.csv"))
        served_csv = csv if self.w is SERVED else \
            self.generate(SERVED, os.path.join(d, "served.csv"))
        # The reference cube is sequential, so the rest runs beside it.
        digest = subprocess.Popen([TOOL, "digest", "--in", csv, "--out", ref],
                                  stdout=subprocess.DEVNULL)
        try:
            check([TOOL, "goldens", "--in", served_csv, "--seed",
                   str(self.seed), "--alphas", alphas(SERVED), "--refreshes",
                   str(REFRESHES), "--delta-rows", str(DELTA_ROWS),
                   "--out", gold], "goldens")
            # Not digest-checked: every answer served from it is checked
            # against the goldens.
            check([SNCUBE, "build", "--in", served_csv, "--out", served,
                   "--procs", str(PROCS)], "served cube build")
        finally:
            if digest.wait() != 0:
                raise BenchError("reference digests failed")
        elapsed = time.perf_counter() - t0
        self.csv, self.ref, self.goldens, self.served = csv, ref, gold, served
        return elapsed

    # ---- one `sncube build`, timed from spawn to exit ----
    def build(self, csv, cube):
        shutil.rmtree(cube, ignore_errors=True)
        self.attempted += 1
        elapsed, rc, rss, out = spawn(
            [SNCUBE, "build", "--in", csv, "--out", cube, "--procs",
             str(PROCS)], cube + ".log")
        self.rss.append(rss)
        m = re.search(r"build: ([0-9.]+) s simulated", out)
        if rc != 0 or m is None:
            log(f"sncube build exited {rc}:\n{out[-2000:]}")
            self.failed += 1
            return None
        return elapsed, float(m.group(1)), dir_mb(cube), rss, cube

    def verified(self, cube):
        """Checks the cube against the reference, outside the timed region."""
        res = subprocess.run([TOOL, "verify", "--cube", cube, "--ref",
                              self.ref], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
        if res.returncode != 0:
            log(f"cube {cube} failed verification:\n{res.stderr[-2000:]}")
            self.failed += 1
        return res.returncode == 0

    # ---- one serving session over the served cube ----
    def serve(self, traced):
        snap = fresh_dir(self.path("snapshots"))
        out = self.path("serve.json")
        elapsed, rc, rss, text = spawn(
            [TOOL, "serve", "--cube", self.served, "--seed", str(self.seed),
             "--alphas", alphas(SERVED), "--refreshes",
             str(REFRESHES), "--delta-rows", str(DELTA_ROWS),
             "--queries", str(self.queries()), "--goldens", self.goldens,
             "--snapshot-dir", snap, "--trace", "1" if traced else "0",
             "--out", out], self.path("serve.log"))
        shutil.rmtree(snap, ignore_errors=True)
        if rc != 0:
            log(text[-4000:])
            raise BenchError(f"serving session exited {rc}")
        with open(out) as f:
            res = json.load(f)
        self.rss.append(rss)
        self.attempted += int(res["attempted"])
        failed = int(res["not_ok"] + res["wrong"] + res["refresh_failures"])
        if failed:
            log(f"serving session: {res['not_ok']:.0f} not ok, "
                f"{res['wrong']:.0f} wrong, "
                f"{res['refresh_failures']:.0f} failed refreshes")
        self.failed += failed
        return res

    def measure(self, traced):
        """Timed builds for --seconds (at least MIN_BUILDS), with a serving
        session after each of the first SESSIONS builds, so both are sampled
        across the whole run.

        Traced runs alternate an untraced CLI build with the traced mirror of
        it, serve once with tracing on, and return the mirror's span files.
        Returns (traces, serving results).
        """
        want = 1 if traced else SESSIONS
        spent, traces, sessions, i = 0.0, [], [], 0
        while i < (2 if traced else MIN_BUILDS) or spent < self.seconds or \
                len(sessions) < want:
            built = self.build(self.csv, self.path("cube"))
            if built is None or not self.verified(built[-1]):
                break
            self.builds.append(built)
            spent += built[0]
            if traced:
                tcube = self.path("traced_cube")
                shutil.rmtree(tcube, ignore_errors=True)
                spans = self.path(f"spans{i}.json")
                self.attempted += 1
                elapsed, rc, rss, out = spawn(
                    [TOOL, "trace-build", "--in", self.csv, "--out", tcube,
                     "--procs", str(PROCS), "--spans", spans],
                    tcube + ".log")
                if rc != 0:
                    log(out[-2000:])
                    self.failed += 1
                    break
                if not self.verified(tcube):
                    break
                with open(spans) as f:
                    traces.append((elapsed, json.load(f)))
                spent += elapsed
            if len(sessions) < want:
                sessions.append(self.serve(traced))
            i += 1
        if not self.builds or len(sessions) < want:
            raise BenchError("the builds failed before every session ran")
        return traces, sessions


def median(xs):
    return statistics.median(xs) if xs else 0.0


def nearest_rank(xs, q):
    """The q-quantile by nearest rank, as perfbench_tool computes its own."""
    xs = sorted(xs)
    return xs[max(0, min(len(xs) - 1, math.ceil(q * len(xs)) - 1))]


def end_to_end(run):
    setups = [run.setup() for _ in range(SETUPS)]
    _, sessions = run.measure(traced=False)
    b = list(zip(*run.builds))

    latencies = [x for s in sessions for x in s["latencies_ms"]]
    refreshes = [x for s in sessions for x in s["refreshes_s"]]
    metrics = {
        "build_s": median(b[0]), "sim_s": median(b[1]),
        "cube_mb": median(b[2]), "peak_rss_mb": max(run.rss),
        "query_p99_ms": nearest_rank(latencies, 0.99),
        "qps": sum(s["ok"] for s in sessions) / sum(s["wall_s"] for s in sessions),
        "refresh_s": median(refreshes), "setup_s": median(setups),
    }
    counts = {"build_s": f"median of {len(b[0])} builds",
              "setup_s": f"median of {len(setups)} set-ups",
              "query_p99_ms": f"{len(latencies)} queries in {len(sessions)} sessions",
              "qps": f"{len(sessions)} sessions together",
              "refresh_s": f"median of {len(refreshes)} refreshes"}
    return metrics, counts


def per_layer(run):
    run.setup()
    traces, (serve,) = run.measure(traced=True)
    csv_mb = os.path.getsize(run.csv) / 1048576.0
    per = {}  # metric -> values over traced builds

    def add(k, v):
        per.setdefault(k, []).append(v)

    declared = declared_units("per_layer")
    for elapsed, t in traces:
        spans = t["spans"]
        top = [s for s in spans if s["parent"] == 0]
        dur = {s["name"]: s["end_s"] - s["start_s"] for s in top}
        for metric, span in SPAN_METRICS.items():
            add(metric, dur[span])
        add("relation.read_csv_mb_per_s", csv_mb / dur["relation.read_csv"])
        ranks = [s["end_s"] - s["start_s"] for s in spans
                 if s["name"] == "core.rank_build"]
        add("core.rank_build_s.max", max(ranks))
        add("core.rank_build_s.min", min(ranks))
        add("layer_sum_s", sum(dur.values()))
        add("traced_build_s", elapsed)
        for k, v in t["metrics"].items():
            if k in declared:
                add(k, v)
    metrics = {k: median(v) for k, v in per.items()}
    untraced = median([b[0] for b in run.builds])
    metrics["trace.unaccounted_s"] = untraced - metrics.pop("layer_sum_s")
    metrics["trace.overhead_s"] = metrics.pop("traced_build_s") - untraced
    metrics.update({k: v for k, v in serve.items() if k in declared})
    return metrics, {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    run = None
    try:
        build_program()
        run = Run(args.workload, args.seed, args.seconds)
        metrics, counts = (per_layer if args.trace else end_to_end)(run)
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        if run is not None:
            shutil.rmtree(run.dir, ignore_errors=True)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        log("perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}")
        return 1
    for k, unit in units.items():
        note = f"  ({counts[k]})" if k in counts else ""
        print(f"{args.workload} {k} {metrics[k]:.6g} {unit}{note}")
    print(f"{args.workload} error_rate {run.failed / max(1, run.attempted):.6g} "
          f"ratio  ({run.failed} failed of {run.attempted} attempted)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
