#!/usr/bin/env python3
"""cli_persistence_test — drive the real `sncube` binary through its stores.

Covers what the C++ suites reach only below the CLI:

  * checkpoint kill -> restart: `build --procs 2 --checkpoint-dir D
    --fault-plan kill:1@K` exits 3, and a rerun on the same D exits 0 with a
    cube directory byte-identical to a fault-free build (K=5 dies before any
    partition is saved, K=40 after some are, so the rerun restores them);
  * snapshot epochs: three `refresh --snapshot-dir S` runs report epochs
    1, 2, 3, and only the newest two epoch directories remain; after a frame
    of epoch 1 is damaged, the next refresh still numbers its epoch 2, so
    MANIFEST commits epoch 1 exactly once;
  * read commands on a missing cube directory exit non-zero and create
    nothing;
  * a SUM past INT64_MAX fails the build (at --procs 1 and 2) with the typed
    overflow error instead of storing a wrapped value;
  * a flag the command does not take (a typo, or `query --min`: SUM is the
    only aggregate) is a usage error (exit 2), not silently ignored;
  * a CSV whose columns ascend in cardinality keeps its header names on the
    right columns: every single-dimension query equals a group-by of the
    CSV, before and after a refresh whose delta lists the columns in
    another order, and a delta naming other columns is rejected;
  * `chaos`, `chaos --serve` and `chaos --refresh` at small sizes find no
    failures (exit 0), and bad sizes or plan counts are usage errors.

Usage:
    cli_persistence_test.py --binary build/tools/sncube

Exit status: 0 pass, 1 failures (each printed), 2 usage error.
"""

import argparse
import filecmp
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)


def same_tree(a, b):
    """True when directories a and b hold the same files, byte for byte."""
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files,
                                           shallow=False)
    return not mismatch and not errors and all(
        same_tree(os.path.join(a, d), os.path.join(b, d))
        for d in cmp.common_dirs)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    args = parser.parse_args(argv)
    if not os.access(args.binary, os.X_OK):
        print(f"cli_persistence_test: not executable: {args.binary}",
              file=sys.stderr)
        return 2

    def sncube(*cmd):
        return subprocess.run([args.binary, *cmd], capture_output=True,
                              text=True)

    def group_by(rows, column):
        sums = {}
        for row in rows:
            sums[row[column]] = sums.get(row[column], 0) + row[-1]
        return sums

    def query_sums(cube, name):
        query = sncube("query", "--cube", cube, "--group-by", name, "--json")
        if query.returncode != 0:
            return f"exit {query.returncode}: {query.stderr}"
        return dict(map(tuple, json.loads(query.stdout)["rows"]))

    work = tempfile.mkdtemp(prefix="sncube_cli_persistence_")
    try:
        def path(*parts):
            return os.path.join(work, *parts)

        cards = "16,8,4,2"
        gen = sncube("generate", "--rows", "3000", "--cards", cards,
                     "--seed", "3", "--out", path("facts.csv"))
        check(gen.returncode == 0, f"generate failed: {gen.stderr}")
        ref = sncube("build", "--in", path("facts.csv"), "--out", path("ref"),
                     "--procs", "2")
        check(ref.returncode == 0, f"fault-free build failed: {ref.stderr}")

        # --- checkpoint kill -> restart ----------------------------------
        for kill_at, saves_partitions in ((5, False), (40, True)):
            ckpt = path(f"ckpt_{kill_at}")
            out = path(f"cube_{kill_at}")
            build = ("build", "--in", path("facts.csv"), "--out", out,
                     "--procs", "2", "--checkpoint-dir", ckpt)
            killed = sncube(*build, "--fault-plan", f"kill:1@{kill_at}")
            check(killed.returncode == 3,
                  f"kill:1@{kill_at}: expected exit 3, got "
                  f"{killed.returncode}: {killed.stderr}")
            saved = [f for _, _, files in os.walk(ckpt) for f in files
                     if f.endswith(".ckpt")]
            check(bool(saved) == saves_partitions,
                  f"kill:1@{kill_at}: {len(saved)} checkpoint shards saved")
            rerun = sncube(*build)
            check(rerun.returncode == 0,
                  f"kill:1@{kill_at}: rerun failed: {rerun.stderr}")
            check(rerun.returncode == 0 and same_tree(out, path("ref")),
                  f"kill:1@{kill_at}: resumed cube differs from the "
                  "fault-free build")

        # --- snapshot epochs: keep the newest two ------------------------
        cube = path("refreshed")
        shutil.copytree(path("ref"), cube)
        snaps = path("snaps")
        for epoch in (1, 2, 3):
            delta = path(f"delta_{epoch}.csv")
            sncube("generate", "--rows", "50", "--cards", cards, "--seed",
                   str(100 + epoch), "--out", delta)
            refresh = sncube("refresh", "--cube", cube, "--delta", delta,
                             "--snapshot-dir", snaps)
            check(refresh.returncode == 0,
                  f"refresh {epoch} failed: {refresh.stderr}")
            if refresh.returncode == 0:
                report = json.loads(refresh.stdout)
                check(report["snapshot_epoch"] == epoch,
                      f"refresh {epoch} reported epoch "
                      f"{report['snapshot_epoch']}")
        epochs = sorted(d for d in os.listdir(snaps) if d.startswith("epoch_"))
        check(epochs == ["epoch_2", "epoch_3"],
              f"snapshot dir holds {epochs}, expected epoch_2 and epoch_3")

        # --- a damaged epoch does not give its number away ---------------
        snaps = path("damaged_snaps")
        delta = path("delta_1.csv")
        for expected in (1, 2):
            if expected == 2:
                frames = sorted(os.listdir(os.path.join(snaps, "epoch_1")))
                frame = os.path.join(snaps, "epoch_1", frames[0])
                with open(frame, "r+b") as f:
                    f.seek(8)
                    byte = f.read(1)
                    f.seek(8)
                    f.write(bytes([byte[0] ^ 0xFF]))
            refresh = sncube("refresh", "--cube", cube, "--delta", delta,
                             "--snapshot-dir", snaps)
            check(refresh.returncode == 0,
                  f"damaged-epoch refresh failed: {refresh.stderr}")
            if refresh.returncode == 0:
                got = json.loads(refresh.stdout)["snapshot_epoch"]
                check(got == expected,
                      f"refresh after damage reported epoch {got}, expected "
                      f"{expected}")
        with open(os.path.join(snaps, "MANIFEST")) as f:
            commits = [line for line in f if line.startswith("commit 1 ")]
        check(len(commits) == 1,
              f"MANIFEST holds {len(commits)} 'commit 1' records, expected 1")

        # --- SUM overflow is a typed build error -------------------------
        with open(path("overflow.csv"), "w") as f:
            f.write("A,measure\n0,9223372036854775807\n0,1\n")
        for procs in ("1", "2"):
            out = path(f"overflow_cube_{procs}")
            build = sncube("build", "--in", path("overflow.csv"), "--out", out,
                           "--procs", procs)
            check(build.returncode != 0,
                  f"overflowing SUM built at --procs {procs}: {build.stdout}")
            check("SUM overflows int64" in build.stderr,
                  f"overflow build at --procs {procs} did not name the "
                  f"overflow: {build.stderr}")

        # --- unknown flags are usage errors ------------------------------
        bogus = sncube("build", "--in", path("facts.csv"), "--out",
                       path("bogus_cube"), "--thread-per-rank", "4",
                       "--bogus", "1")
        check(bogus.returncode == 2,
              f"build with unknown flags exited {bogus.returncode}")
        check(not os.path.exists(path("bogus_cube")),
              "build with unknown flags wrote a cube")
        for switch in ("--min", "--max"):
            query = sncube("query", "--cube", path("ref"), "--group-by", "D0",
                           switch)
            check(query.returncode == 2,
                  f"query {switch} exited {query.returncode}: {query.stdout}")

        # --- header names stay on their columns ---------------------------
        names = ("small", "mid", "big")
        rng = random.Random(5)
        cards_asc = (3, 40, 900)
        facts = [[i % 3, i % 40, i % 900, rng.randint(-50, 1000)]
                 for i in range(900)]
        facts += [[rng.randrange(c) for c in cards_asc] +
                  [rng.randint(-50, 1000)] for _ in range(19100)]

        def write_csv(file, header, rows):
            with open(file, "w") as f:
                f.write(",".join(header) + ",measure\n")
                f.writelines(",".join(map(str, row)) + "\n" for row in rows)

        write_csv(path("ascending.csv"), names, facts)
        cube = path("ascending_cube")
        for procs in ("1", "2"):
            out = cube if procs == "1" else path("ascending_cube_p2")
            build = sncube("build", "--in", path("ascending.csv"), "--out",
                           out, "--procs", procs)
            check(build.returncode == 0,
                  f"ascending build --procs {procs} failed: {build.stderr}")
        check(same_tree(cube, path("ascending_cube_p2")),
              "ascending-cardinality cube differs between --procs 1 and 2")
        info = sncube("info", "--cube", cube)
        check("schema: big(900) mid(40) small(3)" in info.stdout,
              f"info does not name the columns by the header: {info.stdout}")
        for column, name in enumerate(names):
            check(query_sums(cube, name) == group_by(facts, column),
                  f"query --group-by {name} differs from the CSV's group-by")

        # A delta may list the cube's columns in any order.
        delta = [[rng.randrange(c) for c in cards_asc] +
                 [rng.randint(-50, 1000)] for _ in range(500)]
        write_csv(path("permuted_delta.csv"), ("big", "small", "mid"),
                  [[row[2], row[0], row[1], row[3]] for row in delta])
        refresh = sncube("refresh", "--cube", cube, "--delta",
                         path("permuted_delta.csv"))
        check(refresh.returncode == 0,
              f"refresh with a permuted delta header failed: {refresh.stderr}")
        for column, name in enumerate(names):
            check(query_sums(cube, name) == group_by(facts + delta, column),
                  f"after refresh, query --group-by {name} differs from the "
                  "CSV's group-by")
        write_csv(path("renamed_delta.csv"), ("small", "mid", "huge"), delta)
        refresh = sncube("refresh", "--cube", cube, "--delta",
                         path("renamed_delta.csv"))
        check(refresh.returncode == 1 and "delta header" in refresh.stderr,
              f"refresh with a mismatched delta header exited "
              f"{refresh.returncode}: {refresh.stderr}")
        check(query_sums(cube, "small") == group_by(facts + delta, 0),
              "a rejected delta changed the cube")

        # --- chaos searches ----------------------------------------------
        for tier in ((), ("--serve",), ("--refresh",)):
            sizes = ("--shards", "2") if tier else ("--procs", "2")
            chaos = sncube("chaos", *tier, "--plans", "2", "--seed", "3",
                           "--rows", "200", *sizes)
            check(chaos.returncode == 0 and '"failures":[]' in chaos.stdout,
                  f"chaos {' '.join(tier)} exited {chaos.returncode}: "
                  f"{chaos.stdout} {chaos.stderr}")
        for bad in (("--procs", "1"), ("--serve", "--shards", "1"),
                    ("--plans", "0")):
            chaos = sncube("chaos", *bad)
            check(chaos.returncode == 2,
                  f"chaos {' '.join(bad)} exited {chaos.returncode}")

        # --- read commands need an existing cube -------------------------
        for command in (("info", "--cube", path("typo_dir")),
                        ("query", "--cube", path("typo_dir"), "--group-by",
                         "D0")):
            read = sncube(*command)
            check(read.returncode != 0,
                  f"{command[0]} on a missing cube exited 0")
            check(not os.path.exists(path("typo_dir")),
                  f"{command[0]} on a missing cube created the directory")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in failures:
        print(f"FAIL: {message}")
    if not failures:
        print("cli_persistence_test: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
