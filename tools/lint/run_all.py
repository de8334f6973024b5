#!/usr/bin/env python3
"""Umbrella lint runner: one command that runs every project linter the
environment can support and fails if any of them fails.

  sncheck        — project-invariant rules, per-line and whole-program
                   (auto frontend: cindex when libclang +
                   compile_commands.json exist, internal parser otherwise;
                   a 77 skip from a forced cindex run counts as skipped,
                   not failed)
  check_cli_docs — README flag coverage (only when --binary points at a
                   built sncube binary)

CMake's `lint` umbrella target and developers both drive this; CI runs the
same steps individually so each gets its own log section and artifact.

Exit status: 0 when every runnable check passed, 1 otherwise.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_step(name, cmd):
    print(f"=== {name}: {' '.join(cmd)}", flush=True)
    proc = subprocess.run(cmd)
    if proc.returncode == 77:
        print(f"=== {name}: SKIPPED (exit 77)", flush=True)
        return None
    ok = proc.returncode == 0
    print(f"=== {name}: {'OK' if ok else f'FAIL (exit {proc.returncode})'}",
          flush=True)
    return ok


def main(argv):
    p = argparse.ArgumentParser(prog="run_all", description=__doc__)
    p.add_argument("--root", default=".", help="repo root")
    p.add_argument("--binary", default=None,
                   help="built sncube binary for check_cli_docs "
                        "(omitted: that check is skipped)")
    p.add_argument("--compile-commands", default=None,
                   help="compile database handed to sncheck")
    p.add_argument("--frontend", default="auto",
                   choices=("auto", "cindex", "internal"),
                   help="sncheck frontend (default auto)")
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    py = sys.executable

    results = {}
    cmd = [py, os.path.join(HERE, "sncheck.py"), "--root", root,
           "--frontend", args.frontend]
    if args.compile_commands:
        cmd += ["--compile-commands", args.compile_commands]
    results["sncheck"] = run_step("sncheck", cmd)

    if args.binary and os.path.isfile(args.binary):
        results["check_cli_docs"] = run_step(
            "check_cli_docs",
            [py, os.path.join(HERE, "check_cli_docs.py"),
             "--binary", args.binary,
             "--readme", os.path.join(root, "README.md"),
             "--extra-docs", os.path.join(root, "DESIGN.md")])
    else:
        print("=== check_cli_docs: SKIPPED (no --binary)", flush=True)

    failed = [name for name, ok in results.items() if ok is False]
    if failed:
        print(f"run_all: FAILED: {', '.join(failed)}")
        return 1
    ran = [name for name, ok in results.items() if ok]
    print(f"run_all: OK ({', '.join(ran)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
