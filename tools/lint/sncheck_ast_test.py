#!/usr/bin/env python3
"""Self-test for sncheck's whole-program rules: the ast_pass_tree must be
clean (including a working suppression), and every EXPECT marker in
ast_fail_tree must produce exactly one finding of the marked rule on that
line — the set covers all four whole-program rule families, the cross-TU
three-lock cycle, the declared-hierarchy contradictions, and the
interprocedural clock/blocking arms.

The internal frontend is pinned exactly. When clang.cindex and libclang are
importable (the CI lint job), the cindex frontend is additionally exercised
against compile databases generated on the fly: the pass tree must stay
clean and every internal-frontend expectation must also be found by cindex.
When cindex is unavailable the skip/fail exit codes (77, and 2 under --ci)
are pinned instead. Run via ctest (`sncheck_ast_selftest`) or directly."""

import json
import os
import shutil
import tempfile

from sncheck_test import (HERE, check, check_exact, expected_findings,
                          finish, json_report, run_lint)


def cindex_available():
    try:
        import clang.cindex as ci
        ci.Index.create()
        return True
    except Exception:
        return False


def write_compile_db(tree, out_dir):
    """Minimal compile_commands.json over the fixture tree's .cc files."""
    root = os.path.join(HERE, "testdata", tree)
    clangxx = shutil.which("clang++") or "clang++"
    entries = []
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            if not name.endswith(".cc"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            entries.append({
                "directory": root,
                "file": os.path.join(root, rel),
                "command": f"{clangxx} -std=c++20 "
                           f"-I{os.path.join(root, 'src')} -c {rel}",
            })
    path = os.path.join(out_dir, "compile_commands.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(entries, f, indent=1)
    return path


# --- internal frontend: pass tree clean, fail tree exact ---------------------
proc, findings, report = json_report("ast_pass_tree", "--frontend", "internal")
check(proc.returncode == 0,
      f"ast_pass_tree: expected exit 0, got {proc.returncode}")
check(not findings, f"ast_pass_tree: unexpected findings: {sorted(findings)}")
# The suppressed finding must still appear in the JSON report — suppression
# hides it from the console/exit code, not from the record.
suppressed = [r for r in report["findings"] if r["suppressed"]]
check(len(suppressed) == 1 and suppressed[0]["rule"] == "unordered-iter",
      f"ast_pass_tree: expected exactly 1 suppressed unordered-iter "
      f"finding in the JSON report, got {report['findings']}")

expected = expected_findings("ast_fail_tree")
check(expected, "ast_fail_tree has no EXPECT markers — fixture tree missing?")
proc, findings, report = json_report("ast_fail_tree", "--frontend", "internal")
check(proc.returncode == 1,
      f"ast_fail_tree: expected exit 1, got {proc.returncode}")
check_exact("ast_fail_tree", findings, expected)
check(report["frontend"] == "internal",
      f"json report frontend: {report['frontend']!r}")
check(report["unsuppressed"] == len(expected),
      f"json report unsuppressed {report['unsuppressed']} != {len(expected)}")

# --- cindex frontend: exercise when available, pin skip codes when not -------
if cindex_available():
    with tempfile.TemporaryDirectory() as tmp:
        db = write_compile_db("ast_pass_tree", tmp)
        proc, findings = run_lint("ast_pass_tree", "--frontend", "cindex",
                                  "--compile-commands", db)
        check(proc.returncode == 0,
              f"cindex ast_pass_tree: expected exit 0, got {proc.returncode}"
              f"\nstderr: {proc.stderr}")
        check(not findings,
              f"cindex ast_pass_tree: unexpected findings: {sorted(findings)}")
    with tempfile.TemporaryDirectory() as tmp:
        db = write_compile_db("ast_fail_tree", tmp)
        proc, findings = run_lint("ast_fail_tree", "--frontend", "cindex",
                                  "--compile-commands", db)
        check(proc.returncode == 1,
              f"cindex ast_fail_tree: expected exit 1, got {proc.returncode}"
              f"\nstderr: {proc.stderr}")
        missing = expected - findings
        check(not missing,
              f"cindex ast_fail_tree: expected findings not produced: "
              f"{sorted(missing)}")
else:
    proc, _ = run_lint("ast_pass_tree", "--frontend", "cindex")
    check(proc.returncode == 77,
          f"cindex unavailable: --frontend cindex should exit 77, "
          f"got {proc.returncode}")
    check("SKIPPED" in proc.stderr,
          f"cindex skip should say SKIPPED, stderr: {proc.stderr!r}")
    proc, _ = run_lint("ast_pass_tree", "--frontend", "cindex", "--ci")
    check(proc.returncode == 2,
          f"cindex unavailable: --ci should exit 2, got {proc.returncode}")
    # auto must fall back to the internal frontend and still be clean.
    proc, findings = run_lint("ast_pass_tree", "--frontend", "auto")
    check(proc.returncode == 0 and not findings,
          f"auto fallback: expected clean exit 0, got {proc.returncode} "
          f"with {sorted(findings)}")

finish("sncheck_ast_test")
