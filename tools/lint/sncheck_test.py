#!/usr/bin/env python3
"""Self-test for sncheck over the per-line fixture trees: pass_tree must be
clean (its justified allows still show in the JSON report as suppressed),
and every EXPECT marker in fail_tree must produce exactly one finding of the
marked rule on that line, plus the bad-suppression findings on the allow
lines. Also home of the run/EXPECT helpers sncheck_ast_test.py shares. Run
via ctest (`sncheck_selftest`) or directly."""

import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SNCHECK = os.path.join(HERE, "sncheck.py")
FINDING_RE = re.compile(r"^(?P<file>[^:]+):(?P<line>\d+): \[(?P<rule>[\w-]+)\]")
# EXPECT markers live in fixture comments: `// EXPECT <rule-id>` on the line
# the finding must anchor to (several markers may share a line).
EXPECT_RE = re.compile(r"EXPECT\s+([\w-]+)")

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)


def run_lint(tree, *extra):
    """Runs sncheck over testdata/<tree>; returns (process, findings) where
    findings is the set of printed (file, line, rule)."""
    proc = subprocess.run(
        [sys.executable, SNCHECK,
         "--root", os.path.join(HERE, "testdata", tree), *extra],
        capture_output=True, text=True)
    findings = set()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.add((m.group("file"), int(m.group("line")),
                          m.group("rule")))
        elif line.strip():
            failures.append(f"{tree}: unparseable sncheck output line: "
                            f"{line!r}")
    return proc, findings


def json_report(tree, *extra):
    """run_lint with --json-out; returns (process, findings, report)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        proc, findings = run_lint(tree, *extra, "--json-out", path)
        with open(path, encoding="utf-8") as f:
            return proc, findings, json.load(f)


def expected_findings(tree):
    expected = set()
    root = os.path.join(HERE, "testdata", tree)
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            with open(full, encoding="utf-8") as f:
                for line_no, line in enumerate(f, start=1):
                    for rule in EXPECT_RE.findall(line):
                        expected.add((rel, line_no, rule))
    return expected


def check_exact(tree, findings, expected):
    check(findings == expected,
          "%s mismatch:\n  missing: %s\n  extra:   %s" % (
              tree, sorted(expected - findings), sorted(findings - expected)))


def finish(name):
    if failures:
        print(f"{name}: FAIL")
        for f in failures:
            print(" -", f)
        sys.exit(1)
    print(f"{name}: OK")


def main():
    # --- pass tree: clean exit; the allows show up as suppressed -----------
    proc, findings, report = json_report("pass_tree", "--frontend", "internal")
    check(proc.returncode == 0,
          f"pass_tree: expected exit 0, got {proc.returncode}")
    check(not findings, f"pass_tree: unexpected findings: {sorted(findings)}")
    suppressed = {(r["file"], r["line"], r["rule"])
                  for r in report["findings"] if r["suppressed"]}
    check(suppressed == {
        ("src/io/reads_and_allowed_write.cc", 16, "raw-file-write"),
        ("src/io/suppressed.cc", 9, "wall-clock"),
        ("src/io/suppressed.cc", 9, "clock-domain")},
        f"pass_tree: suppressed findings in the JSON report: "
        f"{sorted(suppressed)}")

    # --- fail tree: exit 1 and exactly the EXPECT-marked findings -----------
    proc, findings = run_lint("fail_tree", "--frontend", "internal")
    check(proc.returncode == 1,
          f"fail_tree: expected exit 1, got {proc.returncode}")
    expected = expected_findings("fail_tree")
    # The malformed-suppression fixture raises two bad-suppression findings
    # on the allow lines themselves; they carry no EXPECT marker (an EXPECT
    # inside the allow comment would change what is being tested).
    expected.add(("src/io/bad_suppression.cc", 9, "bad-suppression"))
    expected.add(("src/io/bad_suppression.cc", 11, "bad-suppression"))
    check_exact("fail_tree", findings, expected)

    # --- the one rule table ---------------------------------------------------
    proc = subprocess.run([sys.executable, SNCHECK, "--list-rules"],
                          capture_output=True, text=True)
    check(proc.returncode == 0, "--list-rules: expected exit 0")
    listed = {line.split(":", 1)[0] for line in proc.stdout.splitlines()}
    check(listed == {"wall-clock", "raw-wire-bytes", "typed-throw",
                     "nondeterminism", "raw-thread", "raw-sleep",
                     "raw-file-write", "lock-order", "unordered-iter",
                     "clock-domain", "blocking-under-lock",
                     "bad-suppression"},
          f"--list-rules: unexpected rule ids {sorted(listed)}")
    finish("sncheck_test")


if __name__ == "__main__":
    main()
