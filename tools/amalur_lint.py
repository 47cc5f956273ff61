#!/usr/bin/env python3
"""amalur_lint: repo-specific static checks for house invariants.

Rules (each can be silenced per line with `// NOLINT(amalur-<rule>): <reason>`;
the reason is mandatory — a bare NOLINT is itself a finding):

  raw-mutex            src/, testing/, bench/, and examples/ must not use
                       std::mutex / std::shared_mutex / their guards /
                       std::condition_variable directly. Only the
                       capability-annotated wrappers in
                       src/common/thread_annotations.h carry the Clang
                       thread-safety annotations the CI gate checks, so raw
                       primitives would silently escape the analysis.
  wall-clock           src/, testing/, bench/, and examples/ must not call
                       rand()/srand(), std::random_device,
                       sleep_for/sleep_until/usleep/sleep. Randomness goes
                       through seeded common::Rng, waiting through simulated
                       time — both are load-bearing for bitwise-reproducible
                       runs (and for chaos tests that replay fault streams).
                       Benchmarks are no exception: a sleeping or
                       nondeterministic benchmark cannot feed the cost-model
                       calibration.
  unordered-iteration  Kernel hot paths (src/la, src/factorized, src/ml,
                       src/metadata) and the integrate path (src/relational,
                       src/integration) must not iterate unordered
                       containers: iteration order is unspecified, so a
                       reduction or an output list fed by it breaks the
                       bitwise-determinism contract (every row matching,
                       cluster and entity pair feeds the facade replay's
                       bitwise check). Lookups are fine; iterate a sorted
                       structure instead.
  test-registration    Every .cc under tests/ must be named *_test.cc and
                       live exactly at tests/<suite>/<file>.cc — the CMake
                       suite glob is one level deep and non-recursive, so a
                       deeper or misnamed file would silently never build or
                       run. CMakeLists.txt must keep the per-suite
                       registration block.

Deeper architecture checks (layering DAG, lock-order graph, include hygiene)
live in the tools/analysis package; this linter shares its C++ lexer
(tools/analysis/cpp_source.py), so raw string literals, comments, and NOLINT
parsing behave identically in both tools.

Usage:
  tools/amalur_lint.py [--root DIR] [--github]
                                      lint a repo rooted at DIR (default: the
                                      repo containing this script); --github
                                      adds problem-matcher annotations
                                      (auto-enabled under GITHUB_ACTIONS)
  tools/amalur_lint.py --self-test    run the fixture-based self-tests

Exit status: 0 = clean, 1 = findings (or self-test failure).
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "analysis"))

from cpp_source import nolint_rules as shared_nolint_rules
from cpp_source import strip_comments  # noqa: F401  (re-exported for tests)
from findings import Finding, github_mode, report

KERNEL_DIRS = ("src/la", "src/factorized", "src/ml", "src/metadata",
               "src/relational", "src/integration")
RAW_MUTEX_EXEMPT = ("src/common/thread_annotations.h",)
# Trees scanned for source rules: tests/ is exempt (tests may exercise raw
# primitives to race the wrappers themselves), everything else is not.
SOURCE_TREES = ("src", "testing", "bench", "examples")
SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")

RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_)?(?:shared_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|shared_lock|scoped_lock)\b"
    r"|std::condition_variable(?:_any)?\b")
WALL_CLOCK_RE = re.compile(
    r"(?<![\w:])s?rand\s*\("
    r"|std::random_device\b"
    r"|\bsleep_(?:for|until)\b"
    r"|(?<![\w:])u?sleep\s*\(")
UNORDERED_DECL_RE = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;({]*?>\s+(\w+)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*\*?(\w+)\s*\)")


def nolint_rules(raw_line, findings, path, lineno):
    """Rules silenced on this line. A NOLINT without a reason is a finding."""
    return shared_nolint_rules(
        raw_line, lambda rule: findings.append(Finding(
            "nolint-reason", path, lineno,
            f"NOLINT(amalur-{rule}) needs a reason: "
            f"`// NOLINT(amalur-{rule}): <why this is safe>`")))


def scan_pattern(rel, raw_lines, code_lines, rule, regex, message,
                 findings):
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        if not regex.search(code):
            continue
        if rule in nolint_rules(raw, findings, rel, lineno):
            continue
        findings.append(Finding(rule, rel, lineno, message))


def lint_source_file(root, rel, findings):
    path = os.path.join(root, rel)
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.splitlines()
    code_lines = strip_comments(text).splitlines()

    if rel not in RAW_MUTEX_EXEMPT:
        scan_pattern(
            rel, raw_lines, code_lines, "raw-mutex", RAW_MUTEX_RE,
            "raw standard-library lock primitive; use the annotated "
            "common::Mutex/SharedMutex/MutexLock/SharedLock/CondVar wrappers "
            "(src/common/thread_annotations.h) so the Clang thread-safety "
            "gate can see it", findings)
    scan_pattern(
        rel, raw_lines, code_lines, "wall-clock", WALL_CLOCK_RE,
        "unseeded randomness or wall-clock sleep; use seeded common::Rng "
        "and simulated time (runs must be bitwise-reproducible)", findings)

    if rel.startswith(tuple(d + "/" for d in KERNEL_DIRS)):
        unordered_vars = set(UNORDERED_DECL_RE.findall(
            "\n".join(code_lines)))
        if unordered_vars:
            for lineno, (raw, code) in enumerate(
                    zip(raw_lines, code_lines), 1):
                m = RANGE_FOR_RE.search(code)
                if not m or m.group(1) not in unordered_vars:
                    continue
                if "unordered-iteration" in nolint_rules(
                        raw, findings, rel, lineno):
                    continue
                findings.append(Finding(
                    "unordered-iteration", rel, lineno,
                    f"iterating unordered container '{m.group(1)}' in a "
                    "kernel or integrate path: iteration order is "
                    "unspecified, so any reduction or output fed by it "
                    "breaks bitwise determinism; iterate a sorted structure "
                    "instead"))


def lint_tests_tree(root, findings):
    tests_dir = os.path.join(root, "tests")
    if not os.path.isdir(tests_dir):
        return
    for dirpath, _, filenames in os.walk(tests_dir):
        for name in filenames:
            if not name.endswith(".cc"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            parts = rel.split(os.sep)
            # Expected shape: tests/<suite>/<file>_test.cc
            if len(parts) != 3:
                findings.append(Finding(
                    "test-registration", rel, 0,
                    "test sources must live exactly at "
                    "tests/<suite>/<file>.cc — the CMake suite glob is "
                    "non-recursive, so this file would never be built or "
                    "run"))
                continue
            if not name.endswith("_test.cc"):
                findings.append(Finding(
                    "test-registration", rel, 0,
                    "every .cc under tests/ must be named *_test.cc (it is "
                    "compiled into the suite binary either way; the naming "
                    "keeps intent and grep-ability uniform)"))
    cmake = os.path.join(root, "CMakeLists.txt")
    if os.path.isfile(cmake):
        with open(cmake, encoding="utf-8", errors="replace") as f:
            cmake_text = f.read()
        if "add_test(NAME ${suite}" not in cmake_text:
            findings.append(Finding(
                "test-registration", "CMakeLists.txt", 0,
                "per-suite test registration block "
                "(`add_test(NAME ${suite} ...)`) is missing: tests/ suites "
                "would silently stop running under ctest"))


def lint_repo(root):
    findings = []
    for tree in SOURCE_TREES:
        tree_dir = os.path.join(root, tree)
        if not os.path.isdir(tree_dir):
            continue
        for dirpath, _, filenames in os.walk(tree_dir):
            for name in sorted(filenames):
                if not name.endswith(SOURCE_EXTENSIONS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                rel = rel.replace(os.sep, "/")
                lint_source_file(root, rel, findings)
    lint_tests_tree(root, findings)
    return findings


# ------------------------------------------------------------- self-tests

def self_test():
    """Runs the linter over the committed fixtures in tools/lint_fixtures/.

    Each fixture directory is a miniature repo root; expectations.txt in it
    lists `<rule> <count>` lines (rules not listed must not fire)."""
    here = os.path.dirname(os.path.abspath(__file__))
    fixtures = os.path.join(here, "lint_fixtures")
    if not os.path.isdir(fixtures):
        print("self-test: missing fixture directory", fixtures)
        return 1
    failures = 0
    cases = sorted(d for d in os.listdir(fixtures)
                   if os.path.isdir(os.path.join(fixtures, d)))
    if not cases:
        print("self-test: no fixture cases found")
        return 1
    for case in cases:
        case_root = os.path.join(fixtures, case)
        expect_path = os.path.join(case_root, "expectations.txt")
        expected = {}
        with open(expect_path, encoding="utf-8") as f:
            for line in f:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                rule, count = line.split()
                expected[rule] = int(count)
        findings = lint_repo(case_root)
        got = {}
        for finding in findings:
            got[finding.rule] = got.get(finding.rule, 0) + 1
        if got == expected:
            print(f"self-test [{case}]: OK ({sum(got.values())} findings)")
        else:
            failures += 1
            print(f"self-test [{case}]: FAIL — expected {expected}, "
                  f"got {got}")
            for finding in findings:
                print("   ", finding)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root to lint (default: this repo)")
    parser.add_argument("--github", action="store_true",
                        help="also emit GitHub problem-matcher annotations "
                             "(auto-enabled under GITHUB_ACTIONS)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture-based self-tests and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = lint_repo(root)
    report(findings, github_mode(args.github))
    if findings:
        print(f"amalur_lint: {len(findings)} finding(s)")
        return 1
    print("amalur_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
