#!/usr/bin/env python3
"""amalur architecture conformance analyzer.

Three passes over the repo's own source (driven by its #include graph and
lock-acquisition sites — no compiler needed, so it runs anywhere Python
does):

  layering     src/ modules and the testing/ fixtures may only depend
               along the edges declared in tools/analysis/layering.json (the
               committed architecture); cycles and undeclared edges are
               findings with file:line. No src/ module may include
               testing/.
               Also renders deps.json + deps.dot reports (--report-dir).
  lock-order   builds the acquired-while-held graph across every
               common::Mutex/SharedMutex site in src/ and testing/, prints
               its edges, and fails on cycles (static deadlock detection)
               and on pool dispatch under a lock.
  hygiene      #pragma once in every header, include-what-you-use for the
               curated house types, no .cc includes, owned std headers
               (<mutex>, <random>, <chrono>, ...) only in their owners.

Per-line escapes: `// NOLINT(amalur-<rule>): <reason>` — reason mandatory.

Usage:
  python3 tools/analysis [--root DIR] [--report-dir DIR] [--github]
  python3 tools/analysis --self-test

Exit status: 0 = clean, 1 = findings (or self-test failure).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hygiene
import layering
import lock_order
from cpp_source import load_tree
from findings import github_mode, report


def run(root, report_dir=None):
    """Returns (findings, lock-order edges {(held, acquired): site})."""
    sources = load_tree(root)
    findings = []
    layering.check(root, sources, findings, report_dir=report_dir)
    edges = lock_order.analyze(sources, findings)
    hygiene.check(sources, findings)
    return findings, edges


def self_test():
    """Runs the analyzer over the committed fixtures in
    tools/analysis/fixtures/. Each fixture directory is a miniature repo
    root; its expectations.txt lists `<rule> <count>` lines (rules not
    listed must not fire)."""
    here = os.path.dirname(os.path.abspath(__file__))
    fixtures = os.path.join(here, "fixtures")
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
        expected = {}
        with open(os.path.join(case_root, "expectations.txt"),
                  encoding="utf-8") as f:
            for line in f:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                rule, count = line.split()
                expected[rule] = int(count)
        findings, _ = run(case_root)
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
    parser = argparse.ArgumentParser(
        prog="tools/analysis", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root to analyze (default: this repo)")
    parser.add_argument("--report-dir", default=None,
                        help="write deps.json + deps.dot here")
    parser.add_argument("--github", action="store_true",
                        help="also emit GitHub problem-matcher annotations "
                             "(auto-enabled under GITHUB_ACTIONS)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture-based self-tests and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    findings, edges = run(root, report_dir=args.report_dir)
    # The acquired-while-held edges, so a pass that stops seeing a lock
    # shows it in the output rather than staying silently clean.
    for (held, acquired), (rel, line, _) in sorted(edges.items()):
        print(f"lock-order edge: {held} -> {acquired} at {rel}:{line}")
    report(findings, github_mode(args.github))
    if findings:
        print(f"amalur_analysis: {len(findings)} finding(s)")
        return 1
    print("amalur_analysis: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
