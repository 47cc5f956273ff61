#!/usr/bin/env python3
"""bench_compare: compares facadebench runs of a parent commit and a change.

Reads a trajectory file: the raw result lines facadebench printed for
alternating parent/change runs. For every end-to-end metric of BENCHMARK.json
it prints, per run set, each side's median and quartiles, the pairs the
change won, and a verdict:

  gain        the change won at least 9 of every 10 pairs (ties count for
              neither) and the medians differ, in the better direction, by
              more than the parent's interquartile distance;
  worse       the change's median is worse than the parent's by more than
              the metric's relative `bound`;
  unresolved  not worse, but either side's interquartile distance exceeds
              the bound (relative to the parent's median), unless every
              change run reads better than every parent run;
  no worse    otherwise.

It also prints each side's share of failed ops. Exit status is 1 when any
metric is worse or unresolved, any run is incorrect, or the change fails a
larger share of ops than the parent; 0 otherwise.

Trajectory format (JSON):

  {"parent": "<commit>", "change": "<commit>",
   "command": "python3 facadebench/run.py --workload <w> --seed <s> ...",
   "sets": [{"workload": "er-vfl", "seed": 501, "seconds": 20,
             "first": ["parent", "change", ...],   # who ran first, per pair
             "parent": [<result line>, ...],       # pair i is parent[i]
             "change": [<result line>, ...]}]}     #   vs change[i]

where a result line is the JSON object facadebench's last output line holds:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value":
..., "unit": ...}}}. To record one, run both sides' `facadebench/run.py`
with --trace 0 in alternating order and keep each run's last line.

Usage:
  tools/bench_compare.py TRAJECTORY [--benchmark BENCHMARK.json]
  tools/bench_compare.py --self-test   check the verdicts on the fixture in
                                       tools/bench_compare_fixtures/
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(metric, parent, change):
    """Compares one metric's paired runs; returns a dict for the report."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(a, b):
        return a < b if lower else a > b

    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    won = sum(1 for p, c in zip(parent, change) if better(c, p))
    gain = c_med - p_med if not lower else p_med - c_med
    scale = abs(p_med)
    worse_by = -gain / scale if scale > 0 else (0.0 if gain >= 0 else
                                                float("inf"))
    spread = (max(p_q3 - p_q1, c_q3 - c_q1) / scale if scale > 0 else 0.0)
    separated = all(better(c, p) for c in change for p in parent)
    if won * 10 >= 9 * len(parent) and gain > p_q3 - p_q1:
        result = "gain"
    elif worse_by > bound:
        result = "worse"
    elif spread > bound and not separated:
        result = "unresolved"
    else:
        result = "no worse"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "won": won, "pairs": len(parent), "verdict": result}


def failed_ops(results):
    """(failed, attempted) summed over a side's runs."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed, attempted


def compare_set(run_set, metrics):
    """Returns (report lines, verdict per metric, ok) for one run set."""
    parent, change = run_set["parent"], run_set["change"]
    if len(parent) != len(change) or not parent:
        raise ValueError(f"{run_set['workload']}: needs equal, non-zero "
                         f"parent and change run counts")
    lines = [f"{run_set['workload']} seed={run_set['seed']} "
             f"seconds={run_set['seconds']} pairs={len(parent)} "
             f"(parent first in "
             f"{sum(1 for f in run_set['first'] if f == 'parent')})"]
    verdicts = {}
    ok = True
    for metric in metrics:
        name = metric["name"]
        v = verdict(metric,
                    [r["metrics"][name]["value"] for r in parent],
                    [r["metrics"][name]["value"] for r in change])
        verdicts[name] = v["verdict"]
        ok &= v["verdict"] in ("gain", "no worse")
        sides = ["{1:.4g} [{0:.4g}, {2:.4g}]".format(*v[side])
                 for side in ("parent", "change")]
        lines.append(f"  {name:<12} {metric['unit']:<6} parent {sides[0]:<28}"
                     f" change {sides[1]:<28} won {v['won']}/{v['pairs']}"
                     f"  {v['verdict']}")
    p_failed, p_attempted = failed_ops(parent)
    c_failed, c_attempted = failed_ops(change)
    p_share = p_failed / p_attempted if p_attempted else 0.0
    c_share = c_failed / c_attempted if c_attempted else 0.0
    incorrect = sum(1 for r in parent + change if not r["correct"])
    verdicts["failed"] = "more" if c_share > p_share else "no more"
    ok &= c_share <= p_share and incorrect == 0
    lines.append(f"  failed ops: parent {p_failed}/{p_attempted} "
                 f"({100 * p_share:.2f}%), change {c_failed}/{c_attempted} "
                 f"({100 * c_share:.2f}%); incorrect runs: {incorrect}")
    return lines, verdicts, ok


def compare(trajectory, benchmark):
    """Returns (report lines, [verdicts per set], ok)."""
    lines = [f"parent {trajectory['parent']}  change {trajectory['change']}"]
    all_verdicts = []
    ok = True
    for run_set in trajectory["sets"]:
        set_lines, verdicts, set_ok = compare_set(run_set,
                                                  benchmark["end_to_end"])
        lines += set_lines
        all_verdicts.append(verdicts)
        ok &= set_ok
    return lines, all_verdicts, ok


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def self_test():
    """Checks the verdicts on tools/bench_compare_fixtures/: its
    trajectory.json against its BENCHMARK.json, expected verdicts listed in
    expectations.txt as `<set index> <metric|failed> <verdict>` lines."""
    fixtures = os.path.join(HERE, "bench_compare_fixtures")
    try:
        trajectory = load(os.path.join(fixtures, "trajectory.json"))
        benchmark = load(os.path.join(fixtures, "BENCHMARK.json"))
        with open(os.path.join(fixtures, "expectations.txt"),
                  encoding="utf-8") as f:
            expected = [line.split("#", 1)[0].split(None, 2) for line in f]
    except (OSError, ValueError) as error:
        print(f"self-test: cannot read the fixture: {error}")
        return 1
    expected = [e for e in expected if e]
    lines, verdicts, ok = compare(trajectory, benchmark)
    print("\n".join(lines))
    failures = 0
    for index, name, want in expected:
        got = verdicts[int(index)].get(name)
        if got != want.strip():
            failures += 1
            print(f"self-test: set {index} {name}: expected "
                  f"{want.strip()!r}, got {got!r}")
    if ok:
        failures += 1
        print("self-test: the fixture holds a worse metric, yet the "
              "comparison passed")
    if failures or not expected:
        print(f"self-test: FAIL ({failures} mismatches)")
        return 1
    print(f"self-test: OK ({len(expected)} verdicts)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trajectory", nargs="?")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(HERE), "BENCHMARK.json"))
    parser.add_argument("--self-test", action="store_true",
                        help="check the verdicts on the committed fixture")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.trajectory is None:
        parser.error("a trajectory file is required")
    try:
        lines, _, ok = compare(load(args.trajectory), load(args.benchmark))
    except (OSError, ValueError, KeyError) as error:
        print(f"bench_compare: {error!r}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
