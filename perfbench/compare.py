"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 perfbench/compare.py BASE HEAD [--trajectory FILE]

BASE and HEAD each name a set of untraced runs: a path to a trajectory
``.jsonl`` file, or ``commit:<prefix>`` / ``source:<prefix>`` to select
records of one commit or one source digest from the trajectory
(default ``perfbench/runs/trajectory.jsonl``).

For every (workload, ``end_to_end`` metric) it prints each side's
median and quartiles, the pair-win count (runs paired by seed, else in
order) and a verdict against the bound that ``BENCHMARK.json`` fixes:

* ``improved`` — HEAD wins at least 9 of 10 pairs and the medians
  differ by more than BASE's interquartile distance;
* ``worse`` — HEAD's median is worse than BASE's by more than the bound;
* ``unresolved`` — a side's interquartile spread exceeds the bound and
  not every HEAD run beats every BASE run;
* ``unchanged`` — otherwise.

Exits 1 when any pair is ``worse``, else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_TRAJECTORY = os.path.join(HERE, "runs", "trajectory.jsonl")


def load_runs(selector, trajectory):
    if os.path.isfile(selector):
        path, field, prefix = selector, None, ""
    else:
        field, _, prefix = selector.partition(":")
        if field not in ("commit", "source") or not prefix:
            raise SystemExit(f"compare: {selector!r} is neither a file "
                             "nor commit:<prefix> / source:<prefix>")
        path = trajectory
    key = {"commit": "commit", "source": "source_sha256"}.get(field)
    runs = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("traced"):
                continue
            if key and not str(record.get(key) or "").startswith(prefix):
                continue
            runs.append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pairs(base, head):
    """(base value, head value) pairs: by seed when both sides share
    seeds, else in run order."""
    base_by_seed, head_by_seed = {}, {}
    for seed, value in base:
        base_by_seed.setdefault(seed, []).append(value)
    for seed, value in head:
        head_by_seed.setdefault(seed, []).append(value)
    if set(base_by_seed) == set(head_by_seed):
        return [(b, h) for seed in sorted(base_by_seed)
                for b, h in zip(base_by_seed[seed], head_by_seed[seed])]
    return list(zip([v for _, v in base], [v for _, v in head]))


def verdict(base, head, better, bound):
    """One (workload, metric) verdict; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    b_values, h_values = [v for _, v in base], [v for _, v in head]
    b_q1, b_med, b_q3 = quartiles(b_values)
    h_q1, h_med, h_q3 = quartiles(h_values)
    paired = pairs(base, head)
    wins = sum(1 for b, h in paired if sign * (b - h) > 0)
    worse_by = sign * (h_med - b_med) / b_med if b_med else 0.0
    spread = max((b_q3 - b_q1) / b_med if b_med else 0.0,
                 (h_q3 - h_q1) / h_med if h_med else 0.0)
    all_better = all(sign * (b - h) > 0 for b in b_values
                     for h in h_values)
    if paired and wins >= 0.9 * len(paired) and worse_by < 0 and \
            abs(h_med - b_med) > (b_q3 - b_q1):
        label = "improved"
    elif worse_by > bound:
        label = "worse"
    elif spread > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {"base": (b_med, b_q1, b_q3, len(b_values)),
            "head": (h_med, h_q1, h_q3, len(h_values)),
            "change": worse_by * sign, "wins": wins,
            "pairs": len(paired), "verdict": label}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--trajectory", default=DEFAULT_TRAJECTORY)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    base = load_runs(args.base, args.trajectory)
    head = load_runs(args.head, args.trajectory)
    if not base or not head:
        raise SystemExit("compare: a side has no untraced runs")

    print(f"{'workload':<14} {'metric':<12} {'base median [q1, q3] n':<34}"
          f" {'head median [q1, q3] n':<34} {'change':>8} "
          f"{'wins':>6}  verdict")
    any_worse = False
    for workload in (w["name"] for w in declared["workloads"]):
        for metric in declared["end_to_end"]:
            name = metric["name"]

            def values(runs):
                return [(r["seed"], r["metrics"][name]["value"])
                        for r in runs if r["workload"] == workload
                        and name in r["metrics"]]

            b, h = values(base), values(head)
            if not b or not h:
                continue
            row = verdict(b, h, metric["better"], metric["bound"])
            any_worse |= row["verdict"] == "worse"
            cells = [
                "{:.4g} [{:.4g}, {:.4g}] n={}".format(*row[side])
                for side in ("base", "head")
            ]
            print(f"{workload:<14} {name:<12} {cells[0]:<34} "
                  f"{cells[1]:<34} {100 * row['change']:+7.1f}% "
                  f"{row['wins']:>2}/{row['pairs']:<3}  {row['verdict']}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
