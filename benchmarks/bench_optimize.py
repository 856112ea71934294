"""E9 — certified circuit optimization on the threshold workloads.

The paper charges every gate, input bit and idle (moment, qubit) slot
as a fault location, so an optimizer that tightens the gadget
schedules shrinks the bill every Monte-Carlo trial pays.  This bench
measures the per-gadget location-count reduction (input/gate/delay
split), the pipeline's per-pass rewrite counts and wall-clock, and a
Monte-Carlo wall-clock comparison on the optimized N gadget; asserts
the >= 10% acceptance bar on at least one Steane gadget; and emits
``results/BENCH_optimize.json`` for CI.

Scale down with ``BENCH_OPTIMIZE_TRIALS`` for smoke runs (the
reduction assertions hold at any scale; they are structural).
"""

import dataclasses
import os
import time

from repro.analysis import gadget_locations, n_gadget_evaluator
from repro.analysis.engine import run_monte_carlo
from repro.codes import SteaneCode
from repro.ft import build_n_gadget, sparse_coset_state
from repro.ft.recovery import build_recovery_gadget
from repro.ft.t_gadget import build_t_gadget
from repro.optimize import (
    clear_optimize_cache,
    gadget_pipeline,
    optimize_circuit,
)

from _harness import json_artifact, report, series_lines

TRIALS = int(os.environ.get("BENCH_OPTIMIZE_TRIALS", "2000"))


def _steane_gadgets(code):
    return [
        ("N[steane,direct]", build_n_gadget(code)),
        ("T[steane]", build_t_gadget(code)),
        ("recovery_X[steane]", build_recovery_gadget(code, "X")),
    ]


def test_optimize_reduction(benchmark):
    """Location-count reduction + optimizer wall-clock per gadget."""
    code = SteaneCode()
    gadgets = _steane_gadgets(code)

    def run_experiment():
        clear_optimize_cache()
        rows = []
        for name, gadget in gadgets:
            pipeline = gadget_pipeline()
            start = time.perf_counter()
            result = optimize_circuit(gadget.circuit, pipeline,
                                      use_cache=False)
            elapsed = time.perf_counter() - start
            before = _location_counts(gadget)
            after = _location_counts(
                dataclasses.replace(gadget, circuit=result.circuit))
            rows.append({
                "gadget": name,
                "before": before,
                "after": after,
                "reduction_pct": 100.0 * (
                    1.0 - after["total"] / before["total"]),
                "rewrites": dict(result.rewrites),
                "rounds": result.rounds,
                "converged": result.converged,
                "optimize_seconds": elapsed,
            })
        return rows

    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    # The acceptance bar: >= 10% fewer locations on a Steane gadget,
    # and optimization never adds locations anywhere.
    best = max(row["reduction_pct"] for row in rows)
    assert best >= 10.0, rows
    assert all(row["after"]["total"] <= row["before"]["total"]
               for row in rows)
    assert all(row["converged"] for row in rows)

    # Monte-Carlo wall-clock on the optimized vs plain N gadget: the
    # optimized run samples fewer locations per trial.
    gadget, initial, evaluator = _steane_n_triple(code)
    from repro.noise import NoiseModel

    noise = NoiseModel.uniform(0.002)
    start = time.perf_counter()
    plain = run_monte_carlo(gadget, initial, evaluator, noise,
                            trials=TRIALS, seed=81)
    plain_seconds = time.perf_counter() - start
    start = time.perf_counter()
    optimized = run_monte_carlo(gadget, initial, evaluator, noise,
                                trials=TRIALS, seed=81, optimize=True)
    optimized_seconds = time.perf_counter() - start

    table = series_lines(
        ["gadget", "locations", "optimized", "reduction",
         "delay before", "delay after", "opt secs"],
        [[row["gadget"], row["before"]["total"],
          row["after"]["total"], f"{row['reduction_pct']:.1f}%",
          row["before"]["delay"], row["after"]["delay"],
          f"{row['optimize_seconds']:.2f}"] for row in rows],
    )
    lines = table + [
        "",
        f"monte carlo ({TRIALS} trials, p=0.002, Steane N): "
        f"plain {plain_seconds:.2f}s "
        f"({plain.failures} failures) vs optimized "
        f"{optimized_seconds:.2f}s ({optimized.failures} failures)",
        "per-pass rewrites: " + "; ".join(
            f"{row['gadget']}: {row['rewrites']}" for row in rows),
    ]
    report("E9. certified circuit optimization "
           "(repro.optimize pass pipeline)", lines)
    json_artifact("BENCH_optimize.json", {
        "gadgets": rows,
        "monte_carlo": {
            "trials": TRIALS,
            "p": 0.002,
            "plain_seconds": plain_seconds,
            "optimized_seconds": optimized_seconds,
            "plain_failures": plain.failures,
            "optimized_failures": optimized.failures,
        },
        "best_reduction_pct": best,
    })


def _location_counts(gadget):
    """Fault locations by kind, over the engine's location set."""
    counts = {"input": 0, "gate": 0, "delay": 0}
    for location in gadget_locations(gadget):
        counts[location.kind] += 1
    counts["total"] = sum(counts.values())
    return counts


def _steane_n_triple(code):
    gadget = build_n_gadget(code)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(code, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, code, 0)
    return gadget, initial, evaluator
