"""E8 — sequential certification: trials-to-decision vs fixed budget.

The statistical trust layer's economic claim: an SPRT-driven run
decides the paper's claims in a small fraction of the trials a
fixed-budget run burns, at configured error rates — and the adaptive
sweep concentrates a shared budget on the p-points whose confidence
intervals are widest instead of spreading it uniformly.

Emits ``results/BENCH_stats.json`` with the measured trials-to-
decision table (the CI bench job can upload it as an artifact).
"""

import os

from repro.analysis import (
    adaptive_sweep_p,
    n_gadget_evaluator,
    run_sequential_monte_carlo,
    sweep_p,
)
from repro.codes import SteaneCode
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import NoiseModel

from _harness import json_artifact, report, series_lines, verdict_lines

#: Fixed-budget comparison ceiling; override with BENCH_STATS_TRIALS
#: for CI smoke runs.
FIXED_BUDGET = int(os.environ.get("BENCH_STATS_TRIALS", "8000"))
SWEEP_BUDGET = int(os.environ.get("BENCH_STATS_SWEEP_TRIALS", "3072"))
BATCH = 256
SEED = 20260806


def _steane_case():
    code = SteaneCode()
    gadget = build_n_gadget(code)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(code, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, code, 0)
    return gadget, initial, evaluator


def test_trials_to_decision(benchmark):
    """Sequential stop vs fixed budget, at p values on both sides of
    the claim boundary."""
    gadget, initial, evaluator = _steane_case()
    cases = [
        ("quiet", 0.002, 0.01, 0.05),
        ("marginal", 0.02, 0.01, 0.05),
        ("noisy", 0.05, 0.002, 0.01),
    ]

    def run_experiment():
        rows = []
        verdicts = []
        for label, p, p0, p1 in cases:
            outcome = run_sequential_monte_carlo(
                gadget, initial, evaluator, NoiseModel.uniform(p),
                p0=p0, p1=p1, max_trials=FIXED_BUDGET, seed=SEED,
                chunk_size=BATCH,
            )
            verdict = outcome.verdict
            verdicts.append(verdict)
            rows.append((
                label, p, f"<= {p0:g}", verdict.decision,
                verdict.trials, FIXED_BUDGET,
                f"{verdict.trials / FIXED_BUDGET:.1%}",
            ))
        return rows, verdicts

    rows, verdicts = benchmark.pedantic(run_experiment, rounds=1,
                                        iterations=1)
    report("E8 — trials-to-decision: sequential vs fixed budget", [
        f"workload: {gadget.name}, SPRT alpha=beta=0.05, "
        f"batch={BATCH}",
        *series_lines(("case", "p", "claim", "decision", "trials",
                       "budget", "spend"), rows),
        "",
        *verdict_lines(verdicts),
    ])
    json_artifact("BENCH_stats.json", {
        "workload": gadget.name,
        "fixed_budget": FIXED_BUDGET,
        "batch_size": BATCH,
        "seed": SEED,
        "cases": [
            {
                "case": row[0],
                "p": row[1],
                "claim": row[2],
                "decision": row[3],
                "trials_to_decision": row[4],
                "budget": row[5],
            }
            for row in rows
        ],
        "verdicts": [verdict.to_json_dict() for verdict in verdicts],
    })
    # Every decided case must have stopped measurably early.
    for row, verdict in zip(rows, verdicts):
        if verdict.decision != "undecided":
            assert verdict.trials < FIXED_BUDGET


def test_adaptive_sweep_vs_uniform(benchmark):
    """Same total budget: adaptive allocation vs uniform sweep_p.

    The adaptive sweep must spend more of the budget on the widest-
    interval points than the uniform split does, tightening the CI
    where it is loosest.
    """
    gadget, initial, evaluator = _steane_case()
    p_values = [0.005, 0.02, 0.05]
    per_point = SWEEP_BUDGET // len(p_values)

    def run_experiment():
        adaptive = adaptive_sweep_p(
            gadget, initial, evaluator, p_values,
            total_trials=SWEEP_BUDGET, seed=SEED, chunk_size=BATCH,
        )
        uniform = sweep_p(
            gadget, initial, evaluator, p_values, trials=per_point,
            seed=SEED, chunk_size=BATCH,
        )
        return adaptive, uniform

    adaptive, uniform = benchmark.pedantic(run_experiment, rounds=1,
                                           iterations=1)
    rows = []
    for index, p in enumerate(p_values):
        fixed_interval = uniform[index].interval()
        rows.append((
            p,
            adaptive.results[index].trials,
            uniform[index].trials,
            f"{adaptive.intervals[index].half_width:.2e}",
            f"{fixed_interval.half_width:.2e}",
        ))
    widest = max(range(len(p_values)),
                 key=lambda i: uniform[i].interval().half_width)
    report("E8 — adaptive sweep vs uniform split (equal budget)", [
        f"workload: {gadget.name}, total budget {SWEEP_BUDGET} "
        f"trials, batch={BATCH}",
        *series_lines(("p", "adaptive trials", "uniform trials",
                       "adaptive ci+-", "uniform ci+-"), rows),
        "",
        f"allocation: {adaptive.allocation} batches "
        f"(uniform would be "
        f"{[per_point // BATCH] * len(p_values)})",
    ])
    # The widest uniform point got at least its uniform share from
    # the adaptive allocator, and its interval did not widen.
    assert adaptive.results[widest].trials >= per_point
    assert adaptive.intervals[widest].half_width <= \
        uniform[widest].interval().half_width * 1.05
