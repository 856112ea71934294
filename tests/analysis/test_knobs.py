"""One knob vocabulary across every sampling runner.

``chunk_size`` is the seed-contract chunk (trials per RNG stream, and
trials per batch in the sequential runners); ``batch_size`` is the
lane-stack width of the vectorised simulator, which never changes a
verdict; ``workers`` is the pool size.  No runner takes the retired
``parallel``, ``prefetch`` or ``eval_batch_size`` knobs.
"""

import inspect

import pytest

from repro.analysis import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_CHUNK_SIZE,
    adaptive_sweep_p,
    exhaustive_single_faults_sparse,
    gadget_monte_carlo,
    n_gadget_evaluator,
    run_sequential_monte_carlo,
    run_sequential_pair_sampling,
    sample_malignant_pairs,
    sampled_threshold_report,
    sweep_p,
)
from repro.analysis.engine import (
    run_exhaustive,
    run_malignant_pairs,
    run_monte_carlo,
)
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import NoiseModel

FIXED = (run_monte_carlo, run_malignant_pairs, run_exhaustive)
SEQUENTIAL = (run_sequential_monte_carlo, run_sequential_pair_sampling,
              adaptive_sweep_p)
WRAPPERS = (gadget_monte_carlo, exhaustive_single_faults_sparse,
            sample_malignant_pairs, sweep_p, sampled_threshold_report)
RUNNERS = FIXED + SEQUENTIAL + WRAPPERS


@pytest.fixture(scope="module")
def tiny(trivial):
    gadget = build_n_gadget(trivial)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(trivial, 0)}
    )
    return gadget, initial, n_gadget_evaluator(gadget, trivial, 0)


def _call(runner, tiny, **knobs):
    """Run ``runner`` on a tiny workload with ``knobs`` added."""
    gadget, initial, evaluator = tiny
    noise = NoiseModel.uniform(0.05)
    sequential = dict(seed=3, chunk_size=64)
    calls = {
        run_monte_carlo: lambda: run_monte_carlo(
            gadget, initial, evaluator, noise, trials=64, seed=3,
            **knobs),
        run_malignant_pairs: lambda: run_malignant_pairs(
            gadget, initial, evaluator, samples=64, seed=3, **knobs),
        run_exhaustive: lambda: run_exhaustive(
            gadget, initial, evaluator, **knobs),
        run_sequential_monte_carlo: lambda: run_sequential_monte_carlo(
            gadget, initial, evaluator, noise, p0=0.05, p1=0.09,
            max_trials=192, **sequential, **knobs),
        run_sequential_pair_sampling: lambda:
            run_sequential_pair_sampling(
                gadget, initial, evaluator, f0=0.7, f1=0.8,
                max_samples=192, **sequential, **knobs),
        adaptive_sweep_p: lambda: adaptive_sweep_p(
            gadget, initial, evaluator, [0.01, 0.05],
            total_trials=192, **sequential, **knobs),
        gadget_monte_carlo: lambda: gadget_monte_carlo(
            gadget, initial, evaluator, noise, trials=64, seed=3,
            **knobs),
        exhaustive_single_faults_sparse: lambda:
            exhaustive_single_faults_sparse(
                gadget, initial, evaluator, **knobs),
        sample_malignant_pairs: lambda: sample_malignant_pairs(
            gadget, initial, evaluator, samples=64, seed=3, **knobs),
        sweep_p: lambda: sweep_p(
            gadget, initial, evaluator, [0.01, 0.05], 64, seed=3,
            **knobs),
        sampled_threshold_report: lambda: sampled_threshold_report(
            gadget, initial, evaluator, samples=64, seed=3, **knobs),
    }
    return calls[runner]()


@pytest.mark.parametrize("runner", RUNNERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("knob", ["parallel", "prefetch",
                                  "eval_batch_size"])
def test_retired_knobs_are_refused(runner, knob, tiny):
    assert knob not in inspect.signature(runner).parameters
    with pytest.raises(TypeError, match=knob):
        _call(runner, tiny, **{knob: 1})


@pytest.mark.parametrize("runner", RUNNERS, ids=lambda f: f.__name__)
def test_shared_knobs_default_to_the_engine(runner):
    parameters = inspect.signature(runner).parameters
    assert parameters["workers"].default == 1
    assert parameters["chunk_size"].default == DEFAULT_CHUNK_SIZE
    assert parameters["memoize"].default is True
    if "batch_size" in parameters:
        assert parameters["batch_size"].default == DEFAULT_BATCH_SIZE


@pytest.mark.parametrize("runner", FIXED + SEQUENTIAL,
                         ids=lambda f: f.__name__)
def test_batch_size_is_the_lane_stack_width(runner, tiny):
    """``batch_size=1`` runs the per-pattern ladder and the default
    stacks lanes; the result is the same either way."""

    def stats_of(outcome):
        for name in ("stats", "engine_stats"):
            if getattr(outcome, name, None) is not None:
                return getattr(outcome, name)
        body = getattr(outcome, "result", None) or outcome.sample
        return body.engine_stats

    ladder = _call(runner, tiny, batch_size=1)
    stacked = _call(runner, tiny, batch_size=DEFAULT_BATCH_SIZE)
    assert stats_of(ladder).batched_batches == 0
    assert stats_of(stacked).batched_batches > 0
    if runner is run_exhaustive:
        assert ladder.failures == stacked.failures
    elif runner is adaptive_sweep_p:
        assert ladder.results == stacked.results
    elif runner in SEQUENTIAL:
        assert ladder.verdict == stacked.verdict
    else:
        assert ladder == stacked


@pytest.mark.parametrize("runner", SEQUENTIAL, ids=lambda f: f.__name__)
def test_chunk_size_is_the_trials_per_batch(runner, tiny):
    """The sequential and adaptive runners spend their budget in whole
    ``chunk_size`` batches, one RNG chunk each."""
    outcome = _call(runner, tiny)
    if runner is adaptive_sweep_p:
        assert sum(outcome.allocation) == 192 // 64
        assert outcome.trials_by_point() == [
            64 * batches for batches in outcome.allocation]
        assert outcome.stats.chunks == 3
        return
    body = getattr(outcome, "result", None) or outcome.sample
    assert body.engine_stats.chunks == outcome.batches
    assert body.engine_stats.trials <= 64 * outcome.batches
