"""Sequential and adaptive Monte-Carlo certification runners.

The fixed-budget samplers in :mod:`repro.analysis.montecarlo` burn
their entire trial budget even when the claim under test ("this
gadget's failure rate is below p0") was decided thousands of trials
ago.  This module adds the sequential layer on top of the engine:

* :func:`run_sequential_monte_carlo` — batchwise Monte Carlo whose
  stopping time is driven by an :class:`~repro.analysis.stats.Sprt`
  or always-valid confidence sequence, returning a typed
  :class:`~repro.analysis.stats.ClaimVerdict` alongside the ordinary
  :class:`~repro.analysis.montecarlo.GadgetMonteCarloResult`.
* :func:`run_sequential_pair_sampling` — the same treatment for the
  malignant-pair fraction behind the paper's threshold estimate.
* :func:`adaptive_sweep_p` — a variance-aware ``sweep_p``: a shared
  trial budget is allocated batch-by-batch to the p-points whose
  confidence intervals are widest (or nearest a decision boundary),
  under a deterministic schedule.

All three run on the engine's run frame (knobs, locations, journal,
evaluation context, interrupt cursor) and take the engine's two size
knobs with the engine's meanings: ``chunk_size`` is the seed-contract
chunk — here the trials per sequential batch — and ``batch_size`` the
lane-stack width of the vectorised simulator, which never changes a
verdict.  The two sequential runners share one batch loop and differ
only in what a batch draws.

**Determinism contract.**  Batch ``b`` of a sequential run draws its
faults from ``chunk_seed_sequence(seed, b, stream_key)`` — exactly the
stream the fixed-budget engine assigns to chunk ``b`` at the same
``(seed, chunk_size)``.  Stopping after ``n`` batches therefore
consumes a bit-identical *prefix* of the fixed run's fault stream: the
decision changes how many trials are drawn, never which ones.  The
adaptive sweep keys point ``i`` by ``seed + i`` (the ``sweep_p``
convention), and its allocation schedule is a pure function of the
accumulated counts, so results are reproducible for any worker count.

**Resume safety.**  With ``checkpoint=`` every completed batch is
journaled (counts per batch, plus the engine's verdict journal) and
the estimator state is a deterministic function of those counts, so a
killed run resumed from its journal replays the identical decision
sequence, reaches the identical verdict and trial count, and continues
the identical fault stream — proven by the chaos tests in
``tests/runtime/test_sequential_resume.py``.  Journal records keep
their historical keys: the fingerprint field ``batch_size`` records
the chunk size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.exceptions import AnalysisError
from repro.ft.gadget import Gadget
from repro.noise.locations import FaultLocation
from repro.noise.model import NoiseModel
from repro.runtime.policy import RuntimePolicy
from repro.simulators.sparse import SparseState

from repro.analysis.engine import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_CHUNK_SIZE,
    EngineStats,
    FaultPattern,
    FaultPatternCache,
    ProgressEvent,
    _coerce_count,
    _location_setup,
    _Run,
    _score,
    chunk_seed_sequence,
    sample_fault_chunk,
    sample_pair_chunk,
)
from repro.analysis.montecarlo import (
    GadgetMonteCarloResult,
    MalignantPairSample,
)
from repro.analysis.stats import (
    BinomialInterval,
    ClaimVerdict,
    binomial_interval,
    build_claim_verdict,
    make_sequential_test,
)

#: A batch draw: the batch's pattern counts and its fault-count
#: histogram (``None`` for pair batches, which journal no histogram).
_Draw = Tuple[Dict[FaultPattern, int], Optional[Dict[int, int]]]


@dataclass
class SequentialResult:
    """A sequential certification run's full outcome."""

    verdict: ClaimVerdict
    result: GadgetMonteCarloResult
    batches: int

    @property
    def decision(self) -> str:
        return self.verdict.decision


@dataclass
class SequentialPairResult:
    """Sequential malignant-pair certification outcome."""

    verdict: ClaimVerdict
    sample: MalignantPairSample
    batches: int

    @property
    def decision(self) -> str:
        return self.verdict.decision


def _merge_counts(total: Dict[int, int], delta: Dict[str, int]) -> None:
    for key, value in delta.items():
        total[int(key)] = total.get(int(key), 0) + int(value)


@dataclass
class _Tally:
    """Counts folded from batch records, journaled or fresh alike."""

    trials: int = 0
    failures: int = 0
    batches: int = 0
    histogram: Dict[int, int] = field(default_factory=dict)
    failures_by_count: Dict[int, int] = field(default_factory=dict)

    def fold(self, record: Dict[str, object]) -> None:
        self.trials += int(record["length"])
        self.failures += int(record["failures"])
        self.batches = int(record["batch"]) + 1
        if "histogram" in record:
            _merge_counts(self.histogram, record["histogram"])
            _merge_counts(self.failures_by_count,
                          record["failures_by_fault_count"])


def _draw_faults(run: _Run, noise: NoiseModel, setup, seed: int,
                 batch: int, length: int) -> _Draw:
    """Monte-Carlo batch ``batch`` of the stream keyed by ``seed``."""
    rng = np.random.default_rng(
        chunk_seed_sequence(seed, batch, stream_key=noise.stream_key()))
    histogram: Dict[int, int] = {}
    patterns: Dict[FaultPattern, int] = {}
    sample_fault_chunk(noise, run.gadget, run.locations, *setup, rng,
                       length, histogram, patterns)
    return patterns, histogram


def _resolve_batch(run: _Run, draw: _Draw,
                   **head: object) -> Dict[str, object]:
    """Resolve one drawn batch into its journal record.

    ``head`` carries the record's position fields; the failure count
    follows, then (Monte-Carlo batches only) the histogram and the
    failures by fault count, keyed by strings as the journal stores
    them.
    """
    patterns, histogram = draw
    failures, failures_by_count = _score(patterns,
                                         run.resolve(patterns))
    record = dict(head, failures=failures)
    if histogram is not None:
        record["histogram"] = {str(k): v for k, v in histogram.items()}
        record["failures_by_fault_count"] = {
            str(k): v for k, v in failures_by_count.items()}
    return record


def _run_batches(run: _Run, test, method: str, budget: int, unit: str,
                 draw: Callable[[int, int], _Draw],
                 on_batch: Optional[Callable[[int, int, int,
                                              Optional[str]], None]]
                 ) -> _Tally:
    """The batch loop of both sequential runners.

    Replays journaled ``batches`` records, then draws batch ``b`` with
    ``draw(b, length)``, resolves it, folds it into the estimator,
    journals the record and the estimator state, and calls
    ``on_batch`` — until ``test`` decides or ``budget`` items (named
    ``unit`` in the interrupt cursor) are consumed.
    """
    tally = _Tally()
    store = run.store
    if store is not None:
        # The estimator's decision sequence is a pure function of the
        # journaled per-batch counts.
        for record in store.load_records("batches"):
            tally.fold(record)
            test.update(int(record["failures"]), int(record["length"]))
            if on_batch is not None:
                on_batch(tally.batches - 1, tally.trials, tally.failures,
                         test.decision)
    chunk_size = run.chunk_size
    with run.interruptible(lambda: {"batches_done": tally.batches,
                                    unit: tally.trials}):
        while test.decision is None and tally.trials < budget:
            index = tally.batches
            length = min(chunk_size, budget - tally.trials)
            sample_start = time.perf_counter()
            drawn = draw(index, length)
            run.stats.sample_seconds += time.perf_counter() - sample_start
            run.stats.chunks += 1
            if run.progress is not None:
                run.progress(ProgressEvent(
                    phase="sample", done=tally.trials + length,
                    total=budget, chunk_index=index,
                    chunks_total=-(-budget // chunk_size),
                    elapsed_seconds=time.perf_counter() - run.start,
                ))
            record = _resolve_batch(run, drawn, batch=index,
                                    length=length)
            tally.fold(record)
            test.update(int(record["failures"]), length)
            if store is not None:
                store.append_record("batches", record)
                store.write_state("estimator", {
                    "method": method,
                    "state": test.state_dict(),
                })
            if on_batch is not None:
                on_batch(index, tally.trials, tally.failures,
                         test.decision)
    run.stats.trials = tally.trials
    return tally


def run_sequential_monte_carlo(
        gadget: Gadget,
        initial_state: SparseState,
        evaluator: Callable[[SparseState], bool],
        noise: NoiseModel,
        *,
        p0: float,
        p1: float,
        alpha: float = 0.05,
        beta: float = 0.05,
        max_trials: int,
        seed: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        method: str = "sprt",
        claim: Optional[str] = None,
        locations: Optional[Sequence[FaultLocation]] = None,
        workers: int = 1,
        batch_size: int = DEFAULT_BATCH_SIZE,
        memoize: bool = True,
        cache: Optional[FaultPatternCache] = None,
        invariant: Optional[Callable[[SparseState], None]] = None,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
        on_batch: Optional[Callable[[int, int, int, Optional[str]],
                                    None]] = None,
        checkpoint=None,
        resume: bool = True,
        runtime: Optional[RuntimePolicy] = None,
) -> SequentialResult:
    """Certify ``failure_rate <= p0`` sequentially, stopping early.

    Runs Monte-Carlo batches of ``chunk_size`` trials through the
    engine's sample→dedup→evaluate schedule, feeding each batch's
    failure count to a sequential test (``method``: ``sprt`` or
    ``confidence-sequence``) of H0: rate <= ``p0`` against
    H1: rate >= ``p1`` at error rates ``alpha``/``beta``.  Stops at
    the first decision or at ``max_trials``, whichever comes first,
    and returns the typed verdict plus the aggregate result over the
    trials actually consumed.

    Requires an explicit ``seed``: batch ``b`` draws from the same
    stream as fixed-budget chunk ``b`` (see
    :func:`repro.analysis.engine.chunk_seed_sequence`), so the
    sequential run's samples are a bit-identical prefix of
    ``run_monte_carlo(..., trials=<consumed>, chunk_size=chunk_size)``.

    ``checkpoint``/``resume`` journal completed batches and verdicts;
    a killed run resumed from the journal reaches the identical
    verdict, trial count and fault stream as an uninterrupted one.

    ``batch_size`` (default
    :data:`~repro.analysis.engine.DEFAULT_BATCH_SIZE`) is how many of
    each batch's distinct patterns the vectorised
    :mod:`repro.simulators.batched` stack evaluates at once, exactly
    as in :func:`~repro.analysis.engine.run_monte_carlo`.  Verdicts,
    SPRT decisions and journals are bit-identical for every value, so
    a journal resumes under any ``batch_size``.

    ``on_batch`` is the streaming hook: after every batch is folded
    into the estimator (journaled batches replayed on resume
    included), it is called with ``(batch_index, trials_consumed,
    failures_total, decision_so_far)``.  The certification service
    uses it to append per-batch confidence-interval events to the job
    journal while the run is still in flight; it observes, never
    influences — an exception raised from it propagates like
    ``KeyboardInterrupt`` (completed batches stay journaled).
    """
    if not noise.samplable:
        raise AnalysisError(
            f"{type(noise).__name__} has no stochastic Pauli "
            "unravelling and cannot feed the sampling engine"
        )
    if seed is None:
        raise AnalysisError(
            "sequential certification requires an explicit seed: the "
            "stopping decision must be replayable over a reproducible "
            "fault stream"
        )
    max_trials = _coerce_count(max_trials, "max_trials")
    if max_trials < 1:
        raise AnalysisError(
            f"max_trials must be >= 1, got {max_trials}"
        )
    run = _Run(gadget, initial_state, evaluator, locations=locations,
               workers=workers, chunk_size=chunk_size,
               batch_size=batch_size, memoize=memoize, cache=cache,
               invariant=invariant, runtime=runtime, progress=progress)
    test = make_sequential_test(method, p0, p1, alpha=alpha, beta=beta)
    fingerprint = {
        "workload": "sequential_monte_carlo",
        "gadget": gadget.name,
        "locations": len(run.locations),
        "seed": seed,
        "max_trials": max_trials,
        "batch_size": run.chunk_size,
        "p0": float(p0),
        "p1": float(p1),
        "alpha": float(alpha),
        "beta": float(beta),
        "method": method,
        "p_gate": float(noise.p_gate),
        "p_input": float(noise.p_input),
        "p_delay": float(noise.p_delay),
        "channel": noise.channel,
    }
    if noise.structured:
        fingerprint["model"] = repr(noise.fingerprint())
    run.open_journal(checkpoint, resume, seed, fingerprint)
    setup = _location_setup(noise, run.gadget, run.locations)
    tally = _run_batches(
        run, test, method, max_trials, "trials",
        lambda batch, length: _draw_faults(run, noise, setup, seed,
                                           batch, length),
        on_batch)
    verdict = build_claim_verdict(
        test,
        claim or f"{gadget.name} failure_rate <= {p0:g} "
                 f"at p={noise.p_gate:g}",
        method, max_trials)
    run.finish({
        "trials": tally.trials,
        "failures": tally.failures,
        "decision": verdict.decision,
        "batches": tally.batches,
    })
    result = GadgetMonteCarloResult(
        p=noise.p_gate,
        trials=tally.trials,
        failures=tally.failures,
        failures_by_fault_count=tally.failures_by_count,
        fault_count_histogram=tally.histogram,
        engine_stats=run.stats,
    )
    return SequentialResult(verdict=verdict, result=result,
                            batches=tally.batches)


def run_sequential_pair_sampling(
        gadget: Gadget,
        initial_state: SparseState,
        evaluator: Callable[[SparseState], bool],
        *,
        f0: float,
        f1: float,
        alpha: float = 0.05,
        beta: float = 0.05,
        max_samples: int,
        seed: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        method: str = "sprt",
        claim: Optional[str] = None,
        locations: Optional[Sequence[FaultLocation]] = None,
        channel: str = "depolarizing",
        workers: int = 1,
        batch_size: int = DEFAULT_BATCH_SIZE,
        memoize: bool = True,
        cache: Optional[FaultPatternCache] = None,
        invariant: Optional[Callable[[SparseState], None]] = None,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
        on_batch: Optional[Callable[[int, int, int, Optional[str]],
                                    None]] = None,
        checkpoint=None,
        resume: bool = True,
        runtime: Optional[RuntimePolicy] = None,
) -> SequentialPairResult:
    """Certify ``malignant_fraction <= f0`` sequentially.

    The malignant-pair fraction drives the paper's threshold estimate
    (p_th ~ 1 / (fraction * location_pairs)), so deciding it early is
    deciding the threshold early.  Same stream/stopping/resume
    contract, knobs and ``on_batch`` streaming hook as
    :func:`run_sequential_monte_carlo`, over the uniform
    distinct-location-pair draws of ``run_malignant_pairs``.
    """
    if seed is None:
        raise AnalysisError(
            "sequential certification requires an explicit seed"
        )
    max_samples = _coerce_count(max_samples, "max_samples")
    if max_samples < 1:
        raise AnalysisError(
            f"max_samples must be >= 1, got {max_samples}"
        )
    run = _Run(gadget, initial_state, evaluator, locations=locations,
               workers=workers, chunk_size=chunk_size,
               batch_size=batch_size, memoize=memoize, cache=cache,
               invariant=invariant, runtime=runtime, progress=progress)
    num_locations = len(run.locations)
    if num_locations < 2:
        raise AnalysisError(
            "malignant-pair sampling needs at least two fault locations"
        )
    test = make_sequential_test(method, f0, f1, alpha=alpha, beta=beta)
    run.open_journal(checkpoint, resume, seed, {
        "workload": "sequential_pairs",
        "gadget": gadget.name,
        "locations": num_locations,
        "seed": seed,
        "max_samples": max_samples,
        "batch_size": run.chunk_size,
        "p0": float(f0),
        "p1": float(f1),
        "alpha": float(alpha),
        "beta": float(beta),
        "method": method,
        "channel": channel,
    })
    model = NoiseModel.uniform(1.0, channel=channel)
    _, choices, after_ops = _location_setup(model, run.gadget,
                                            run.locations)

    def draw(batch: int, length: int) -> _Draw:
        rng = np.random.default_rng(chunk_seed_sequence(seed, batch))
        patterns: Dict[FaultPattern, int] = {}
        sample_pair_chunk(choices, after_ops, num_locations, rng,
                          length, patterns)
        return patterns, None

    tally = _run_batches(run, test, method, max_samples, "samples",
                         draw, on_batch)
    verdict = build_claim_verdict(
        test, claim or f"{gadget.name} malignant_fraction <= {f0:g}",
        method, max_samples)
    run.finish({
        "samples": tally.trials,
        "malignant": tally.failures,
        "decision": verdict.decision,
        "batches": tally.batches,
    })
    sample = MalignantPairSample(
        samples=tally.trials,
        malignant=tally.failures,
        num_locations=num_locations,
        engine_stats=run.stats,
    )
    return SequentialPairResult(verdict=verdict, sample=sample,
                                batches=tally.batches)


@dataclass
class AdaptiveSweepResult:
    """A variance-aware p sweep's outcome.

    ``results[i]`` aggregates the trials point ``i`` actually
    received; ``allocation[i]`` counts its batches.  ``intervals``
    are the final confidence intervals the allocator steered by.
    """

    results: List[GadgetMonteCarloResult]
    intervals: List[BinomialInterval]
    allocation: List[int]
    total_trials: int
    stats: EngineStats = field(repr=False, default_factory=EngineStats)

    def trials_by_point(self) -> List[int]:
        return [result.trials for result in self.results]


def _pick_adaptive_point(trials: List[int], failures: List[int],
                         batches: List[int],
                         min_batches_per_point: int,
                         confidence: float, interval_method: str,
                         boundary: Optional[float]
                         ) -> Tuple[int, List[BinomialInterval]]:
    """Deterministic allocation rule: widest CI first.

    Points below their minimum batch count are served first, in index
    order.  After that the next batch goes to the point with the
    widest interval, except that points whose interval straddles
    ``boundary`` (a failure-rate decision threshold) outrank all
    non-straddling points — trials flow to where the *decision* is
    still open.  Ties break to the lowest index.  The rule reads only
    the accumulated counts, so replaying journaled allocations puts
    the scheduler in the identical state.
    """
    intervals = [binomial_interval(failures[i], trials[i], confidence,
                                   interval_method)
                 for i in range(len(trials))]
    for index in range(len(trials)):
        if batches[index] < min_batches_per_point:
            return index, intervals
    best = 0
    best_key: Tuple[int, float] = (-1, -1.0)
    for index, interval in enumerate(intervals):
        straddles = int(boundary is not None
                        and interval.lower <= boundary <= interval.upper)
        key = (straddles, interval.half_width)
        if key > best_key:
            best, best_key = index, key
    return best, intervals


def adaptive_sweep_p(gadget: Gadget,
                     initial_state: SparseState,
                     evaluator: Callable[[SparseState], bool],
                     p_values: Sequence[float],
                     total_trials: int,
                     *,
                     seed: int,
                     chunk_size: int = DEFAULT_CHUNK_SIZE,
                     min_batches_per_point: int = 1,
                     confidence: float = 0.95,
                     interval_method: str = "wilson",
                     boundary: Optional[float] = None,
                     channel: str = "depolarizing",
                     locations: Optional[Sequence[FaultLocation]] = None,
                     workers: int = 1,
                     batch_size: int = DEFAULT_BATCH_SIZE,
                     memoize: bool = True,
                     cache: Optional[FaultPatternCache] = None,
                     invariant: Optional[
                         Callable[[SparseState], None]] = None,
                     progress: Optional[
                         Callable[[ProgressEvent], None]] = None,
                     checkpoint=None,
                     resume: bool = True,
                     runtime: Optional[RuntimePolicy] = None,
                     ) -> AdaptiveSweepResult:
    """Variance-aware ``sweep_p``: spend trials where CIs are widest.

    Splits ``total_trials`` into whole batches of ``chunk_size``
    (any remainder below one batch is left unspent) and deals them
    out under the deterministic rule of :func:`_pick_adaptive_point`.
    Point ``i``'s batches draw from ``chunk_seed_sequence(seed + i,
    batch)`` — the ``sweep_p`` seed-plus-index convention — so however
    many batches a point receives, its fault stream is a bit-identical
    prefix of the fixed-budget run at the same seed, and the whole
    sweep is reproducible for any worker count.

    ``boundary`` (optional) marks a failure-rate decision threshold:
    points whose interval still straddles it outrank all others, so
    the budget concentrates on resolving the crossover — the adaptive
    analogue of scanning for the paper's p_th.

    One :class:`FaultPatternCache` is shared across points (verdicts
    are p-independent).  ``checkpoint``/``resume`` journal every
    allocation; the schedule is a pure function of the journaled
    counts, so a killed sweep resumes into the identical allocation
    sequence and final series.

    ``batch_size`` sets the lane-stack width of the vectorised
    batched simulator (results unchanged for every value).
    """
    if seed is None:
        raise AnalysisError(
            "adaptive_sweep_p requires an explicit seed: the "
            "allocation schedule must be replayable"
        )
    total_trials = _coerce_count(total_trials, "total_trials")
    run = _Run(gadget, initial_state, evaluator, locations=locations,
               workers=workers, chunk_size=chunk_size,
               batch_size=batch_size, memoize=memoize, cache=cache,
               invariant=invariant, runtime=runtime, progress=progress)
    chunk_size = run.chunk_size
    if not p_values:
        raise AnalysisError("adaptive_sweep_p needs at least one p value")
    if min_batches_per_point < 1:
        raise AnalysisError(
            f"min_batches_per_point must be >= 1, got "
            f"{min_batches_per_point}"
        )
    p_values = [float(p) for p in p_values]
    num_points = len(p_values)
    budget_batches = total_trials // chunk_size
    if budget_batches < num_points * min_batches_per_point:
        raise AnalysisError(
            f"total_trials={total_trials} is below the minimum "
            f"{num_points * min_batches_per_point} batches of "
            f"{chunk_size} ({num_points} points x "
            f"{min_batches_per_point} min batches)"
        )
    run.open_journal(checkpoint, resume, seed, {
        "workload": "adaptive_sweep",
        "gadget": gadget.name,
        "locations": len(run.locations),
        "p_values": p_values,
        "total_trials": total_trials,
        "seed": seed,
        "batch_size": chunk_size,
        "min_batches_per_point": int(min_batches_per_point),
        "confidence": float(confidence),
        "interval_method": interval_method,
        "boundary": None if boundary is None else float(boundary),
        "channel": channel,
    })
    models = [NoiseModel.uniform(p, channel=channel) for p in p_values]
    setups = [_location_setup(model, run.gadget, run.locations)
              for model in models]
    tallies = [_Tally() for _ in p_values]
    steps_done = 0
    if run.store is not None:
        for record in run.store.load_records("alloc"):
            tallies[int(record["point"])].fold(record)
            steps_done += 1

    with run.interruptible(lambda: {"steps_done": steps_done}):
        while steps_done < budget_batches:
            index, _ = _pick_adaptive_point(
                [tally.trials for tally in tallies],
                [tally.failures for tally in tallies],
                [tally.batches for tally in tallies],
                min_batches_per_point, confidence, interval_method,
                boundary)
            tally = tallies[index]
            sample_start = time.perf_counter()
            drawn = _draw_faults(run, models[index], setups[index],
                                 seed + index, tally.batches, chunk_size)
            run.stats.sample_seconds += time.perf_counter() - sample_start
            run.stats.chunks += 1
            record = _resolve_batch(run, drawn, step=steps_done,
                                    point=index, batch=tally.batches,
                                    length=chunk_size)
            tally.fold(record)
            if run.store is not None:
                run.store.append_record("alloc", record)
            steps_done += 1
            if progress is not None:
                progress(ProgressEvent(
                    phase="sample", done=steps_done,
                    total=budget_batches, chunk_index=steps_done - 1,
                    chunks_total=budget_batches,
                    elapsed_seconds=time.perf_counter() - run.start,
                ))

    trials = [tally.trials for tally in tallies]
    allocation = [tally.batches for tally in tallies]
    run.stats.trials = sum(trials)
    run.finish({
        "steps": steps_done,
        "trials": sum(trials),
        "allocation": allocation,
    })
    return AdaptiveSweepResult(
        results=[
            GadgetMonteCarloResult(
                p=p,
                trials=tally.trials,
                failures=tally.failures,
                failures_by_fault_count=tally.failures_by_count,
                fault_count_histogram=tally.histogram,
            )
            for p, tally in zip(p_values, tallies)
        ],
        intervals=[binomial_interval(tally.failures, tally.trials,
                                     confidence, interval_method)
                   for tally in tallies],
        allocation=allocation,
        total_trials=sum(trials),
        stats=run.stats,
    )
