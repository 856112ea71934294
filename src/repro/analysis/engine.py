"""Parallel fault-injection execution engine.

Every O(p^2) curve and threshold estimate in the reproduction is a
statistical statement over a huge fault-sample space (Shor
quant-ph/9605011, Preskill quant-ph/9712048).  This module is the one
route from a fault pattern to a verdict: the samplers of
:mod:`repro.analysis.montecarlo` and the sequential runners all
forward here.  It runs three workloads — stochastic Monte-Carlo
trials, exhaustive single-fault enumeration and malignant-pair
sampling — through a shared three-phase schedule:

1. **Sample** (parent process, deterministic).  Trials are split into
   fixed-size chunks; chunk ``c`` draws its faults from an RNG seeded
   with ``SeedSequence(seed).spawn(n_chunks)[c]``.  The chunk layout
   depends only on ``(seed, trials, chunk_size)``, never on the worker
   count, so a seeded run is bit-identical for ``workers=1`` and
   ``workers=64``.  Location strike draws are vectorised.
2. **Deduplicate.**  Each sampled fault set is canonicalised to a
   sorted ``((pauli, after_op), ...)`` tuple.  At low p most non-empty
   samples are single-fault repeats, so the number of *distinct*
   patterns is far below the number of trials; verdicts are reused
   through a :class:`FaultPatternCache` instead of re-running the
   sparse simulator.  Deduplication happens in the parent, so workers
   never simulate the same pattern twice regardless of scheduling.
3. **Evaluate** (worker pool).  Only cache-missing patterns are
   simulated, fanned out across a ``multiprocessing`` fork pool in
   chunks.  Within a chunk, up to ``batch_size`` patterns
   (:data:`DEFAULT_BATCH_SIZE`) are stacked as lanes of one
   :class:`~repro.simulators.batched.BatchedState`; ``batch_size=1``
   is the per-pattern fallback ladder every unbatchable stack
   degrades to.  Verdicts are independent booleans, bit-identical for
   every batch size, so evaluation order cannot affect results.

Since PR 3 the evaluate phase runs under the resilience layer of
:mod:`repro.runtime`:

* pool scheduling goes through a :class:`~repro.runtime.Supervisor`
  (per-chunk deadlines, bounded retry with backoff, in-parent
  quarantine of chunks that keep failing — recorded in
  :class:`EngineStats`, never dropped);
* per-pattern evaluation degrades down a
  :class:`~repro.runtime.FallbackPolicy` ladder (sparse →
  statevector → density matrix) on ``MemoryError`` /
  ``SimulationError``, with retry-once on invariant
  ``VerificationError``;
* ``checkpoint=`` journals completed evaluation chunks through a
  :class:`~repro.runtime.CheckpointStore`, and ``resume=`` replays
  them so an interrupted campaign finishes bit-identically to an
  uninterrupted one (verdicts depend only on the canonical pattern,
  and the sample phase is already deterministic per seed).

Caching assumes evaluators are *phase-insensitive*: two fault lists
with the same canonical pattern can differ by a global phase (Paulis
inserted at the same point in either order), which every shipped
evaluator — overlap magnitudes and basis-term predicates — ignores.

The platform must support ``fork`` for ``workers > 1`` (fork lets
workers inherit the gadget/evaluator closures without pickling); where
it is unavailable the engine transparently degrades to in-process
evaluation with identical results.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import OrderedDict
from contextlib import contextmanager
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

from repro.circuits.pauli import PauliString
from repro.exceptions import (
    AnalysisError,
    SimulationError,
    VerificationError,
)
from repro.ft.gadget import Gadget, apply_circuit_with_faults
from repro.noise.locations import FaultLocation
from repro.noise.model import NoiseModel
from repro.runtime.checkpoint import CheckpointStore, as_store
from repro.runtime.fallback import FallbackRecord
from repro.runtime.policy import RuntimePolicy, resolve_policy
from repro.runtime.supervisor import Supervisor
from repro.simulators.batched import evaluate_fault_patterns_batched
from repro.simulators.sparse import SparseState

#: One concrete fault: (pauli, after_op) exactly as the injector takes it.
Fault = Tuple[PauliString, int]
#: Canonicalised fault set (sorted tuple of faults) — the cache key.
FaultPattern = Tuple[Fault, ...]

#: Default number of trials sampled per RNG chunk.  Part of the
#: determinism contract: results depend on (seed, trials, chunk_size).
DEFAULT_CHUNK_SIZE = 256

#: Default number of distinct patterns stacked into one batched
#: simulation.  Not part of the determinism contract: verdicts are
#: bit-identical for every batch size (``1`` evaluates one pattern at a
#: time through the fallback ladder).
DEFAULT_BATCH_SIZE = 64

#: Generous default bound on memoised verdicts; far above any shipped
#: workload, but finite so a runaway campaign cannot OOM the parent.
DEFAULT_CACHE_MAX_ENTRIES = 1 << 20

#: Ceiling on trials/samples per run.  Far beyond anything the sparse
#: simulator could evaluate in a lifetime; its real job is rejecting
#: corrupted inputs (e.g. an overflowed or negative count fed from a
#: config file) before they reach the multiprocessing machinery.
MAX_WORK_ITEMS = 1 << 48

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Fork-inherited evaluation context for pool workers (set in the
#: parent immediately before the pool is created; children copy it at
#: fork time, so nothing unpicklable ever crosses the pipe).
_WORKER_CONTEXT: Optional["_EvalContext"] = None


# ---------------------------------------------------------------------------
# Input validation (shared by every public entry point)
# ---------------------------------------------------------------------------

def _coerce_count(value, name: str,
                  maximum: int = MAX_WORK_ITEMS) -> int:
    """Strictly validate a work-item count (trials/samples)."""
    if isinstance(value, bool) or not isinstance(
            value, (int, np.integer)):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        else:
            raise AnalysisError(
                f"{name} must be an integer, got {value!r} "
                f"({type(value).__name__})"
            )
    value = int(value)
    if value < 0:
        raise AnalysisError(
            f"{name} must be non-negative, got {value}"
        )
    if value > maximum:
        raise AnalysisError(
            f"{name}={value} exceeds the engine's {maximum} "
            f"work-item ceiling; this is almost certainly a "
            f"corrupted or overflowed count"
        )
    return value


def _coerce_size(value, name: str) -> int:
    """Strictly validate a size knob (``workers``, ``chunk_size``,
    ``batch_size``): a positive integer, never rounded silently — a
    rounded ``chunk_size`` would move the seeded stream, and any
    rounding would hide a corrupted config."""
    if isinstance(value, bool) or not isinstance(
            value, (int, np.integer)):
        raise AnalysisError(
            f"{name} must be a positive integer, got {value!r} "
            f"({type(value).__name__})"
        )
    value = int(value)
    if value < 1:
        raise AnalysisError(f"{name} must be >= 1, got {value}")
    return value


def _fault_sort_key(fault: Fault) -> Tuple[int, Tuple[int, ...],
                                           Tuple[int, ...], int]:
    pauli, after_op = fault
    return (after_op, pauli.x_bits, pauli.z_bits, pauli.phase)


def canonical_pattern(faults: Sequence[Fault]) -> FaultPattern:
    """Order-independent canonical form of a sampled fault set."""
    return tuple(sorted(faults, key=_fault_sort_key))


def evaluate_fault_pattern(gadget: Gadget, initial_state: SparseState,
                           evaluator: Callable[[SparseState], bool],
                           faults: Sequence[Fault],
                           invariant: Optional[
                               Callable[[SparseState], None]] = None
                           ) -> bool:
    """Fresh (uncached) simulation of one fault pattern.

    ``invariant`` is the differential-verification hook: when given,
    it is called with the final state of every fresh simulation and
    must raise :class:`~repro.exceptions.VerificationError` on
    violation (see :func:`repro.verify.norm_invariant` for ready-made
    checks).  Cached verdicts skip the invariant — it certifies the
    simulator runs, which is exactly the set of states that were
    actually computed.
    """
    state = initial_state.copy()
    apply_circuit_with_faults(state, gadget.circuit, list(faults))
    if invariant is not None:
        invariant(state)
    return bool(evaluator(state))


class FaultPatternCache:
    """Memoised verdicts keyed by canonical fault pattern.

    Verdicts depend only on the fault pattern (the gadget, input state
    and evaluator are fixed per cache), not on the error rate p, so
    one cache can be shared across an entire p sweep.  Nor do they
    depend on the batch size that computed them: lane-stacked
    evaluation is bit-identical to one-at-a-time evaluation (certified
    by ``tests/simulators/test_batched_equivalence.py``), so the key is
    the pattern alone.

    The cache is LRU-bounded: ``max_entries`` (default generous —
    :data:`DEFAULT_CACHE_MAX_ENTRIES`) caps memory on unbounded
    campaigns, evicting the least-recently-used verdict and counting
    it in :attr:`evictions`.  Eviction is invisible to correctness —
    an evicted pattern is simply re-simulated on next request — and
    surfaces in :class:`EngineStats` so capped runs are diagnosable.
    ``max_entries=None`` disables the bound.
    """

    def __init__(self, max_entries: Optional[int]
                 = DEFAULT_CACHE_MAX_ENTRIES) -> None:
        if max_entries is not None:
            if isinstance(max_entries, bool) or not isinstance(
                    max_entries, (int, np.integer)):
                raise AnalysisError(
                    f"max_entries must be an integer or None, got "
                    f"{max_entries!r}"
                )
            max_entries = int(max_entries)
            if max_entries < 1:
                raise AnalysisError(
                    f"max_entries must be >= 1, got {max_entries}"
                )
        self.max_entries = max_entries
        self._verdicts: "OrderedDict[FaultPattern, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._verdicts)

    def __contains__(self, pattern: FaultPattern) -> bool:
        return pattern in self._verdicts

    def get(self, pattern: FaultPattern) -> Optional[bool]:
        verdict = self._verdicts.get(pattern)
        if verdict is not None:
            self._verdicts.move_to_end(pattern)
        return verdict

    def store(self, pattern: FaultPattern, verdict: bool) -> None:
        self._verdicts[pattern] = bool(verdict)
        self._verdicts.move_to_end(pattern)
        if self.max_entries is not None:
            while len(self._verdicts) > self.max_entries:
                self._verdicts.popitem(last=False)
                self.evictions += 1

    def items(self):
        """(pattern, verdict) pairs, least-recently-used first."""
        return self._verdicts.items()

    def clear(self) -> None:
        self._verdicts.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


@dataclass(frozen=True)
class ChunkTiming:
    """Wall-clock record for one evaluation chunk."""

    index: int
    patterns: int
    seconds: float
    worker_pid: int


@dataclass(frozen=True)
class ProgressEvent:
    """Passed to the ``progress`` callback after each chunk completes.

    ``phase`` is 'sample' or 'evaluate'; ``done``/``total`` count work
    items (trials for sampling, patterns for evaluation).
    """

    phase: str
    done: int
    total: int
    chunk_index: int
    chunks_total: int
    elapsed_seconds: float


@dataclass
class EngineStats:
    """Per-run instrumentation surfaced through benchmark reports."""

    trials: int = 0
    requests: int = 0       # verdict lookups (non-empty trials/samples)
    evaluations: int = 0    # fresh simulator runs
    cache_hits: int = 0
    distinct_patterns: int = 0
    chunks: int = 0
    workers: int = 1
    sample_seconds: float = 0.0
    eval_seconds: float = 0.0
    total_seconds: float = 0.0
    worker_busy_seconds: float = 0.0
    chunk_timings: List[ChunkTiming] = field(default_factory=list)
    # -- resilience accounting (repro.runtime) ----------------------
    retries: int = 0
    hung_chunks: int = 0
    worker_errors: int = 0
    pool_restarts: int = 0
    quarantined_chunks: int = 0
    degraded_evaluations: Dict[str, int] = field(default_factory=dict)
    invariant_retries: int = 0
    cache_evictions: int = 0
    resumed_verdicts: int = 0
    # -- batched-path accounting (repro.simulators.batched) ---------
    batched_batches: int = 0       # stacked simulations run
    batched_evaluations: int = 0   # verdicts produced by the stack
    batched_fallbacks: int = 0     # patterns degraded to the ladder

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def trials_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.trials / self.total_seconds

    @property
    def worker_utilization(self) -> float:
        """Busy time across workers / (evaluation wall time * workers)."""
        denominator = self.eval_seconds * max(self.workers, 1)
        if denominator <= 0:
            return 0.0
        return min(1.0, self.worker_busy_seconds / denominator)

    @property
    def degraded_total(self) -> int:
        return sum(self.degraded_evaluations.values())

    def absorb(self, other: "EngineStats") -> None:
        """Fold another run's stats into this one (multi-phase
        reports: exhaustive + pair sampling share one block)."""
        self.trials += other.trials
        self.requests += other.requests
        self.evaluations += other.evaluations
        self.cache_hits += other.cache_hits
        self.distinct_patterns += other.distinct_patterns
        self.chunks += other.chunks
        self.workers = max(self.workers, other.workers)
        self.sample_seconds += other.sample_seconds
        self.eval_seconds += other.eval_seconds
        self.total_seconds += other.total_seconds
        self.worker_busy_seconds += other.worker_busy_seconds
        self.chunk_timings.extend(other.chunk_timings)
        self.retries += other.retries
        self.hung_chunks += other.hung_chunks
        self.worker_errors += other.worker_errors
        self.pool_restarts += other.pool_restarts
        self.quarantined_chunks += other.quarantined_chunks
        for backend, count in other.degraded_evaluations.items():
            self.degraded_evaluations[backend] = \
                self.degraded_evaluations.get(backend, 0) + count
        self.invariant_retries += other.invariant_retries
        self.cache_evictions += other.cache_evictions
        self.resumed_verdicts += other.resumed_verdicts
        self.batched_batches += other.batched_batches
        self.batched_evaluations += other.batched_evaluations
        self.batched_fallbacks += other.batched_fallbacks

    def summary_lines(self) -> List[str]:
        """Human-readable block for benchmark reports."""
        lines = [
            f"engine: {self.trials} trials in {self.total_seconds:.2f}s "
            f"({self.trials_per_second:.0f} trials/s), "
            f"workers={self.workers}, chunks={self.chunks}",
            f"  cache: {self.cache_hits}/{self.requests} hits "
            f"({100 * self.cache_hit_rate:.1f}%), "
            f"{self.evaluations} simulator runs over "
            f"{self.distinct_patterns} distinct patterns",
            f"  timing: sample {self.sample_seconds:.2f}s, "
            f"evaluate {self.eval_seconds:.2f}s, "
            f"worker utilization {100 * self.worker_utilization:.0f}%",
        ]
        if self.batched_batches or self.batched_fallbacks:
            lines.append(
                f"  batched: {self.batched_evaluations} verdicts in "
                f"{self.batched_batches} stacked batches, "
                f"{self.batched_fallbacks} fell back to the "
                f"per-pattern ladder"
            )
        incidents = (self.retries or self.hung_chunks
                     or self.worker_errors or self.pool_restarts
                     or self.quarantined_chunks or self.degraded_total
                     or self.invariant_retries or self.cache_evictions
                     or self.resumed_verdicts)
        if incidents:
            degraded = ", ".join(
                f"{backend}={count}" for backend, count in
                sorted(self.degraded_evaluations.items())
            ) or "none"
            lines.append(
                f"  resilience: {self.retries} retries, "
                f"{self.hung_chunks} hung, "
                f"{self.worker_errors} worker errors, "
                f"{self.pool_restarts} pool restarts, "
                f"{self.quarantined_chunks} quarantined; "
                f"degraded [{degraded}], "
                f"{self.invariant_retries} invariant retries, "
                f"{self.resumed_verdicts} resumed verdicts, "
                f"{self.cache_evictions} cache evictions"
            )
        return lines

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot for job metadata and reports.

        The service records this alongside each verdict so a cache hit
        (``evaluations == 0``) is distinguishable from a recompute.
        """
        return {
            "trials": self.trials,
            "chunks": self.chunks,
            "workers": self.workers,
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "evaluations": self.evaluations,
            "distinct_patterns": self.distinct_patterns,
            "total_seconds": self.total_seconds,
            "retries": self.retries,
            "hung_chunks": self.hung_chunks,
            "worker_errors": self.worker_errors,
            "pool_restarts": self.pool_restarts,
            "quarantined_chunks": self.quarantined_chunks,
            "degraded_evaluations": dict(sorted(
                self.degraded_evaluations.items())),
            "invariant_retries": self.invariant_retries,
            "resumed_verdicts": self.resumed_verdicts,
            "cache_evictions": self.cache_evictions,
            "batched_evaluations": self.batched_evaluations,
            "batched_batches": self.batched_batches,
            "batched_fallbacks": self.batched_fallbacks,
        }


@dataclass
class ExhaustiveSurvey:
    """Result of an engine-driven exhaustive single-fault sweep."""

    failures: List[Tuple[FaultLocation, PauliString]]
    checked: int
    stats: EngineStats


class _EvalContext:
    """Everything a worker needs to turn a pattern into a verdict.

    Carries the runtime policy's fallback ladder and chaos plan into
    forked workers (by inheritance — nothing crosses the pipe).
    """

    def __init__(self, gadget: Gadget, initial_state: SparseState,
                 evaluator: Callable[[SparseState], bool],
                 invariant: Optional[Callable[[SparseState], None]]
                 = None,
                 policy: Optional[RuntimePolicy] = None,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        self.gadget = gadget
        self.initial_state = initial_state
        self.evaluator = evaluator
        self.invariant = invariant
        self.policy = resolve_policy(policy)
        self.batch_size = batch_size

    def evaluate(self, pattern: FaultPattern) -> bool:
        """Plain single-pattern evaluation (no chaos coordinates)."""
        return evaluate_fault_pattern(self.gadget, self.initial_state,
                                      self.evaluator, pattern,
                                      invariant=self.invariant)

    def evaluate_one(self, pattern: FaultPattern,
                     record: FallbackRecord, chunk_index: int,
                     attempt: int, in_worker: bool) -> bool:
        chaos = self.policy.chaos
        fallback = self.policy.fallback
        if fallback is not None:
            return fallback.evaluate(
                self.gadget, self.initial_state, self.evaluator,
                pattern, invariant=self.invariant, record=record,
                chaos=chaos, chunk_index=chunk_index, attempt=attempt,
                in_worker=in_worker,
            )
        if chaos is not None:
            injected = chaos.primary_backend_error(
                chunk_index, attempt, in_worker)
            if injected is not None:
                raise injected
        return evaluate_fault_pattern(self.gadget, self.initial_state,
                                      self.evaluator, pattern,
                                      invariant=self.invariant)


#: Worker result: (index, verdicts, seconds, pid, resilience payload).
_ChunkResult = Tuple[int, List[bool], float, int, Dict[str, object]]


def _evaluate_chunk(context: _EvalContext, index: int,
                    patterns: Sequence[FaultPattern], attempt: int,
                    in_worker: bool) -> _ChunkResult:
    """Evaluate one chunk under the context's runtime policy."""
    start = time.perf_counter()
    chaos = context.policy.chaos
    if chaos is not None and in_worker:
        chaos.on_chunk_start(index, attempt, in_worker=True)
    record = FallbackRecord()
    resilience: Dict[str, object]
    if context.batch_size > 1:
        verdicts, resilience = _evaluate_chunk_batched(
            context, patterns, record, index, attempt, in_worker)
    else:
        verdicts = [context.evaluate_one(pattern, record, index,
                                         attempt, in_worker)
                    for pattern in patterns]
        resilience = {}
    resilience["degraded"] = dict(record.degraded)
    resilience["invariant_retries"] = record.invariant_retries
    return (index, verdicts, time.perf_counter() - start, os.getpid(),
            resilience)


def _evaluate_chunk_batched(context: _EvalContext,
                            patterns: Sequence[FaultPattern],
                            record: FallbackRecord, index: int,
                            attempt: int, in_worker: bool
                            ) -> Tuple[List[bool], Dict[str, object]]:
    """One chunk's verdicts through the stacked batched evaluator.

    Patterns are sliced into ``batch_size`` stacks; a stack that the
    batched path cannot handle — register too wide for the lane bits
    (``SimulationError``), out of memory, or an invariant violation
    that needs the retry-once shield — degrades to the per-pattern
    ladder of :meth:`_EvalContext.evaluate_one`, exactly the rung
    structure a ``batch_size=1`` run uses.  The policy's chaos plan is
    consulted once per stack at the same (chunk, attempt) coordinates
    as the ladder's primary backend and invariant hook, so injected
    faults strike the batched path too and degrade the stack the same
    way.  Verdict values are unaffected either way (the lanes are
    bit-identical to one-pattern evolution); only the accounting
    differs, surfaced through the ``batched_*`` counters of
    :class:`EngineStats`.
    """
    chaos = context.policy.chaos
    verdicts: List[bool] = []
    batches = 0
    stacked = 0
    fallbacks = 0
    for lo in range(0, len(patterns), context.batch_size):
        stack = patterns[lo:lo + context.batch_size]
        try:
            if chaos is not None:
                injected = chaos.primary_backend_error(
                    index, attempt, in_worker)
                if injected is None and context.invariant is not None:
                    injected = chaos.invariant_error(
                        index, attempt, 0, in_worker)
                if injected is not None:
                    raise injected
            stack_verdicts = evaluate_fault_patterns_batched(
                context.gadget, context.initial_state,
                context.evaluator, stack, invariant=context.invariant)
            batches += 1
            stacked += len(stack)
        except (MemoryError, SimulationError, VerificationError):
            stack_verdicts = [
                context.evaluate_one(pattern, record, index, attempt,
                                     in_worker)
                for pattern in stack
            ]
            fallbacks += len(stack)
        verdicts.extend(stack_verdicts)
    return verdicts, {
        "batched_batches": batches,
        "batched_evaluations": stacked,
        "batched_fallbacks": fallbacks,
    }


def _eval_chunk(task: Tuple[int, List[FaultPattern], int]
                ) -> _ChunkResult:
    """Pool entry point: evaluate one chunk via the forked context."""
    index, patterns, attempt = task
    context = _WORKER_CONTEXT
    if context is None:  # pragma: no cover - defensive
        raise AnalysisError("engine worker started without a context")
    return _evaluate_chunk(context, index, patterns, attempt,
                           in_worker=True)


def _chunk_slices(total: int, chunk_size: int) -> List[Tuple[int, int]]:
    return [(start, min(start + chunk_size, total))
            for start in range(0, total, chunk_size)]


def _evaluate_patterns(context: _EvalContext,
                       patterns: List[FaultPattern],
                       workers: int,
                       chunk_size: int,
                       stats: EngineStats,
                       progress: Optional[Callable[[ProgressEvent], None]],
                       journal: Optional[CheckpointStore] = None,
                       ) -> List[bool]:
    """Verdicts for ``patterns``, fanned out when ``workers > 1``.

    Evaluation chunking never affects results (verdicts are
    independent), only scheduling granularity.  In pool mode the fan-
    out is supervised (deadlines, retries, quarantine — see
    :mod:`repro.runtime.supervisor`); completed chunks are journaled
    to ``journal`` *before* the progress callback fires, so an
    interrupt raised from ``progress`` never loses a finished chunk.
    """
    verdicts: List[bool] = [False] * len(patterns)
    if not patterns:
        return verdicts
    slices = _chunk_slices(len(patterns), chunk_size)
    payloads = [patterns[lo:hi] for lo, hi in slices]
    pool_workers = min(workers, len(payloads))
    use_pool = pool_workers > 1 and _HAS_FORK
    stats.workers = max(stats.workers, pool_workers if use_pool else 1)
    start = time.perf_counter()
    done_patterns = 0

    def _record(index: int, chunk_verdicts: List[bool],
                seconds: float, pid: int,
                resilience: Optional[Dict[str, object]] = None
                ) -> None:
        nonlocal done_patterns
        lo, hi = slices[index]
        verdicts[lo:hi] = chunk_verdicts
        done_patterns += hi - lo
        stats.worker_busy_seconds += seconds
        stats.chunk_timings.append(ChunkTiming(
            index=index, patterns=hi - lo, seconds=seconds,
            worker_pid=pid,
        ))
        if resilience:
            for backend, count in resilience.get(
                    "degraded", {}).items():
                stats.degraded_evaluations[backend] = \
                    stats.degraded_evaluations.get(backend, 0) + count
            stats.invariant_retries += \
                int(resilience.get("invariant_retries", 0))
            stats.batched_batches += \
                int(resilience.get("batched_batches", 0))
            stats.batched_evaluations += \
                int(resilience.get("batched_evaluations", 0))
            stats.batched_fallbacks += \
                int(resilience.get("batched_fallbacks", 0))
        if journal is not None:
            journal.append_verdicts(
                zip(patterns[lo:hi], chunk_verdicts))
        if progress is not None:
            progress(ProgressEvent(
                phase="evaluate", done=done_patterns,
                total=len(patterns), chunk_index=index,
                chunks_total=len(payloads),
                elapsed_seconds=time.perf_counter() - start,
            ))

    if use_pool:
        supervisor = Supervisor(context.policy.supervisor)
        global _WORKER_CONTEXT
        _WORKER_CONTEXT = context
        try:
            report = supervisor.run(
                num_tasks=len(payloads),
                make_task=lambda index, attempt: (
                    index, payloads[index], attempt),
                worker_fn=_eval_chunk,
                workers=pool_workers,
                on_result=lambda index, result: _record(*result),
                local_eval=lambda index: _evaluate_chunk(
                    context, index, payloads[index],
                    attempt=context.policy.supervisor.max_retries + 1,
                    in_worker=False),
            )
        finally:
            _WORKER_CONTEXT = None
        stats.retries += report.retries
        stats.hung_chunks += report.expired_chunks
        stats.worker_errors += report.worker_errors
        stats.pool_restarts += report.pool_restarts
        stats.quarantined_chunks += len(report.quarantined)
    else:
        for index, chunk_patterns in enumerate(payloads):
            result = _evaluate_chunk(context, index, chunk_patterns,
                                     attempt=0, in_worker=False)
            _record(result[0], result[1], result[2], result[3],
                    result[4])
    stats.eval_seconds += time.perf_counter() - start
    return verdicts


def _resolve_verdicts(context: _EvalContext,
                      pattern_counts: Dict[FaultPattern, int],
                      memoize: bool,
                      cache: Optional[FaultPatternCache],
                      workers: int,
                      chunk_size: int,
                      stats: EngineStats,
                      progress: Optional[Callable[[ProgressEvent], None]],
                      journal: Optional[CheckpointStore] = None,
                      ) -> Dict[FaultPattern, bool]:
    """Map each distinct pattern to its verdict.

    With ``memoize`` each distinct pattern is simulated at most once
    (and not at all when the shared ``cache`` already knows it); with
    ``memoize=False`` every occurrence is simulated fresh — same
    verdicts, no reuse — which is the honest baseline for speedup
    measurements.
    """
    requests = sum(pattern_counts.values())
    stats.requests += requests
    stats.distinct_patterns += len(pattern_counts)
    verdict_map: Dict[FaultPattern, bool] = {}
    if memoize:
        evictions_before = cache.evictions if cache is not None else 0
        missing: List[FaultPattern] = []
        for pattern in pattern_counts:
            verdict = cache.get(pattern) if cache is not None else None
            if verdict is None:
                missing.append(pattern)
            else:
                verdict_map[pattern] = verdict
        verdicts = _evaluate_patterns(context, missing, workers,
                                      chunk_size, stats, progress,
                                      journal=journal)
        for pattern, verdict in zip(missing, verdicts):
            verdict_map[pattern] = verdict
            if cache is not None:
                cache.store(pattern, verdict)
        stats.evaluations += len(missing)
        stats.cache_hits += requests - len(missing)
        if cache is not None:
            cache.misses += len(missing)
            cache.hits += requests - len(missing)
            stats.cache_evictions += cache.evictions - evictions_before
    else:
        expanded: List[FaultPattern] = []
        for pattern, multiplicity in pattern_counts.items():
            expanded.extend([pattern] * multiplicity)
        verdicts = _evaluate_patterns(context, expanded, workers,
                                      chunk_size, stats, progress,
                                      journal=journal)
        for pattern, verdict in zip(expanded, verdicts):
            verdict_map[pattern] = verdict
        stats.evaluations += len(expanded)
    return verdict_map


def _location_setup(noise: Optional[NoiseModel], gadget: Gadget,
                    locations: Sequence[FaultLocation]
                    ) -> Tuple[np.ndarray, List[Tuple[PauliString, ...]],
                               List[int]]:
    """Precompute per-location strike probabilities and fault choices.

    ``fault_choices`` embeds the channel's local Pauli alphabet (a
    ``pauli_basis`` walk the noise model caches per channel and width)
    on each location; doing it once per run rather than per struck
    location per trial is a measurable win on its own.
    """
    model = noise if noise is not None else NoiseModel.uniform(1.0)
    probs = np.array([model.probability_for(loc) for loc in locations],
                     dtype=float)
    choices = [model.fault_choices(loc, gadget.num_qubits)
               for loc in locations]
    after_ops = [loc.after_op for loc in locations]
    return probs, choices, after_ops


def _spawn_chunks(seed: Optional[int], total: int, chunk_size: int,
                  stream_key: Sequence[int] = ()
                  ) -> List[Tuple[int, np.random.SeedSequence]]:
    """(chunk_length, child seed) pairs — worker-count independent.

    ``stream_key`` is the noise model's ``stream_key()``: empty for the
    baseline models (the root stays ``SeedSequence(seed)``, preserving
    every historical seeded stream byte-for-byte) and a
    fingerprint-derived spawn key for structured models, so two
    different models never share a fault stream at the same seed.
    """
    slices = _chunk_slices(total, chunk_size)
    if stream_key:
        root = np.random.SeedSequence(seed, spawn_key=tuple(stream_key))
    else:
        root = np.random.SeedSequence(seed)
    children = root.spawn(len(slices))
    return [(hi - lo, child) for (lo, hi), child in zip(slices, children)]


def chunk_seed_sequence(seed: int, chunk_index: int,
                        stream_key: Sequence[int] = ()
                        ) -> np.random.SeedSequence:
    """The SeedSequence :func:`_spawn_chunks` assigns to chunk ``i`` —
    computed directly, without knowing the total trial count.

    ``SeedSequence(seed).spawn(n)[i]`` equals
    ``SeedSequence(seed, spawn_key=(i,))`` for every explicit seed
    (spawning appends the child index to the spawn key), so a
    sequential run that decides its stopping time on the fly draws the
    *same* fault stream, chunk for chunk, as a fixed-budget run at the
    same ``(seed, chunk_size)``.  That prefix property is what makes
    early stopping bias-free at the sampling level and what the
    resume-invariance tests pin down.

    Requires an explicit seed: with ``seed=None`` each SeedSequence
    construction draws fresh OS entropy and the equivalence (and any
    notion of resuming) is meaningless.
    """
    if seed is None:
        raise AnalysisError(
            "sequential sampling requires an explicit seed: chunk "
            "streams are addressed by (seed, chunk_index) and cannot "
            "be reproduced from OS entropy"
        )
    key = tuple(int(part) for part in stream_key) + (int(chunk_index),)
    return np.random.SeedSequence(seed, spawn_key=key)


def sample_fault_chunk(noise: NoiseModel, gadget: Gadget,
                       locations: Sequence[FaultLocation],
                       probs: np.ndarray,
                       choices: List[Tuple[PauliString, ...]],
                       after_ops: List[int],
                       rng: np.random.Generator,
                       length: int,
                       histogram: Dict[int, int],
                       pattern_counts: Dict[FaultPattern, int]) -> None:
    """Sample ``length`` Monte-Carlo trials from one chunk RNG.

    Folds fault-count tallies into ``histogram`` and canonical
    patterns into ``pattern_counts`` in place.  This is the exact draw
    sequence the historical ``run_monte_carlo`` loop used (structured
    per-trial path, vectorised iid fast path) — extracted so the
    sequential runner can consume the same streams batch by batch.
    The seeded-stream stability tests pin the draw order; do not
    reorder RNG calls here.
    """
    if noise.structured:
        # Structured models own their sampling (correlations, weights,
        # time dependence live in the model); the vectorised iid fast
        # path below would miss all of that.
        for _ in range(length):
            sampled = noise.sample_faults(gadget.circuit, rng,
                                          locations)
            faults = [(fault.pauli, fault.after_op)
                      for fault in sampled]
            count = len(faults)
            histogram[count] = histogram.get(count, 0) + 1
            if count:
                key = canonical_pattern(faults)
                pattern_counts[key] = pattern_counts.get(key, 0) + 1
        return
    strikes = rng.random((length, len(locations)))
    for row in range(length):
        struck = np.nonzero(strikes[row] < probs)[0]
        faults: List[Fault] = []
        for loc_index in struck:
            loc_choices = choices[loc_index]
            if not loc_choices:
                continue
            pauli = loc_choices[int(rng.integers(0, len(loc_choices)))]
            faults.append((pauli, after_ops[loc_index]))
        count = len(faults)
        histogram[count] = histogram.get(count, 0) + 1
        if count:
            key = canonical_pattern(faults)
            pattern_counts[key] = pattern_counts.get(key, 0) + 1


def sample_pair_chunk(choices: List[Tuple[PauliString, ...]],
                      after_ops: List[int],
                      num_locations: int,
                      rng: np.random.Generator,
                      length: int,
                      pattern_counts: Dict[FaultPattern, int]) -> None:
    """Sample ``length`` uniform distinct location pairs from one chunk
    RNG, folding canonical two-fault patterns into ``pattern_counts``.

    Extracted from ``run_malignant_pairs`` unchanged (same draw order)
    so sequential pair certification shares its fault stream.
    """
    for _ in range(length):
        i = int(rng.integers(0, num_locations))
        j = int(rng.integers(0, num_locations - 1))
        if j >= i:
            j += 1
        faults: List[Fault] = []
        for loc_index in (i, j):
            loc_choices = choices[loc_index]
            pauli = loc_choices[int(rng.integers(0, len(loc_choices)))]
            faults.append((pauli, after_ops[loc_index]))
        key = canonical_pattern(faults)
        pattern_counts[key] = pattern_counts.get(key, 0) + 1


def _apply_optimizer(gadget: Gadget, optimize,
                     locations) -> Tuple[Gadget, Optional[str]]:
    """Resolve the ``optimize=`` knob for a gadget workload.

    Returns the (possibly rewritten) gadget and the pipeline marker to
    stamp into the checkpoint fingerprint, or ``(gadget, None)`` when
    optimization is off.  Explicit ``locations`` are refused: fault
    locations index into the original circuit's operation list, so
    pairing them with a rewritten circuit would silently misplace
    every fault.
    """
    from repro.optimize.pipeline import (
        _resolve_pipeline,
        optimize_gadget,
    )

    pipeline = _resolve_pipeline(optimize, gadget=True)
    if pipeline is None:
        return gadget, None
    if locations is not None:
        raise AnalysisError(
            "optimize= cannot be combined with explicit locations=: "
            "fault locations reference operation indices of the "
            "original circuit; pass locations enumerated from the "
            "optimized gadget instead"
        )
    return optimize_gadget(gadget, pipeline), pipeline.marker


def _score(pattern_counts: Dict[FaultPattern, int],
           verdict_map: Dict[FaultPattern, bool]
           ) -> Tuple[int, Dict[int, int]]:
    """Failures among sampled patterns, in total and by fault count."""
    failures = 0
    failures_by_count: Dict[int, int] = {}
    for pattern, multiplicity in pattern_counts.items():
        if not verdict_map[pattern]:
            failures += multiplicity
            count = len(pattern)
            failures_by_count[count] = \
                failures_by_count.get(count, 0) + multiplicity
    return failures, failures_by_count


class _Run:
    """The frame every sampling runner shares.

    A runner builds one ``_Run``, stamps its fingerprint through
    :meth:`open_journal`, samples, resolves verdicts through
    :meth:`resolve` and closes with :meth:`finish`; only its sampling,
    its fingerprint fields and its result type are its own.  The frame
    owns the optimizer, the default locations, the knob coercion, the
    verdict cache, the journal, the evaluation context and the
    interrupt cursor, so the fixed-budget runners here and the
    sequential runners of :mod:`repro.analysis.sequential` read and
    write journals the same way.

    ``chunk_size`` is the seed-contract chunk (trials per RNG stream
    and patterns per evaluation chunk); ``batch_size`` the lane-stack
    width, which never changes a verdict.  With ``memoize`` a verdict
    cache is created when the caller supplies none, so one run never
    simulates a pattern twice.
    """

    def __init__(self, gadget: Gadget, initial_state: SparseState,
                 evaluator: Callable[[SparseState], bool], *,
                 locations: Optional[Sequence[FaultLocation]],
                 workers: int, chunk_size: int, batch_size: int,
                 memoize: bool, cache: Optional[FaultPatternCache],
                 invariant: Optional[Callable[[SparseState], None]],
                 runtime: Optional[RuntimePolicy],
                 progress: Optional[Callable[[ProgressEvent], None]],
                 optimize=False) -> None:
        from repro.analysis.montecarlo import gadget_locations

        self.start = time.perf_counter()
        self.gadget, self.optimizer = _apply_optimizer(
            gadget, optimize, locations)
        self.locations = list(gadget_locations(self.gadget)
                              if locations is None else locations)
        self.workers = _coerce_size(workers, "workers")
        self.chunk_size = _coerce_size(chunk_size, "chunk_size")
        self.context = _EvalContext(
            self.gadget, initial_state, evaluator, invariant=invariant,
            policy=runtime,
            batch_size=_coerce_size(batch_size, "batch_size"))
        self.memoize = memoize
        self.cache = cache if cache is not None or not memoize \
            else FaultPatternCache()
        self.progress = progress
        self.stats = EngineStats(workers=1)
        self.store: Optional[CheckpointStore] = None

    def open_journal(self, checkpoint, resume: bool,
                     seed: Optional[int], fingerprint: Dict[str, object],
                     needs_seed: bool = True) -> None:
        """Open ``checkpoint`` (a path, a store or ``None``).

        On resume the journal's verdicts are replayed into the cache
        after the fingerprint check; on a fresh run the directory is
        cleared and a new header written.  Verdicts replay whatever
        batch size wrote them: the fingerprint carries no batch size,
        because lanes are bit-identical to one-pattern runs.  An
        optimized run stamps its pipeline marker into the fingerprint,
        so optimized and unoptimized journals never mix.
        """
        if self.optimizer is not None:
            fingerprint["optimizer"] = self.optimizer
        store = as_store(checkpoint)
        if store is None:
            return
        if needs_seed and seed is None:
            raise AnalysisError(
                "checkpointing requires an explicit seed: an unseeded "
                "run draws OS entropy and cannot be resumed "
                "bit-identically"
            )
        if not self.memoize:
            raise AnalysisError(
                "checkpointing requires memoize=True (the journal "
                "replays verdicts through the fault-pattern cache)"
            )
        if resume and store.exists():
            # Journals written before lane stacking became the default
            # stamp batched runs with an ``eval_path`` marker that
            # never changed a verdict; accept whatever they recorded.
            recorded = store.load_header().get("fingerprint") or {}
            if "eval_path" in recorded:
                fingerprint = dict(fingerprint,
                                   eval_path=recorded["eval_path"])
            store.check_fingerprint(fingerprint)
            entries = store.load_verdicts()
            for pattern, verdict in entries:
                self.cache.store(pattern, verdict)
            self.stats.resumed_verdicts = len(entries)
        else:
            store.clear()
            store.write_header(fingerprint)
        self.store = store

    def sample(self, seed: Optional[int], total: int,
               draw: Callable[[np.random.Generator, int], None],
               stream_key: Sequence[int] = ()) -> int:
        """Draw ``total`` items chunk by chunk; returns the chunk count.

        ``draw(rng, length)`` folds one chunk's samples into the
        runner's tallies.
        """
        start = time.perf_counter()
        chunks = _spawn_chunks(seed, total, self.chunk_size,
                               stream_key=stream_key)
        self.stats.chunks = len(chunks)
        done = 0
        for index, (length, child) in enumerate(chunks):
            draw(np.random.default_rng(child), length)
            done += length
            if self.progress is not None:
                self.progress(ProgressEvent(
                    phase="sample", done=done, total=total,
                    chunk_index=index, chunks_total=len(chunks),
                    elapsed_seconds=time.perf_counter() - start,
                ))
        self.stats.sample_seconds = time.perf_counter() - start
        return len(chunks)

    def resolve(self, pattern_counts: Dict[FaultPattern, int]
                ) -> Dict[FaultPattern, bool]:
        """Verdicts for ``pattern_counts``, journaled chunk by chunk."""
        return _resolve_verdicts(
            self.context, pattern_counts, self.memoize, self.cache,
            self.workers, self.chunk_size, self.stats, self.progress,
            journal=self.store)

    @contextmanager
    def interruptible(self, cursor: Callable[[], Dict[str, object]]):
        """Mark the journal's ``cursor`` interrupted on Ctrl-C.

        Completed chunks are already journaled; the mark lets the
        resume path (and the operator) see the stop was clean.
        """
        try:
            yield
        except KeyboardInterrupt:
            if self.store is not None:
                self.store.write_state(
                    "cursor", dict(cursor(), interrupted=True))
            raise

    def resolve_all(self, pattern_counts: Dict[FaultPattern, int],
                    cursor: Dict[str, object]
                    ) -> Dict[FaultPattern, bool]:
        """The fixed-budget runners' one evaluation: journal the
        sampling ``cursor`` (if any), then resolve every pattern."""
        if self.store is not None and cursor:
            self.store.write_state("cursor", cursor)
        with self.interruptible(lambda: cursor):
            return self.resolve(pattern_counts)

    def finish(self, summary: Dict[str, object]) -> None:
        self.stats.total_seconds = time.perf_counter() - self.start
        if self.store is not None:
            self.store.finalize(summary)


def run_monte_carlo(gadget: Gadget,
                    initial_state: SparseState,
                    evaluator: Callable[[SparseState], bool],
                    noise: NoiseModel,
                    trials: int,
                    locations: Optional[Sequence[FaultLocation]] = None,
                    seed: Optional[int] = None,
                    workers: int = 1,
                    chunk_size: int = DEFAULT_CHUNK_SIZE,
                    batch_size: int = DEFAULT_BATCH_SIZE,
                    memoize: bool = True,
                    cache: Optional[FaultPatternCache] = None,
                    progress: Optional[Callable[[ProgressEvent], None]]
                    = None,
                    invariant: Optional[Callable[[SparseState], None]]
                    = None,
                    checkpoint=None,
                    resume: bool = True,
                    runtime: Optional[RuntimePolicy] = None,
                    optimize=False):
    """Stochastic Monte-Carlo failure estimate for one (gadget, p).

    Returns a :class:`~repro.analysis.montecarlo.GadgetMonteCarloResult`
    with ``engine_stats`` attached.  For a fixed ``(seed, trials,
    chunk_size)`` the result is bit-identical for every ``workers``
    value, every ``batch_size`` and for ``memoize`` on or off.

    ``batch_size`` (default :data:`DEFAULT_BATCH_SIZE`) is how many
    distinct patterns the vectorised :mod:`repro.simulators.batched`
    path stacks into one sparse register and advances together, with
    per-lane amplitudes bit-identical to one-pattern evolution.
    Sampling, dedup, seeds, verdicts and checkpoint fingerprints do
    not depend on it, so a journal resumes under any batch size.  An
    unbatchable stack degrades automatically to the per-pattern
    :class:`~repro.runtime.FallbackPolicy` ladder (counted in
    ``engine_stats.batched_fallbacks``); ``batch_size=1`` runs that
    ladder for every pattern.

    ``invariant`` enables validation mode: every fresh simulation's
    final state is passed to the callable, which raises
    :class:`~repro.exceptions.VerificationError` on violation (see
    :mod:`repro.verify` for ready-made invariants).

    ``checkpoint`` (a path or :class:`~repro.runtime.CheckpointStore`)
    journals completed evaluation chunks; with ``resume=True`` (the
    default) an existing journal with a matching fingerprint is
    replayed first, so a killed run picks up where it stopped and
    finishes bit-identically to an uninterrupted one.  A mismatched
    or corrupted journal raises
    :class:`~repro.exceptions.CheckpointError` rather than risk a
    wrong number.  ``runtime`` tunes supervision/fallback (default:
    production :class:`~repro.runtime.RuntimePolicy`).

    ``optimize`` (``False`` | ``True`` | a qubit-preserving
    :class:`~repro.optimize.PassPipeline`) rewrites the gadget's
    circuit through the certified optimizer before fault locations are
    enumerated, so trials pay for measurably fewer locations.
    Incompatible with explicit ``locations=``.  Checkpoint
    fingerprints gain an ``optimizer`` marker (the pipeline identity),
    so an optimized journal refuses to resume an unoptimized run and
    vice versa.
    """
    from repro.analysis.montecarlo import GadgetMonteCarloResult

    if not noise.samplable:
        raise AnalysisError(
            f"{type(noise).__name__} has no stochastic Pauli "
            "unravelling and cannot feed the sampling engine; compose "
            "it exactly with repro.noise.injection."
            "run_with_coherent_noise or sample its Pauli twirl"
        )
    trials = _coerce_count(trials, "trials")
    run = _Run(gadget, initial_state, evaluator, locations=locations,
               workers=workers, chunk_size=chunk_size,
               batch_size=batch_size, memoize=memoize, cache=cache,
               invariant=invariant, runtime=runtime, progress=progress,
               optimize=optimize)
    gadget, locations = run.gadget, run.locations
    run.stats.trials = trials
    fingerprint = {
        "workload": "monte_carlo",
        "gadget": gadget.name,
        "locations": len(locations),
        "seed": seed,
        "trials": trials,
        "chunk_size": run.chunk_size,
        "p_gate": float(noise.p_gate),
        "p_input": float(noise.p_input),
        "p_delay": float(noise.p_delay),
        "channel": noise.channel,
    }
    if noise.structured:
        # Structured models carry their full identity; baseline
        # fingerprints stay exactly as before so existing journals
        # keep resuming.
        fingerprint["model"] = repr(noise.fingerprint())
    run.open_journal(checkpoint, resume, seed, fingerprint)
    probs, choices, after_ops = _location_setup(noise, gadget, locations)
    histogram: Dict[int, int] = {}
    pattern_counts: Dict[FaultPattern, int] = {}
    chunks = run.sample(
        seed, trials,
        lambda rng, length: sample_fault_chunk(
            noise, gadget, locations, probs, choices, after_ops, rng,
            length, histogram, pattern_counts),
        stream_key=noise.stream_key())
    verdict_map = run.resolve_all(pattern_counts, {
        "sample_chunks_done": chunks,
        "distinct_patterns": len(pattern_counts),
    })
    failures, failures_by_count = _score(pattern_counts, verdict_map)
    run.finish({
        "trials": trials,
        "failures": failures,
        "distinct_patterns": len(pattern_counts),
    })
    return GadgetMonteCarloResult(
        p=noise.p_gate,
        trials=trials,
        failures=failures,
        failures_by_fault_count=failures_by_count,
        fault_count_histogram=histogram,
        engine_stats=run.stats,
    )


def run_malignant_pairs(gadget: Gadget,
                        initial_state: SparseState,
                        evaluator: Callable[[SparseState], bool],
                        samples: int,
                        locations: Optional[Sequence[FaultLocation]]
                        = None,
                        seed: Optional[int] = None,
                        channel: str = "depolarizing",
                        workers: int = 1,
                        chunk_size: int = DEFAULT_CHUNK_SIZE,
                        batch_size: int = DEFAULT_BATCH_SIZE,
                        memoize: bool = True,
                        cache: Optional[FaultPatternCache] = None,
                        progress: Optional[Callable[[ProgressEvent], None]]
                        = None,
                        invariant: Optional[
                            Callable[[SparseState], None]] = None,
                        checkpoint=None,
                        resume: bool = True,
                        runtime: Optional[RuntimePolicy] = None,
                        optimize=False):
    """Sampled estimate of the Sec. 4.2 malignant-pair count.

    ``invariant``, ``checkpoint``/``resume``, ``runtime``,
    ``batch_size`` and ``optimize`` behave as in
    :func:`run_monte_carlo`.  Pair patterns are mostly distinct, so
    this workload is evaluation-dominated and gains the most from
    lane stacking.
    """
    from repro.analysis.montecarlo import MalignantPairSample

    samples = _coerce_count(samples, "samples")
    run = _Run(gadget, initial_state, evaluator, locations=locations,
               workers=workers, chunk_size=chunk_size,
               batch_size=batch_size, memoize=memoize, cache=cache,
               invariant=invariant, runtime=runtime, progress=progress,
               optimize=optimize)
    gadget, count = run.gadget, len(run.locations)
    if samples > 0 and count < 2:
        raise AnalysisError(
            "malignant-pair sampling needs at least two fault locations"
        )
    run.stats.trials = samples
    run.open_journal(checkpoint, resume, seed, {
        "workload": "malignant_pairs",
        "gadget": gadget.name,
        "locations": count,
        "seed": seed,
        "samples": samples,
        "chunk_size": run.chunk_size,
        "channel": channel,
    })
    model = NoiseModel.uniform(1.0, channel=channel)
    _, choices, after_ops = _location_setup(model, gadget, run.locations)
    pattern_counts: Dict[FaultPattern, int] = {}
    chunks = run.sample(
        seed, samples,
        lambda rng, length: sample_pair_chunk(
            choices, after_ops, count, rng, length, pattern_counts))
    verdict_map = run.resolve_all(pattern_counts, {
        "sample_chunks_done": chunks,
        "distinct_patterns": len(pattern_counts),
    })
    malignant, _ = _score(pattern_counts, verdict_map)
    run.finish({"samples": samples, "malignant": malignant})
    return MalignantPairSample(
        samples=samples,
        malignant=malignant,
        num_locations=count,
        engine_stats=run.stats,
    )


def run_exhaustive(gadget: Gadget,
                   initial_state: SparseState,
                   evaluator: Callable[[SparseState], bool],
                   locations: Optional[Sequence[FaultLocation]] = None,
                   channel: str = "depolarizing",
                   workers: int = 1,
                   chunk_size: int = DEFAULT_CHUNK_SIZE,
                   batch_size: int = DEFAULT_BATCH_SIZE,
                   memoize: bool = True,
                   cache: Optional[FaultPatternCache] = None,
                   progress: Optional[Callable[[ProgressEvent], None]]
                   = None,
                   invariant: Optional[Callable[[SparseState], None]]
                   = None,
                   checkpoint=None,
                   resume: bool = True,
                   runtime: Optional[RuntimePolicy] = None,
                   optimize=False) -> ExhaustiveSurvey:
    """Engine-scheduled exhaustive single-fault certification.

    The failure list is in (location, pauli) enumeration order;
    ``exhaustive_single_faults_sparse`` returns exactly this list.
    Memoization deduplicates coincident faults (e.g. a delay fault
    anchored at the same ``after_op`` as an equal gate-location Pauli).
    ``checkpoint``/``resume``, ``runtime`` and ``optimize`` behave as
    in :func:`run_monte_carlo`; the enumeration is deterministic, so
    no seed is required to resume.
    """
    run = _Run(gadget, initial_state, evaluator, locations=locations,
               workers=workers, chunk_size=chunk_size,
               batch_size=batch_size, memoize=memoize, cache=cache,
               invariant=invariant, runtime=runtime, progress=progress,
               optimize=optimize)
    gadget = run.gadget
    model = NoiseModel.uniform(1.0, channel=channel)
    items: List[Tuple[FaultLocation, PauliString, FaultPattern]] = []
    for location in run.locations:
        for pauli in model.fault_choices(location, gadget.num_qubits):
            items.append((location, pauli,
                          canonical_pattern([(pauli, location.after_op)])))
    run.stats.trials = len(items)
    run.open_journal(checkpoint, resume, None, {
        "workload": "exhaustive",
        "gadget": gadget.name,
        "locations": len(run.locations),
        "items": len(items),
        "chunk_size": run.chunk_size,
        "channel": channel,
    }, needs_seed=False)
    pattern_counts: Dict[FaultPattern, int] = {}
    for _, _, key in items:
        pattern_counts[key] = pattern_counts.get(key, 0) + 1
    verdict_map = run.resolve_all(pattern_counts, {})
    failures = [(location, pauli) for location, pauli, key in items
                if not verdict_map[key]]
    run.finish({"checked": len(items), "failures": len(failures)})
    return ExhaustiveSurvey(failures=failures, checked=len(items),
                            stats=run.stats)
