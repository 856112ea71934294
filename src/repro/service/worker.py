"""The certification worker: claim, execute, stream, complete.

One :class:`Worker` turn (:meth:`Worker.run_once`):

1. **Claim** the oldest runnable job from the :class:`~repro.service.
   queue.JobQueue` (token + TTL lease).
2. **Cache check** — if the :class:`~repro.service.cache.ResultCache`
   holds a verified verdict for the job's fingerprint, complete
   immediately with ``meta.evaluations == 0``: not one simulator run.
3. **Execute** otherwise: dispatch by job kind to the seeded analysis
   entry point, with the job's *own* CheckpointStore
   (``jobs/<fp>/engine``) held under the store's advisory owner lock,
   so a re-claimed job resumes from its journal bit-identically
   instead of restarting.  A heartbeat thread renews the lease until
   the job's hard deadline; a worker that cannot finish in time stops
   renewing and lets the lease lapse.
4. **Stream** per-batch progress — trials consumed, failures, a
   Wilson interval on the rate so far, the sequential decision if any
   — into the job journal, where ``status``/``watch`` read it live.
5. **Complete**: cache the verdict, then record it in the queue.
   Both writes are token-checked; if the lease expired or was
   re-issued mid-run the late write raises
   :class:`~repro.exceptions.StaleLeaseError` and this worker
   abandons the attempt — the new holder owns the job.

A failed attempt is reported with :meth:`JobQueue.fail` (typed error
string), which schedules a backoff retry or dead-letters the job.  A
sequential job that exhausts its trial budget *undecided* is not a
failure: it completes with a typed **partial** verdict carrying the
confidence interval accumulated so far (``verdict.partial`` is true),
the service-level face of graceful degradation.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.analysis.engine import run_monte_carlo
from repro.analysis.sequential import run_sequential_monte_carlo
from repro.analysis.stats import wilson_interval
from repro.analysis.stress import gadget_cases, stress_certify
from repro.codes import SteaneCode, TrivialCode
from repro.exceptions import ReproError, ServiceError, StaleLeaseError
from repro.noise import NoiseModel
from repro.runtime.fallback import FallbackPolicy
from repro.runtime.policy import RuntimePolicy
from repro.service.cache import ResultCache
from repro.service.chaos import ServiceChaosPlan
from repro.service.jobs import JobSpec
from repro.service.queue import JobQueue, Lease

_CODES = {"trivial": TrivialCode, "steane": SteaneCode}


def _resolve_code(name: str):
    try:
        return _CODES[name]()
    except KeyError:
        raise ServiceError(
            f"unknown code {name!r}; pick from {sorted(_CODES)}"
        ) from None


def _build_case(code_name: str, gadget_name: str):
    code = _resolve_code(code_name)
    case = gadget_cases(code, (gadget_name,))[0]
    return case.factory()


def resolve_policy(base: Optional[RuntimePolicy],
                   params: Dict[str, Any]
                   ) -> Optional[RuntimePolicy]:
    """Per-job FallbackPolicy threading via ``fallback_ladder``."""
    ladder = params.get("fallback_ladder")
    if ladder is None:
        return base
    policy = base or RuntimePolicy()
    return RuntimePolicy(
        supervisor=policy.supervisor,
        fallback=FallbackPolicy(ladder=tuple(ladder)),
        chaos=policy.chaos)


@dataclass
class ExecutionContext:
    """Everything a job-kind handler needs, transport-agnostic.

    The same handlers serve the in-process :class:`Worker` (progress
    streamed straight into the job journal, chaos fired locally) and
    the HTTP :class:`~repro.service.remote.RemoteWorker` (progress
    posted over the wire, checkpoints in a local scratch store).  The
    verdict they produce is a pure function of ``spec`` — where the
    worker ran never shows up in the result.
    """

    spec: JobSpec
    store: Any                      # engine CheckpointStore
    worker: str
    attempt: int
    runtime: Optional[RuntimePolicy] = None
    stream: Callable[[Dict[str, Any]], None] = lambda payload: None
    on_batch: Callable[[int], None] = lambda at: None
    meta_base: Dict[str, Any] = field(default_factory=dict)

    def _meta(self, **extra: Any) -> Dict[str, Any]:
        meta = {"cache_hit": False, "worker": self.worker,
                "attempt": self.attempt}
        meta.update(self.meta_base)
        meta.update(extra)
        return meta


def execute_job(ctx: ExecutionContext
                ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Dispatch one job spec to its seeded analysis entry point."""
    handlers = {
        "monte_carlo": _execute_monte_carlo,
        "sequential_monte_carlo": _execute_sequential,
        "stress_certify": _execute_stress,
    }
    try:
        handler = handlers[ctx.spec.kind]
    except KeyError:
        raise ServiceError(
            f"no handler for job kind {ctx.spec.kind!r}"
        ) from None
    return handler(ctx)


def _execute_monte_carlo(ctx: ExecutionContext
                         ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    params = ctx.spec.params_dict
    gadget, initial, evaluator = _build_case(
        params.get("code", "trivial"), params.get("gadget", "n"))
    p = float(params["p"])
    trials = int(params["trials"])
    chunk_size = int(params.get("chunk_size", 64))

    def progress(event) -> None:
        if event.phase != "evaluate":
            return
        ctx.stream({
            "phase": event.phase,
            "chunk": event.chunk_index,
            "chunks_total": event.chunks_total,
            "worker": ctx.worker,
            "attempt": ctx.attempt,
        })
        ctx.on_batch(event.chunk_index)

    result = run_monte_carlo(
        gadget, initial, evaluator, NoiseModel.uniform(p),
        trials=trials, seed=int(params["seed"]),
        chunk_size=chunk_size, workers=1,
        checkpoint=ctx.store, resume=True, progress=progress,
        runtime=resolve_policy(ctx.runtime, params))
    interval = wilson_interval(result.failures, result.trials)
    verdict = {
        "kind": "monte_carlo",
        "p": p,
        "trials": result.trials,
        "failures": result.failures,
        "failure_rate": result.failure_rate,
        "failures_by_fault_count": {
            str(k): v for k, v in
            sorted(result.failures_by_fault_count.items())},
        "fault_count_histogram": {
            str(k): v for k, v in
            sorted(result.fault_count_histogram.items())},
        "interval": interval.to_json_dict(),
    }
    stats = result.engine_stats
    meta = ctx._meta(
        evaluations=stats.evaluations if stats else None,
        engine=stats.to_json_dict() if stats else None)
    return verdict, meta


def _execute_sequential(ctx: ExecutionContext
                        ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    params = ctx.spec.params_dict
    gadget, initial, evaluator = _build_case(
        params.get("code", "trivial"), params.get("gadget", "n"))
    p = float(params["p"])

    def on_batch(batch: int, consumed: int, failures: int,
                 decision: Optional[str]) -> None:
        interval = wilson_interval(failures, consumed) \
            if consumed else None
        ctx.stream({
            "batch": batch,
            "trials": consumed,
            "failures": failures,
            "decision": decision,
            "interval": (interval.to_json_dict()
                         if interval else None),
            "worker": ctx.worker,
            "attempt": ctx.attempt,
        })
        ctx.on_batch(batch)

    outcome = run_sequential_monte_carlo(
        gadget, initial, evaluator, NoiseModel.uniform(p),
        p0=float(params["p0"]), p1=float(params["p1"]),
        alpha=float(params.get("alpha", 0.05)),
        beta=float(params.get("beta", 0.05)),
        max_trials=int(params["max_trials"]),
        seed=int(params["seed"]),
        # The job param keeps its historical name so content
        # addresses and cache keys do not move.
        chunk_size=int(params.get("batch_size", 64)),
        method=str(params.get("method", "sprt")),
        checkpoint=ctx.store, resume=True, on_batch=on_batch,
        runtime=resolve_policy(ctx.runtime, params))
    claim = outcome.verdict
    verdict = {
        "kind": "sequential_monte_carlo",
        "decision": claim.decision,
        "partial": claim.decision == "undecided",
        "claim": claim.to_json_dict(),
        "trials": claim.trials,
        "failures": claim.failures,
        "batches": outcome.batches,
    }
    stats = outcome.result.engine_stats
    meta = ctx._meta(
        evaluations=stats.evaluations if stats else None,
        engine=stats.to_json_dict() if stats else None)
    return verdict, meta


def _execute_stress(ctx: ExecutionContext
                    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    params = ctx.spec.params_dict
    code = _resolve_code(params.get("code", "trivial"))
    report = stress_certify(
        code=code,
        p=float(params.get("p", 0.005)),
        trials=int(params.get("trials", 100)),
        seed=int(params.get("seed", 20260806)),
        gadgets=tuple(params.get("gadgets", ("n", "recovery"))),
        include_structural=bool(
            params.get("include_structural", False)),
        checkpoint=ctx.store,
    )
    verdict = {
        "kind": "stress_certify",
        "certified": report.certified,
        "counts": report.counts(),
        "report": json.loads(report.to_json()),
    }
    meta = ctx._meta(evaluations=None, rows=len(report.verdicts))
    return verdict, meta


class _Heartbeat(threading.Thread):
    """Renews the lease on a daemon thread until stopped or stale.

    Stops renewing once the job's hard deadline passes — a hung or
    overlong worker must lose its lease, not keep it alive forever —
    and records staleness so the main thread can stop early instead
    of computing a verdict nobody will accept.
    """

    def __init__(self, queue: JobQueue, lease: Lease,
                 interval: float) -> None:
        super().__init__(daemon=True)
        self.queue = queue
        self.lease = lease
        self.interval = interval
        self.stop_event = threading.Event()
        self.stale = threading.Event()

    def run(self) -> None:
        while not self.stop_event.wait(self.interval):
            if self.queue.clock() >= self.lease.deadline_at:
                break
            try:
                self.queue.heartbeat(self.lease.fingerprint,
                                     self.lease.token)
            except (StaleLeaseError, ServiceError):
                self.stale.set()
                break

    def stop(self) -> None:
        self.stop_event.set()


class Worker:
    """Executes queue jobs; one instance per worker process/thread."""

    def __init__(self, queue: JobQueue, cache: ResultCache, *,
                 name: str = "worker",
                 heartbeat_interval: Optional[float] = None,
                 runtime: Optional[RuntimePolicy] = None,
                 chaos: Optional[ServiceChaosPlan] = None,
                 store_lock_timeout: float = 10.0) -> None:
        self.queue = queue
        self.cache = cache
        self.name = name
        self.heartbeat_interval = (
            heartbeat_interval if heartbeat_interval is not None
            else max(0.05, queue.lease_ttl / 3.0))
        self.runtime = runtime
        self.chaos = chaos
        self.store_lock_timeout = store_lock_timeout

    # -- chaos -------------------------------------------------------

    def _chaos(self, lease: Lease, hook: str, at: int = 0) -> None:
        if self.chaos is None:
            return
        event = self.chaos.match(lease.submit_index, lease.attempt,
                                 hook, at)
        if event is not None:
            self.chaos.fire(event, self.queue, lease.fingerprint)

    # -- the worker turn ---------------------------------------------

    def run_once(self) -> Optional[str]:
        """Claim and drive one job to a queue transition.

        Returns the fingerprint acted on, or None when no job was
        due.  Never raises for per-job failures — those are recorded
        in the queue (retry or dead-letter); only infrastructure
        damage (a corrupt mid-journal, an unusable queue directory)
        escapes as :class:`~repro.exceptions.RuntimeIntegrityError`.
        """
        lease = self.queue.claim(self.name)
        if lease is None:
            return None
        fingerprint = lease.fingerprint
        try:
            self._chaos(lease, "start")
            cached = self.cache.get_entry(fingerprint)
            if cached is not None:
                self.queue.record_progress(fingerprint, {
                    "cache_hit": True, "worker": self.name,
                    "attempt": lease.attempt,
                })
                self.queue.complete(
                    fingerprint, lease.token, cached["verdict"],
                    meta={"cache_hit": True, "evaluations": 0,
                          "worker": self.name,
                          "attempt": lease.attempt})
                return fingerprint
            verdict, meta = self._execute(lease)
            self.cache.put(fingerprint, verdict, meta=meta)
            self.queue.complete(fingerprint, lease.token, verdict,
                                meta=meta)
            return fingerprint
        except StaleLeaseError:
            # The lease moved on mid-run; the new holder owns the
            # job and our verdict (if any) is discarded unrecorded.
            return fingerprint
        except ReproError as exc:
            self._report_failure(lease, exc)
            return fingerprint
        except Exception as exc:  # noqa: BLE001 - typed into queue
            self._report_failure(lease, exc)
            return fingerprint

    def _report_failure(self, lease: Lease, exc: Exception) -> None:
        try:
            self.queue.fail(lease.fingerprint, lease.token,
                            f"{type(exc).__name__}: {exc}")
        except StaleLeaseError:
            pass

    def run_until_drained(self, poll: float = 0.05,
                          timeout: float = 300.0,
                          reap: bool = True) -> int:
        """Single-process drain loop (tests, CLI --workers=0).

        Claims until every job is terminal; optionally reaps expired
        leases between turns (the pool normally does this).  Returns
        the number of turns that acted on a job.
        """
        turns = 0
        deadline = time.monotonic() + timeout
        while not self.queue.drained:
            if reap:
                self.queue.reap_expired()
            if self.run_once() is not None:
                turns += 1
                continue
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"worker drain timed out after {timeout:g}s "
                    f"with queue counts {self.queue.counts()}"
                )
            time.sleep(poll)
        return turns

    # -- execution dispatch ------------------------------------------

    def _execute(self, lease: Lease
                 ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        heartbeat = _Heartbeat(self.queue, lease,
                               self.heartbeat_interval)
        heartbeat.start()
        store = self.queue.job_store(lease.fingerprint) \
            .substore("engine")
        context = ExecutionContext(
            spec=lease.spec, store=store, worker=self.name,
            attempt=lease.attempt, runtime=self.runtime,
            stream=lambda payload: self._stream(lease, payload),
            on_batch=lambda at: self._chaos(lease, "batch", at=at))
        try:
            with store.exclusive(timeout=self.store_lock_timeout):
                result = execute_job(context)
        finally:
            heartbeat.stop()
        if heartbeat.stale.is_set():
            raise StaleLeaseError(
                f"lease for job {lease.fingerprint[:12]}… went "
                "stale during execution; abandoning the attempt"
            )
        return result

    def _stream(self, lease: Lease, payload: Dict[str, Any]) -> None:
        self.queue.record_progress(lease.fingerprint, payload)


def submit_and_run(queue: JobQueue, cache: ResultCache,
                   specs, **worker_kwargs) -> Dict[str, Any]:
    """Convenience: submit specs, drain in-process, return statuses."""
    for spec in specs:
        queue.submit(spec if isinstance(spec, JobSpec)
                     else JobSpec.from_json_dict(spec))
    worker = Worker(queue, cache, **worker_kwargs)
    worker.run_until_drained()
    return {fp: status.to_json_dict()
            for fp, status in queue.jobs().items()}
