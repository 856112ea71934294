"""Deterministic fault injection for the service layer.

:class:`~repro.runtime.chaos.ChaosPlan` injects faults by engine
chunk/attempt coordinates; :class:`ServiceChaosPlan` lifts the same
idea to the job level.  Events are keyed by *(submit_index, attempt,
hook)* — which job, which retry round, and where in the worker's
lifecycle ("start": right after the claim, before any execution;
"batch": after streaming batch ``at``) — so a chaos soak is exactly
reproducible: the same plan against the same queue injects the same
kills at the same points every run.

Kinds:

* ``kill_worker`` — ``os._exit(137)``: SIGKILL semantics, no cleanup,
  no Python finalisers.  The lease must expire and the re-claimed run
  must resume from the per-job checkpoint bit-identically.
* ``hang_worker`` — sleep ``seconds`` in place while *holding* the
  lease.  The heartbeat stops renewing at the deadline, the lease
  expires under a live-but-stuck holder, and the holder's eventual
  write must be refused with ``StaleLeaseError``.
* ``expire_lease`` — force-expire the lease out from under a healthy
  worker (queue-side), certifying the exactly-once completion path
  without needing a genuinely slow worker.
* ``fail_worker`` — raise a typed error from the worker, driving the
  retry/backoff and dead-letter machinery.

Driver-side corruptions (journal truncation, cache garbling) are not
events on this plan — they happen *between* worker turns — and live
next to the structures they damage:
:func:`repro.service.queue.truncate_queue_journal` and
:func:`repro.service.cache.garble_cache_entry`.

:class:`NetChaosPlan` extends the same discipline to the *network*
layer (:mod:`repro.service.net`): faults are keyed by exact request
coordinates — *(op, index)*, the ``index``-th request of logical
operation ``op`` the server sees — so a network soak is exactly as
reproducible as a worker soak.  Kinds:

* ``drop_request`` — the server reads the request and closes the
  connection without a single response byte (a lost datagram /
  mid-network partition).  The client must time out and retry.
* ``delay_response`` — hold the response for ``seconds`` (congestion);
  certifies client timeout/backoff behaviour.
* ``duplicate_request`` — the server processes the request **twice**
  (an at-least-once delivery duplicate).  Content-addressed
  submission must deduplicate: no second enqueue, no extra simulator
  evaluation.
* ``disconnect`` — send roughly half the response bytes, then reset
  (a connection torn mid-flight).  The client must discard the
  partial read and retry on a fresh connection.
* ``garble_response`` — flip a byte inside the response body.  The
  digest envelope must catch it client-side; a garbled verdict is
  retried, never believed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.exceptions import ServiceError

KILL_WORKER = "kill_worker"
HANG_WORKER = "hang_worker"
EXPIRE_LEASE = "expire_lease"
FAIL_WORKER = "fail_worker"

_KINDS = (KILL_WORKER, HANG_WORKER, EXPIRE_LEASE, FAIL_WORKER)
_HOOKS = ("start", "batch")


@dataclass(frozen=True)
class ServiceChaosEvent:
    """One injected fault, addressed by job × attempt × hook."""

    submit_index: int
    attempt: int
    kind: str
    hook: str = "start"
    at: int = 0          # batch index, for hook == "batch"
    seconds: float = 0.0  # hang duration, for kind == "hang_worker"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ServiceError(
                f"unknown chaos kind {self.kind!r}; pick from "
                f"{_KINDS}"
            )
        if self.hook not in _HOOKS:
            raise ServiceError(
                f"unknown chaos hook {self.hook!r}; pick from "
                f"{_HOOKS}"
            )


@dataclass
class ServiceChaosPlan:
    """The full injection schedule for one soak run."""

    events: List[ServiceChaosEvent] = field(default_factory=list)
    _fired: Set[Tuple[int, int, str, int]] = field(
        default_factory=set, repr=False)

    def add(self, event: ServiceChaosEvent) -> "ServiceChaosPlan":
        self.events.append(event)
        return self

    def kill(self, submit_index: int, attempt: int = 1,
             hook: str = "start", at: int = 0) -> "ServiceChaosPlan":
        return self.add(ServiceChaosEvent(submit_index, attempt,
                                          KILL_WORKER, hook, at))

    def hang(self, submit_index: int, seconds: float,
             attempt: int = 1, hook: str = "start",
             at: int = 0) -> "ServiceChaosPlan":
        return self.add(ServiceChaosEvent(submit_index, attempt,
                                          HANG_WORKER, hook, at,
                                          seconds))

    def expire(self, submit_index: int, attempt: int = 1,
               hook: str = "start", at: int = 0
               ) -> "ServiceChaosPlan":
        return self.add(ServiceChaosEvent(submit_index, attempt,
                                          EXPIRE_LEASE, hook, at))

    def fail(self, submit_index: int, attempt: int = 1,
             hook: str = "start", at: int = 0) -> "ServiceChaosPlan":
        return self.add(ServiceChaosEvent(submit_index, attempt,
                                          FAIL_WORKER, hook, at))

    def match(self, submit_index: int, attempt: int, hook: str,
              at: int = 0) -> Optional[ServiceChaosEvent]:
        for event in self.events:
            key = (event.submit_index, event.attempt, event.hook,
                   event.at)
            if key in self._fired:
                continue
            if (event.submit_index == submit_index
                    and event.attempt == attempt
                    and event.hook == hook
                    and (hook != "batch" or event.at == at)):
                self._fired.add(key)
                return event
        return None

    def fire(self, event: ServiceChaosEvent, queue,
             fingerprint: str) -> None:
        """Execute one matched event in the worker's context."""
        if event.kind == KILL_WORKER:
            os._exit(137)
        elif event.kind == HANG_WORKER:
            time.sleep(event.seconds)
        elif event.kind == EXPIRE_LEASE:
            queue.expire_lease(fingerprint)
        elif event.kind == FAIL_WORKER:
            raise ServiceError(
                f"chaos: injected worker failure on job "
                f"{fingerprint[:12]}… (attempt {event.attempt})"
            )


# ---------------------------------------------------------------------------
# Network chaos (repro.service.net)
# ---------------------------------------------------------------------------

DROP_REQUEST = "drop_request"
DELAY_RESPONSE = "delay_response"
DUPLICATE_REQUEST = "duplicate_request"
DISCONNECT = "disconnect"
GARBLE_RESPONSE = "garble_response"

#: Fleet-coordinate kinds (see :class:`WorkerChaosEvent`): faults
#: addressed by *which worker* sent the request rather than by the
#: server's global request count, so a multi-worker soak can partition
#: one specific worker while its peers keep draining.
PARTITION_WORKER = "partition_worker"
DELAY_HEARTBEAT = "delay_heartbeat"

_NET_KINDS = (DROP_REQUEST, DELAY_RESPONSE, DUPLICATE_REQUEST,
              DISCONNECT, GARBLE_RESPONSE)
_WORKER_KINDS = (PARTITION_WORKER, DELAY_HEARTBEAT)

#: Logical operations the server counts requests by (see
#: :meth:`repro.service.net.CertificationServer`).  The ``work_*``
#: ops are the authenticated worker-fleet surface; ``watch`` is the
#: long-poll progress stream.
NET_OPS = ("submit", "status", "result", "progress", "cancel",
           "sweep_submit", "sweep_status", "stats", "health",
           "watch", "work_claim", "work_heartbeat", "work_progress",
           "work_complete", "work_fail")


@dataclass(frozen=True)
class NetChaosEvent:
    """One injected network fault, addressed by op × request index."""

    op: str
    index: int
    kind: str
    seconds: float = 0.0  # delay duration, for kind == delay_response

    def __post_init__(self) -> None:
        if self.kind not in _NET_KINDS:
            raise ServiceError(
                f"unknown network chaos kind {self.kind!r}; pick "
                f"from {_NET_KINDS}"
            )
        if self.op not in NET_OPS:
            raise ServiceError(
                f"unknown network op {self.op!r}; pick from "
                f"{NET_OPS}"
            )
        if self.index < 0:
            raise ServiceError(
                f"request index must be >= 0, got {self.index}"
            )


@dataclass(frozen=True)
class WorkerChaosEvent:
    """One fleet fault, addressed by worker × request index.

    ``worker`` names the authenticated remote worker the fault
    targets; ``index`` is which of that worker's requests it fires on
    (per-op when ``op`` names a work op, across *all* of the worker's
    requests when ``op`` is ``"*"``).  Kinds:

    * ``partition_worker`` — the server drops ``count`` consecutive
      requests from the worker starting at ``index``, without one
      response byte: a network partition as seen from the worker.
      Claims/heartbeats/completes sent into the partition vanish
      before the server's per-op tally, so they take no request index
      and no request-coordinate fault fires on them; the worker's
      lease expires server-side, is re-issued, and its post-partition
      writes must be refused as stale.
    * ``delay_heartbeat`` — the server sleeps ``seconds`` *before*
      processing the request, so the heartbeat lands late by the
      server's clock: the zombie-worker coordinate.  With a grace
      (``clock_skew_grace``) smaller than ``seconds`` the lease is
      forfeited mid-flight; with a grace larger, it survives.
    """

    worker: str
    index: int
    kind: str
    op: str = "*"
    seconds: float = 0.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _WORKER_KINDS:
            raise ServiceError(
                f"unknown worker chaos kind {self.kind!r}; pick "
                f"from {_WORKER_KINDS}"
            )
        if self.op != "*" and self.op not in NET_OPS:
            raise ServiceError(
                f"unknown worker chaos op {self.op!r}; pick from "
                f"('*',) + {NET_OPS}"
            )
        if self.index < 0:
            raise ServiceError(
                f"request index must be >= 0, got {self.index}"
            )
        if self.count < 1:
            raise ServiceError(
                f"partition span must cover >= 1 request, got "
                f"{self.count}"
            )


@dataclass
class NetChaosPlan:
    """The injection schedule for one networked soak run.

    The server tallies requests per logical op and consults
    :meth:`match` with the current *(op, count)* coordinate; each
    event fires exactly once, so the same plan against the same
    request sequence injects the same faults every run.  Fleet
    faults (:class:`WorkerChaosEvent`) are tallied per authenticated
    worker instead and consulted via :meth:`match_worker`.
    """

    events: List[NetChaosEvent] = field(default_factory=list)
    worker_events: List[WorkerChaosEvent] = field(
        default_factory=list)
    _fired: Set[Tuple[str, int, str]] = field(
        default_factory=set, repr=False)
    _worker_fired: Set[Tuple[str, str, int, str]] = field(
        default_factory=set, repr=False)

    def add(self, event: NetChaosEvent) -> "NetChaosPlan":
        self.events.append(event)
        return self

    def drop(self, op: str, index: int) -> "NetChaosPlan":
        return self.add(NetChaosEvent(op, index, DROP_REQUEST))

    def delay(self, op: str, index: int,
              seconds: float) -> "NetChaosPlan":
        return self.add(NetChaosEvent(op, index, DELAY_RESPONSE,
                                      seconds))

    def duplicate(self, op: str, index: int) -> "NetChaosPlan":
        return self.add(NetChaosEvent(op, index, DUPLICATE_REQUEST))

    def disconnect(self, op: str, index: int) -> "NetChaosPlan":
        return self.add(NetChaosEvent(op, index, DISCONNECT))

    def garble(self, op: str, index: int) -> "NetChaosPlan":
        return self.add(NetChaosEvent(op, index, GARBLE_RESPONSE))

    # -- fleet coordinates -------------------------------------------

    def add_worker(self, event: WorkerChaosEvent) -> "NetChaosPlan":
        self.worker_events.append(event)
        return self

    def partition(self, worker: str, index: int,
                  count: int = 1) -> "NetChaosPlan":
        """Drop ``count`` consecutive requests from ``worker``."""
        return self.add_worker(WorkerChaosEvent(
            worker, index, PARTITION_WORKER, count=count))

    def delay_heartbeat(self, worker: str, index: int,
                        seconds: float) -> "NetChaosPlan":
        """Hold ``worker``'s ``index``-th heartbeat for ``seconds``."""
        return self.add_worker(WorkerChaosEvent(
            worker, index, DELAY_HEARTBEAT, op="work_heartbeat",
            seconds=seconds))

    def duplicate_complete(self, index: int) -> "NetChaosPlan":
        """Process the ``index``-th ``/v1/work/complete`` twice.

        The at-least-once duplicate of the *terminal* write: the
        second processing must be absorbed by the queue's idempotent
        complete (same lease token, same content-addressed verdict),
        never journaled twice.
        """
        return self.duplicate("work_complete", index)

    def match(self, op: str, index: int
              ) -> List[NetChaosEvent]:
        """Every not-yet-fired event at this request coordinate.

        Returns a list so one coordinate can compose faults (e.g.
        duplicate *and* delay); each event is consumed exactly once.
        """
        matched = []
        for event in self.events:
            key = (event.op, event.index, event.kind)
            if key in self._fired:
                continue
            if event.op == op and event.index == index:
                self._fired.add(key)
                matched.append(event)
        return matched

    def match_worker(self, worker: str, op: str, op_index: int,
                     total_index: int) -> List[WorkerChaosEvent]:
        """Every fleet event covering this worker-request coordinate.

        ``op_index`` counts the worker's requests of this op;
        ``total_index`` counts all of the worker's authenticated
        requests.  A ``partition_worker`` span matches ``count``
        consecutive coordinates but tallies as *one* fired fault.
        """
        matched = []
        for event in self.worker_events:
            if event.worker != worker:
                continue
            index = total_index if event.op == "*" else op_index
            if event.op not in ("*", op):
                continue
            if event.index <= index < event.index + event.count:
                self._worker_fired.add(
                    (event.worker, event.op, event.index, event.kind))
                matched.append(event)
        return matched

    @property
    def fired(self) -> int:
        """How many injected faults have actually fired so far."""
        return len(self._fired) + len(self._worker_fired)
