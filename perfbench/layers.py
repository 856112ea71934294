"""Per-layer instrumentation for the traced run and the metrics it yields.

:func:`instrument` patches the public entry points of each layer with
:class:`~tracing.Tracer` wrappers; :func:`layer_metrics` turns the
spans of one traced pass, plus counts read from public result objects
(``EngineStats``, ``ClientStats``, ``RemoteWorker`` tallies), into the
``per_layer`` metrics that ``BENCHMARK.json`` declares.  A metric whose
layer the workload never reaches reads 0 and is listed in the notes
with the reason.
"""

from typing import Any, Dict, List, Tuple

import repro.service.net as service_net
import repro.service.remote as service_remote
import repro.service.worker as service_worker
from repro.runtime import CheckpointStore
from repro.service import JobQueue, ResultCache, ServiceClient

from tracing import LAYERS, Span, Tracer
from workloads import BATCH_SIZE

#: Public JobQueue operations and the timing bucket each falls in.
QUEUE_OPS = {
    "submit": "submit", "claim": "claim", "complete": "complete",
    "status": "status", "jobs": "status", "counts": "status",
    "event_counts": "status", "drained": "status",
    "record_progress": "progress", "record_progress_checked": "progress",
    "progress": "progress", "heartbeat": "other", "fail": "other",
    "cancel": "other", "reap_expired": "other", "expire_lease": "other",
    "leases": "other", "deadletters": "other",
}
CLIENT_METHODS = (
    "submit", "status", "result", "progress", "cancel", "work_claim",
    "work_heartbeat", "work_progress", "work_complete", "work_fail",
    "submit_sweep", "sweep_table", "health", "service_stats",
)
STORE_METHODS = ("append_record", "load_records", "write_state",
                 "load_state")

#: Phase timings every workload reports; a workload without the phase
#: reports 0 for it.
PHASES = (("survey_s", "s"), ("pairs_s", "s"), ("mc_s", "s"),
          ("resume_s", "s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
          ("cached_job_p50_ms", "ms"), ("status_p50_ms", "ms"),
          ("status_p90_ms", "ms"), ("submit_s", "s"), ("merge_s", "s"))


def _count_records(span: Span, records: Any) -> None:
    span.attrs["records"] = len(records) if records is not None else 0


def _cache_lookup(span: Span, found: Any) -> None:
    span.attrs["hit"] = found is not None


def instrument(tracer: Tracer, engine_stats: List[Any]) -> None:
    """Wrap every layer boundary the traced pass can cross.

    ``engine_stats`` collects the ``EngineStats`` of engine runs the
    service worker makes, whose evaluators are wrapped on the way in.
    """
    for method in STORE_METHODS:
        tracer.patch(CheckpointStore, method, "checkpoint",
                     _count_records if method == "load_records"
                     else None)
    for method in QUEUE_OPS:
        tracer.patch(JobQueue, method, "queue")
    tracer.patch(ResultCache, "get", "cache", _cache_lookup)
    tracer.patch(ResultCache, "get_entry", "cache", _cache_lookup)
    tracer.patch(ResultCache, "put", "cache")
    for method in CLIENT_METHODS:
        tracer.patch(ServiceClient, method, "wire")
    tracer.patch(service_remote, "execute_job", "worker")
    tracer.patch(service_net, "submit_sweep", "sweep")
    tracer.patch(service_net, "merge_sweep", "sweep")

    run_monte_carlo = service_worker.run_monte_carlo

    def traced_run_monte_carlo(gadget, initial, evaluator, *args,
                               **kwargs):
        evaluator = tracer.wrap("evaluators", "evaluator", evaluator)
        with tracer.span("engine", "run_monte_carlo"):
            result = run_monte_carlo(gadget, initial, evaluator, *args,
                                     **kwargs)
        engine_stats.append(result.engine_stats)
        return result

    tracer.replace(service_worker, "run_monte_carlo",
                   traced_run_monte_carlo)


def _total(spans: List[Span]) -> float:
    return sum(span.end - span.start for span in spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, root: Span, run: Any,
                  setup: Dict[str, float], untraced_wall_s: float
                  ) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Per-layer metrics of one traced pass, and notes on absences."""
    spans = tracer.under(root)
    outer = {layer: tracer.outermost(spans, layer) for layer in LAYERS}
    self_s = tracer.self_times(root)
    metrics: Dict[str, Tuple[float, str]] = {}
    notes: List[str] = []

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (float(value), unit)

    # ft / noise: set-up of the traced pass (no spans: timed directly).
    put("ft.build_s", setup.get("ft.build_s", 0.0), "s")
    put("noise.locations", run.counts.get("noise.locations", 0), "count")
    put("noise.locations_s", setup.get("noise.locations_s", 0.0), "s")
    if "ft.build_s" not in setup:
        notes.append("ft/noise: gadgets are built inside each service "
                     "job, timed under worker.execute_s")

    # engine / simulators / evaluators from EngineStats + spans.
    stats = run.engine_stats
    sample_s = sum(s.sample_seconds for s in stats)
    eval_s = sum(s.eval_seconds for s in stats)
    total_s = sum(s.total_seconds for s in stats)
    requests = sum(s.requests for s in stats)
    batches = sum(s.batched_batches for s in stats)
    decode = outer["evaluators"]
    decode_s = _total(decode)
    sim_s = max(eval_s - decode_s, 0.0)
    put("engine.sample_s", sample_s, "s")
    put("engine.eval_s", eval_s, "s")
    put("engine.other_s", total_s - sample_s - eval_s, "s")
    put("engine.requests", requests, "count")
    put("engine.evaluations", sum(s.evaluations for s in stats), "count")
    put("engine.cache_hits", sum(s.cache_hits for s in stats), "count")
    put("engine.cache_hit_ratio",
        _ratio(sum(s.cache_hits for s in stats), requests), "ratio")
    put("engine.resumed_verdicts",
        sum(s.resumed_verdicts for s in stats), "count")
    put("simulators.sim_s", sim_s, "s")
    put("simulators.batches", batches, "count")
    put("simulators.lane_fill",
        _ratio(sum(s.batched_evaluations for s in stats),
               batches * BATCH_SIZE), "ratio")
    put("simulators.fallbacks", sum(s.batched_fallbacks for s in stats),
        "count")
    if not batches:
        notes.append("simulators.lane_fill: no stacked batches (the "
                     "service runs the engine at its default "
                     "batch_size=1)")
    put("evaluators.decode_s", decode_s, "s")
    put("evaluators.calls", len(decode), "count")
    put("evaluators.decode_share", _ratio(decode_s, eval_s), "ratio")

    # checkpoint journal.
    appends = [s for s in outer["checkpoint"]
               if s.name.endswith(".append_record")]
    loads = [s for s in outer["checkpoint"]
             if s.name.endswith(".load_records")]
    records_read = sum(s.attrs.get("records", 0) for s in loads)
    put("checkpoint.append_s", _total(appends), "s")
    put("checkpoint.appends", len(appends), "count")
    put("checkpoint.load_s", _total(loads), "s")
    put("checkpoint.loads", len(loads), "count")
    put("checkpoint.records_read", records_read, "count")
    put("checkpoint.records_per_load", _ratio(records_read, len(loads)),
        "count")
    if not outer["checkpoint"]:
        notes.append("checkpoint: this workload writes no journal")

    # queue: per-bucket time, ops, and journal records replayed per op.
    queue_ops = outer["queue"]
    for bucket in ("submit", "claim", "complete", "status", "progress"):
        put(f"queue.{bucket}_s", _total(
            [s for s in queue_ops
             if QUEUE_OPS[s.name.rsplit(".", 1)[1]] == bucket]), "s")
    put("queue.ops", len(queue_ops), "count")
    by_id = {s.id: s for s in spans}
    replayed = 0
    for load in loads:
        parent = by_id.get(load.parent)
        while parent is not None and parent.layer != "queue":
            parent = by_id.get(parent.parent)
        if parent is not None:
            replayed += load.attrs.get("records", 0)
    put("queue.records_per_op", _ratio(replayed, len(queue_ops)),
        "count")

    # cache.
    lookups = outer["cache"]
    gets = [s for s in lookups if not s.name.endswith(".put")]
    put("cache.get_s", _total(gets), "s")
    put("cache.put_s", _total([s for s in lookups
                               if s.name.endswith(".put")]), "s")
    put("cache.hits", sum(1 for s in gets if s.attrs.get("hit")),
        "count")
    put("cache.misses", sum(1 for s in gets if not s.attrs.get("hit")),
        "count")

    # worker / sweep.
    put("worker.execute_s", _total(outer["worker"]), "s")
    put("worker.jobs", len(outer["worker"]), "count")
    put("sweep.submit_s", _total([s for s in outer["sweep"]
                                  if s.name.endswith("submit_sweep")]),
        "s")
    put("sweep.merge_s", _total([s for s in outer["sweep"]
                                 if s.name.endswith("merge_sweep")]), "s")
    if not outer["queue"]:
        notes.append("queue/cache/worker/sweep/wire: this workload "
                     "runs in-process, without the service")

    # wire: both clients' ClientStats and the worker's tallies.
    client_spans = [s for s in spans
                    if s.name.startswith("ServiceClient.")
                    and not by_id[s.parent].name.startswith(
                        "ServiceClient.")]
    put("wire.requests", run.counts.get("wire.requests", 0), "count")
    put("wire.attempts", run.counts.get("wire.attempts", 0), "count")
    put("wire.retries", run.counts.get("wire.retries", 0), "count")
    put("wire.request_s", _total(client_spans), "s")
    put("remote.claims", run.counts.get("remote.claims", 0), "count")
    put("remote.cache_hits", run.counts.get("remote.cache_hits", 0),
        "count")

    # Self time per layer; the engine span's self time holds the
    # simulator's, which EngineStats separates.
    engine_self = self_s.get("engine", 0.0)
    for layer in LAYERS:
        value = self_s.get(layer, 0.0)
        if layer == "engine":
            value = max(engine_self - sim_s, 0.0)
        elif layer == "simulators":
            value = min(sim_s, engine_self)
        put(f"{layer}.self_s", value, "s")
    attributed = sum(self_s.get(layer, 0.0) for layer in LAYERS)
    wall_s = root.end - root.start
    put("trace.wall_s", wall_s, "s")
    put("trace.untraced_wall_s", untraced_wall_s, "s")
    put("trace.overhead_s", wall_s - untraced_wall_s, "s")
    put("trace.residual_s", wall_s - attributed, "s")
    put("trace.spans", len(spans), "count")

    for name, unit in PHASES:
        put(f"phase.{name}", run.phases.get(name, (0.0, unit))[0], unit)
    return metrics, notes
