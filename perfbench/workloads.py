"""The benchmark's three workloads, driven through the public API only.

Each workload is closed loop: every call is issued after the previous
one returns.  A workload provides

* ``setup(work)`` — one fresh set-up (gadget build and location
  enumeration, or a service root plus a started server), returning the
  state a pass needs and the seconds each set-up layer took;
* ``run(state, seed, tracer)`` — one timed pass, returning a :class:`Pass`
  with phase timings, correctness checks and counts read from public
  result objects;
* ``teardown(state)``.

Phase seeds derive from the workload seed (``base + 1000 * seed``), so
the default seed 0 uses the repository's historical phase seeds (pair
seed 71, Monte-Carlo seed 72) and the program receives only the
generated inputs.  The samples are smaller than the historical ones
(which gave 63 malignant of 3,000 pairs and 75 failures in 100k
trials), so that a run holds several passes; the golden values are
those of these sizes.
"""

import hashlib
import json
import os
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.analysis.engine import (
    run_exhaustive,
    run_malignant_pairs,
    run_monte_carlo,
)
from repro.analysis.stress import gadget_cases
from repro.codes import SteaneCode
from repro.noise import NoiseModel, enumerate_locations
from repro.runtime import CheckpointStore
from repro.service import (
    SUCCEEDED,
    CertificationServer,
    CertificationService,
    RemoteWorker,
    ServiceClient,
    ServiceConfig,
    SweepSpec,
)

#: Every engine call takes the batched evaluation path at this width.
BATCH_SIZE = 64
SEED_STRIDE = 1000


def phase_seed(base: int, seed: int) -> int:
    return base + SEED_STRIDE * seed


def percentile_ms(seconds: List[float], q: int) -> float:
    """The ``q``-th percentile in milliseconds (0 with no samples)."""
    if len(seconds) < 2:
        return 1e3 * sum(seconds)
    cuts = statistics.quantiles(seconds, n=100, method="inclusive")
    return 1e3 * cuts[q - 1]


class Pass:
    """What one timed pass measured and checked."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        #: Seconds per closed-loop step, in pass order; they add up to
        #: ``wall_s`` but for the benchmark's own bookkeeping.
        self.steps: Dict[str, float] = {}
        self.phases: Dict[str, Tuple[float, str]] = {}
        self.checks: List[Tuple[str, bool, str]] = []
        self.ops = 0
        self.failed_ops = 0
        self.engine_stats: List[Any] = []
        self.counts: Dict[str, Any] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def op(self, fn: Callable, *args, **kwargs):
        """One closed-loop operation; an exception counts it failed."""
        self.ops += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            self.failed_ops += 1
            self.check(f"{getattr(fn, '__name__', 'op')} raised", False,
                       f"{type(exc).__name__}: {exc}")
            return None

    @property
    def attempted(self) -> int:
        return self.ops + len(self.checks)

    @property
    def failed(self) -> int:
        return self.failed_ops + sum(1 for _, ok, _ in self.checks
                                     if not ok)


def _timed(fn: Callable) -> Tuple[Any, float]:
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# evidence-n / evidence-t: the paper's Sec. 4 evidence for one gadget
# ---------------------------------------------------------------------------

class Evidence:
    """Single-fault survey, pair sample and (for N) a journaled MC point.

    ``golden`` maps a recorded seed to the values that seed must give;
    seed-independent facts (location and pattern counts, zero
    malignant single faults, a bit-identical zero-evaluation resume)
    are checked on every seed.
    """

    def __init__(self, gadget: str, locations: int, patterns: int,
                 pair_samples: int, mc_trials: int,
                 golden: Dict[int, Dict[str, int]],
                 survey_stride: int = 1) -> None:
        self.gadget = gadget
        self.locations = locations
        #: The survey covers every ``survey_stride``-th location (all of
        #: them at 1) and must check exactly ``patterns`` patterns.
        self.survey_stride = survey_stride
        self.patterns = patterns
        self.pair_samples = pair_samples
        #: Trials of the journaled Monte-Carlo point; 0 skips it.
        self.mc_trials = mc_trials
        self.monte_carlo = mc_trials > 0
        self.golden = golden
        self.mc_p = 0.0005

    def setup(self, work: str) -> Tuple[Dict[str, Any],
                                         Dict[str, float]]:
        (case,), build_s = _timed(
            lambda: gadget_cases(SteaneCode(), (self.gadget,)))
        (gadget, initial, evaluator), factory_s = _timed(case.factory)
        # The engine's location definition: input faults on data and
        # quantum-ancilla qubits only (522 locations for Steane N).
        inputs = sorted(q for register in gadget.registers.values()
                        if register.role in ("data", "quantum_ancilla")
                        for q in register.qubits)
        locations, locations_s = _timed(lambda: enumerate_locations(
            gadget.circuit, input_qubits=inputs))
        state = {"gadget": gadget, "initial": initial,
                 "evaluator": evaluator, "locations": locations,
                 "work": work}
        return state, {"ft.build_s": build_s + factory_s,
                       "noise.locations_s": locations_s}

    def teardown(self, state: Dict[str, Any]) -> None:
        shutil.rmtree(state["work"], ignore_errors=True)

    def run(self, state: Dict[str, Any], seed: int,
            tracer=None) -> Pass:
        result = Pass()
        gadget, initial = state["gadget"], state["initial"]
        evaluator = state["evaluator"]
        if tracer is not None:
            evaluator = tracer.wrap("evaluators", "evaluator", evaluator)
        locations = state["locations"]
        common = dict(locations=locations, batch_size=BATCH_SIZE,
                      workers=1)

        def phase(name: str, fn: Callable, *args, **kwargs):
            start = time.perf_counter()
            if tracer is None:
                out = result.op(fn, *args, **kwargs)
            else:
                with tracer.span("engine", fn.__name__, trace=name):
                    out = result.op(fn, *args, **kwargs)
            result.steps[name] = time.perf_counter() - start
            result.phases[f"{name}_s"] = (result.steps[name], "s")
            stats = getattr(out, "stats", None) or getattr(
                out, "engine_stats", None)
            if stats is not None:
                result.engine_stats.append(stats)
            return out

        start = time.perf_counter()
        survey = phase("survey", run_exhaustive, gadget, initial,
                       evaluator, **dict(
                           common,
                           locations=locations[::self.survey_stride]))
        pairs = phase("pairs", run_malignant_pairs, gadget, initial,
                      evaluator, samples=self.pair_samples,
                      seed=phase_seed(71, seed), **common)
        fresh = resumed = None
        if self.monte_carlo:
            noise = NoiseModel.uniform(self.mc_p)
            journal = os.path.join(state["work"], "mc-journal")
            mc_args = (gadget, initial, evaluator, noise)
            mc_kwargs = dict(trials=self.mc_trials,
                             seed=phase_seed(72, seed), **common)
            fresh = phase("mc", run_monte_carlo, *mc_args,
                          checkpoint=CheckpointStore(journal),
                          **mc_kwargs)
            resumed = phase("resume", run_monte_carlo, *mc_args,
                            checkpoint=CheckpointStore(journal),
                            **mc_kwargs)
        result.wall_s = time.perf_counter() - start
        result.counts["noise.locations"] = len(locations)
        self._verify(result, seed, locations, survey, pairs, fresh,
                     resumed)
        return result

    def _verify(self, result: Pass, seed: int, locations, survey,
                pairs, fresh, resumed) -> None:
        result.check("locations", len(locations) == self.locations,
                     f"{len(locations)} locations, expected "
                     f"{self.locations}")
        if survey is not None:
            result.check("survey.patterns",
                         survey.checked == self.patterns,
                         f"{survey.checked} patterns, expected "
                         f"{self.patterns}")
            result.check("survey.no_malignant_single_fault",
                         not survey.failures,
                         f"{len(survey.failures)} malignant")
        golden = self.golden.get(seed)
        if pairs is not None:
            result.counts["pairs.malignant"] = pairs.malignant
            if golden is not None:
                result.check("pairs.golden",
                             pairs.malignant == golden["malignant"],
                             f"{pairs.malignant} malignant, expected "
                             f"{golden['malignant']}")
        if not self.monte_carlo:
            return
        if fresh is not None:
            result.counts["mc.failures"] = fresh.failures
            if golden is not None:
                result.check("mc.golden",
                             fresh.failures == golden["mc_failures"],
                             f"{fresh.failures} failures, expected "
                             f"{golden['mc_failures']}")
        if fresh is not None and resumed is not None:
            result.check("resume.identical", resumed == fresh,
                         "resumed result differs from the fresh one")
            evaluations = resumed.engine_stats.evaluations
            result.check("resume.zero_evaluations", evaluations == 0,
                         f"{evaluations} evaluations on resume")


# ---------------------------------------------------------------------------
# campaign-http: a sweep through the HTTP service and a remote worker
# ---------------------------------------------------------------------------

SECRET = "perfbench-worker-secret"


class Campaign:
    """Submit, drain, merge, read, resubmit and drain from the cache.

    The sweep is ``len(gadgets) * p_points`` trivial-code Monte-Carlo
    cells, few enough that a run holds several passes.  ``golden`` maps
    a recorded seed to the SHA-256 of its merged table's cells.
    """

    def __init__(self, gadgets: Tuple[str, ...], p_points: int,
                 trials: int, golden: Dict[int, str]) -> None:
        self.gadgets = gadgets
        self.p_points = p_points
        self.trials = trials
        self.golden = golden

    def sweep(self, seed: int) -> SweepSpec:
        grid = tuple(round(0.005 * (i + 1), 6)
                     for i in range(self.p_points))
        return SweepSpec.create(
            "monte_carlo", code="trivial", gadgets=self.gadgets,
            p_grid=grid, seed=phase_seed(20260808, seed),
            trials=self.trials, chunk_size=max(self.trials // 3, 1))

    def setup(self, work: str) -> Tuple[Dict[str, Any],
                                         Dict[str, float]]:
        start = time.perf_counter()
        service = CertificationService(
            os.path.join(work, "service"),
            config=ServiceConfig(workers=0))
        server = CertificationServer(service, worker_secret=SECRET)
        host, port = server.start()
        client = ServiceClient(host, port)
        worker = RemoteWorker(host, port, secret=SECRET,
                              name="perfbench-worker",
                              scratch=os.path.join(work, "scratch"))
        state = {"service": service, "server": server,
                 "client": client, "worker": worker, "work": work}
        return state, {"service.start_s": time.perf_counter() - start}

    def teardown(self, state: Dict[str, Any]) -> None:
        state["server"].close()
        shutil.rmtree(state["work"], ignore_errors=True)

    def _drain(self, result: Pass, worker: RemoteWorker,
               tracer, label: str) -> List[float]:
        """``run_once`` until the server has nothing runnable."""
        samples = []
        while True:
            start = time.perf_counter()
            if tracer is None:
                acted = result.op(worker.run_once)
            else:
                with tracer.span("wire", "RemoteWorker.run_once",
                                 trace=f"{label}-{len(samples)}"):
                    acted = result.op(worker.run_once)
            elapsed = time.perf_counter() - start
            if acted is None:
                return samples
            samples.append(elapsed)

    def run(self, state: Dict[str, Any], seed: int,
            tracer=None) -> Pass:
        result = Pass()
        client, worker = state["client"], state["worker"]
        sweep = self.sweep(seed)
        cells = sweep.cells()

        def call(label: str, fn: Callable, *args):
            if tracer is None:
                return _timed(lambda: result.op(fn, *args))
            with tracer.span("bench", label, trace=label):
                return _timed(lambda: result.op(fn, *args))

        def read_statuses():
            for cell in cells:
                answer, elapsed = call("status", client.status,
                                       cell.fingerprint)
                status_samples.append(elapsed)
                statuses[cell.key] = answer

        steps = result.steps
        status_samples, statuses = [], {}
        start = time.perf_counter()
        _, steps["submit"] = call("submit", client.submit_sweep, sweep)
        jobs, steps["drain"] = _timed(
            lambda: self._drain(result, worker, tracer, "job"))
        table, steps["merge"] = call("merge", client.sweep_table,
                                     sweep.fingerprint)
        _, steps["status"] = _timed(read_statuses)
        hits_before = worker.cache_hits
        _, steps["resubmit"] = call("resubmit", client.submit_sweep,
                                    sweep)
        cached, steps["cached_drain"] = _timed(
            lambda: self._drain(result, worker, tracer, "cached"))
        result.wall_s = time.perf_counter() - start

        result.phases.update({
            "job_p50_ms": (percentile_ms(jobs, 50), "ms"),
            "job_p90_ms": (percentile_ms(jobs, 90), "ms"),
            "cached_job_p50_ms": (percentile_ms(cached, 50), "ms"),
            "status_p50_ms": (percentile_ms(status_samples, 50), "ms"),
            "status_p90_ms": (percentile_ms(status_samples, 90), "ms"),
            "submit_s": (steps["submit"] + steps["resubmit"], "s"),
            "merge_s": (steps["merge"], "s"),
        })
        clients = (client.stats, worker.client.stats)
        result.counts.update({
            "jobs.computed": len(jobs), "jobs.cached": len(cached),
            "status.reads": len(status_samples),
            "wire.requests": sum(s.requests for s in clients),
            "wire.attempts": sum(s.attempts for s in clients),
            "wire.retries": sum(s.retries for s in clients),
            "remote.claims": worker.claims,
            "remote.cache_hits": worker.cache_hits,
        })
        self._verify(result, state, seed, sweep, table, statuses,
                     len(jobs), worker.cache_hits - hits_before)
        return result

    def _verify(self, result: Pass, state: Dict[str, Any], seed: int,
                sweep: SweepSpec, table, statuses, computed: int,
                cache_hits: int) -> None:
        cells = sweep.cells()
        result.check("jobs.computed", computed == len(cells),
                     f"{computed} computed jobs, expected {len(cells)}")
        complete = bool(table) and table.get("complete") and \
            table.get("counts") == {SUCCEEDED: len(cells)}
        result.check("table.complete", complete,
                     f"merged counts {table and table.get('counts')}")
        read_ok = sum(1 for answer in statuses.values()
                      if answer and answer.get("state") == SUCCEEDED)
        result.check("status.succeeded", read_ok == len(cells),
                     f"{read_ok}/{len(cells)} statuses succeeded")
        result.check("cache_round.hits", cache_hits == len(cells),
                     f"{cache_hits} cache hits, expected {len(cells)}")
        # After the timed pass: the cache round's verdicts, read from
        # the service directly, must equal the computed round's table.
        queue = state["service"].queue
        cached_cells, evaluations = {}, 0
        for cell in cells:
            status = queue.status(cell.fingerprint)
            meta = (status.meta or {}) if status else {}
            evaluations += int(meta.get("evaluations") or 0)
            cached_cells[cell.key] = status.verdict if status else None
        merged = {key: entry.get("verdict") for key, entry in
                  (table or {}).get("cells", {}).items()}
        result.check("cache_round.identical", cached_cells == merged,
                     "cache-round verdicts differ from merged table")
        result.check("cache_round.zero_evaluations", evaluations == 0,
                     f"{evaluations} evaluations in the cache round")
        if table:
            digest = hashlib.sha256(json.dumps(
                table.get("cells"), sort_keys=True,
                separators=(",", ":")).encode("utf-8")).hexdigest()
            result.counts["table.sha256"] = digest
            golden = self.golden.get(seed)
            if golden is not None:
                result.check("table.golden", digest == golden,
                             f"merged table digest {digest[:16]}…")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def workloads() -> Dict[str, Any]:
    return {
        "evidence-n": Evidence(
            "n", locations=522, patterns=5934, pair_samples=1000,
            mc_trials=25_000,
            golden={0: {"malignant": 23, "mc_failures": 26}}),
        "evidence-t": Evidence(
            "t", locations=746, patterns=930, pair_samples=300,
            mc_trials=0, golden={0: {"malignant": 6}}, survey_stride=8),
        "campaign-http": Campaign(
            ("n", "recovery"), p_points=16, trials=60,
            golden={0: "2d97dd1aa2a5c90d7e9be9347658e9ab"
                       "f91af9da2e9f678f7c25e0435b8344fb"}),
    }
