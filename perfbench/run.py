"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload evidence-n --seed 0 \
        --seconds 15 --trace 0

Workloads are named in ``BENCHMARK.json``:

* ``evidence-n`` — Steane N gadget: exhaustive single-fault survey,
  malignant-pair sample, a journaled Monte-Carlo point and its resume;
* ``evidence-t`` — Steane T gadget: survey of every eighth location and
  a pair sample;
* ``campaign-http`` — a 32-cell sweep through the HTTP service drained
  by one authenticated remote worker, then resubmitted and drained
  from the result cache.

The run is pinned to one CPU, and every timing it reports is scaled to
the machine speed that ``reference.py`` gauges: a pass by the gauges
taken right before and right after it, set-up by the run's median
gauge.  With ``--trace 0`` it repeats timed passes while another still
fits in ``--seconds`` (at least three) and prints the ``end_to_end``
metrics: ``setup_s`` (the median import time over this and six fresh
interpreters, plus the median of several fresh set-ups), ``wall_s``
(the median scaled pass) and ``peak_rss_mb``.  Phase timings, each
the median of its scaled step, print above the result line.
With ``--trace 1`` it runs one untraced pass and one traced pass and
prints the ``per_layer`` metrics, including the tracing overhead and
the self-time residual.  Every run appends one record to
``perfbench/runs/trajectory.jsonl``; traced runs also write their spans
under ``perfbench/runs/traces/``.  The last line of standard output is
the JSON result.
"""

import argparse
import compileall
import datetime
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(HERE, "runs")

#: Fresh set-ups made before the first pass; each later pass adds one.
SETUP_REPS = 3
#: Passes a run makes even past ``--seconds``.
MIN_PASSES = 3
#: Fresh interpreters that time the program's import, besides this one.
IMPORT_REPS = 6
#: A run that has not finished by then is abandoned without a result.
TIME_LIMIT_S = 170


class RunTimeout(BaseException):
    """Raised by the watchdog; not an ``Exception``, so no operation
    handler counts it as an ordinary failure and carries on."""


def _watchdog(signum, frame):
    raise RunTimeout(f"run exceeded {TIME_LIMIT_S}s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

def import_seconds():
    """Seconds a fresh interpreter takes to import the program."""
    code = ("import sys, time; sys.path[:0] = [{!r}, {!r}]; "
            "start = time.perf_counter(); import workloads; "
            "print(time.perf_counter() - start)").format(SRC, HERE)
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout)


def _git(*args):
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, *args],
                              capture_output=True, text=True,
                              timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_digest():
    """SHA-256 over ``src/`` (paths and bytes): the code measured."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp():
    import numpy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def append_record(record):
    os.makedirs(RUNS, exist_ok=True)
    with open(os.path.join(RUNS, "trajectory.jsonl"), "a",
              encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def pin_to_one_cpu():
    """Keep this process, its threads and its child interpreters on one
    CPU.  The campaign's client and server threads then hand requests
    to each other without waking a second, separately contended vCPU,
    and every workload sees one CPU's contention instead of a mix."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source under {SRC}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    names = {w["name"] for w in declared["workloads"]}
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; pick "
              f"from {sorted(names)}", file=sys.stderr)
        return 2

    # Build: byte-compile the program (once per checkout; later runs
    # find it current), so set-up time never includes compilation.
    compileall.compile_dir(SRC, quiet=2)
    pin_to_one_cpu()
    sys.path.insert(0, SRC)

    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(TIME_LIMIT_S)
    started = time.perf_counter()
    import workloads  # noqa: E402 - imports the program under test
    import_s = statistics.median(
        [time.perf_counter() - started]
        + [import_seconds() for _ in range(IMPORT_REPS)])
    workload = workloads.workloads()[args.workload]
    work_root = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    try:
        with reference.Gauge() as gauge:
            return measure(args, declared, workload, work_root, import_s,
                           gauge)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def measure(args, declared, workload, work_root, import_s, gauge):
    counter = itertools.count()

    def fresh_setup():
        work = os.path.join(work_root, f"pass-{next(counter)}")
        start = time.perf_counter()
        state, layers = workload.setup(work)
        return state, layers, time.perf_counter() - start

    setup_samples = []
    state = None
    for _ in range(SETUP_REPS):
        if state is not None:
            workload.teardown(state)
        state, _, seconds = fresh_setup()
        setup_samples.append(seconds)

    # Passes repeat while another one of the same length still fits;
    # the machine's speed is gauged right before and after each.
    passes, gauges = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        try:
            before = gauge()
            passes.append(workload.run(state, args.seed))
            gauges.append((before, gauge()))
        finally:
            workload.teardown(state)
        if args.trace or (
                len(passes) >= MIN_PASSES
                and time.perf_counter() + passes[-1].wall_s > deadline):
            break
        state, _, seconds = fresh_setup()
        setup_samples.append(seconds)

    # A shared host runs the same code up to twice as slow for minutes
    # at a time; each pass is scaled by the gauges around it.
    scales = [reference.REFERENCE_S / statistics.mean(pair)
              for pair in gauges]
    run_scale = reference.REFERENCE_S / statistics.median(
        itertools.chain.from_iterable(gauges))

    def scaled(values):
        return statistics.median(v * k for v, k in zip(values, scales))

    raw_wall_s = statistics.median(p.wall_s for p in passes)
    end_to_end = {
        "setup_s": (run_scale * (import_s
                                 + statistics.median(setup_samples)), "s"),
        "wall_s": (scaled(p.wall_s for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    phases = {f"phase.{name}": (scaled(p.phases[name][0] for p in passes),
                                unit)
              for name, (_, unit) in passes[0].phases.items()}
    reported, notes, checked = end_to_end, [], list(passes)
    if args.trace:
        # The traced pass is compared with the untraced one unscaled.
        traced, reported, notes = traced_pass(
            args, workload, fresh_setup, raw_wall_s)
        checked.append(traced)

    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    correct = failed == 0
    mode = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in declared[mode]}
    got = {name: unit for name, (_, unit) in reported.items()}
    if got != expected:
        raise SystemExit(f"perfbench: {mode} metrics {sorted(got)} do "
                         f"not match BENCHMARK.json {sorted(expected)}")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} "
          f"pass(es), {len(setup_samples)} set-ups, import "
          f"{import_s:.3f}s; pass walls "
          + ", ".join(f"{p.wall_s:.3f}s" for p in passes)
          + "; gauges " + ", ".join(f"{1e3 * statistics.mean(pair):.2f}ms"
                                    for pair in gauges))
    shown = {**end_to_end, **phases, **reported}
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"  note: {note}")
    for index, result in enumerate(checked):
        for name, ok, detail in result.checks:
            print(f"  check[{index}] {name}: {'ok' if ok else 'FAIL'}"
                  + ("" if ok else f" ({detail})"))
    print(f"  correct={correct} attempted={attempted} failed={failed}")

    record = {
        **stamp(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "traced": bool(args.trace),
        "correct": correct, "attempted": attempted, "failed": failed,
        "passes": len(checked),
        "pass_steps": [p.steps for p in checked],
        "pass_gauges": gauges, "raw_wall_s": raw_wall_s,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in shown.items()},
        "counts": passes[0].counts,
    }
    append_record(record)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


def traced_pass(args, workload, fresh_setup, untraced_wall_s):
    """One pass with every layer boundary wrapped; spans written out."""
    import layers
    from tracing import Tracer

    state, setup_layers, _ = fresh_setup()
    tracer = Tracer()
    engine_stats = []
    layers.instrument(tracer, engine_stats)
    try:
        with tracer.span("bench", "pass", trace="pass") as root:
            result = workload.run(state, args.seed, tracer)
    finally:
        tracer.close()
        workload.teardown(state)
    result.engine_stats.extend(engine_stats)
    metrics, notes = layers.layer_metrics(tracer, root, result,
                                          setup_layers, untraced_wall_s)
    traces = os.path.join(RUNS, "traces")
    os.makedirs(traces, exist_ok=True)
    when = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%SZ")
    path = os.path.join(traces, f"{args.workload}-seed{args.seed}-"
                                f"{when}-{os.getpid()}.jsonl")
    tracer.write(path)
    notes.append(f"{len(tracer.spans)} spans written to "
                 f"{os.path.relpath(path, ROOT)}")
    return result, metrics, notes


if __name__ == "__main__":
    sys.exit(main())
