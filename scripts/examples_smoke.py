#!/usr/bin/env python
"""Smoke-run every example with tiny parameters.

Each ``examples/*.py`` is executed in a subprocess with ``PYTHONPATH``
pointing at ``src/`` and — where the example takes CLI flags — with
parameters shrunk so the whole sweep finishes in well under a minute.
The CI ``examples-smoke`` job runs this to keep the examples from
rotting silently.

Run:  python scripts/examples_smoke.py [--timeout SECONDS] [--only NAME]
      [--shard I/N]

``--shard 1/2`` runs the first of two deterministic slices of the
example list (round-robin over the sorted filenames), so CI can split
the sweep across parallel jobs; every example lands in exactly one
shard.

Exit status is 0 only when every example exits 0 (examples whose
*documented* nonzero exits signal a verdict, like
``sequential_certification.py``'s reject=1, are given parameters that
certify cleanly).
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"
SRC = REPO / "src"

# Tiny-parameter overrides for examples that accept flags.  Everything
# else already runs exact/small workloads and takes no arguments.
SMOKE_ARGS = {
    "stress_certification.py": [
        "--trials", "40", "--gadgets", "n", "--p", "0.005",
    ],
    "sequential_certification.py": [
        "--trivial", "--p", "0.001", "--max-trials", "512",
        "--chunk-size", "128",
    ],
    "certification_service.py": [
        "--jobs", "4", "--workers", "0", "--trials", "40",
    ],
    "certification_server.py": [
        "--p-points", "2", "--trials", "30", "--net-chaos",
    ],
}


def parse_shard(text):
    """``"2/3"`` -> (1, 3): zero-based shard index and shard count."""
    try:
        index, count = (int(part) for part in text.split("/"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--shard wants I/N, e.g. 1/2, got {text!r}")
    if count < 1 or not 1 <= index <= count:
        raise argparse.ArgumentTypeError(
            f"--shard index must be in 1..N, got {text!r}")
    return index - 1, count


def run_one(script: Path, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    command = [sys.executable, str(script)] + \
        SMOKE_ARGS.get(script.name, [])
    start = time.time()
    try:
        completed = subprocess.run(
            command, cwd=str(REPO), env=env, timeout=timeout,
            capture_output=True, text=True,
        )
        status = completed.returncode
        tail = (completed.stdout + completed.stderr).strip()
    except subprocess.TimeoutExpired:
        status = -1
        tail = f"timed out after {timeout:.0f}s"
    return {
        "name": script.name,
        "status": status,
        "seconds": time.time() - start,
        "tail": "\n".join(tail.splitlines()[-8:]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run every example with tiny parameters")
    parser.add_argument("--timeout", type=float, default=240.0,
                        help="per-example wall-clock limit (seconds)")
    parser.add_argument("--only", default=None,
                        help="substring filter on example filenames")
    parser.add_argument("--shard", type=parse_shard, default=None,
                        metavar="I/N",
                        help="run deterministic slice I of N "
                             "(1-based), e.g. 1/2")
    args = parser.parse_args(argv)

    scripts = sorted(EXAMPLES.glob("*.py"))
    if args.only:
        scripts = [s for s in scripts if args.only in s.name]
    if args.shard:
        index, count = args.shard
        scripts = scripts[index::count]
    if not scripts:
        print("no examples matched", file=sys.stderr)
        return 2

    failures = []
    for script in scripts:
        result = run_one(script, args.timeout)
        ok = result["status"] == 0
        print(f"{'PASS' if ok else 'FAIL':4s}  "
              f"{result['seconds']:6.1f}s  {result['name']}")
        if not ok:
            failures.append(result)

    print(f"\n{len(scripts) - len(failures)}/{len(scripts)} examples "
          f"passed")
    for result in failures:
        print(f"\n--- {result['name']} "
              f"(exit {result['status']}) ---\n{result['tail']}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
