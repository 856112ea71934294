"""A fixed kernel that gauges how fast this machine runs right now.

On a shared host the same code can run half again as slow for minutes
at a time, mostly because neighbours contend for the memory caches.
The benchmark times this kernel right before and right after every
pass and scales the pass by ``REFERENCE_S`` over the kernel's time, so
a pass reads as it would on a machine where the kernel takes
``REFERENCE_S``.  The kernel looks up random keys of a dictionary far
larger than a core's caches, the access pattern of the program's
dictionary-keyed sparse states and caches; it runs none of the
program's code, so a change to the program never moves it.

The kernel runs in a child process pinned with its parent, so its
dictionary never counts toward the parent's peak memory.  Run as a
script it builds the dictionary, then answers each line on standard
input with one gauge in seconds.

Do not change the kernel: any change rescales every scaled timing and
breaks comparison with earlier runs.
"""

import random
import statistics
import subprocess
import sys
import time

#: Seconds the gauge is taken to last; scaled timings are in seconds
#: of a machine where it lasts exactly this long.
REFERENCE_S = 0.035
#: Kernel runs per gauge; the gauge is their median.
GAUGE_REPS = 5
ENTRIES = 600_000
LOOKUPS = 50_000


def build():
    rng = random.Random(20261017)
    table = {i * 2654435761 % (1 << 40): i for i in range(ENTRIES)}
    keys = [i * 2654435761 % (1 << 40)
            for i in (rng.randrange(ENTRIES) for _ in range(LOOKUPS))]
    return table, keys


def gauge(table, keys) -> float:
    """Median seconds of ``GAUGE_REPS`` kernel runs."""
    samples = []
    for _ in range(GAUGE_REPS):
        start = time.perf_counter()
        total = 0
        for key in keys:
            total += table[key]
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Gauge:
    """The kernel in a child process; call it for one gauge."""

    def __init__(self) -> None:
        self.child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.child.stdin.write("\n")
        self.child.stdin.flush()
        return float(self.child.stdout.readline())

    def close(self) -> None:
        self.child.stdin.close()
        try:
            self.child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.child.kill()
            self.child.wait()
        self.child.stdout.close()

    def __enter__(self) -> "Gauge":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> None:
    table, keys = build()
    for _ in sys.stdin:
        print(gauge(table, keys), flush=True)


if __name__ == "__main__":
    main()
