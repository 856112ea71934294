"""Shared reporting helpers for the benchmark suite.

Every benchmark regenerates one of the paper's artifacts (Figures 1-4,
Sec. 2 strategies, Sec. 5 recovery, the Sec. 4.2 counting threshold)
as a printed report, and additionally times its core operation via
pytest-benchmark.  Reports are printed to stdout (run with ``-s`` to
see them live) and appended to ``benchmarks/results/report.txt``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def report(title: str, lines: Iterable[str]) -> str:
    """Print a titled report block and persist it to the results file.

    The block is appended with a single ``O_APPEND`` write so
    concurrent benchmark processes (``pytest-xdist``, parallel CI
    lanes) interleave whole blocks, never torn lines.
    """
    body = "\n".join(lines)
    block = (
        f"\n{'=' * 72}\n{title}\n{'-' * 72}\n{body}\n{'=' * 72}\n"
    )
    print(block)
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    fd = os.open(os.path.join(_RESULTS_DIR, "report.txt"),
                 os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, block.encode("utf-8"))
        os.fsync(fd)
    finally:
        os.close(fd)
    return block


def series_lines(header: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> List[str]:
    """Format a small aligned table."""
    widths = [max(len(str(header[i])),
                  max((len(_fmt(row[i])) for row in rows), default=0))
              for i in range(len(header))]
    lines = ["  ".join(str(h).rjust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(_fmt(v).rjust(w)
                               for v, w in zip(row, widths)))
    return lines


def engine_stats_lines(stats: Optional[object]) -> List[str]:
    """Render a :class:`repro.analysis.engine.EngineStats` block.

    Accepts ``None`` (a ``sweep_p`` point replayed from a journal
    carries no stats) so benchmarks can report every point.
    """
    if stats is None:
        return ["engine: replayed from a journal (no engine stats)"]
    return stats.summary_lines()


def verdict_lines(verdicts: Iterable[object]) -> List[str]:
    """One summary line per :class:`repro.analysis.stats.ClaimVerdict`
    (or anything else exposing ``summary_line()``)."""
    return [verdict.summary_line() for verdict in verdicts]


def json_artifact(name: str, payload: Dict[str, Any]) -> str:
    """Persist a machine-readable artifact under ``results/``.

    Written atomically (tmp + rename) so a crashed benchmark never
    leaves a torn JSON for CI to upload.  Returns the final path.
    """
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    path = os.path.join(_RESULTS_DIR, name)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 1e-2 or abs(value) >= 1e4:
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)
