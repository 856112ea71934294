"""Engine edge cases of the batched path, pinned by counters.

Satellites to the batched-equivalence suite: the weird shapes — zero
trials, a final partial batch, a batch wider than the whole workload,
an unbatchable simulator — must not merely *work*, they must leave the
exact :class:`EngineStats` audit trail that tells an operator how
many patterns ran lane-stacked and how often a stack degraded to the
per-pattern ladder.  The eviction tests certify the LRU-bounded
:class:`FaultPatternCache` thrashes without corrupting a result.
"""

import pytest

from repro.analysis import n_gadget_evaluator
from repro.analysis.engine import FaultPatternCache, run_monte_carlo
from repro.exceptions import AnalysisError, SimulationError
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import NoiseModel


@pytest.fixture(scope="module")
def tiny(trivial):
    gadget = build_n_gadget(trivial)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(trivial, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, trivial, 0)
    return gadget, initial, evaluator


_NOISE = NoiseModel.uniform(0.05)


def _mc(tiny, **kwargs):
    gadget, initial, evaluator = tiny
    return run_monte_carlo(gadget, initial, evaluator, _NOISE,
                           seed=77, **kwargs)


class TestEdgeCases:
    def test_zero_trials_runs_no_batches(self, tiny):
        result = _mc(tiny, trials=0, batch_size=8)
        stats = result.engine_stats
        assert result.trials == 0 and result.failures == 0
        assert stats.batched_batches == 0
        assert stats.batched_evaluations == 0
        assert stats.batched_fallbacks == 0

    def test_final_partial_batch_is_counted(self, tiny):
        # 100 trials in one chunk; the distinct patterns (seeded, so
        # stable) split into full stacks plus one partial final stack.
        serial = _mc(tiny, trials=100, chunk_size=100, batch_size=1)
        distinct = serial.engine_stats.evaluations
        assert distinct > 4, "need several distinct patterns"
        assert distinct % 4 != 0, "final batch must be partial"
        batched = _mc(tiny, trials=100, chunk_size=100, batch_size=4)
        stats = batched.engine_stats
        assert batched == serial
        assert stats.batched_evaluations == distinct
        assert stats.batched_batches == -(-distinct // 4)
        assert stats.batched_fallbacks == 0

    def test_batch_larger_than_workload_runs_one_stack(self, tiny):
        serial = _mc(tiny, trials=40, chunk_size=40, batch_size=1)
        distinct = serial.engine_stats.evaluations
        batched = _mc(tiny, trials=40, chunk_size=40, batch_size=4096)
        stats = batched.engine_stats
        assert batched == serial
        assert stats.batched_batches == 1
        assert stats.batched_evaluations == distinct

    def test_batch_size_one_never_touches_batched_path(self, tiny):
        result = _mc(tiny, trials=60, batch_size=1)
        stats = result.engine_stats
        assert stats.batched_batches == 0
        assert stats.batched_evaluations == 0
        assert stats.evaluations > 0

    def test_unbatchable_stack_falls_back_to_serial(self, tiny,
                                                    monkeypatch):
        """A stack the simulator refuses (here: forced SimulationError)
        degrades to the per-pattern ladder — same result, with the
        degradation visible in the counters."""
        serial = _mc(tiny, trials=80, chunk_size=80, batch_size=1)
        distinct = serial.engine_stats.evaluations

        def explode(*args, **kwargs):
            raise SimulationError("stack too wide")

        # workers=1: a monkeypatch does not cross a forked pool.
        monkeypatch.setattr(
            "repro.analysis.engine.evaluate_fault_patterns_batched",
            explode)
        batched = _mc(tiny, trials=80, chunk_size=80, batch_size=16,
                      workers=1)
        stats = batched.engine_stats
        assert batched == serial
        assert stats.batched_fallbacks == distinct
        assert stats.batched_evaluations == 0

    def test_invalid_batch_size_rejected(self, tiny):
        for bad in (0, -3, True, 2.5):
            with pytest.raises(AnalysisError):
                _mc(tiny, trials=10, batch_size=bad)


class TestCacheEviction:
    def test_lru_eviction_under_batching(self, tiny):
        """A tiny cache thrashes but never corrupts: evictions are
        counted and the batched result still equals serial."""
        serial = _mc(tiny, trials=150, chunk_size=50, batch_size=1)
        cache = FaultPatternCache(max_entries=5)
        batched = _mc(tiny, trials=150, chunk_size=50, batch_size=16,
                      cache=cache)
        assert batched == serial
        assert cache.evictions > 0
        assert len(cache) <= 5
        stats = batched.engine_stats
        assert stats.cache_evictions == cache.evictions

    def test_eviction_order_is_lru(self):
        first, second, third = (), ((None, 0),), ((None, 1),)
        cache = FaultPatternCache(max_entries=2)
        cache.store(first, True)
        cache.store(second, False)
        # Touch the first entry so the second is now LRU.
        assert cache.get(first) is True
        cache.store(third, True)
        assert cache.evictions == 1
        assert first in cache and third in cache
        assert second not in cache

    def test_batch_sizes_share_one_entry_per_pattern(self, tiny):
        """The key is the pattern alone: a batched run over the same
        stream replays every verdict a one-at-a-time run cached."""
        cache = FaultPatternCache()
        serial = _mc(tiny, trials=50, chunk_size=50, batch_size=1,
                     cache=cache)
        entries = len(cache)
        batched = _mc(tiny, trials=50, chunk_size=50, batch_size=8,
                      cache=cache)
        assert batched == serial
        assert len(cache) == entries
        assert batched.engine_stats.evaluations == 0
