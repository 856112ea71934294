"""Certification suite: the batched path is *equivalent*, not similar.

This is the acceptance gate for :mod:`repro.simulators.batched`: for
every gadget in the paper's suite, every registered noise-model class
and every batch size, the vectorised evaluator must reproduce the
serial engine's results verdict for verdict — same failure counts,
same histograms, same per-fault-count breakdowns — because the engine
swaps the paths freely and any daylight between them would silently
corrupt threshold estimates.

The sweep width is controlled by ``REPRO_BATCHED_EXAMPLES`` (CI runs a
capped pass; a nightly can sweep wider with no code change), and when
``REPRO_FUZZ_ARTIFACT_DIR`` is set the module writes a JSON
equivalence report listing every (gadget, model, batch size) cell it
certified, for upload as a CI artifact.
"""

import json
import os

import pytest

from repro.analysis.engine import run_exhaustive, run_malignant_pairs, run_monte_carlo
from repro.analysis.stress import gadget_cases, structured_model_family
from repro.codes import TrivialCode
from repro.noise import NoiseModel
from repro.verify import (
    GateRewriteBackend,
    SparseBackend,
    default_backends,
    differential_sweep,
    random_noise_model,
    swap_s_direction,
)

#: Number of fuzzed (model, gadget) cells; CI default keeps the suite
#: in the tier-1 budget, nightlies raise it.
EXAMPLES = int(os.environ.get("REPRO_BATCHED_EXAMPLES", "6"))

BATCH_SIZES = (1, 7, 64)

_CERTIFIED = []


def _record_cell(gadget, model, batch_size, trials, failures):
    _CERTIFIED.append({
        "gadget": gadget,
        "model": model,
        "batch_size": batch_size,
        "trials": trials,
        "failures": failures,
    })


def _certify_monte_carlo(case, label, noise, trials=256, seed=99):
    """Assert serial == batched for every batch size on one cell."""
    gadget, initial, evaluator = case.factory()
    serial = run_monte_carlo(gadget, initial, evaluator, noise,
                             trials=trials, seed=seed, chunk_size=64,
                             batch_size=1)
    assert serial.engine_stats.batched_evaluations == 0
    for batch_size in BATCH_SIZES:
        if batch_size == 1:
            continue
        batched = run_monte_carlo(gadget, initial, evaluator, noise,
                                  trials=trials, seed=seed,
                                  chunk_size=64,
                                  batch_size=batch_size)
        assert batched == serial, (
            f"{case.name} × {label} diverged at batch_size={batch_size}"
        )
        stats = batched.engine_stats
        assert stats.batched_evaluations > 0
        assert stats.batched_fallbacks == 0
        _record_cell(case.name, label, batch_size,
                     serial.trials, serial.failures)
    return serial


@pytest.fixture(scope="module")
def trivial_cases():
    # Key by the bare gadget name ("N[trivial]" -> "N").
    return {case.name.split("[")[0]: case
            for case in gadget_cases(TrivialCode())}


class TestVerdictEquivalence:
    def test_every_gadget_uniform_noise(self, trivial_cases):
        """All four paper gadgets, iid depolarizing noise."""
        noise = NoiseModel.uniform(0.03)
        for case in trivial_cases.values():
            _certify_monte_carlo(case, "depolarizing", noise)

    def test_steane_n_gadget(self):
        """One full-size Steane cell (the paper's workhorse)."""
        case = gadget_cases(gadgets=("n",))[0]
        _certify_monte_carlo(case, "depolarizing",
                             NoiseModel.uniform(0.002), trials=192)

    def test_structured_model_family(self, trivial_cases):
        """Every registered structured model class, one gadget."""
        case = trivial_cases["N"]
        for label, model in structured_model_family(0.03):
            if not model.samplable:
                continue
            _certify_monte_carlo(case, label, model, trials=192)

    def test_fuzzed_noise_models(self, trivial_cases):
        """Seeded random channels through the open registry."""
        names = sorted(trivial_cases)
        for index in range(EXAMPLES):
            case = trivial_cases[names[index % len(names)]]
            noise = random_noise_model(6000 + index, max_p=0.1)
            _certify_monte_carlo(case, f"fuzz[seed={6000 + index}]",
                                 noise, trials=128)

    def test_malignant_pairs_equivalence(self, trivial_cases):
        gadget, initial, evaluator = trivial_cases["N"].factory()
        serial = run_malignant_pairs(gadget, initial, evaluator,
                                     samples=400, seed=17, batch_size=1)
        for batch_size in (7, 64):
            batched = run_malignant_pairs(gadget, initial, evaluator,
                                          samples=400, seed=17,
                                          batch_size=batch_size)
            assert batched == serial
            assert batched.engine_stats.batched_evaluations > 0
        _record_cell("n", "pairs", 64, serial.samples,
                     serial.malignant)

    def test_exhaustive_equivalence(self, trivial_cases):
        gadget, initial, evaluator = trivial_cases["N"].factory()
        serial = run_exhaustive(gadget, initial, evaluator,
                                batch_size=1)
        batched = run_exhaustive(gadget, initial, evaluator,
                                 batch_size=32)
        assert batched.failures == serial.failures
        assert batched.checked == serial.checked
        _record_cell("n", "exhaustive", 32, serial.checked,
                     len(serial.failures))

    def test_memoize_off_still_equivalent(self, trivial_cases):
        """Without the cache every pattern re-evaluates — the batched
        path must agree under full re-simulation too."""
        gadget, initial, evaluator = trivial_cases["T"].factory()
        noise = NoiseModel.uniform(0.05)
        kwargs = dict(trials=200, seed=4, chunk_size=50)
        serial = run_monte_carlo(gadget, initial, evaluator, noise,
                                 memoize=False, batch_size=1, **kwargs)
        batched = run_monte_carlo(gadget, initial, evaluator, noise,
                                  memoize=False, batch_size=16,
                                  **kwargs)
        assert batched == serial

    def test_workers_and_batching_compose(self, trivial_cases):
        """batch_size > 1 under a forked worker pool stays identical."""
        gadget, initial, evaluator = trivial_cases["N"].factory()
        noise = NoiseModel.uniform(0.05)
        kwargs = dict(trials=300, seed=21, chunk_size=75)
        serial = run_monte_carlo(gadget, initial, evaluator, noise,
                                 batch_size=1, **kwargs)
        batched = run_monte_carlo(gadget, initial, evaluator, noise,
                                  workers=2, batch_size=25, **kwargs)
        assert batched == serial


class TestDifferentialBackend:
    def test_batched_is_a_default_backend(self):
        assert "batched" in [b.name for b in default_backends()]

    def test_sweep_with_batched_backend_is_clean(self):
        report = differential_sweep(max(12, EXAMPLES), seed=314,
                                    shrink=False)
        assert "batched" in report.backend_names
        assert report.clean, report.summary()

    def test_injected_bug_still_caught_with_batched_in_pool(self):
        bug = GateRewriteBackend(SparseBackend(), swap_s_direction)
        report = differential_sweep(
            30, seed=11, families=("clifford_t",), shrink=False,
            backends=list(default_backends()) + [bug])
        assert report.divergences
        assert all(d.backend_b == "sparse!" or d.backend_a == "sparse!"
                   for d in report.divergences)


def teardown_module(module):
    artifact_dir = os.environ.get("REPRO_FUZZ_ARTIFACT_DIR")
    if not artifact_dir or not _CERTIFIED:
        return
    os.makedirs(artifact_dir, exist_ok=True)
    path = os.path.join(artifact_dir, "batched_equivalence.json")
    with open(path, "w") as handle:
        json.dump({"cells": _CERTIFIED,
                   "batch_sizes": list(BATCH_SIZES),
                   "examples": EXAMPLES}, handle, indent=2)
