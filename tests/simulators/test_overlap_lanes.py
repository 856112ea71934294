"""Lane-native overlap scoring is *equivalent* to extracting every lane.

Overlap evaluators (:func:`recovered_overlap_evaluator`: the T, Toffoli
and recovery gadgets) score a whole :class:`BatchedState` through
``lanes()``, which runs ideal recovery and the block overlap once per
distinct final state in the stack.  This suite pins that shortcut
against a reference written here — ideal recovery of every block of
:meth:`BatchedState.extract_lane` of every lane, then the block
overlap — on the paper's Steane T and recovery gadgets and on the
trivial-code Toffoli gadget.  Error cases (an empty lane) must surface
the same way, and ``invariant`` runs must keep the extract path.
"""

import numpy as np
import pytest

from repro.analysis import gadget_locations, recovered_overlap_evaluator
from repro.analysis.engine import _location_setup, canonical_pattern, sample_pair_chunk
from repro.analysis.stress import gadget_cases
from repro.circuits import gates
from repro.codes import SteaneCode, TrivialCode
from repro.exceptions import SimulationError
from repro.ft import apply_perfect_recovery, build_toffoli_gadget, sparse_logical_state
from repro.ft.toffoli_gadget import expected_toffoli_output, toffoli_initial_state, toffoli_inputs
from repro.noise import NoiseModel
from repro.simulators.batched import (
    BatchedState,
    apply_circuit_with_fault_patterns,
    evaluate_fault_patterns_batched,
)
from repro.simulators.sparse import SparseState

BATCH = 64
TOLERANCE = 1e-7


# -- the reference: recovery and overlap on each extracted lane --------------

def reference_verdict(gadget, code, blocks, expected, state):
    scratch = state.copy()
    qubits = []
    for name in blocks:
        block = list(gadget.qubits(name))
        apply_perfect_recovery(scratch, block, code)
        qubits.extend(block)
    return scratch.block_overlap(qubits, expected) > 1.0 - TOLERANCE


# -- helpers ----------------------------------------------------------------

def survey_patterns(gadget, stride=1):
    model = NoiseModel.uniform(1.0)
    patterns = {
        canonical_pattern([(pauli, location.after_op)])
        for location in gadget_locations(gadget)[::stride]
        for pauli in model.fault_choices(location, gadget.num_qubits)
    }
    return sorted(patterns, key=repr)


def pair_patterns(gadget, seed, samples):
    locations = gadget_locations(gadget)
    _, choices, after_ops = _location_setup(None, gadget, locations)
    counts = {}
    sample_pair_chunk(choices, after_ops, len(locations),
                      np.random.default_rng(seed), samples, counts)
    return list(counts)


def stacks(gadget, initial, patterns):
    for lo in range(0, len(patterns), BATCH):
        chunk = patterns[lo:lo + BATCH]
        state = BatchedState(initial, len(chunk))
        apply_circuit_with_fault_patterns(state, gadget.circuit, chunk)
        yield state


def assert_lanes_match(evaluator, reference, gadget, initial, patterns):
    """Every lane: lanes() == reference(extract) == evaluator(extract);
    returns the verdicts."""
    verdicts = []
    for state in stacks(gadget, initial, patterns):
        lane_verdicts = evaluator.lanes(state)
        extracted = [state.extract_lane(lane) for lane in range(state.batch)]
        assert lane_verdicts == [reference(lane) for lane in extracted]
        assert lane_verdicts == [evaluator(lane) for lane in extracted]
        verdicts.extend(lane_verdicts)
    return verdicts


def steane_case(name):
    (case,) = gadget_cases(SteaneCode(), (name,))
    gadget, initial, evaluator = case.factory()
    return gadget, initial, evaluator


def toffoli_case():
    """The trivial-code Fig. 4 gadget, scored on its output blocks."""
    code = TrivialCode()
    gadget = build_toffoli_gadget(code)
    zero = sparse_logical_state(code, {(0,): 1.0})
    initial = toffoli_initial_state(
        gadget, code, toffoli_inputs(gadget, code, zero, zero, zero))
    blocks = ["and_a", "and_b", "and_c"]
    expected = expected_toffoli_output(code, {(0, 0, 0): 1.0})
    evaluator = recovered_overlap_evaluator(gadget, code, blocks, expected)

    def reference(state):
        return reference_verdict(gadget, code, blocks, expected, state)

    return gadget, initial, evaluator, reference


def data_reference(gadget, expected):
    def reference(state):
        return reference_verdict(gadget, SteaneCode(), ["data"],
                                 expected, state)

    return reference


# -- the paper's gadgets ------------------------------------------------------

def test_steane_t_survey_and_pairs_match_reference():
    gadget, initial, evaluator = steane_case("t")
    reference = data_reference(gadget, evaluator._expected)
    survey = assert_lanes_match(evaluator, reference, gadget, initial,
                                survey_patterns(gadget, stride=8))
    assert all(survey), "the paper's T gadget has no malignant single fault"
    pairs = assert_lanes_match(evaluator, reference, gadget, initial,
                               pair_patterns(gadget, seed=71, samples=192))
    # Both verdicts occur, so agreement is not vacuous.
    assert any(pairs) and not all(pairs)


def test_steane_recovery_survey_and_pairs_match_reference():
    gadget, initial, evaluator = steane_case("recovery")
    reference = data_reference(gadget, evaluator._expected)
    survey = assert_lanes_match(evaluator, reference, gadget, initial,
                                survey_patterns(gadget, stride=3))
    assert all(survey), "Sec. 5 recovery has no malignant single fault"
    pairs = assert_lanes_match(evaluator, reference, gadget, initial,
                               pair_patterns(gadget, seed=5, samples=128))
    assert any(pairs) and not all(pairs)


def test_trivial_toffoli_matches_reference():
    gadget, initial, evaluator, reference = toffoli_case()
    verdicts = assert_lanes_match(evaluator, reference, gadget, initial,
                                  survey_patterns(gadget))
    verdicts += assert_lanes_match(evaluator, reference, gadget, initial,
                                   pair_patterns(gadget, seed=9,
                                                 samples=128))
    # The trivial code corrects nothing, so some faults break it.
    assert any(verdicts) and not all(verdicts)


# -- per-stack dedupe -----------------------------------------------------------

def _state_key(state):
    return state._indices.tobytes(), state._amplitudes.tobytes()


def test_each_distinct_state_is_scored_once():
    gadget, initial, evaluator = steane_case("recovery")
    reference = data_reference(gadget, evaluator._expected)
    candidates = pair_patterns(gadget, seed=5, samples=128)[:BATCH]
    (sample,) = stacks(gadget, initial, candidates)
    verdicts = [reference(sample.extract_lane(lane))
                for lane in range(sample.batch)]
    accepted = [p for p, ok in zip(candidates, verdicts) if ok][:4]
    rejected = [p for p, ok in zip(candidates, verdicts) if not ok][:4]
    distinct = accepted + rejected
    assert len(distinct) == 8
    # Repeats, plus the fault-free pattern twice over.
    patterns = distinct + distinct[2:7] + [(), ()]
    (state,) = stacks(gadget, initial, patterns)
    scored = []
    score = evaluator._score

    def spy(scratch):
        scored.append(_state_key(scratch))
        return score(scratch)

    evaluator._score = spy
    verdicts = evaluator.lanes(state)
    extracted = [state.extract_lane(lane) for lane in range(state.batch)]
    keys = [_state_key(lane) for lane in extracted]
    assert len(scored) == len(set(scored)) == len(set(keys))
    assert set(scored) == set(keys) and len(scored) < len(patterns)
    assert verdicts == [reference(lane) for lane in extracted]
    assert any(verdicts) and not all(verdicts)


# -- error cases and the extract path ---------------------------------------------

def test_empty_lane_raises_simulation_error():
    gadget, initial, evaluator = steane_case("t")
    state = BatchedState(initial, 4)
    inner = state._state
    keep = state._lane_ids() != 2
    inner._indices = inner._indices[keep]
    inner._amplitudes = inner._amplitudes[keep]
    with pytest.raises(SimulationError, match="lane 2"):
        state.extract_lane(2)
    with pytest.raises(SimulationError, match="lane 2"):
        evaluator.lanes(state)


class _Spy:
    """Delegates to an evaluator, counting which entry point ran."""

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.calls = 0
        self.lane_calls = 0

    def __call__(self, state):
        self.calls += 1
        return self.evaluator(state)

    def lanes(self, state):
        self.lane_calls += 1
        return self.evaluator.lanes(state)


def test_invariant_runs_take_the_extract_path():
    gadget, initial, evaluator, _ = toffoli_case()
    patterns = pair_patterns(gadget, seed=3, samples=BATCH)[:BATCH]
    seen = []
    extracted = _Spy(evaluator)
    checked = evaluate_fault_patterns_batched(
        gadget, initial, extracted, patterns, invariant=seen.append)
    assert (extracted.calls, extracted.lane_calls) == (len(patterns), 0)
    assert len(seen) == len(patterns)
    stacked = _Spy(evaluator)
    fast = evaluate_fault_patterns_batched(gadget, initial, stacked,
                                           patterns)
    assert (stacked.calls, stacked.lane_calls) == (0, 1)
    assert fast == checked
    assert any(fast) and not all(fast)


# -- the vectorised overlap lookup ------------------------------------------------

def _dict_coefficients(block_state, values):
    """The per-term dict lookup block_overlap used to run."""
    phi = {index: complex(amplitude) for index, amplitude in
           zip(block_state.iter_ints(), block_state._amplitudes)}
    return np.array([phi.get(int(value), 0.0) for value in values],
                    dtype=np.complex128)


def test_overlap_coefficients_equal_the_dict_lookup():
    block_state = SparseState.from_terms(
        3, {0b000: 0.6, 0b101: 0.8j, 0b011: -0.1})
    values = np.arange(8, dtype=np.int64).repeat(3)
    np.random.default_rng(2).shuffle(values)
    assert np.array_equal(block_state._coefficients_at(values),
                          _dict_coefficients(block_state, values))
    # An X on a merged state leaves the index column out of order.
    block_state.apply_gate(gates.X, [0])
    keys = block_state._indices[:, 0]
    assert not np.all(keys[1:] > keys[:-1])
    assert np.array_equal(block_state._coefficients_at(values),
                          _dict_coefficients(block_state, values))
    # Unmerged duplicate indices: the last term wins, as in the dict.
    block_state._indices = np.array([[5], [1], [5]], dtype=np.uint64)
    block_state._amplitudes = np.array([0.1, 0.2j, 0.3])
    assert np.array_equal(block_state._coefficients_at(values),
                          _dict_coefficients(block_state, values))


def test_block_overlap_matches_a_term_loop():
    rng = np.random.default_rng(4)
    terms = {int(i): complex(*rng.normal(size=2))
             for i in rng.choice(2**6, size=24, replace=False)}
    state = SparseState.from_terms(6, terms)
    block_state = SparseState.from_terms(
        3, {0b000: 0.6, 0b101: 0.8j, 0b011: -0.1})
    top = state.num_qubits - 1
    phi = block_state.terms()
    for block in ([0, 2, 4], [5, 1, 3], [3, 4, 5]):
        sums = {}
        for index, amplitude in state.terms().items():
            word = rest = 0
            for qubit in range(state.num_qubits):
                bit = (index >> (top - qubit)) & 1
                if qubit not in block:
                    rest |= bit << (top - qubit)
            for qubit in block:
                word = (word << 1) | ((index >> (top - qubit)) & 1)
            sums[rest] = (sums.get(rest, 0)
                          + np.conj(phi.get(word, 0)) * amplitude)
        expected = sum(abs(value) ** 2 for value in sums.values())
        assert state.block_overlap(block, block_state) == pytest.approx(
            expected, abs=1e-12)


def test_xor_row_masks_checks_the_selector_range():
    state = SparseState.from_terms(2, {0b00: 1.0, 0b11: 1.0})
    with pytest.raises(SimulationError, match="out of range"):
        state.xor_row_masks([0, 1], [0, 2])
    with pytest.raises(SimulationError, match="out of range"):
        state.xor_row_masks([0, 1], [-1, 0])
