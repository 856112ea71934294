"""Lane-native decoding is *equivalent* to extracting every lane.

Basis-term evaluators (:func:`n_gadget_evaluator`,
:func:`classical_block_value_evaluator`) score a whole
:class:`BatchedState` from its stacked index array through
``lanes()``.  This suite pins that shortcut against a reference
written here: the term-by-term scalar loop those evaluators used to
run, applied to :meth:`BatchedState.extract_lane` of every lane.
Verdicts must agree one for one, on the paper's Steane-N survey and a
seeded two-fault sample, and the error cases (an empty lane, a
predicate that raises) must surface the same way.
"""

import numpy as np
import pytest

from repro.analysis import (
    classical_block_value_evaluator,
    gadget_locations,
    n_gadget_evaluator,
)
from repro.analysis.engine import _location_setup, canonical_pattern, sample_pair_chunk
from repro.codes import SteaneCode
from repro.exceptions import AnalysisError, FaultToleranceError, SimulationError
from repro.ft import build_n_gadget, sparse_coset_state
from repro.ft.ngate import classical_majority_value
from repro.noise import NoiseModel
from repro.simulators.batched import (
    BatchedState,
    apply_circuit_with_fault_patterns,
    evaluate_fault_patterns_batched,
)
from repro.simulators.sparse import SparseState

BATCH = 64
PAIR_SAMPLES = 400


# -- the reference: the scalar per-term loops -------------------------------

def reference_n_verdict(gadget, code, logical_bit, state):
    classical = gadget.qubits("classical")
    quantum = gadget.qubits("quantum")
    tolerance = max(0, (len(classical) - 1) // 2)
    top = state.num_qubits - 1
    for index in state.iter_ints():
        wrong = sum(((index >> (top - q)) & 1) != logical_bit
                    for q in classical)
        if wrong > tolerance:
            return False
        word = [(index >> (top - q)) & 1 for q in quantum]
        try:
            corrected = code.classical_code.correct(word)
        except Exception:
            return False
        if code.logical_readout(corrected) != logical_bit:
            return False
        flips = sum(int(w != c) for w, c in zip(word, corrected))
        if flips > code.correctable_errors:
            return False
    return True


def reference_block_verdict(qubits, expected_bit, max_wrong, state):
    top = state.num_qubits - 1
    for index in state.iter_ints():
        bits = [(index >> (top - q)) & 1 for q in qubits]
        if sum(int(b != expected_bit) for b in bits) > max_wrong:
            return False
        if classical_majority_value(bits) != expected_bit:
            return False
    return True


# -- helpers ----------------------------------------------------------------

def survey_patterns(gadget):
    model = NoiseModel.uniform(1.0)
    patterns = {
        canonical_pattern([(pauli, location.after_op)])
        for location in gadget_locations(gadget)
        for pauli in model.fault_choices(location, gadget.num_qubits)
    }
    return sorted(patterns, key=repr)


def pair_patterns(gadget, seed):
    locations = gadget_locations(gadget)
    _, choices, after_ops = _location_setup(None, gadget, locations)
    counts = {}
    sample_pair_chunk(choices, after_ops, len(locations),
                      np.random.default_rng(seed), PAIR_SAMPLES, counts)
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


def n_case(variant, bit):
    code = SteaneCode()
    gadget = build_n_gadget(code, variant=variant)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(code, bit)})
    return code, gadget, initial


# -- Steane N: survey and pair sample ----------------------------------------

@pytest.mark.parametrize("variant", ["direct", "voted"])
@pytest.mark.parametrize("bit", [0, 1])
def test_n_gadget_survey_and_pairs_match_reference(variant, bit):
    code, gadget, initial = n_case(variant, bit)
    evaluator = n_gadget_evaluator(gadget, code, bit)

    def reference(state):
        return reference_n_verdict(gadget, code, bit, state)

    survey = assert_lanes_match(evaluator, reference, gadget, initial,
                                survey_patterns(gadget))
    assert all(survey), "the paper's N gadget has no malignant single fault"
    pairs = assert_lanes_match(evaluator, reference, gadget, initial,
                               pair_patterns(gadget, seed=71 + bit))
    # Both verdicts occur, so agreement is not vacuous.
    assert any(pairs) and not all(pairs)


# -- classical blocks ---------------------------------------------------------

@pytest.mark.parametrize("max_wrong", [0, 1, 3])
def test_classical_block_value_matches_reference(max_wrong):
    _, gadget, initial = n_case("direct", 1)
    qubits = gadget.qubits("classical")
    evaluator = classical_block_value_evaluator(gadget, "classical", 1,
                                                max_wrong)

    def reference(state):
        return reference_block_verdict(qubits, 1, max_wrong, state)

    verdicts = assert_lanes_match(evaluator, reference, gadget, initial,
                                  pair_patterns(gadget, seed=5))
    assert any(verdicts) and not all(verdicts)


class _Block:
    """A minimal register layout: one named block."""

    def __init__(self, qubits):
        self._qubits = list(qubits)

    def qubits(self, name):
        return self._qubits


def _stack_of(states):
    """A BatchedState whose lane i holds states[i] (basis terms)."""
    state = BatchedState(states[0], len(states))
    inner = state._state
    rows, amplitudes = [], []
    for lane, lane_state in enumerate(states):
        for index, amplitude in lane_state.terms().items():
            rows.append((index << state.lane_bits) | lane)
            amplitudes.append(amplitude)
    inner._indices = np.array([[row] for row in rows], dtype=np.uint64)
    inner._amplitudes = np.array(amplitudes, dtype=np.complex128)
    return state


def test_predicate_exception_surfaces_like_the_scalar_loop():
    # An even block can tie; the majority decoder raises on a tie only
    # when the wrong-bit count let the word through.
    evaluator = classical_block_value_evaluator(_Block([0, 1]), "b", 1,
                                                max_wrong=1)
    tie = SparseState.from_basis_state([1, 0])
    bad_then_tie = SparseState.from_terms(
        2, {0b00: 2 ** -0.5, 0b10: 2 ** -0.5})
    good = SparseState.from_basis_state([1, 1])
    assert evaluator(good) is True
    assert evaluator(bad_then_tie) is False
    with pytest.raises(FaultToleranceError):
        evaluator(tie)
    assert evaluator.lanes(_stack_of([good, bad_then_tie])) == [True, False]
    with pytest.raises(FaultToleranceError):
        evaluator.lanes(_stack_of([good, bad_then_tie, tie]))


def test_blocks_wider_than_a_packed_word_are_refused():
    with pytest.raises(AnalysisError, match="63 qubits"):
        classical_block_value_evaluator(_Block(range(64)), "b", 0, 0)


def test_empty_lane_raises_simulation_error():
    code, gadget, initial = n_case("direct", 0)
    evaluator = n_gadget_evaluator(gadget, code, 0)
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
    code, gadget, initial = n_case("direct", 0)
    patterns = pair_patterns(gadget, seed=3)[:BATCH]
    seen = []
    extracted = _Spy(n_gadget_evaluator(gadget, code, 0))
    checked = evaluate_fault_patterns_batched(
        gadget, initial, extracted, patterns, invariant=seen.append)
    assert (extracted.calls, extracted.lane_calls) == (len(patterns), 0)
    assert len(seen) == len(patterns)
    stacked = _Spy(n_gadget_evaluator(gadget, code, 0))
    fast = evaluate_fault_patterns_batched(gadget, initial, stacked,
                                           patterns)
    assert (stacked.calls, stacked.lane_calls) == (0, 1)
    assert fast == checked
    assert not all(fast)
