"""Standard acceptance evaluators for gadget outputs.

An *evaluator* maps a gadget's (possibly fault-corrupted) output state
to accept/reject.  The shared definition of "acceptable" throughout
the experiments: after IDEAL error correction of the protected blocks,
the intended logical output state is recovered exactly (junk registers
may hold anything).  This matches the paper's failure notion — a
gadget fails only when it leaves an *uncorrectable* error behind.

Two evaluator families share that notion, and both also score a whole
stacked :class:`~repro.simulators.batched.BatchedState` through a
``lanes`` method.  Overlap evaluators
(:class:`RecoveredOverlapEvaluator`: the T, Toffoli and recovery
gadgets) need amplitudes, so they score extracted lanes, once per
distinct final state in the stack.  Basis-term evaluators
(:class:`BasisTermEvaluator`: the N gadget and classical blocks) judge
computational-basis words only, so they score every lane straight
from the stacked index array.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.codes.quantum.css import CssCode
from repro.exceptions import AnalysisError, SimulationError
from repro.ft.gadget import Gadget
from repro.ft.ideal_recovery import apply_perfect_recovery
from repro.ft.ngate import classical_majority_value
from repro.simulators.batched import BatchedState
from repro.simulators.sparse import SparseState

_DEFAULT_TOLERANCE = 1e-7


class RecoveredOverlapEvaluator:
    """Accept when ideal recovery of every listed block restores the
    expected joint block state (overlap within ``tolerance`` of 1).

    ``__call__`` scores one :class:`SparseState`.  :meth:`lanes` scores
    every lane of a :class:`BatchedState`: it extracts each lane and
    runs recovery and overlap once per distinct final state in the
    stack, since faults that leave the same state give the same
    verdict.  Recovery runs on extracted lanes, never on the stacked
    state, whose syndrome ancillas would widen every lane at once.
    """

    def __init__(self, qubit_lists: Sequence[Sequence[int]], code: CssCode,
                 expected: SparseState, tolerance: float) -> None:
        self._qubit_lists = [list(qubits) for qubits in qubit_lists]
        self._all_qubits = [q for qubits in self._qubit_lists
                            for q in qubits]
        self._code = code
        self._expected = expected
        self._tolerance = tolerance

    def __call__(self, state: SparseState) -> bool:
        return self._score(state.copy())

    def lanes(self, state: BatchedState) -> List[bool]:
        """One verdict per lane, equal to ``self(state.extract_lane(i))``.

        Lanes are extracted and scored in order, so an empty lane
        raises :class:`SimulationError` exactly where a lane-by-lane
        loop would.
        """
        seen: Dict[Tuple[bytes, bytes], bool] = {}
        verdicts: List[bool] = []
        for lane in range(state.batch):
            final = state.extract_lane(lane)
            key = (final._indices.tobytes(), final._amplitudes.tobytes())
            verdict = seen.get(key)
            if verdict is None:
                verdict = seen[key] = self._score(final)
            verdicts.append(verdict)
        return verdicts

    def _score(self, scratch: SparseState) -> bool:
        """Recover and measure ``scratch`` in place (it is consumed)."""
        for qubits in self._qubit_lists:
            apply_perfect_recovery(scratch, qubits, self._code)
        overlap = scratch.block_overlap(self._all_qubits, self._expected)
        return overlap > 1.0 - self._tolerance


def recovered_overlap_evaluator(gadget: Gadget, code: CssCode,
                                blocks: Sequence[str],
                                expected: SparseState,
                                tolerance: float = _DEFAULT_TOLERANCE
                                ) -> RecoveredOverlapEvaluator:
    """Accept when ideal recovery restores the expected block state.

    Args:
        gadget: supplies the register layout.
        code: the CSS code protecting the blocks.
        blocks: register names, concatenated in order to match
            ``expected``.
        expected: the ideal joint state of those blocks.
        tolerance: acceptable deviation from overlap 1.
    """
    return RecoveredOverlapEvaluator(
        [gadget.qubits(name) for name in blocks], code, expected,
        tolerance)


#: Status of one basis term (or one block word) under the predicates.
_OK, _BAD, _RAISES = 0, 1, 2

#: Word predicate of one register block: big-endian bits -> acceptable.
WordPredicate = Callable[[List[int]], bool]


def _bits(word: int, width: int) -> List[int]:
    """The big-endian bits of a packed block word."""
    return [(word >> (width - 1 - i)) & 1 for i in range(width)]


class BasisTermEvaluator:
    """Accept when every computational-basis term passes per-block
    word predicates.

    Each block is ``(qubits, predicate)``; the predicate sees the
    block's bits, big-endian in the listed qubit order, and is run
    once per distinct packed word (a Steane block has at most 2**7).
    A term passes when every block's word passes; blocks are checked
    in order and terms in storage order, so the first failing block
    of a state's first failing term decides — exactly what a term-by-
    term loop returns, including an exception the predicate raises.

    ``__call__`` scores one :class:`SparseState`; :meth:`lanes` scores
    every lane of a :class:`BatchedState` in the same vectorized pass,
    without extracting the lanes.
    """

    def __init__(self, blocks: Sequence[Tuple[Sequence[int],
                                              WordPredicate]]) -> None:
        self._blocks: List[Tuple[List[int], WordPredicate,
                                 Dict[int, int]]] = []
        for qubits, predicate in blocks:
            qubits = list(qubits)
            if len(qubits) > 63:
                raise AnalysisError(
                    f"basis-term blocks hold at most 63 qubits, got "
                    f"{len(qubits)}"
                )
            self._blocks.append((qubits, predicate, {}))

    def __call__(self, state: SparseState) -> bool:
        lane_ids = np.zeros(state.num_terms, dtype=np.int64)
        return self._verdicts(state, lane_ids, 1,
                              require_terms=False)[0]

    def lanes(self, state: BatchedState) -> List[bool]:
        """One verdict per lane, equal to ``self(state.extract_lane(i))``.

        Raises :class:`SimulationError` for a lane with no terms, as
        :meth:`BatchedState.extract_lane` does.
        """
        return self._verdicts(state._state, state._lane_ids(),
                              state.batch, require_terms=True)

    # -- internals --------------------------------------------------------

    def _word_status(self, predicate: WordPredicate,
                     memo: Dict[int, int], word: int,
                     width: int) -> int:
        status = memo.get(word)
        if status is None:
            try:
                status = _OK if predicate(_bits(word, width)) else _BAD
            except Exception:
                # Not memoized: the failing term re-runs the predicate
                # so the caller sees the predicate's own exception.
                return _RAISES
            memo[word] = status
        return status

    def _term_status(self, state: SparseState) -> np.ndarray:
        status = np.zeros(state.num_terms, dtype=np.int8)
        for qubits, predicate, memo in self._blocks:
            words, inverse = np.unique(state._packed_values(qubits),
                                       return_inverse=True)
            table = np.array(
                [self._word_status(predicate, memo, int(word),
                                   len(qubits)) for word in words],
                dtype=np.int8,
            )
            status = np.where(status == _OK, table[inverse.ravel()],
                              status)
        return status

    def _verdicts(self, state: SparseState, lane_ids: np.ndarray,
                  batch: int, require_terms: bool) -> List[bool]:
        status = self._term_status(state)
        failing = status != _OK
        rejected = np.bincount(lane_ids[failing], minlength=batch) > 0
        empty = (np.bincount(lane_ids, minlength=batch) == 0
                 if require_terms else np.zeros(batch, dtype=bool))
        if empty.any() or (status == _RAISES).any():
            self._raise_first(state, lane_ids, status, empty)
        return (~rejected).tolist()

    def _raise_first(self, state: SparseState, lane_ids: np.ndarray,
                     status: np.ndarray, empty: np.ndarray) -> None:
        """Raise what a lane-by-lane, term-by-term loop raises first:
        an empty lane's :class:`SimulationError` or the predicate's
        exception on a lane whose first failing term raises."""
        failing_terms = np.flatnonzero(status != _OK)
        lanes, first = np.unique(lane_ids[failing_terms],
                                 return_index=True)
        first_terms = failing_terms[first]
        raising = status[first_terms] == _RAISES
        culprits = {int(lane): int(term) for lane, term in
                    zip(lanes[raising], first_terms[raising])}
        culprits.update((int(lane), -1) for lane in np.flatnonzero(empty))
        if not culprits:
            return
        lane = min(culprits)
        term = culprits[lane]
        if term < 0:
            raise SimulationError(
                f"lane {lane} collapsed to zero in the stacked state"
            )
        for qubits, predicate, _ in self._blocks:
            word = int(state._packed_values(qubits)[term])
            if not predicate(_bits(word, len(qubits))):
                return


def n_gadget_evaluator(gadget: Gadget, code: CssCode,
                       logical_bit: int) -> BasisTermEvaluator:
    """Per-basis-term acceptance for the N gadget on a basis input.

    Every computational-basis term of the output must have

    * at most floor((m-1)/2) classical-ancilla bits differing from the
      input's logical value (majority/repetition radius), and
    * a quantum-ancilla word within the code's correction radius of a
      codeword carrying that same logical value.

    Phase errors are ignored on both blocks: the classical ancilla has
    no phase to protect and the quantum ancilla never touches data
    again (paper Sec. 4.1/4.2).
    """
    classical = gadget.qubits("classical")
    tolerance = max(0, (len(classical) - 1) // 2)
    classical_code = code.classical_code

    def classical_ok(bits: List[int]) -> bool:
        return sum(bit != logical_bit for bit in bits) <= tolerance

    def quantum_ok(word: List[int]) -> bool:
        try:
            corrected = classical_code.correct(word)
        except Exception:
            return False
        if code.logical_readout(corrected) != logical_bit:
            return False
        flips = sum(int(w != c) for w, c in zip(word, corrected))
        return flips <= code.correctable_errors

    return BasisTermEvaluator([(classical, classical_ok),
                               (gadget.qubits("quantum"), quantum_ok)])


def classical_block_value_evaluator(gadget: Gadget, block: str,
                                    expected_bit: int,
                                    max_wrong: int
                                    ) -> BasisTermEvaluator:
    """Accept when a classical block majority-decodes to the bit with
    at most ``max_wrong`` corrupted positions in every basis term."""

    def value_ok(bits: List[int]) -> bool:
        wrong = sum(int(b != expected_bit) for b in bits)
        if wrong > max_wrong:
            return False
        return classical_majority_value(bits) == expected_bit

    return BasisTermEvaluator([(gadget.qubits(block), value_ok)])
