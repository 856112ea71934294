"""Ideal (noiseless) recovery used to *evaluate* gadget outputs.

A gadget output is acceptable when ideal error correction on its data
block would restore the intended logical state.  Naively comparing
against ``E |expected>`` for a fixed Pauli E is too strict: a fault that
crossed a non-Clifford gate (e.g. the controlled-S legs of the T
gadget) leaves a *branch-dependent* Pauli residual, correlated with the
classical ancilla.  Genuine error correction handles that, because the
extracted syndrome is branch-dependent too.

:func:`apply_perfect_recovery` therefore implements a coherent,
unconstrained (non-fault-tolerant — it is an evaluator, not a protocol)
decoder directly on a sparse state:

* X-type errors: fresh ancillas take the per-basis-term classical
  syndrome, and the minimum-weight correction for that syndrome is
  XOR-ed into the block — a basis permutation, hence unitary.
* Z-type errors: conjugate the block by bitwise H (CSS duality maps
  phase errors to bit errors and X-stabilizers to Z-stabilizers) and
  run the same procedure.

After recovery, the block lies in the code space with at most a
*logical* error; :func:`recovered_block_overlap` then measures the
overlap with the expected logical block state, and 1.0 certifies the
gadget output.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from repro.circuits import gates
from repro.codes.classical.linear import LinearCode
from repro.codes.quantum.css import CssCode
from repro.exceptions import DecodingFailure, FaultToleranceError
from repro.simulators.sparse import SparseState


@lru_cache(maxsize=32)
def _syndrome_correction_table(shape: Tuple[int, int], checks: bytes
                               ) -> Tuple[Tuple[int, ...], ...]:
    """Minimum-weight error positions for each syndrome value (big-
    endian over the check rows) of the code with this parity-check
    matrix, built once per matrix: the matrix fixes the decoder."""
    rows, n = shape
    classical = LinearCode(parity_check=np.frombuffer(
        checks, dtype=np.uint8).reshape(shape))
    table: List[Tuple[int, ...]] = []
    for value in range(2**rows):
        syndrome = np.array(
            [(value >> (rows - 1 - r)) & 1 for r in range(rows)],
            dtype=np.uint8,
        )
        try:
            error = classical.error_for_syndrome(syndrome)
        except DecodingFailure:
            # Outside the correction radius: leave the block untouched;
            # the overlap check will report the failure.
            error = np.zeros(n, dtype=np.uint8)
        table.append(tuple(int(p) for p in np.nonzero(error)[0]))
    return tuple(table)


def _apply_x_recovery(state: SparseState, block: Sequence[int],
                      code: CssCode) -> None:
    """Correct bit errors on the block (basis permutation + ancillas)."""
    checks = code.classical_code.parity_check
    num_checks = int(checks.shape[0])
    if num_checks == 0:
        return
    ancillas = state.allocate(num_checks)
    bits = [state._bit(block[position]) for position in range(code.n)]
    # Per-term syndrome value (big-endian over check rows).
    syndrome = np.zeros(state.num_terms, dtype=np.int64)
    for row in range(num_checks):
        row_parity = np.zeros(state.num_terms, dtype=np.int64)
        for position in np.nonzero(checks[row])[0]:
            row_parity ^= bits[int(position)]
        syndrome = (syndrome << 1) | row_parity
    # One mask per syndrome value: the correction plus the syndrome
    # record in the fresh ancillas, which keeps the map injective — a
    # unitary permutation of basis states.  Each term XORs the row its
    # syndrome selects.
    top = state.num_qubits - 1
    masks: List[int] = []
    table = _syndrome_correction_table(checks.shape,
                                       checks.astype(np.uint8).tobytes())
    for value, positions in enumerate(table):
        mask = 0
        for position in positions:
            mask |= 1 << (top - block[position])
        for row in range(num_checks):
            if (value >> (num_checks - 1 - row)) & 1:
                mask |= 1 << (top - ancillas[row])
        masks.append(mask)
    state.xor_row_masks(masks, syndrome)


def apply_perfect_recovery(state: SparseState, block: Sequence[int],
                           code: CssCode) -> None:
    """Ideal X- and Z-error correction of one block, in place.

    Allocates evaluator ancillas (two syndrome registers); callers that
    need the original register layout should pass a copy.
    """
    if len(block) != code.n:
        raise FaultToleranceError("block size does not match the code")
    _apply_x_recovery(state, block, code)
    for qubit in block:
        state.apply_gate(gates.H, [qubit])
    _apply_x_recovery(state, block, code)
    for qubit in block:
        state.apply_gate(gates.H, [qubit])


def recovered_block_overlap(state: SparseState, block: Sequence[int],
                            code: CssCode,
                            expected: SparseState) -> float:
    """Overlap of a block with its intended state after ideal recovery.

    Returns <psi'| (|phi><phi|_block (x) I) |psi'> where psi' is the
    state after perfect recovery on the block.  Equals 1.0 exactly when
    the gadget's residual error on the block was correctable and the
    corrected block is disentangled from all junk registers.
    """
    scratch = state.copy()
    apply_perfect_recovery(scratch, block, code)
    return scratch.block_overlap(block, expected)
