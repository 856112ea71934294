"""Exact composition of coherent (non-Pauli) noise into a circuit run.

Stochastic Pauli faults go through :mod:`repro.analysis.engine`, which
samples them from a :class:`~repro.noise.model.NoiseModel` and
simulates each pattern on the sparse backend.  Coherent
over-rotations have no stochastic Pauli unravelling, so they cannot be
sampled; :func:`run_with_coherent_noise` composes them exactly into a
state-vector run instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.circuit import Circuit, GateOp
from repro.circuits.pauli import PauliString
from repro.exceptions import SimulationError
from repro.simulators.statevector import StateVector


def run_with_coherent_noise(circuit: Circuit,
                            model: "CoherentOverRotationModel",
                            initial_state: Optional[StateVector] = None,
                            extra_faults: Sequence[Tuple[PauliString, int]]
                            = ()) -> StateVector:
    """Run a circuit with systematic unitary over-rotations composed in.

    Coherent noise has no stochastic Pauli unravelling, so it cannot
    feed the sampling engine (:func:`repro.analysis.engine.
    run_monte_carlo` refuses it); instead the over-rotation unitary for
    each gate kind is applied to every touched qubit right after the
    gate — an exact, deterministic composition (pure states stay pure
    under fixed unitaries; use
    :func:`repro.simulators.channels.over_rotation` for the
    density-matrix form).

    Args:
        circuit: measurement-free circuit.
        model: a :class:`repro.noise.structured.CoherentOverRotationModel`
            (anything with an ``error_gate(gate_name)`` method).
        initial_state: starting state (default |0...0>).
        extra_faults: optional additional (pauli, after_op) Pauli
            faults, applied right after operation ``after_op``
            (``-1`` injects before the first operation; several faults
            at one point compose in order) — for studying coherent +
            stochastic mixes.
    """
    if initial_state is None:
        state = StateVector(circuit.num_qubits)
    else:
        state = initial_state.copy()
        if state.num_qubits != circuit.num_qubits:
            raise SimulationError("initial state size mismatch")
    by_point: Dict[int, List[PauliString]] = {}
    for pauli, after_op in extra_faults:
        by_point.setdefault(after_op, []).append(pauli)
    for pauli in by_point.get(-1, []):
        state.apply_pauli(pauli)
    for index, op in enumerate(circuit.operations):
        if not isinstance(op, GateOp) or op.condition is not None:
            raise SimulationError(
                "run_with_coherent_noise requires an unconditional "
                "unitary circuit"
            )
        state.apply_gate(op.gate, op.qubits)
        error = model.error_gate(op.gate.name)
        if error is not None:
            for qubit in op.qubits:
                state.apply_gate(error, (qubit,))
        for pauli in by_point.get(index, []):
            state.apply_pauli(pauli)
    return state
