"""Dense full-register oracles for the factored sweep engine.

The library evaluates a decoupled schedule as a tensor product over the
register's factors (`noise._factor_slices`, `noise._factor_propagators`).
These oracles compute the same propagator on the whole register:

    interleave        the dense path the sweep used before the register was
                      factored: one slice propagator per segment, one XY-4
                      cycle raised to the number of cycles per segment;
    interleave_oracle the pulses threaded one at a time, slice by slice;
    assemble          the engine's factor matrices put back together on the
                      full register, by a Kronecker product and a
                      permutation of the tensor axes.
"""

from __future__ import annotations

import numpy as np

import dfsgates.noise as noise
from dfsgates.errors import DimensionMismatchError, DimensionTooLargeError
from dfsgates.linalg import expm_hermitian, kron, kron_all
from dfsgates.noise import IDEAL_PULSES, DDErrorModel, single_qubit_pulse


def pulse(
    axis: str, n: int, errors: DDErrorModel = IDEAL_PULSES, total_dim: int | None = None
) -> np.ndarray:
    """Dense global pulse: the single-qubit rotation tensored over n system
    qubits, and identity on the rest of a total_dim register. The oracle for
    the library's local 2x2 pulse contractions."""
    if n > 8:
        raise DimensionTooLargeError(f"{n} qubits exceeds 8")
    p = kron_all([single_qubit_pulse(axis, errors)] * n)
    if total_dim is not None and total_dim != p.shape[0]:
        p = kron(p, np.eye(total_dim // p.shape[0]))
    return p


def segment_slices(schedule, bath, plan) -> list[np.ndarray]:
    """Slice propagator exp(-i (area_s H_s + H_bath) / (4c)) of each segment
    s on the full register."""
    if bath.n_system != schedule.n_physical:
        raise DimensionMismatchError(
            f"bath on {bath.n_system} system qubits, schedule on {schedule.n_physical}"
        )
    bath_h = bath.hamiltonian_matrix()
    scale = 1.0 / (4 * plan.cycles_per_segment)
    return [
        expm_hermitian(
            segment.area * segment.hamiltonian.embedded(bath.total_qubits).to_matrix() + bath_h,
            scale,
        )
        for segment in schedule.segments
    ]


def decoupled_propagator(slices, bath, plan, errors) -> np.ndarray:
    """Product over segments of one XY-4 cycle of the segment's slice,
    raised to cycles_per_segment."""
    u = np.eye(bath.dim, dtype=np.complex128)
    for f in slices:
        cycle = noise._xy4_cycle(f, bath.n_system, errors)
        u = np.linalg.matrix_power(cycle, plan.cycles_per_segment) @ u
    return u


def interleave(schedule, bath, plan, errors: DDErrorModel = IDEAL_PULSES) -> np.ndarray:
    """Propagator of the schedule with XY-4 decoupling threaded through it,
    on the full register."""
    return decoupled_propagator(segment_slices(schedule, bath, plan), bath, plan, errors)


def interleave_oracle(schedule, bath, plan, errors) -> np.ndarray:
    """Pulse-by-pulse XY-4 threading: after each of the 4 * cycles slices of
    a segment, one global pulse, axes X, Y, X, Y, ..."""
    dim = bath.dim
    bath_h = bath.hamiltonian_matrix()
    slices = 4 * plan.cycles_per_segment
    u = np.eye(dim, dtype=np.complex128)
    for segment in schedule.segments:
        seg_h = segment.hamiltonian.embedded(bath.total_qubits).to_matrix()
        slice_u = expm_hermitian(segment.area * seg_h + bath_h, 1.0 / slices)
        for m in range(slices):
            u = pulse("xy"[m % 2], schedule.n_physical, errors, total_dim=dim) @ slice_u @ u
    return u


def assemble(qubit_sets, matrices, n_total: int) -> np.ndarray:
    """The operator that acts as matrices[f] on the 1-indexed qubits
    qubit_sets[f], on an n_total-qubit register.

    The Kronecker product is taken entry by entry with einsum, independent
    of np.kron; its tensor axes come in factor order and are permuted back
    to register order.
    """
    full = np.ones((1, 1), dtype=np.complex128)
    for m in matrices:
        full = np.einsum("ij,kl->ikjl", full, m).reshape(
            full.shape[0] * m.shape[0], full.shape[1] * m.shape[1]
        )
    order = np.argsort([q - 1 for qubits in qubit_sets for q in qubits])
    axes = [*order, *(order + len(order))]
    dim = 2 ** len(order)
    assert len(order) == n_total and full.shape == (dim, dim)
    return full.reshape((2,) * (2 * n_total)).transpose(axes).reshape(dim, dim)


def engine_propagator(schedule, bath, plan, errors: DDErrorModel = IDEAL_PULSES) -> np.ndarray:
    """The full-register propagator the sweep engine evaluates, assembled
    from its factor propagators."""
    factors = noise._factor_slices(schedule, bath, plan)
    return assemble(
        [f.qubits for f in factors],
        noise._factor_propagators(factors, plan, errors),
        bath.total_qubits,
    )
