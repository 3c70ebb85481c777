"""Dense full-register oracles for the library's structured fast paths.

Gates and code space. The library evolves and certifies a schedule on its
logical support (the target qubits and the qubits its compressed terms act
on), bounds how far each segment moves the code space from the symbolic
commutant split, and builds the transported frames from `barred_transform`.
The oracles work on the whole code-space block, the whole register or bit
by bit:

    block_certifier      the certifier on the whole 2**(N-2)-dimensional
                         code-space block;

    evolve_schedule      the product of full-register segment exponentials;
    project_to_logical   a full-register operator in logical coordinates;
    invariance_residual  ||H B - B H_L||_2 from one dense SVD;
    sector_projector     the dense projector onto one decoherence-free sector;
    frame_groups         the transported frames, built state by state from
                         the bits of the logical labels;
    holonomy_oracle      the holonomy certifier on the full register, from
                         projector differences and interior time samples;
    kron, is_unitary     the dense two-factor product and unitarity check;
    pauli_to_matrix      one Pauli string as a dense matrix;
    string_logical_image the logical-image rule by exact products of Pauli
                         strings, which the library applies on bit masks;
    sums_isclose         Pauli sums compared coefficient by coefficient;
    subspace_projector   the projector onto the span of orthonormal vectors;
    u3_block_decomposition
                         the entangling gate's analytic 2x2 blocks in the
                         barred basis.

Decoupling. The library evaluates a decoupled schedule as a tensor product
of the active factor and the idle per-qubit factors (`noise._factor_slices`,
`noise._grid_propagators`), on system qubits only, for a whole grid of
pulse errors at once. With a bath-qubit
model each factor is a stack over the tau_x sign patterns s of its bath
partners: entry s is the factor's propagator U(s) under the scalar fields
s_i b_i, and the factor on the doubled register is sum_s U(s) (x) Pi_s,
with Pi_s the projector onto the tau_x eigenvector |s> of the partners.
These oracles compute the same propagator on the whole register:

    interleave        the dense path the sweep used before the register was
                      factored: one slice propagator per segment, one XY-4
                      cycle of dense pulses raised to the number of cycles
                      per segment;
    interleave_oracle the pulses threaded one at a time, slice by slice;
    factor_qubits     the register qubits of each of the engine's factors,
                      system qubits then their bath partners, read off the
                      schedule's term labels;
    sign_sum          sum_s U(s) (x) Pi_s of one factor's pattern stack,
                      with Pi_s built densely;
    assemble          the engine's factor matrices put back together on the
                      full register, by a Kronecker product and a
                      permutation of the tensor axes.

The library evaluates a sweep's whole grid of pulse errors as one leading
stack axis, chunk by chunk (`noise.error_sweep`). The per-point loop it
replaced is the oracle:

    factor_propagators  one error model's factor propagators, from one
                        pulse pair;
    per_point_sweep     every grid point's fidelity through
                        `product_fidelity`, the reference reused at zero
                        error.

Idle evolution. The library runs the decoupling-order ladder and the bare
evolution on a stack of per-qubit factors and their sign patterns
(`BathModel.factor_hamiltonians`). These oracles are the dense paths it
replaced, on the whole register:

    hamiltonian_matrix            the bath coupling as one dense matrix;
    reduced_system_propagator     <0...0|_bath U |0...0>_bath;
    dense_decoupling_order_probe  one XY-4 cycle of dense pulses on the
                                  system qubits per rung;
    dense_bare_evolution_error    one full-register exponential.

The library reduces each stack of equal-sized factors in one call
(`linalg._product_fidelities`) and all rungs of the ladder together. The
forms it replaced, which the stacked ones equal bit for bit, are the
oracles:

    per_factor_fidelities         three entry sums per factor, one factor
                                  at a time;
    per_rung_decoupling_order_probe
                                  each rung's cycle power reduced alone,
                                  through `per_factor_fidelities`;
    per_factor_bare_evolution_error
                                  the bare evolution the same way.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

import dfsgates.noise as noise
from dfsgates.dfs import LogicalBasis, logical_image
from dfsgates.errors import BadPartitionError, DimensionMismatchError, DimensionTooLargeError
from dfsgates.gates import GateSchedule, leakage_of
from dfsgates.linalg import (
    ATOL_NORM,
    ATOL_STRUCT,
    SIGMA_X,
    _orthonormal_frame,
    expm_hermitian,
    kron_all,
    product_fidelity,
    spectral_norm,
)
from dfsgates.noise import (
    IDEAL_PULSES,
    MAX_CYCLES_PER_SEGMENT,
    BathModel,
    DDErrorModel,
    single_qubit_pulse,
)
from dfsgates.pauli import (
    DecouplingGroup,
    PauliString,
    PauliSum,
    _mask_matrix,
    _masks,
    commutant_split,
    commutes,
)


def pauli_to_matrix(p: PauliString) -> np.ndarray:
    """Dense 2**n matrix phase * (x) letter_i, qubit 1 leftmost."""
    return _mask_matrix([(1, *_masks(p.letters), p.phase)], p.n_qubits)


def string_logical_image(h: PauliSum) -> PauliSum:
    """logical_image by string products: each commutant string times X...X
    if it has X or Y on qubit N, then times Z...Z if it has Y or Z on qubit
    1, its middle letters kept with the product's phase."""
    n = h.n_qubits
    x, z = PauliString.uniform(n, "X"), PauliString.uniform(n, "Z")
    terms = []
    for coef, string in h.terms:
        if not (commutes(string, x) and commutes(string, z)):
            continue
        if string.letters[-1] in (1, 2):
            string = string * x
        if string.letters[0] in (2, 3):
            string = string * z
        terms.append((coef, PauliString(n - 2, string.letters[1:-1], string.phase)))
    return PauliSum.from_terms(n - 2, terms)


def sums_isclose(h: PauliSum, other: PauliSum) -> bool:
    """Whether two Pauli sums agree coefficient by coefficient within ATOL_NORM."""
    if h.n_qubits != other.n_qubits:
        return False
    keys = {s.letters for _, s in h.terms} | {s.letters for _, s in other.terms}
    a = {s.letters: c for c, s in h.terms}
    b = {s.letters: c for c, s in other.terms}
    return all(abs(a.get(k, 0) - b.get(k, 0)) <= ATOL_NORM for k in keys)


def subspace_projector(basis) -> np.ndarray:
    """Projector sum_k |psi_k><psi_k| onto the span of orthonormal vectors.

    Raises
    ------
    NotOrthonormalError
        If the Gram matrix of the input deviates from the identity.
    """
    frame = _orthonormal_frame(basis)
    return frame @ frame.conj().T


def u3_block_decomposition(phi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic blocks of the entangling gate in the barred two-qubit basis.

    Returns (A, B, U) where A and B are the unitary off-diagonal blocks of
    the two segment generators and U = -diag(B A†, B† A) is the assembled
    4x4 gate in the basis {|00>, |01>, |10>, |11>} of barred states.
    """
    a = np.array(
        [[-1j * np.cos(phi), -np.sin(phi)], [-np.sin(phi), -1j * np.cos(phi)]],
        dtype=np.complex128,
    )
    b = -1j * np.eye(2, dtype=np.complex128)
    u = np.zeros((4, 4), dtype=np.complex128)
    u[:2, :2] = -(b @ a.conj().T)
    u[2:, 2:] = -(b.conj().T @ a)
    return a, b, u


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with `a` as the more significant factor."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def is_unitary(u: np.ndarray, atol: float = ATOL_STRUCT) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() <= atol


def evolve_schedule(schedule: GateSchedule) -> np.ndarray:
    """Total propagator on the full 2**N register: product of segment
    exponentials, earliest rightmost. The reference for the code-space path."""
    u = np.eye(2**schedule.n_physical, dtype=np.complex128)
    for segment in schedule.segments:
        u = expm_hermitian(segment.hamiltonian.to_matrix(), segment.area) @ u
    return u


def project_to_logical(u_physical: np.ndarray, basis: LogicalBasis) -> np.ndarray:
    """Matrix M with M[a, b] = <psi_a| u |psi_b> over the logical basis.

    The caller decides what deviation of M†M from the identity (leakage)
    is acceptable; this routine does not judge it.
    """
    u = np.asarray(u_physical, dtype=np.complex128)
    dim = 2**basis.n_physical
    if u.shape != (dim, dim):
        raise DimensionMismatchError(f"expected {dim}x{dim} operator, got {u.shape}")
    return basis.states.conj() @ u @ basis.states.T


def invariance_residual(hamiltonian, basis: LogicalBasis) -> float:
    """||H B - B H_L||_2 = ||(I - P) H P||_2, with B = basis.states.T and
    H_L = B† H B: how far H moves the code space, from one dense
    2**N x 2**(N-2) SVD."""
    b = basis.states.T
    hb = hamiltonian.to_matrix() @ b
    return float(np.linalg.norm(hb - b @ (b.conj().T @ hb), 2))


def sector_projector(group: DecouplingGroup, sx: int, sz: int) -> np.ndarray:
    """Projector onto the joint (X...X = sx, Z...Z = sz) eigenspace."""
    xmat = pauli_to_matrix(group.elements[1])
    zmat = pauli_to_matrix(group.elements[3])
    dim = xmat.shape[0]
    return (np.eye(dim) + sx * xmat) @ (np.eye(dim) + sz * zmat) / 4


def _bit(r: int, pos: int, width: int) -> int:
    return (r >> (width - pos)) & 1


def frame_groups(schedule: GateSchedule, states: np.ndarray) -> list[list[np.ndarray]]:
    """Initial frame states grouped into the parallel-transported subspaces.

    states[r] is the vector of logical label r: basis.states on the full
    register, the identity in code-space coordinates.

    u1: eigenstates of the target logical Y tensored with computational
        states of the other logical qubits; one group per state.
    u2: the logical computational basis; one group per state.
    u3: Y-eigenstates ("barred" states) on both targets, computational
        elsewhere; the two states sharing the first target's bar form one
        two-dimensional group. Consecutive groups (paired over the first
        bar) are the subspaces that swap at the segment boundary.
    """
    n_logical = schedule.n_physical - 2
    if schedule.kind == "u2":
        return [[states[r]] for r in range(2**n_logical)]
    if schedule.kind == "u1":
        j = schedule.target[0]
        groups = []
        for r in range(2**n_logical):
            if _bit(r, j, n_logical):
                continue
            partner = r | (1 << (n_logical - j))
            for sign in (1, -1):
                groups.append([(states[r] + sign * 1j * states[partner]) / np.sqrt(2)])
        return groups
    if schedule.kind == "u3":
        k, l = schedule.target
        groups = []
        for r in range(2**n_logical):
            if _bit(r, k, n_logical) or _bit(r, l, n_logical):
                continue
            for bar_k in (0, 1):
                group = []
                for bar_l in (0, 1):
                    vec = np.zeros(states.shape[1], dtype=np.complex128)
                    for u in (0, 1):
                        cu = 1.0 if u == 0 else 1j * (1 - 2 * bar_k)
                        for v in (0, 1):
                            cv = 1.0 if v == 0 else 1j * (1 - 2 * bar_l)
                            idx = r | (u << (n_logical - k)) | (v << (n_logical - l))
                            vec += cu * cv * states[idx]
                    group.append(vec / 2)
                groups.append(group)
        return groups
    raise ValueError(f"unknown schedule kind {schedule.kind!r}")


def holonomy_oracle(schedule, basis, samples_per_segment=8):
    """Projector-difference certifier: full d x d propagators, one vdot per
    frame-vector pair at samples_per_segment+1 times per segment, and
    ||P_U - P_V|| from a d x d SVD. Returns (cyclic defect, transport
    violation, leakage, swap), swap None except for u3."""
    groups = frame_groups(schedule, basis.states)
    flat0 = [vec for group in groups for vec in group]
    fractions = [m / samples_per_segment for m in range(samples_per_segment + 1)]
    worst = 0.0
    prefix = np.eye(2**schedule.n_physical, dtype=np.complex128)
    for segment in schedule.segments:
        h = segment.hamiltonian.to_matrix()
        evals, vecs = np.linalg.eigh(h)
        for f in fractions:
            u_frac = (vecs * np.exp(-1j * f * segment.area * evals)) @ vecs.conj().T
            u_t = u_frac @ prefix
            for group in groups:
                moved = [u_t @ vec for vec in group]
                for a in moved:
                    ha = h @ a
                    for b in moved:
                        worst = max(worst, abs(np.vdot(b, ha)))
        prefix = u_frac @ prefix
    defect = 0.0
    for group in [flat0, *groups]:
        defect = max(
            defect,
            spectral_norm(
                subspace_projector([prefix @ v for v in group]) - subspace_projector(group)
            ),
        )
    swap = None
    if schedule.kind == "u3":
        seg = schedule.segments[0]
        evals, vecs = np.linalg.eigh(seg.hamiltonian.to_matrix())
        u_boundary = (vecs * np.exp(-1j * seg.area * evals)) @ vecs.conj().T
        swap = 0.0
        for pa, pb in zip(groups[::2], groups[1::2]):
            for src, dst in ((pa, pb), (pb, pa)):
                swap = max(
                    swap,
                    spectral_norm(
                        subspace_projector([u_boundary @ v for v in src])
                        - subspace_projector(dst)
                    ),
                )
    leakage = leakage_of(project_to_logical(prefix, basis))
    return defect, worst, leakage, swap


def block_certifier(schedule: GateSchedule):
    """The holonomy certifier on the whole 2**(N-2)-dimensional code-space
    block: each segment's logical_image(H_s) as a full block matrix,
    exponentiated once; the boundary chain M_0 = I, M_s = U_s M_(s-1); the
    frame of frame_groups moved along it; transport from the group-diagonal
    blocks of G†H_sG at both ends of each segment; cyclic and u3 swap
    defects as largest principal-angle sines ||G - F(F†G)||_2; leakage as
    max(||M†M - I||, (sum_s |a_s| eps_s)**2). Returns (cyclic defect,
    transport violation, leakage, swap, gate M), swap None except for u3."""
    n_logical = schedule.n_physical - 2
    groups = frame_groups(schedule, np.eye(2**n_logical, dtype=np.complex128))
    k = len(groups[0])
    frame = np.array([vec for group in groups for vec in group]).T

    def by_group(x):
        return x.reshape(x.shape[0], -1, k).transpose(1, 0, 2)

    def sines(q, v):
        return np.linalg.norm(q - v @ (v.conj().swapaxes(1, 2) @ q), 2, axis=(1, 2))

    hs = [logical_image(segment.hamiltonian).to_matrix() for segment in schedule.segments]
    chain = [np.eye(2**n_logical, dtype=np.complex128)]
    for h, segment in zip(hs, schedule.segments):
        chain.append(expm_hermitian(h, segment.area) @ chain[-1])
    frames = [m @ frame for m in chain]
    worst = 0.0
    for s, h in enumerate(hs):
        for g in frames[s : s + 2]:
            blocks = by_group(g).conj().swapaxes(1, 2) @ by_group(h @ g)
            worst = max(worst, float(np.abs(blocks).max()))
    start = by_group(frame)
    swap = None
    if schedule.kind == "u3":
        half = by_group(frames[1])
        swap = float(max(sines(half[0::2], start[1::2]).max(),
                         sines(half[1::2], start[0::2]).max()))
    drift = sum(abs(segment.area) * abs(c) for segment in schedule.segments
                for c, _ in commutant_split(segment.hamiltonian)[1].terms)
    leakage = max(leakage_of(chain[-1]), drift**2)
    return float(sines(by_group(frames[-1]), start).max()), worst, leakage, swap, chain[-1]


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
    bath_h = hamiltonian_matrix(bath)
    scale = 1.0 / (4 * plan.cycles_per_segment)
    return [
        expm_hermitian(
            segment.area * segment.hamiltonian.embedded(bath.total_qubits).to_matrix() + bath_h,
            scale,
        )
        for segment in schedule.segments
    ]


def decoupled_propagator(slices, bath, plan, errors) -> np.ndarray:
    """Product over segments of one XY-4 cycle P_y F P_x F P_y F P_x F of
    the segment's slice F, with dense global pulses, raised to
    cycles_per_segment."""
    p_x = pulse("x", bath.n_system, errors, total_dim=2**bath.total_qubits)
    p_y = pulse("y", bath.n_system, errors, total_dim=2**bath.total_qubits)
    u = np.eye(2**bath.total_qubits, dtype=np.complex128)
    for f in slices:
        cycle = p_y @ f @ p_x @ f @ p_y @ f @ p_x @ f
        u = np.linalg.matrix_power(cycle, plan.cycles_per_segment) @ u
    return u


def interleave(schedule, bath, plan, errors: DDErrorModel = IDEAL_PULSES) -> np.ndarray:
    """Propagator of the schedule with XY-4 decoupling threaded through it,
    on the full register."""
    return decoupled_propagator(segment_slices(schedule, bath, plan), bath, plan, errors)


def interleave_oracle(schedule, bath, plan, errors) -> np.ndarray:
    """Pulse-by-pulse XY-4 threading: after each of the 4 * cycles slices of
    a segment, one global pulse, axes X, Y, X, Y, ..."""
    dim = 2**bath.total_qubits
    bath_h = hamiltonian_matrix(bath)
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


def factor_qubits(schedule, bath: BathModel) -> list[tuple[int, ...]]:
    """The 1-indexed register qubits of the engine's factors: the active
    factor's system qubits, those on which the label of some segment term
    has a letter other than I, in ascending order, with a bath qubit
    followed by their partners in the same order; then (q,) or, with a
    bath qubit, (q, n + q) for each idle system qubit q in ascending
    order, as the idle stack holds them."""
    n = bath.n_system
    labels = [s.label[-n:] for seg in schedule.segments for _, s in seg.hamiltonian.terms]
    active = tuple(q for q in range(1, n + 1) if any(label[q - 1] != "I" for label in labels))
    idle = [q for q in range(1, n + 1) if q not in active]
    if bath.kind == "scalar":
        return [active, *((q,) for q in idle)]
    return [(*active, *(n + q for q in active)), *((q, n + q) for q in idle)]


def sign_sum(stack: np.ndarray) -> np.ndarray:
    """sum_s stack[s] (x) Pi_s, on m system qubits followed by their m bath
    qubits: stack holds one 2^m x 2^m propagator per tau_x sign pattern s
    of the bath qubits, in the order of itertools.product((1, -1), repeat=m),
    and Pi_s = (x)_k (I + s_k X) / 2 projects onto their tau_x eigenvector |s>."""
    m = stack.shape[-1].bit_length() - 1
    assert stack.shape == (2**m, 2**m, 2**m)
    out = np.zeros((4**m, 4**m), dtype=np.complex128)
    for u, signs in zip(stack, itertools.product((1, -1), repeat=m)):
        out += kron(u, kron_all([(np.eye(2) + s * SIGMA_X) / 2 for s in signs]))
    return out


def factor_propagators(factors, plan, errors: DDErrorModel) -> tuple[np.ndarray, np.ndarray]:
    """The decoupled propagators of one pulse error model on the active
    factor, shape (patterns, d, d), and on the idle per-qubit factors,
    (patterns, n_idle, 2, 2): the per-point evaluation the sweep ran before
    its grid became a stack axis, a half cycle of one pulse pair, its
    power and the product over segments."""
    slices, idle = factors
    p_x = single_qubit_pulse("x", errors)
    p_y = single_qubit_pulse("y", errors)
    power = 2 * plan.cycles_per_segment
    segments = np.linalg.matrix_power(noise._half_cycle(slices, p_x, p_y), power)
    idle_segment = np.linalg.matrix_power(noise._half_cycle(idle, p_x, p_y), power)
    u, v = segments[:, 0], idle_segment
    for s in range(1, segments.shape[1]):
        u = segments[:, s] @ u
        v = idle_segment @ v
    return u, v


def per_point_sweep(schedule, plan, bath, grids) -> list[tuple[str, float, float]]:
    """`noise.error_sweep` one grid point at a time: each point's
    `factor_propagators`, reduced over the bath, against the ideal
    reference through `product_fidelity`, the reference reused at zero
    error."""
    factors = noise._factor_slices(schedule, bath, plan)

    def reduced(errors: DDErrorModel) -> list[np.ndarray]:
        active, idle = factor_propagators(factors, plan, errors)
        return [active.mean(axis=0), *idle.mean(axis=0)]

    reference = reduced(IDEAL_PULSES)
    rows = []
    for kind, values in grids.items():
        for value in values:
            value = float(value)
            errors = DDErrorModel(epsilon=value) if kind == "flip" else DDErrorModel(delta=value)
            noisy = reference if errors == IDEAL_PULSES else reduced(errors)
            rows.append((kind, value, product_fidelity(reference, noisy)))
    return rows


def engine_propagator(schedule, bath, plan, errors: DDErrorModel = IDEAL_PULSES) -> np.ndarray:
    """The full-register propagator the sweep engine evaluates, assembled
    from its factor propagators, a one-entry grid of `noise._grid_propagators`:
    each factor's one entry for a scalar bath, its `sign_sum` over the
    tau_x patterns of its bath partners for a bath-qubit model."""
    factors = noise._factor_slices(schedule, bath, plan)
    active, idle = (u[0] for u in noise._grid_propagators(factors, plan, [errors]))
    if bath.kind == "scalar":
        matrices = [active[0], *idle[0]]
    else:
        matrices = [sign_sum(active), *(sign_sum(idle[:, i]) for i in range(idle.shape[1]))]
    return assemble(factor_qubits(schedule, bath), matrices, bath.total_qubits)


def hamiltonian_matrix(bath: BathModel) -> np.ndarray:
    """The coupling as a dense matrix on the model's full register."""
    if bath.total_qubits > 8:
        raise DimensionTooLargeError("bath register exceeds 2**8")
    return bath.hamiltonian_sum().to_matrix()


def reduced_system_propagator(u: np.ndarray, bath: BathModel) -> np.ndarray:
    """Restriction <0...0|_bath U |0...0>_bath; the identity for scalar baths."""
    if bath.kind == "scalar":
        return u
    stride = 2**bath.n_system
    return u[::stride, ::stride]


def dense_decoupling_order_probe(
    bath: BathModel, dt_values, total_time: float
) -> list[tuple[float, float]]:
    """`noise.decoupling_order_probe` on the full register: one dense XY-4
    cycle of the whole bath coupling per rung, its pulses on the system
    qubits only."""
    h = hamiltonian_matrix(bath)
    dim = 2**bath.total_qubits
    p_x, p_y = (pulse(axis, bath.n_system, total_dim=dim) for axis in "xy")
    eye = np.eye(2**bath.n_system)
    out = []
    for dt in dt_values:
        ratio = total_time / (4 * dt)
        cycles = round(ratio) if math.isfinite(ratio) else 0
        if abs(ratio - cycles) > 1e-9:
            raise BadPartitionError(f"dt={dt} does not divide total_time={total_time}")
        if not 1 <= cycles <= MAX_CYCLES_PER_SEGMENT:
            raise BadPartitionError(
                f"dt={dt} gives {cycles} cycles over total_time={total_time}, "
                f"outside 1..{MAX_CYCLES_PER_SEGMENT}"
            )
        f = expm_hermitian(h, dt)
        u = np.linalg.matrix_power(p_y @ f @ p_x @ f @ p_y @ f @ p_x @ f, cycles)
        err = 1 - product_fidelity([reduced_system_propagator(u, bath)], [eye])
        out.append((float(dt), float(err)))
    return out


def dense_bare_evolution_error(bath: BathModel, total_time: float) -> float:
    """`noise.bare_evolution_error` on the full register."""
    u = expm_hermitian(hamiltonian_matrix(bath), total_time)
    return 1 - product_fidelity(
        [reduced_system_propagator(u, bath)], [np.eye(2**bath.n_system)]
    )


def per_factor_fidelities(us, vs) -> np.ndarray:
    """`linalg._product_fidelities` on a list of single factors, each of
    shape (..., d_f, d_f), the leading axes broadcasting: per factor, the
    trace overlap and the two Frobenius norms as sums of its entries, the
    overlaps multiplied in real arithmetic in the given order."""
    def entry_sum(m):
        return m.reshape(*m.shape[:-2], -1).sum(axis=-1)

    re, im, den = 1.0, 0.0, 1.0
    for u, v in zip(us, vs, strict=True):
        if u.shape[-2:] != v.shape[-2:]:
            raise DimensionMismatchError(f"shape mismatch: {u.shape} vs {v.shape}")
        z = entry_sum(u * v.conj())
        re, im = re * z.real - im * z.imag, re * z.imag + im * z.real
        den = den * (entry_sum(u * u.conj()).real * entry_sum(v * v.conj()).real)
    return np.minimum(np.hypot(re, im) / np.sqrt(den), 1.0)


def _per_factor_identity_infidelity(u: np.ndarray) -> float:
    """1 - fidelity to the identity of the per-qubit factors u, shape
    (patterns, n, 2, 2), each reduced to the mean over its patterns."""
    reduced = u.mean(axis=0)
    return 1 - float(per_factor_fidelities(list(reduced), [np.eye(2)] * len(reduced)))


def per_rung_decoupling_order_probe(
    bath: BathModel, dt_values, total_time: float
) -> list[tuple[float, float]]:
    """`noise.decoupling_order_probe` one rung at a time, for a ladder of
    whole, distinct cycle counts: each rung's `noise.dd_cycle` power on the
    per-qubit factor stack, reduced over sign patterns and compared with
    the identity factor by factor."""
    h = noise._qubit_patterns(bath.factor_hamiltonians(), bath.kind)
    out = []
    for dt in dt_values:
        cycles = round(total_time / (4 * dt))
        assert abs(total_time / (4 * dt) - cycles) <= 1e-9 and cycles >= 1
        u = np.linalg.matrix_power(noise.dd_cycle(h, dt), cycles)
        out.append((float(dt), _per_factor_identity_infidelity(u)))
    return out


def per_factor_bare_evolution_error(bath: BathModel, total_time: float) -> float:
    """`noise.bare_evolution_error` reduced factor by factor."""
    h = noise._qubit_patterns(bath.factor_hamiltonians(), bath.kind)
    return _per_factor_identity_infidelity(expm_hermitian(h, total_time))
