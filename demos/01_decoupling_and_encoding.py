"""Decoupling group, exact bath averaging, and the logical encoding.

Walks through the symbolic layer: build the global-pulse group on four
qubits, average a fully general linear system-bath coupling over it (the
result is the zero operator, term for term), and construct the invariant
sector that carries two logical qubits out of four physical ones. The
two-body interactions that commute with the group act on that sector as
encoded single-qubit Paulis: X_1 X_(j+1) as X_j and Z_(j+1) Z_N as Z_j.
"""

import numpy as np

from dfsgates import (
    ATOL_NORM,
    BathModel,
    LogicalBasis,
    PauliString,
    PauliSum,
    build_decoupling_group,
    build_logical_basis,
    commutant_generators,
    commutes,
    dfs_decomposition,
    group_average,
    logical_image,
    symbolic_bath_average,
)

n = 4


def basis_dump(basis: LogicalBasis) -> str:
    """One line per state: "label : coeff|bits⟩ + coeff|bits⟩"."""
    lines = []
    width = basis.n_physical
    for label, vec in zip(basis.labels, basis.states):
        parts = [
            f"{vec[idx].real:.12f}|{format(idx, f'0{width}b')}⟩"
            for idx in np.nonzero(np.abs(vec) > ATOL_NORM)[0]
        ]
        lines.append(f"{label} : " + " + ".join(parts))
    return "\n".join(lines)


def matrix(string: PauliString) -> np.ndarray:
    """Dense matrix of one Pauli string, phase included."""
    return PauliSum.from_terms(string.n_qubits, [(1.0, string)]).to_matrix()


# --- the group -------------------------------------------------------------
group = build_decoupling_group(n)
print("decoupling group on", n, "qubits:")
for g in group.elements:
    print("   ", g.label)

# --- averaging kills every single-qubit coupling ---------------------------
rng = np.random.default_rng(1)
coupling = PauliSum.from_terms(
    n,
    [
        (rng.normal(), PauliString.from_sites(n, {i + 1: axis}))
        for i in range(n)
        for axis in "XYZ"
    ],
)
print(f"\nbath coupling has {coupling.n_terms} terms before averaging")
print(f"after group averaging: {group_average(coupling, group).n_terms} terms")

# same statement for the bath-qubit realization on the doubled register
bath = BathModel.random(n, 0.1, seed=1, kind="qubit")
print(f"bath-qubit realization averages to {symbolic_bath_average(bath).n_terms} terms")

# --- four equal sectors, one of them the code space ------------------------
print("\ninvariant sectors (eigenvalues of I, X..X, Y..Y, Z..Z -> dimension):")
for eigs, dim in dfs_decomposition(group):
    print("   ", eigs, "->", dim)

basis = build_logical_basis(n)
print(f"\nlogical basis ({basis.n_logical} encoded qubits, rate {basis.n_logical}/{n}):")
print(basis_dump(basis))

# every logical state is a +1 eigenvector of every group element
for element in group.elements:
    m = matrix(element)
    assert np.allclose(m @ basis.states.T, basis.states.T, atol=1e-12)
print("\nall logical states are +1 eigenvectors of every group element")

# --- operators that act inside the code space ------------------------------
print("\ncommutant generators (two-body, all commute with the group) and the")
print("logical operator each acts as on the code space:")
for gen in commutant_generators(n):
    assert all(commutes(gen, g) for g in group.elements)
    image = logical_image(PauliSum.from_terms(n, [(1.0, gen)]))
    # the stabilizer rule agrees with the dense compression B† g B
    dense = basis.states.conj() @ matrix(gen) @ basis.states.T
    assert np.allclose(image.to_matrix(), dense, atol=1e-12)
    print(f"    {gen.label} -> {image.text()}")

p = basis.states.T @ basis.states.conj()  # projector onto the code space
for gen in commutant_generators(n):
    g = matrix(gen)
    leak = np.linalg.norm((np.eye(2**n) - p) @ g @ p, 2)
    assert leak <= 1e-12
print("each generator preserves the code space to machine precision")
