"""Decoherence-free subspaces of the decoupling group and the logical encoding.

The group on N qubits (N even) splits the Hilbert space into four
2**(N-2)-dimensional sectors labelled by the simultaneous eigenvalues of
the commuting global strings X...X and Z...Z. The all-(+1) sector carries
the N-2 encoded qubits; its basis states are the two-branch superpositions

    even-parity r:  (|0>|r>|0> + |1>|NOT r>|1>) / sqrt(2)
    odd-parity  r:  (|1>|r>|0> + |0>|NOT r>|1>) / sqrt(2)

with r the middle (N-2)-bit string, which is also the logical label: an
[[N, N-2]] stabilizer code with logical X_j = X_1 X_(j+1), Z_j = Z_(j+1) Z_N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionTooLargeError, OddQubitCountError, TooFewQubitsError
from .pauli import MAX_QUBITS, DecouplingGroup, PauliString, PauliSum, commutant_split

_FLIP = str.maketrans("01", "10")


@dataclass(frozen=True, eq=False)
class LogicalBasis:
    """Ordered orthonormal basis of the all-(+1) sector.

    states[k] is the physical vector for labels[k]; labels are the
    (N-2)-bit strings in lexicographic order, so labels[k] == bits of k.
    """

    n_physical: int
    labels: tuple[str, ...]
    states: np.ndarray = field(repr=False)  # shape (2**n_logical, 2**n_physical)

    @property
    def n_logical(self) -> int:
        return self.n_physical - 2


def _check_code_size(n: int) -> None:
    """Refuse n physical qubits unless n is even and in 4..MAX_QUBITS."""
    if n % 2:
        raise OddQubitCountError(f"logical encoding needs even n, got {n}")
    if n < 4:
        raise TooFewQubitsError(f"logical encoding needs n >= 4, got {n}")
    if n > MAX_QUBITS:
        raise DimensionTooLargeError(f"logical encoding needs n <= {MAX_QUBITS}, got {n}")


def build_logical_basis(n: int) -> LogicalBasis:
    """Construct the logical basis for n physical qubits (even, 4..8).

    Raises
    ------
    OddQubitCountError, TooFewQubitsError
        n odd or below 4.
    DimensionTooLargeError
        n above MAX_QUBITS, refused before the 2**(n-2) x 2**n array exists.
    """
    _check_code_size(n)
    n_logical = n - 2
    dim = 2**n
    states = np.zeros((2**n_logical, dim), dtype=np.complex128)
    labels = []
    for r in range(2**n_logical):
        bits = format(r, f"0{n_logical}b")
        first = "0" if bits.count("1") % 2 == 0 else "1"
        branch1 = first + bits + "0"
        branch2 = ("1" if first == "0" else "0") + bits.translate(_FLIP) + "1"
        states[r, int(branch1, 2)] = 1 / np.sqrt(2)
        states[r, int(branch2, 2)] = 1 / np.sqrt(2)
        labels.append(bits)
    return LogicalBasis(n, tuple(labels), states)


def dfs_decomposition(group: DecouplingGroup) -> list[tuple[tuple[int, int, int, int], int]]:
    """Simultaneous eigensectors of the group, as (eigenvalue tuple, dimension).

    Eigenvalue tuples are ordered like the group elements (I, X, Y, Z),
    with the Y entry the eigenvalue of the unitary (ZX)^(x n); the
    all-ones sector comes first. For even n there are exactly four
    sectors of dimension 2**(n-2) each.

    Each dimension is the trace of the sector projector
    (I + sx X...X)(I + sz Z...Z)/4, summed over its expansion in group
    strings: only the identity string has a nonzero trace, 2**n times its
    phase, so no matrix is built.
    """
    n = group.n_qubits
    if n % 2:
        raise OddQubitCountError(f"sector decomposition needs even n, got {n}")
    identity, x, _, z = group.elements
    out = []
    for sx in (1, -1):
        for sz in (1, -1):
            terms = ((1, identity), (sx, x), (sz, z), (sx * sz, x * z))
            trace = sum(c * s.phase_value for c, s in terms if not any(s.letters)) * 2**n
            out.append(((1, sx, sx * sz, sz), round(trace.real / 4)))
    return sorted(out, key=lambda item: item[0], reverse=True)


def logical_image(h: PauliSum) -> PauliSum:
    """B† h B on the N-2 logical qubits, B the basis of build_logical_basis(N).

    A term that anticommutes with X...X or Z...Z maps the code space into
    another sector: its image is 0. A commutant string is multiplied by
    X...X if it has X or Y on qubit N, then by Z...Z if it has Y or Z on
    qubit 1 (both act as +1 on the code space). The product is
    i**k X_1**a (x) m (x) Z_N**b, the logical Paulis of the middle letters
    m, which acts on the code space as i**k m. Refuses h on qubit counts
    that build_logical_basis refuses.
    """
    n = h.n_qubits
    _check_code_size(n)
    x, z = PauliString.uniform(n, "X"), PauliString.uniform(n, "Z")
    terms = []
    for coef, string in commutant_split(h)[0].terms:
        if string.letters[-1] in (1, 2):
            string = string * x
        if string.letters[0] in (2, 3):
            string = string * z
        terms.append((coef, PauliString(n - 2, string.letters[1:-1], string.phase)))
    return PauliSum.from_terms(n - 2, terms)

