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
from .pauli import (_PHASE_VALUES, MAX_QUBITS, DecouplingGroup, PauliString, PauliSum, _letters,
                    _mask_matrix, _masks)

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


def _compress(h: PauliSum) -> tuple[dict[tuple[int, int], complex], float, int]:
    """One pass over the terms of h on (x, z) bit masks: the images on the
    code space of its commutant terms, keyed by the masks of their logical
    strings, and the sum eps of |c| and the count of the terms that
    anticommute with X...X or Z...Z, whose image is 0. A commutant string
    times X...X if it has X or Y on qubit N, then times Z...Z if it has Y
    or Z on qubit 1 (both +1 on the code space; the masks flip at no sign,
    as the string has an even number of Z or Y letters) is
    i**#Y X_1**a (x) m (x) Z_N**b, which acts there as i**#Y m, the logical
    Paulis of its middle letters m. Refuses h on the qubit counts that
    build_logical_basis refuses."""
    n = h.n_qubits
    _check_code_size(n)
    ones, images, leaks = (1 << n) - 1, {}, []
    for coef, string in h.terms:
        x, z = _masks(string.letters)
        if (x.bit_count() | z.bit_count()) & 1:
            leaks.append(abs(coef))
            continue
        k = (x & z).bit_count()
        x, z = x ^ ones * (x & 1), z ^ ones * (z >> (n - 1))
        key = (x >> 1 & ones >> 2, z >> 1 & ones >> 2)
        phase = _PHASE_VALUES[(k - (key[0] & key[1]).bit_count()) % 4]
        images[key] = images.get(key, 0) + complex(coef) * phase
    return {key: c for key, c in images.items() if c != 0}, sum(leaks), len(leaks)


def logical_image(h: PauliSum) -> PauliSum:
    """B† h B on the N-2 logical qubits (B of build_logical_basis(N)) as a Pauli sum."""
    n = h.n_qubits - 2
    return PauliSum.from_terms(
        n, ((c, PauliString(n, _letters(x, z, n))) for (x, z), c in _compress(h)[0].items()))


def _support_matrix(images, support: tuple[int, ...], n_logical: int) -> np.ndarray:
    """logical_image(h).restricted(support).to_matrix() from the images of
    _compress, on ascending logical qubits that hold all their letters."""
    terms = sorted((tuple(_letters(x, z, n_logical)[q - 1] for q in support), c)
                   for (x, z), c in images.items())
    return _mask_matrix(((c, *_masks(letters), 0) for letters, c in terms), len(support))
