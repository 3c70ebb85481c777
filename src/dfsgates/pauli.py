"""Symbolic Pauli-string algebra, the global decoupling group, and averaging.

Strings carry their phase in the exact four-element group {+1, +i, -1, -i}
(stored as an integer exponent of i), never as a float: the pulse
convention Y = ZX = i * sigma_y makes phase bookkeeping the main source of
sign bugs, so products are integer arithmetic all the way down. There is
one encoding for that arithmetic: the (x, z) bit masks of _masks, with Y
carried as i**popcount(x & z). Products, commutation, dense matrices and
the code-space image of dfs all read the masks.

Text form is sign-then-letters with qubit 1 first, e.g. "+XIZY" or "-iYY".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooLargeError,
    LengthMismatchError,
    OddQubitCountError,
    TooFewQubitsError,
)

MAX_QUBITS = 8

_LETTERS = "IXYZ"
_PHASE_LABELS = ("+", "+i", "-", "-i")
_PHASE_VALUES = (1, 1j, -1, -1j)
# (-1)**popcount(b) for every basis index b of the largest register, as
# floats: a sign table cannot wrap the way 1 - 2*parity does in an unsigned
# dtype, and needs no numpy >= 2.0 bit count.
_SIGNS = np.array([-1.0 if bin(b).count("1") % 2 else 1.0 for b in range(2**MAX_QUBITS)])


@dataclass(frozen=True)
class PauliString:
    """Signed/phased tensor product of single-qubit Pauli letters.

    letters holds one of 0..3 (I, X, Y, Z) per qubit, qubit 1 first;
    phase is the exponent k in the overall factor i**k.
    """

    n_qubits: int
    letters: tuple[int, ...]
    phase: int = 0

    def __post_init__(self):
        if len(self.letters) != self.n_qubits:
            raise LengthMismatchError(
                f"{len(self.letters)} letters for {self.n_qubits} qubits"
            )
        object.__setattr__(self, "phase", self.phase % 4)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, (0,) * n)

    @classmethod
    def uniform(cls, n: int, letter: str) -> "PauliString":
        """The global string letter^(n), e.g. X...X."""
        return cls(n, (_LETTERS.index(letter),) * n)

    @classmethod
    def from_sites(cls, n: int, sites: dict[int, str], phase: int = 0) -> "PauliString":
        """String with the given letters on 1-indexed sites, identity elsewhere."""
        letters = [0] * n
        for site, letter in sites.items():
            if not 1 <= site <= n:
                raise LengthMismatchError(f"site {site} outside 1..{n}")
            letters[site - 1] = _LETTERS.index(letter)
        return cls(n, tuple(letters), phase)

    @classmethod
    def from_label(cls, text: str) -> "PauliString":
        """Parse the text form, e.g. "+XIZY", "-iYY", "ZZ" (implicit +).

        Raises
        ------
        ValueError
            A character of the string part is not one of I, X, Y, Z.
        """
        body = text.strip()
        phase = 0
        for k, prefix in sorted(enumerate(_PHASE_LABELS), key=lambda p: -len(p[1])):
            if body.startswith(prefix):
                phase, body = k, body[len(prefix):]
                break
        bad = next((ch for ch in body if ch not in _LETTERS), None)
        if bad is not None:
            raise ValueError(f"Pauli letter {bad!r} in {text!r} is not one of {_LETTERS}")
        letters = tuple(_LETTERS.index(ch) for ch in body)
        return cls(len(letters), letters, phase)

    @property
    def label(self) -> str:
        return _PHASE_LABELS[self.phase] + "".join(_LETTERS[c] for c in self.letters)

    @property
    def phase_value(self) -> complex:
        return _PHASE_VALUES[self.phase]

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Exact symbolic product: the matrix of a * b is the matrix of a
        times the matrix of b. On the masks, (X^a Z^b)(X^c Z^d) =
        (-1)**popcount(b & c) X^(a^c) Z^(b^d); the operands' Y factors
        i**popcount(x & z) are added and the product's subtracted."""
        if self.n_qubits != other.n_qubits:
            raise LengthMismatchError(f"{self.n_qubits} vs {other.n_qubits} qubits")
        (ax, az), (bx, bz) = _masks(self.letters), _masks(other.letters)
        x, z = ax ^ bx, az ^ bz
        phase = (self.phase + other.phase + (ax & az).bit_count() + (bx & bz).bit_count()
                 + 2 * (az & bx).bit_count() - (x & z).bit_count())
        return PauliString(self.n_qubits, _letters(x, z, self.n_qubits), phase)

    def embedded(self, n_total: int) -> "PauliString":
        """The same string padded with identities up to n_total qubits."""
        if n_total < self.n_qubits:
            raise LengthMismatchError("cannot embed into fewer qubits")
        return PauliString(
            n_total, self.letters + (0,) * (n_total - self.n_qubits), self.phase
        )

    def __str__(self) -> str:
        return self.label


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff ab = ba: popcount(a_x & b_z) + popcount(a_z & b_x) is even."""
    if a.n_qubits != b.n_qubits:
        raise LengthMismatchError(f"{a.n_qubits} vs {b.n_qubits} qubits")
    (ax, az), (bx, bz) = _masks(a.letters), _masks(b.letters)
    return ((ax & bz).bit_count() + (az & bx).bit_count()) % 2 == 0


def _masks(letters) -> tuple[int, int]:
    """(x, z): the bit masks of the X-or-Y and Z-or-Y positions, qubit 1 the
    most significant bit. With Y = i X Z the phase-free string is
    i**popcount(x & z) X^x Z^z, and X^x Z^z |b> = (-1)**popcount(b & z)
    |b XOR x> (Aaronson & Gottesman, PRA 70, 052328 (2004)). This is the
    layer's one encoding: PauliString.__mul__, commutes, _mask_matrix,
    commutant_split and the code-space rule dfs._image all use it."""
    x = z = 0
    for c in letters:
        x = (x << 1) | (c in (1, 2))
        z = (z << 1) | (c in (2, 3))
    return x, z


def _letters(x: int, z: int, n: int) -> tuple[int, ...]:
    """The letters of the masks x, z on n qubits; _masks inverted."""
    return tuple(2 * (z >> b & 1) + ((x ^ z) >> b & 1) for b in range(n - 1, -1, -1))


def _mask_matrix(terms, n: int) -> np.ndarray:
    """Dense matrix of sum c i**k X^x Z^z i**popcount(x & z) over terms
    (c, x, z, k) on n qubits, each added into its one entry per column."""
    if n > MAX_QUBITS:
        raise DimensionTooLargeError(f"{n} qubits exceeds {MAX_QUBITS}")
    cols, out = np.arange(2**n), np.zeros((2**n,) * 2, dtype=np.complex128)
    for coef, x, z, k in terms:
        unit = _PHASE_VALUES[(k + (x & z).bit_count()) % 4]
        out[cols ^ x, cols] += coef * (unit * _SIGNS[cols & z])
    return out


@functools.lru_cache(maxsize=32)
def _string_basis(x: int, z: int, m: int) -> np.ndarray:
    """i**popcount(x & z) X^x Z^z on m qubits, dense and read-only: a gate
    term's or a logical image's string. The 32 kept take at most 32 MiB."""
    basis = _mask_matrix([(1, x, z, 0)], m)
    basis.setflags(write=False)
    return basis


@functools.cache
def _qubit_paulis(m: int) -> np.ndarray:
    """X, Y and Z on each of m qubits, the last first, as one read-only stack
    (3m, 2^m, 2^m): a bath's strings, kept apart from the gate terms'. At
    most MAX_QUBITS stacks, 24 MiB at m = 8 and 30 MiB in all."""
    basis = np.array([_mask_matrix([(1, x, z, 0)], m) for r in range(m)
                      for x, z in ((1 << r, 0), (1 << r, 1 << r), (0, 1 << r))],
                     dtype=np.complex128).reshape(3 * m, 2**m, 2**m)
    basis.setflags(write=False)
    return basis


def _pauli_sums(weights: np.ndarray, masks, m: int) -> np.ndarray:
    """sum_t weights[..., t] P_t, shape (..., 2^m, 2^m), for the m-qubit
    strings of masks (by `_string_basis`) or a stack of them: every dense
    segment stack. Each product is exact, and an entry adds its terms in the
    order of masks: bit for bit up to m = 6, to a few 1e-17 at m = 7 and 8,
    where BLAS may add a long sum in another order."""
    if not isinstance(masks, np.ndarray):
        masks = np.array([_string_basis(x, z, m) for x, z in masks], dtype=np.complex128)
    sums = weights @ masks.reshape(len(masks), 4**m)
    return sums.reshape(*weights.shape[:-1], 2**m, 2**m)


@dataclass(frozen=True)
class PauliSum:
    """Real/complex-weighted sum of phase-normalized Pauli strings.

    Terms are canonical: string phases are folded into the coefficients,
    like terms merged, exact zeros dropped, and the order fixed by the
    letter tuples, so equal operators compare equal.
    """

    n_qubits: int
    terms: tuple[tuple[complex, PauliString], ...]

    @classmethod
    def from_terms(cls, n_qubits: int, terms) -> "PauliSum":
        merged: dict[tuple[int, ...], complex] = {}
        for coef, string in terms:
            if string.n_qubits != n_qubits:
                raise LengthMismatchError(
                    f"term on {string.n_qubits} qubits in a {n_qubits}-qubit sum"
                )
            merged[string.letters] = (
                merged.get(string.letters, 0) + complex(coef) * string.phase_value
            )
        canon = tuple(
            (c, PauliString(n_qubits, letters))
            for letters, c in sorted(merged.items())
            if c != 0
        )
        return cls(n_qubits, canon)

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits, ())

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise LengthMismatchError("adding sums on different qubit counts")
        return PauliSum.from_terms(self.n_qubits, self.terms + other.terms)

    def __rmul__(self, scalar) -> "PauliSum":
        return PauliSum.from_terms(
            self.n_qubits, ((scalar * c, s) for c, s in self.terms)
        )

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix, each term scattered into its one entry per column."""
        return _mask_matrix(((c, *_masks(s.letters), s.phase) for c, s in self.terms),
                            self.n_qubits)

    def embedded(self, n_total: int) -> "PauliSum":
        return PauliSum.from_terms(
            n_total, ((c, s.embedded(n_total)) for c, s in self.terms)
        )

    def text(self) -> str:
        """Round-trippable form: "<coef>*<string> + <coef>*<string> + ..."."""
        if not self.terms:
            return "0"

        def fmt(c: complex) -> str:
            if c.imag == 0:
                return repr(c.real)
            return "(" + repr(c).strip("()") + ")"

        return " + ".join(f"{fmt(c)}*{s.label}" for c, s in self.terms)

    @classmethod
    def from_text(cls, n_qubits: int, text: str) -> "PauliSum":
        """Parse the form written by text().

        Raises
        ------
        ValueError
            A term is not "<coef>*<string>", its coefficient is not a
            number, or its string has a letter outside I, X, Y, Z.
        """
        text = text.strip()
        if text == "0":
            return cls.zero(n_qubits)
        terms = []
        for chunk in text.split(" + "):
            if "*" not in chunk:
                raise ValueError(f"term {chunk!r} is not of the form <coef>*<string>")
            coef_txt, label = chunk.split("*", 1)
            try:
                coef = complex(coef_txt)
            except ValueError:
                raise ValueError(f"coefficient {coef_txt!r} of term {chunk!r} "
                                 "is not a number") from None
            terms.append((coef, PauliString.from_label(label)))
        return cls.from_terms(n_qubits, terms)


@dataclass(frozen=True)
class DecouplingGroup:
    """The order-4 global-pulse group {I^n, X^n, Y^n, Z^n} with Y = ZX.

    The Y element carries the explicit i**n phase of (ZX)^(x n); averaging
    conjugates by the element so the phase drops out, which tests verify
    rather than assume.
    """

    n_qubits: int
    elements: tuple[PauliString, PauliString, PauliString, PauliString]

    def embedded(self, n_total: int) -> "DecouplingGroup":
        """The group acting on the first n_qubits of a larger register."""
        return DecouplingGroup(
            n_total, tuple(g.embedded(n_total) for g in self.elements)
        )


def build_decoupling_group(n: int) -> DecouplingGroup:
    """The decoupling group on n qubits (n even, 2 <= n <= 8).

    Raises
    ------
    OddQubitCountError
        The four-sector decomposition needs even n; odd n is rejected.
    """
    if n % 2:
        raise OddQubitCountError(f"decoupling group needs even n, got {n}")
    if not 2 <= n <= MAX_QUBITS:
        raise DimensionTooLargeError(f"n={n} outside 2..{MAX_QUBITS}")
    x = PauliString.uniform(n, "X")
    z = PauliString.uniform(n, "Z")
    y = z * x  # (ZX)^(x n) = i**n * Y...Y
    group = DecouplingGroup(n, (PauliString.identity(n), x, y, z))
    for a in group.elements:
        for b in group.elements:
            prod = a * b
            if not any(prod.letters == g.letters for g in group.elements):
                raise AssertionError("decoupling group not projectively closed")
    return group


def group_average(h: PauliSum, group: DecouplingGroup) -> PauliSum:
    """(1/4) sum_j g_j† h g_j, evaluated symbolically and exactly.

    Conjugating a Pauli string by a Pauli string returns the same string
    up to a sign, so each term either survives unchanged (commutes with
    the whole group) or cancels exactly; the sign sum is done in integers
    and the result is the commutant projection of h.
    """
    if h.n_qubits != group.n_qubits:
        raise LengthMismatchError("Hamiltonian and group qubit counts differ")
    kept = []
    for coef, string in h.terms:
        signs = sum(1 if commutes(string, g) else -1 for g in group.elements)
        if signs == 4:
            kept.append((coef, string))
        elif signs != 0:
            raise AssertionError("group-character sum must be 0 or 4")
    return PauliSum.from_terms(h.n_qubits, kept)


def commutant_split(h: PauliSum) -> tuple[PauliSum, PauliSum]:
    """h as h_c + h_leak: h_c holds the terms that commute with X...X and
    Z...Z, which preserve every decoherence-free sector; h_leak holds the
    terms that anticommute with at least one of them and move states
    between sectors."""
    kept, leaking = [], []
    for coef, string in h.terms:
        x, z = _masks(string.letters)
        # X...X anticommutes with each Z or Y letter, Z...Z with each X or Y.
        (leaking if (x.bit_count() | z.bit_count()) & 1 else kept).append((coef, string))
    return PauliSum.from_terms(h.n_qubits, kept), PauliSum.from_terms(h.n_qubits, leaking)


def commutant_generators(n: int) -> list[PauliString]:
    """The 2(n-2) two-body strings X_1 X_(j+1) and Z_(j+1) Z_n, j = 1..n-2.

    Every returned string commutes with all four group elements, so
    Hamiltonians built from them preserve each decoherence-free sector.
    """
    if n % 2:
        raise OddQubitCountError(f"commutant generators need even n, got {n}")
    if n < 4:
        raise TooFewQubitsError(f"commutant generators need n >= 4, got {n}")
    gens = [PauliString.from_sites(n, {1: "X", j + 1: "X"}) for j in range(1, n - 1)]
    gens += [PauliString.from_sites(n, {j + 1: "Z", n: "Z"}) for j in range(1, n - 1)]
    return gens
