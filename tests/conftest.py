"""Shared oracles and fixtures, independent of the library's own code paths."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from dfsgates.pauli import PauliString


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Index-by-index Kronecker product, independent of np.kron."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=np.complex128)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for m in range(cb):
                    out[i * rb + k, j * cb + m] = a[i, j] * b[k, m]
    return out


def expm_oracle(m: np.ndarray) -> np.ndarray:
    """exp(m) by scaling-and-squaring Taylor series, independent of eigh."""
    m = np.asarray(m, dtype=np.complex128)
    squarings = max(0, int(np.ceil(np.log2(max(1.0, np.abs(m).max() * m.shape[0])))) + 4)
    x = m / (2**squarings)
    term = np.eye(m.shape[0], dtype=np.complex128)
    out = term.copy()
    for k in range(1, 40):
        term = term @ x / k
        out += term
    for _ in range(squarings):
        out = out @ out
    return out


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (z + z.conj().T) / 2


def two_body_strings(n: int):
    """Every n-qubit string with non-identity letters on exactly two qubits."""
    for a, b in itertools.combinations(range(1, n + 1), 2):
        for la, lb in itertools.product("XYZ", repeat=2):
            yield PauliString.from_sites(n, {a: la, b: lb})


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
