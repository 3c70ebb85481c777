"""Dense complex linear algebra for few-qubit Hilbert spaces (dim <= 2**8).

States are plain complex ndarray vectors and operators are square complex
ndarrays; qubit 1 is always the leftmost (most significant) tensor factor,
so the basis state |0110> of four qubits sits at index 6.

Everything here is a pure function over immutable inputs and is safe to
call from parallel sweeps.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, NotOrthonormalError

# Structural checks (hermiticity, unitarity, orthonormality, leakage) use
# ATOL_STRUCT; vector norms and frozen amplitudes use the tighter ATOL_NORM.
ATOL_STRUCT = 1e-10
ATOL_NORM = 1e-12

SIGMA_I = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def kron_all(factors) -> np.ndarray:
    """Kronecker product of a sequence of matrices, first factor leftmost."""
    out = np.eye(1, dtype=np.complex128)
    for f in factors:
        out = np.kron(out, np.asarray(f, dtype=np.complex128))
    return out


def is_hermitian(m: np.ndarray) -> bool:
    """Whether m, or every matrix of a stack m of shape (..., d, d), is
    within ATOL_STRUCT of its own conjugate transpose; an empty stack is."""
    m = np.asarray(m)
    return (
        m.ndim >= 2
        and m.shape[-1] == m.shape[-2]
        and np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0) <= ATOL_STRUCT
    )


def spectral_norm(m: np.ndarray) -> float:
    """Operator 2-norm: the largest singular value, the first of svd's
    descending ones, which is what np.linalg.norm(m, 2) computes."""
    return float(np.linalg.svd(np.asarray(m), compute_uv=False)[..., 0])


def expm_hermitian(h: np.ndarray, scale) -> np.ndarray:
    """exp(-i * scale * h) for Hermitian h, via full eigendecomposition.

    h may be a stack of matrices, shape (..., d, d); each is exponentiated
    alike. scale is a number, or an array that broadcasts against the
    eigenvalues, shape (..., d): an (S, 1) scale gives each matrix of an
    (S, d, d) stack its own, one eigh call for the stack, and each result
    equals the single call on that matrix with that number bit for bit.
    Scale h itself instead and the eigenvalues round differently.

    Exact up to eigensolver accuracy; at these dimensions (<= 256) this is
    both cheap and more accurate than series methods. The one
    eigendecomposition path behind every propagator in the package.

    Raises
    ------
    NotHermitianError
        If h deviates from its own conjugate transpose by more than ATOL_STRUCT.
    """
    return _expm_hermitian(h, scale)


def _expm_hermitian(h: np.ndarray, scale) -> np.ndarray:
    """expm_hermitian itself. gates calls it directly with an array scale:
    perfbench's tracer records each expm_hermitian call's scale as one
    float, which an array is not."""
    h = np.asarray(h, dtype=np.complex128)
    if not is_hermitian(h):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * scale * evals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def product_fidelity(us, vs) -> float:
    """|Tr(U V†)| / sqrt(Tr(U U†) Tr(V V†)) of the tensor products
    U = (x)_f us[f] and V = (x)_f vs[f], from their factors.

    Equals 1 exactly when V = e^{i gamma} U for some real gamma (for
    unitary inputs), and is insensitive to the global phase either way.
    Also well-defined for non-unitary inputs such as bath-reduced
    propagators, where the normalization keeps it in [0, 1]. Compare two
    single matrices as product_fidelity([u], [v]).

    The trace overlap and the Frobenius norms of a tensor product are the
    products of the factors' own, and a permutation of the tensor factors
    changes none of them. Each factor is a stack of one factor of
    `_product_fidelities`, so the result equals that of any grouping of
    equal-sized factors into stacks bit for bit.

    Raises
    ------
    DimensionMismatchError
        A factor of us and its partner in vs differ in shape.
    """
    return float(_product_fidelities([u[None] for u in us], [v[None] for v in vs]))


def _entry_sum(m: np.ndarray) -> np.ndarray:
    """The sum of the entries of each matrix of a stack, shape (..., d, d),
    the stack possibly empty. np.sum adds each matrix's d^2 entries
    pairwise, alike whatever the stack's length; a flat np.vdot over them
    drifts by ~1e-15 at d = 256, the products' own accuracy does not."""
    return m.reshape(*m.shape[:-2], m.shape[-2] * m.shape[-1]).sum(axis=-1)


def _product_fidelities(us, vs) -> np.ndarray:
    """product_fidelity for stacks of factor stacks: each of us and vs has
    shape (..., F, d, d), F factors of one size d on axis -3; the leading
    axes of all of them broadcast together, one fidelity per entry of them.
    A stack may be empty (F = 0); with every stack empty the result is the
    empty product, 1.0.

    Tr(u v†) = sum_ij u_ij conj(v_ij) takes O(d^2) elementwise sums in place
    of d x d products, three `_entry_sum` calls per stack whatever F is.
    The F overlaps of a stack, and the stacks in turn, are then multiplied
    in the given order in real arithmetic, as a Python complex product is,
    without the fused multiply-adds numpy's complex array product may use;
    so an entry of a stack rounds as the same factors compared alone, one
    at a time.
    """
    re, im, den = 1.0, 0.0, 1.0
    for u, v in zip(us, vs, strict=True):
        if u.shape[-3:] != v.shape[-3:]:
            raise DimensionMismatchError(f"shape mismatch: {u.shape} vs {v.shape}")
        z = _entry_sum(u * v.conj())
        norms = _entry_sum(u * u.conj()).real * _entry_sum(v * v.conj()).real
        # The factor axis first: a stack without leading axes then yields
        # numpy scalars, whose arithmetic is cheaper than 0-d arrays'.
        first = (z.ndim - 1, *range(z.ndim - 1))
        for zr, zi, nf in zip(*(w.transpose(first) for w in (z.real, z.imag, norms))):
            re, im = re * zr - im * zi, re * zi + im * zr
            den = den * nf
    # Cauchy-Schwarz bounds |num| <= sqrt(den); clamp the last-ulp excess.
    return np.minimum(np.hypot(re, im) / np.sqrt(den), 1.0)


def _orthonormal_frame(vectors) -> np.ndarray:
    """The vectors as the columns of one d x r matrix, checked orthonormal.

    Raises
    ------
    NotOrthonormalError
        If the Gram matrix of the input deviates from the identity.
    """
    frame = np.asarray(list(vectors), dtype=np.complex128).T
    if np.abs(frame.conj().T @ frame - np.eye(frame.shape[1])).max() > ATOL_STRUCT:
        raise NotOrthonormalError("basis vectors are not orthonormal within tolerance")
    return frame
