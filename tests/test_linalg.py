from __future__ import annotations

import numpy as np
import pytest

from conftest import expm_oracle, kron_oracle, random_hermitian, random_unitary
from dfsgates.errors import DimensionMismatchError, NotHermitianError, NotOrthonormalError
from dfsgates.linalg import (
    SIGMA_I,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _product_fidelities,
    expm_hermitian,
    is_hermitian,
    kron_all,
    product_fidelity,
)
from oracles import is_unitary, kron, per_factor_fidelities, subspace_projector


class TestKron:
    def test_identity_times_identity(self):
        assert np.allclose(kron(SIGMA_I, SIGMA_I), np.eye(4))

    def test_x_times_z_hand_entries(self):
        m = kron(SIGMA_X, SIGMA_Z)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = 1
        expected[1, 3] = -1
        expected[2, 0] = 1
        expected[3, 1] = -1
        assert np.array_equal(m, expected)

    def test_z_times_z_diagonal(self):
        assert np.allclose(kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))

    def test_against_index_oracle(self, rng):
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert np.allclose(kron(a, b), kron_oracle(a, b))

    def test_kron_all_ordering(self):
        # qubit 1 leftmost: Z on qubit 1 of two gives diag(1, 1, -1, -1)
        assert np.allclose(kron_all([SIGMA_Z, SIGMA_I]), np.diag([1, 1, -1, -1]))


class TestExpmHermitian:
    def test_sigma_z_pi(self):
        assert np.allclose(expm_hermitian(SIGMA_Z, np.pi), -np.eye(2), atol=1e-12)

    def test_zero_scale(self, rng):
        h = random_hermitian(8, rng)
        assert np.allclose(expm_hermitian(h, 0.0), np.eye(8), atol=1e-12)

    def test_sigma_x_half_pi(self):
        assert np.allclose(expm_hermitian(SIGMA_X, np.pi / 2), -1j * SIGMA_X, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            expm_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    @pytest.mark.parametrize("shape", [(5,), (2, 3)])
    def test_stack_matches_each_matrix(self, rng, shape):
        # One eigendecomposition call for a stack of factors; each matrix
        # of the result is the exponential of its own Hamiltonian.
        h = np.stack([random_hermitian(4, rng) for _ in range(np.prod(shape))])
        h = h.reshape(*shape, 4, 4)
        stacked = expm_hermitian(h, 0.7)
        assert stacked.shape == h.shape
        for index in np.ndindex(*shape):
            assert np.abs(stacked[index] - expm_hermitian(h[index], 0.7)).max() <= 1e-15
            assert np.allclose(stacked[index], expm_oracle(-0.7j * h[index]), atol=1e-12)

    @pytest.mark.parametrize("d", range(1, 17))
    def test_scale_per_matrix_equals_single_calls(self, rng, d):
        # An (S, 1) scale gives each matrix of the stack its own, in one
        # eigendecomposition call, bit for bit as the single calls.
        for size in (1, 2, 5):
            h = np.stack([random_hermitian(d, rng) for _ in range(size)])
            scales = rng.uniform(-3, 3, size=size)
            stacked = expm_hermitian(h, scales[:, None])
            for matrix, scale, u in zip(h, scales, stacked):
                assert np.array_equal(u, expm_hermitian(matrix, float(scale)))

    @pytest.mark.parametrize("d", [2, 4])
    def test_empty_stack(self, d):
        # A schedule on every system qubit leaves no idle per-qubit factor:
        # the empty stack is vacuously Hermitian and exponentiates to itself.
        empty = np.zeros((0, d, d), dtype=np.complex128)
        assert is_hermitian(empty)
        assert expm_hermitian(empty, 0.7).shape == (0, d, d)

    def test_stack_with_one_non_hermitian_matrix_rejected(self, rng):
        h = np.stack([random_hermitian(2, rng) for _ in range(4)])
        h[2, 0, 1] += 1e-3
        with pytest.raises(NotHermitianError):
            expm_hermitian(h, 1.0)

    def test_against_series_oracle(self, rng):
        for dim in (2, 8, 16):
            h = random_hermitian(dim, rng)
            s = rng.uniform(-2, 2)
            assert np.allclose(expm_hermitian(h, s), expm_oracle(-1j * s * h), atol=1e-10)

    def test_semigroup_and_unitarity(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 33))
            h = random_hermitian(dim, rng)
            s1, s2 = rng.uniform(-1.5, 1.5, size=2)
            u1, u2 = expm_hermitian(h, s1), expm_hermitian(h, s2)
            assert np.allclose(u1 @ u2, expm_hermitian(h, s1 + s2), atol=1e-10)
            assert is_unitary(u1)


def involutory_exp_oracle(h: np.ndarray, scale: float) -> np.ndarray:
    """exp(-i scale h) for h @ h = c I: cos(scale sqrt(c)) I - i sin(scale sqrt(c)) / sqrt(c) h."""
    dim = h.shape[0]
    root = np.sqrt(np.real(np.trace(h @ h)) / dim)
    assert np.allclose(h @ h, root**2 * np.eye(dim), atol=1e-10)
    return np.cos(scale * root) * np.eye(dim) - 1j * (np.sin(scale * root) / root) * h


class TestExpmInvolutory:
    """expm_hermitian on generators that square to a multiple of the
    identity, as every gate segment does, against the closed form."""

    def test_zz_half_pi(self):
        zz = kron(SIGMA_Z, SIGMA_Z)
        assert np.allclose(expm_hermitian(zz, np.pi / 2), -1j * zz, atol=1e-12)

    def test_cos_sin_combination_of_anticommuting_pair(self):
        # A = Z (x) Z and B = X (x) I anticommute, so h**2 = I for any theta
        a, b = kron(SIGMA_Z, SIGMA_Z), kron(SIGMA_X, SIGMA_I)
        for theta in (0.0, 0.3, np.pi / 4, 1.0, np.pi / 2):
            h = np.cos(theta) * a + np.sin(theta) * b
            assert np.allclose(h @ h, np.eye(4), atol=1e-12)
            assert np.allclose(
                expm_hermitian(h, 0.7), involutory_exp_oracle(h, 0.7), atol=1e-10
            )

    def test_agrees_with_general_path_random(self, rng):
        # h = V diag(+-sqrt(c)) V† squares to c * I
        for _ in range(100):
            dim = int(2 ** rng.integers(1, 7))
            v = random_unitary(dim, rng)
            signs = rng.choice([-1.0, 1.0], size=dim)
            c = rng.uniform(0.2, 3.0)
            h = (v * (np.sqrt(c) * signs)) @ v.conj().T
            h = (h + h.conj().T) / 2
            s = rng.uniform(-2, 2)
            assert np.allclose(
                expm_hermitian(h, s), involutory_exp_oracle(h, s), atol=1e-10
            )


def trace_fidelity(u, v):
    """|Tr(u v†)| / sqrt(Tr(u u†) Tr(v v†)) from the d x d products themselves."""
    num = abs(np.trace(u @ v.conj().T))
    den = np.sqrt(np.real(np.trace(u @ u.conj().T)) * np.real(np.trace(v @ v.conj().T)))
    return float(min(num / den, 1.0))


class TestPhaseInvariantFidelity:
    def test_self(self, rng):
        u = random_unitary(8, rng)
        assert product_fidelity([u], [u]) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase(self, rng):
        u = random_unitary(8, rng)
        assert product_fidelity([u], [-u]) == pytest.approx(1.0, abs=1e-12)
        assert product_fidelity([u], [np.exp(0.31j) * u]) == pytest.approx(1.0, abs=1e-12)

    def test_identity_vs_x(self):
        assert product_fidelity([SIGMA_I], [SIGMA_X]) == pytest.approx(0.0, abs=1e-12)

    def test_range_and_symmetry(self, rng):
        for _ in range(25):
            u, v = random_unitary(8, rng), random_unitary(8, rng)
            f = product_fidelity([u], [v])
            assert 0.0 <= f <= 1.0
            assert f == pytest.approx(product_fidelity([v], [u]), abs=1e-12)

    def test_strictly_below_one_off_phase(self, rng):
        u = random_unitary(4, rng)
        v = u @ expm_hermitian(kron(SIGMA_Z, SIGMA_I), 0.2)
        assert product_fidelity([u], [v]) < 1 - 1e-4

    @pytest.mark.parametrize("dim", [4, 16, 64, 256])
    def test_matches_trace_formula(self, rng, dim):
        # Unitary pairs, near-equal and unrelated, and their strided blocks:
        # the non-unitary shape of a bath-reduced propagator.
        stride = 2 ** (dim.bit_length() // 2)
        for _ in range(8):
            u = random_unitary(dim, rng)
            for v in (u @ expm_hermitian(random_hermitian(dim, rng), 1e-3),
                      random_unitary(dim, rng)):
                for a, b in ((u, v), (u[::stride, ::stride], v[::stride, ::stride])):
                    assert abs(product_fidelity([a], [b]) - trace_fidelity(a, b)) <= 1e-15

    def test_product_matches_kron(self, rng):
        # Factor pairs of 2 to 16 dimensions, unitary and strided blocks:
        # the fidelity of the Kronecker products, read from the factors.
        for dims in ((8, 2), (4, 16), (2, 4, 8)):
            us = [random_unitary(d, rng) for d in dims]
            vs = [u @ expm_hermitian(random_hermitian(len(u), rng), 0.3) for u in us]
            for a, b in ((us, vs), ([u[::2, ::2] for u in us], [v[::2, ::2] for v in vs])):
                full_a, full_b = a[0], b[0]
                for x, y in zip(a[1:], b[1:]):
                    full_a, full_b = kron_oracle(full_a, x), kron_oracle(full_b, y)
                assert abs(product_fidelity(a, b) - trace_fidelity(full_a, full_b)) <= 1e-15
        with pytest.raises(ValueError):
            product_fidelity(us, vs[:-1])

    def test_factor_shapes_must_match(self, rng):
        # A (2, 2) factor against a (1, 2) one broadcast to a fidelity.
        u, v = random_unitary(4, rng), random_unitary(2, rng)
        with pytest.raises(DimensionMismatchError):
            product_fidelity([u, v], [u, v[:1]])
        with pytest.raises(DimensionMismatchError):
            product_fidelity([u], [u[:2, :2]])

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_factor_stacks_equal_per_factor_form(self, rng, count):
        # Stacks of `count` factors of 2, 4 and 8 dimensions, near-unitary
        # and unrelated, the first side with a leading axis of 3 entries:
        # each entry equals its factors compared one at a time, bit for
        # bit, and an empty stack is the empty product.
        us, vs = [], []
        for d in (2, 4, 8):
            u = np.array([[random_unitary(d, rng) for _ in range(count)] for _ in range(3)])
            us.append(u.reshape(3, count, d, d))
            vs.append(np.array([u[0, f] @ expm_hermitian(random_hermitian(d, rng), 0.2)
                                if f % 2 else random_unitary(d, rng)
                                for f in range(count)]).reshape(count, d, d))
        got = _product_fidelities(us, vs)
        want = per_factor_fidelities([u[:, f] for u in us for f in range(count)],
                                     [v[f] for v in vs for f in range(count)])
        assert np.shape(got) == ((3,) if count else ())
        assert np.array_equal(got, want)
        assert np.array_equal(_product_fidelities(us[2:], vs[2:]),
                              per_factor_fidelities(list(us[2].swapaxes(0, 1)), list(vs[2])))
        # A stack of one factor more, and of smaller factors.
        for bad in (np.zeros((count + 1, 8, 8)), vs[2][..., :4, :4]):
            with pytest.raises(DimensionMismatchError):
                _product_fidelities(us, [vs[0], vs[1], bad])


class TestSubspaceProjector:
    def test_rank_one(self):
        v = np.array([1, 1j]) / np.sqrt(2)
        p = subspace_projector([v])
        assert np.trace(p) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, p.conj().T, atol=1e-12)

    def test_full_basis_gives_identity(self, rng):
        u = random_unitary(8, rng)
        assert np.allclose(subspace_projector(list(u.T)), np.eye(8), atol=1e-12)

    def test_rejects_non_orthonormal(self):
        v = np.array([1, 0], dtype=complex)
        with pytest.raises(NotOrthonormalError):
            subspace_projector([v, v])
