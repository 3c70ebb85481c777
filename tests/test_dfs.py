from __future__ import annotations

import numpy as np
import pytest

from dfsgates.dfs import (
    _compress,
    _support_matrix,
    build_logical_basis,
    dfs_decomposition,
    logical_image,
)
from dfsgates.errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    OddQubitCountError,
    TooFewQubitsError,
)
from dfsgates.pauli import (
    PauliString,
    PauliSum,
    build_decoupling_group,
    commutant_generators,
    commutant_split,
)
from conftest import two_body_strings
from oracles import (
    pauli_to_matrix,
    project_to_logical,
    sector_projector,
    string_logical_image,
    subspace_projector,
)

RSQRT2 = 1 / np.sqrt(2)

# The four n=4 logical states: label -> {computational index: amplitude}
N4_TABLE = {
    "00": {0b0000: RSQRT2, 0b1111: RSQRT2},
    "01": {0b1010: RSQRT2, 0b0101: RSQRT2},
    "10": {0b1100: RSQRT2, 0b0011: RSQRT2},
    "11": {0b0110: RSQRT2, 0b1001: RSQRT2},
}


class TestLogicalBasis:
    def test_n4_exact_amplitudes(self):
        basis = build_logical_basis(4)
        assert basis.labels == ("00", "01", "10", "11")
        for label, entries in N4_TABLE.items():
            vec = basis.states[int(label, 2)]
            expected = np.zeros(16, dtype=complex)
            for idx, amp in entries.items():
                expected[idx] = amp
            assert np.allclose(vec, expected, atol=1e-12)

    def test_states_are_plus_one_eigenvectors(self):
        for n in (4, 6):
            basis = build_logical_basis(n)
            group = build_decoupling_group(n)
            for element in group.elements:
                m = pauli_to_matrix(element)
                assert np.allclose(m @ basis.states.T, basis.states.T, atol=1e-12)

    def test_n6_shape(self):
        basis = build_logical_basis(6)
        assert len(basis.labels) == 16
        assert np.allclose(basis.states.conj() @ basis.states.T, np.eye(16), atol=1e-12)
        # every state is an equal two-term superposition
        for vec in basis.states:
            support = np.abs(vec) > 1e-12
            assert support.sum() == 2
            assert np.allclose(np.abs(vec[support]), RSQRT2, atol=1e-12)

    def test_encoding_rate(self):
        for n in (4, 6, 8):
            assert build_logical_basis(n).n_logical == n - 2

    def test_preconditions(self):
        with pytest.raises(OddQubitCountError):
            build_logical_basis(5)
        with pytest.raises(TooFewQubitsError):
            build_logical_basis(2)
        # Refused before the 2**(n-2) x 2**n array is allocated (16 GiB at
        # n = 16; n = 10 would need only 4 MiB if the cap were missing).
        for n in (10, 200):
            with pytest.raises(DimensionTooLargeError):
                build_logical_basis(n)


class TestSectorDecomposition:
    @pytest.mark.parametrize("n", [4, 6])
    def test_four_equal_sectors(self, n):
        group = build_decoupling_group(n)
        sectors = dfs_decomposition(group)
        assert len(sectors) == 4
        assert all(dim == 2 ** (n - 2) for _, dim in sectors)
        assert sum(dim for _, dim in sectors) == 2**n
        assert sectors[0][0] == (1, 1, 1, 1)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_dimensions_are_dense_projector_traces(self, n):
        group = build_decoupling_group(n)
        for (_, sx, _, sz), dim in dfs_decomposition(group):
            assert dim == np.trace(sector_projector(group, sx, sz))

    @pytest.mark.parametrize("n", [4, 6])
    def test_lambda_sector_matches_logical_basis(self, n):
        group = build_decoupling_group(n)
        basis = build_logical_basis(n)
        p_sector = sector_projector(group, 1, 1)
        p_basis = subspace_projector(basis.states)
        assert np.allclose(p_sector, p_basis, atol=1e-10)

    def test_commutant_generators_preserve_dfs(self):
        for n in (4, 6):
            basis = build_logical_basis(n)
            p = subspace_projector(basis.states)
            comp = np.eye(2**n) - p
            for gen in commutant_generators(n):
                g = pauli_to_matrix(gen)
                assert np.linalg.norm(comp @ g @ p, 2) <= 1e-12


class TestLogicalImage:
    """The stabilizer rule against the dense compression B† S B of the
    basis build_logical_basis constructs."""

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_generators_are_encoded_single_qubit_paulis(self, n):
        gens = commutant_generators(n)
        for j in range(1, n - 1):
            for gen, letter in ((gens[j - 1], "X"), (gens[n - 3 + j], "Z")):
                image = logical_image(PauliSum.from_terms(n, [(1.0, gen)]))
                assert image == PauliSum.from_terms(
                    n - 2, [(1.0, PauliString.from_sites(n - 2, {j: letter}))]
                )

    @pytest.mark.parametrize("n, commutant", [(4, 18), (6, 45), (8, 84)])
    def test_every_two_body_string_matches_dense_compression(self, n, commutant):
        basis = build_logical_basis(n)
        kept = 0
        for string in two_body_strings(n):
            h = PauliSum.from_terms(n, [(1.0, string)])
            image, dense = logical_image(h), project_to_logical(h.to_matrix(), basis)
            if not commutant_split(h)[1].terms:
                kept += 1
                assert image.n_terms == 1
                assert np.abs(image.to_matrix() - dense).max() <= 1e-15
            else:
                assert not image.terms
                assert np.abs(dense).max() <= 1e-15
        assert kept == commutant

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_random_strings_match_dense_compression(self, n, rng):
        basis = build_logical_basis(n)
        for _ in range(60):
            letters = tuple(int(c) for c in rng.integers(0, 4, n))
            h = PauliSum.from_terms(n, [(1.0, PauliString(n, letters, int(rng.integers(4))))])
            dense = project_to_logical(h.to_matrix(), basis)
            assert np.abs(logical_image(h).to_matrix() - dense).max() <= 1e-15

    def test_random_sums_are_compressed_term_by_term(self, rng):
        n = 6
        basis = build_logical_basis(n)
        for _ in range(10):
            h = PauliSum.from_terms(n, [
                (complex(*rng.normal(size=2)), PauliString(n, tuple(rng.integers(0, 4, n))))
                for _ in range(8)
            ])
            dense = project_to_logical(h.to_matrix(), basis)
            assert np.abs(logical_image(h).to_matrix() - dense).max() <= 1e-14

    def test_refuses_what_the_encoding_refuses(self):
        for n, error in ((5, OddQubitCountError), (2, TooFewQubitsError),
                         (10, DimensionTooLargeError)):
            with pytest.raises(error):
                logical_image(PauliSum.zero(n))


class TestMaskPass:
    """_compress, the one pass over a sum's terms on (x, z) bit masks,
    against the same rule by exact string products, commutant_split and
    PauliSum.restricted(...).to_matrix()."""

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_random_sums_match_string_rule_split_and_restriction(self, n, rng):
        stabilizers = [PauliString.uniform(n, letter) for letter in "XYZ"]
        for _ in range(40):
            strings = [PauliString(n, tuple(int(c) for c in rng.integers(0, 4, n)))
                       for _ in range(int(rng.integers(1, 8)))]
            # A string times a stabilizer has the same image: the two merge.
            strings += [s * stabilizers[int(rng.integers(3))] for s in strings[:2]]
            h = PauliSum.from_terms(n, [(complex(*rng.normal(size=2)), s) for s in strings])
            images, weight, count = _compress(h)
            image = logical_image(h)
            assert image == string_logical_image(h)
            leaking = commutant_split(h)[1]
            assert count == leaking.n_terms
            assert weight == sum(abs(c) for c, _ in leaking.terms)
            extra = {int(q) for q in rng.integers(1, n - 1, 2)}
            support = tuple(sorted(image.support() | extra))
            assert np.array_equal(_support_matrix(images, support, n - 2),
                                  image.restricted(support).to_matrix())

    def test_image_of_a_string_and_its_stabilizer_multiple_cancels(self):
        # X_1 X_2 and -(X_1 X_2)(X...X) = -X_3 X_4 act alike on the code space.
        h = PauliSum.from_text(4, "1.0*+XXII + -1.0*+IIXX")
        images, weight, count = _compress(h)
        assert images == {} and weight == 0 and count == 0
        assert not logical_image(h).terms


class TestProjectToLogical:
    def test_identity(self):
        basis = build_logical_basis(4)
        assert np.allclose(project_to_logical(np.eye(16), basis), np.eye(4), atol=1e-12)

    def test_global_x_acts_as_identity(self):
        basis = build_logical_basis(4)
        group = build_decoupling_group(4)
        m = project_to_logical(pauli_to_matrix(group.elements[1]), basis)
        assert np.allclose(m, np.eye(4), atol=1e-12)

    def test_leakage_detectable(self):
        # swap one code state with an orthogonal non-code state
        basis = build_logical_basis(4)
        outside = np.zeros(16, dtype=complex)
        outside[1] = 1.0  # |0001> has odd weight, not in the code space
        state = basis.states[int("00", 2)]
        u = np.eye(16, dtype=complex)
        u = u - np.outer(state, state.conj()) - np.outer(outside, outside.conj())
        u = u + np.outer(outside, state.conj()) + np.outer(state, outside.conj())
        m = project_to_logical(u, basis)
        assert np.linalg.norm(m.conj().T @ m - np.eye(4), 2) > 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            project_to_logical(np.eye(8), build_logical_basis(4))

