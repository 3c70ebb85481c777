from __future__ import annotations

import itertools

import numpy as np
import pytest

from dfsgates.errors import (
    BadPartitionError,
    DimensionTooLargeError,
    LengthMismatchError,
    OddQubitCountError,
    TooFewQubitsError,
)
from dfsgates.gates import schedule_u1, schedule_u2, schedule_u3
from dfsgates.linalg import SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z, kron_all
from dfsgates.pauli import (
    PauliString,
    PauliSum,
    build_decoupling_group,
    commutant_generators,
    commutant_split,
    commutes,
    group_average,
)
from oracles import pauli_to_matrix, sums_isclose


def numeric_group_average(h: PauliSum, group) -> np.ndarray:
    """Dense (1/4) sum g† H g, the independent route for the symbolic map."""
    hm = h.to_matrix()
    out = np.zeros_like(hm)
    for g in group.elements:
        gm = pauli_to_matrix(g)
        out += gm.conj().T @ hm @ gm
    return out / 4


def kron_matrix(p: PauliString) -> np.ndarray:
    """The N-factor Kronecker product, the oracle for the signed permutation."""
    letters = (SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z)
    return p.phase_value * kron_all(letters[c] for c in p.letters)


def kron_sum(h: PauliSum) -> np.ndarray:
    out = np.zeros((2**h.n_qubits,) * 2, dtype=np.complex128)
    for coef, string in h.terms:
        out += coef * kron_matrix(string)
    return out


def phased_strings(n: int) -> list[PauliString]:
    """Every string on n qubits under each of the four phases."""
    return [PauliString(n, letters, phase)
            for letters in itertools.product(range(4), repeat=n) for phase in range(4)]


def random_string(n: int, rng) -> PauliString:
    return PauliString(n, tuple(rng.integers(0, 4, n)), int(rng.integers(0, 4)))


class TestProducts:
    def test_z_times_x_is_plus_i_y(self):
        z = PauliString.from_label("+Z")
        x = PauliString.from_label("+X")
        assert (z * x).label == "+iY"

    def test_global_x_squares_to_identity(self):
        x4 = PauliString.uniform(4, "X")
        assert (x4 * x4).label == "+IIII"

    def test_x4_times_z4_phase(self):
        # per qubit XZ = -iY, so the product is (-i)**4 Y...Y = +Y...Y
        x4 = PauliString.uniform(4, "X")
        z4 = PauliString.uniform(4, "Z")
        assert (x4 * z4).label == "+YYYY"

    def test_label_round_trip(self):
        for text in ("+XIZY", "-iYY", "-ZZ", "+iIXIX"):
            assert PauliString.from_label(text).label == text

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            PauliString.uniform(2, "X") * PauliString.uniform(3, "X")

    @pytest.mark.parametrize("n", [1, 2])
    def test_homomorphism_exhaustive_phased(self, n):
        # all 16 x 16 (n = 1) and 64 x 64 (n = 2) ordered pairs, every phase,
        # exactly against the Kronecker products of SIGMA
        strings = phased_strings(n)
        mats = [kron_matrix(p) for p in strings]
        for a, am in zip(strings, mats):
            for b, bm in zip(strings, mats):
                assert (kron_matrix(a * b) == am @ bm).all(), (a.label, b.label)

    def test_homomorphism_randomized(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 9))
            a, b = random_string(n, rng), random_string(n, rng)
            assert (kron_matrix(a * b) == kron_matrix(a) @ kron_matrix(b)).all(), (
                a.label, b.label)


class TestSignedPermutation:
    def test_every_string_up_to_three_qubits(self):
        for n in (1, 2, 3):
            for p in phased_strings(n):
                assert (pauli_to_matrix(p) == kron_matrix(p)).all(), p.label

    def test_sampled_eight_qubit_strings(self, rng):
        for _ in range(64):
            p = random_string(8, rng)
            assert (pauli_to_matrix(p) == kron_matrix(p)).all(), p.label

    def test_all_y_signs(self):
        # Every Z and Y bit set: the sign is (-1)**popcount(b) over all 256
        # columns, where 1 - 2*parity in an unsigned dtype wrapped to 255.
        for letter in "YZ":
            p = PauliString.uniform(8, letter)
            m = pauli_to_matrix(p)
            assert (m == kron_matrix(p)).all()
            assert set(np.abs(m[m != 0])) == {1.0}

    def test_sums_match_kron_sums(self, rng):
        sums = [segment.hamiltonian
                for schedule in (schedule_u1(8, 6, 0.9), schedule_u2(8, 3, 0.4),
                                 schedule_u3(8, 2, 5, 0.9))
                for segment in schedule.segments]
        for _ in range(40):
            n = int(rng.integers(1, 9))
            sums.append(PauliSum.from_terms(n, [
                (complex(*rng.normal(size=2)), PauliString(n, tuple(rng.integers(0, 4, n))))
                for _ in range(int(rng.integers(1, 7)))
            ]))
        for h in sums:
            dense = kron_sum(h)
            assert (h.to_matrix() == dense).all()

    def test_sum_above_max_qubits_rejected(self):
        with pytest.raises(DimensionTooLargeError):
            PauliSum.zero(9).to_matrix()


class TestMatrices:
    def test_identity(self):
        assert np.allclose(pauli_to_matrix(PauliString.identity(2)), np.eye(4))

    def test_xx_antidiagonal(self):
        m = pauli_to_matrix(PauliString.uniform(2, "X"))
        assert np.allclose(m, np.fliplr(np.eye(4)))

    def test_negative_phase_z1(self):
        m = pauli_to_matrix(PauliString.from_sites(2, {1: "Z"}, phase=2))
        assert np.allclose(m, np.diag([-1, -1, 1, 1]))

    def test_nine_qubits_rejected(self):
        with pytest.raises(DimensionTooLargeError):
            pauli_to_matrix(PauliString.identity(9))


class TestCommutes:
    def test_x1x2_vs_global_x(self):
        a = PauliString.from_sites(4, {1: "X", 2: "X"})
        assert commutes(a, PauliString.uniform(4, "X"))

    def test_x1x2_vs_global_z(self):
        a = PauliString.from_sites(4, {1: "X", 2: "X"})
        assert commutes(a, PauliString.uniform(4, "Z"))

    def test_single_x_vs_global_z(self):
        a = PauliString.from_sites(4, {1: "X"})
        assert not commutes(a, PauliString.uniform(4, "Z"))

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_matrix_commutator_exhaustive(self, n):
        strings = phased_strings(n)
        mats = [kron_matrix(p) for p in strings]
        for a, am in zip(strings, mats):
            for b, bm in zip(strings, mats):
                assert commutes(a, b) == (am @ bm == bm @ am).all(), (a.label, b.label)

    def test_matches_matrix_commutator(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            a, b = random_string(n, rng), random_string(n, rng)
            am, bm = kron_matrix(a), kron_matrix(b)
            assert commutes(a, b) == (am @ bm == bm @ am).all(), (a.label, b.label)


class TestDecouplingGroup:
    def test_n4_elements(self):
        group = build_decoupling_group(4)
        assert [g.label for g in group.elements] == ["+IIII", "+XXXX", "+YYYY", "+ZZZZ"]

    def test_n2_elements(self):
        # (ZX) (x) (ZX) = (i sigma_y)**2 carries phase i**2 = -1
        group = build_decoupling_group(2)
        assert [g.label for g in group.elements] == ["+II", "+XX", "-YY", "+ZZ"]

    def test_odd_n_rejected(self):
        with pytest.raises(OddQubitCountError):
            build_decoupling_group(3)

    def test_projectively_abelian(self):
        group = build_decoupling_group(6)
        for a in group.elements:
            for b in group.elements:
                assert (a * b).letters == (b * a).letters


class TestGroupAverage:
    def test_single_qubit_term_killed(self):
        group = build_decoupling_group(4)
        h = PauliSum.from_terms(4, [(0.7, PauliString.from_sites(4, {1: "X"}))])
        assert not group_average(h, group).terms

    def test_commutant_term_unchanged(self):
        group = build_decoupling_group(4)
        h = PauliSum.from_terms(4, [(0.7, PauliString.from_sites(4, {1: "X", 2: "X"}))])
        assert sums_isclose(group_average(h, group), h)

    def test_zero_in_zero_out(self):
        group = build_decoupling_group(4)
        assert not group_average(PauliSum.zero(4), group).terms

    def test_idempotent_and_commutes_with_group(self, rng):
        group = build_decoupling_group(4)
        for _ in range(20):
            terms = [
                (rng.normal(), PauliString(4, tuple(rng.integers(0, 4, 4))))
                for _ in range(6)
            ]
            h = PauliSum.from_terms(4, terms)
            avg = group_average(h, group)
            assert sums_isclose(avg, group_average(avg, group))
            for _, string in avg.terms:
                assert all(commutes(string, g) for g in group.elements)

    def test_matches_numeric_conjugation(self, rng):
        group = build_decoupling_group(4)
        for _ in range(10):
            terms = [
                (rng.normal(), PauliString(4, tuple(rng.integers(0, 4, 4))))
                for _ in range(5)
            ]
            h = PauliSum.from_terms(4, terms)
            assert np.allclose(
                group_average(h, group).to_matrix(),
                numeric_group_average(h, group),
                atol=1e-12,
            )

    def test_full_system_bath_coupling_vanishes(self, rng):
        # every single-qubit term anticommutes with exactly two group elements
        for n in (4, 6):
            group = build_decoupling_group(n)
            terms = [
                (rng.normal(), PauliString.from_sites(n, {i + 1: axis}))
                for i in range(n)
                for axis in "XYZ"
            ]
            h = PauliSum.from_terms(n, terms)
            assert group_average(h, group).n_terms == 0


class TestCommutantGenerators:
    def test_n4_set(self):
        labels = {g.label for g in commutant_generators(4)}
        assert labels == {"+XXII", "+XIXI", "+IZIZ", "+IIZZ"}

    def test_all_commute_with_group(self):
        for n in (4, 6):
            group = build_decoupling_group(n)
            for gen in commutant_generators(n):
                assert all(commutes(gen, g) for g in group.elements)

    def test_count(self):
        assert len(commutant_generators(6)) == 8

    def test_preconditions(self):
        with pytest.raises(OddQubitCountError):
            commutant_generators(5)
        with pytest.raises(TooFewQubitsError):
            commutant_generators(2)


class TestPauliSum:
    def test_text_round_trip(self):
        h = PauliSum.from_terms(
            4,
            [
                (0.25, PauliString.from_sites(4, {2: "Z", 4: "Z"})),
                (-1.5, PauliString.from_sites(4, {1: "X", 2: "X"})),
            ],
        )
        assert sums_isclose(PauliSum.from_text(4, h.text()), h)
        assert not PauliSum.from_text(4, PauliSum.zero(4).text()).terms

    def test_phase_folded_into_coefficient(self):
        h = PauliSum.from_terms(2, [(2.0, PauliString.from_label("-iXY"))])
        ((coef, string),) = h.terms
        assert string.phase == 0
        assert coef == -2j

    @pytest.mark.parametrize("text, message", [
        ("1.0*+XQII", "Pauli letter 'Q' in '+XQII'"),
        ("1.0*+XX+1.0*+ZZ", "Pauli letter '+' in '+XX+1.0*+ZZ'"),
        ("1.0 XXII", "term '1.0 XXII' is not of the form <coef>*<string>"),
        ("one*+XXII", "coefficient 'one' of term 'one*+XXII' is not a number"),
        ("0.5*+XXII + 1.0*-iZQ", "Pauli letter 'Q' in '-iZQ'"),
    ])
    def test_malformed_text_names_the_bad_part(self, text, message):
        # These raised "substring not found", "not enough values to unpack"
        # and "complex() arg is a malformed string".
        with pytest.raises(ValueError) as exc:
            PauliSum.from_text(4, text)
        assert str(exc.value).startswith(message)

    def test_unknown_letter_in_label(self):
        with pytest.raises(ValueError, match="Pauli letter 'x' in 'xx'"):
            PauliString.from_label("xx")


def _sum(n, *terms):
    return PauliSum.from_terms(n, [(c, PauliString.from_label(label)) for c, label in terms])


class TestRestriction:
    def test_support(self):
        h = _sum(5, (0.5, "XIIZI"), (0.2, "IIIZI"), (1.0, "IIIII"))
        assert h.support() == {1, 4}
        assert PauliSum.zero(3).support() == frozenset()

    def test_terms_on_sites_in_given_order(self):
        h = _sum(5, (0.5, "XIYII"), (-0.25, "IZIII"), (0.75, "IIIXZ"))
        assert sums_isclose(h.restricted([3, 1]), _sum(2, (0.5, "YX")))
        assert sums_isclose(h.restricted([2, 4, 5]), _sum(3, (-0.25, "ZII"), (0.75, "IXZ")))

    def test_identity_term_kept(self):
        h = _sum(4, (0.3, "IIII"), (1.0, "XXII"))
        assert sums_isclose(h.restricted([1, 2]), _sum(2, (0.3, "II"), (1.0, "XX")))
        assert sums_isclose(h.restricted([3, 4]), _sum(2, (0.3, "II")))

    def test_sum_splits_as_kron_sum(self, rng):
        # H = H_in (x) I + I (x) H_out for sites 1, 2 against 3, 4, with the
        # identity term in the restricted factor H_in only
        coefs = rng.normal(size=4)
        h = _sum(4, (coefs[0], "XZII"), (coefs[1], "IIYY"), (coefs[2], "IIIZ"), (coefs[3], "IIII"))
        inside = h.restricted([1, 2]).to_matrix()
        outside = _sum(2, (coefs[1], "YY"), (coefs[2], "IZ"))
        assert sums_isclose(h.restricted([3, 4]), outside + _sum(2, (coefs[3], "II")))
        expected = np.kron(inside, np.eye(4)) + np.kron(np.eye(4), outside.to_matrix())
        assert np.abs(h.to_matrix() - expected).max() == 0

    def test_straddling_term_rejected(self):
        h = _sum(4, (1.0, "XIIX"), (1.0, "ZZII"))
        with pytest.raises(BadPartitionError, match="XIIX"):
            h.restricted([1, 2])
        with pytest.raises(BadPartitionError):
            h.restricted([3, 4])


class TestCommutantSplit:
    @pytest.mark.parametrize("schedule", [
        schedule_u1(6, 2, 0.3), schedule_u2(6, 1, 0.9), schedule_u3(6, 1, 4, 0.5)])
    def test_gate_hamiltonians_do_not_leak(self, schedule):
        for segment in schedule.segments:
            kept, leaking = commutant_split(segment.hamiltonian)
            assert kept == segment.hamiltonian and not leaking.terms

    def test_leaking_terms_split_off(self):
        # X_2 anticommutes with Z...Z, Z_1 with X...X, Y_1 with both; X_1 X_2
        # and the identity commute with both.
        h = _sum(4, (0.2, "IXII"), (0.3, "ZIII"), (0.4, "YIII"), (1.0, "XXII"), (0.5, "IIII"))
        kept, leaking = commutant_split(h)
        assert sums_isclose(kept, _sum(4, (1.0, "XXII"), (0.5, "IIII")))
        assert sums_isclose(leaking, _sum(4, (0.2, "IXII"), (0.3, "ZIII"), (0.4, "YIII")))
        assert sums_isclose(kept + leaking, h)
        group = build_decoupling_group(4)
        assert sums_isclose(group_average(h, group), kept)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_group_average(self, n, rng):
        # the commutant by the masks' parities against the commutant by the
        # group's character sums, on random phased sums
        group = build_decoupling_group(n)
        for _ in range(100):
            h = PauliSum.from_terms(n, [
                (complex(*rng.normal(size=2)), random_string(n, rng))
                for _ in range(int(rng.integers(1, 9)))
            ])
            assert group_average(h, group) == commutant_split(h)[0]
