"""Sweep fidelities and decoupling-order rungs against a 40-digit
evaluation of the same model.

The exact side is independent of the engine's arithmetic: it is evaluated
in mpmath at 40 digits, and for a bath-qubit model it uses the symmetry of
the tau_x coupling instead of the doubled register. Every bath term is
sigma_i^a (x) tau_x^(i), and nothing else acts on the bath, so the register
splits over the tau_x eigenbasis |s> of the bath qubits, s in {+1, -1}^m:

    U = sum_s U(s) (x) |s><s|,   <0|_bath U |0>_bath = 2^-m sum_s U(s),

where U(s) is the decoupled system propagator under the scalar fields
s_i b_i^a. A scalar bath is the single term s = (). The fidelity is then
the per-factor formula |prod_f tr(u_f v_f†)| / sqrt(prod_f ||u_f||² ||v_f||²)
over the active system qubits and each idle system qubit alone.

The decoupling-order rungs are evaluated on each system qubit alone, with
its own bath qubit when there is one (2 or 4 dimensions), directly in
mpmath; the fidelity to the identity is the same per-factor formula.
"""

from __future__ import annotations

import itertools

import pytest

from dfsgates.gates import schedule_u1, schedule_u2
from dfsgates.noise import (
    IDEAL_PULSES,
    BathModel,
    DDErrorModel,
    InterleavingPlan,
    decoupling_order_probe,
    error_sweep,
)

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

DIGITS = 40


def _letters():
    one, zero, i = mp.mpf(1), mp.mpf(0), mp.mpc(0, 1)
    return (
        mp.matrix([[one, zero], [zero, one]]),
        mp.matrix([[zero, one], [one, zero]]),
        mp.matrix([[zero, -i], [i, zero]]),
        mp.matrix([[one, zero], [zero, -one]]),
    )


def _kron(factors):
    out = mp.matrix([[1]])
    for f in factors:
        rows, cols = out.rows * f.rows, out.cols * f.cols
        nxt = mp.matrix(rows, cols)
        for a in range(out.rows):
            for b in range(out.cols):
                for c in range(f.rows):
                    for d in range(f.cols):
                        nxt[a * f.rows + c, b * f.cols + d] = out[a, b] * f[c, d]
        out = nxt
    return out


def _pulse(axis: str, errors: DDErrorModel):
    eye, x, y, z = _letters()
    azimuth = 0 if axis == "x" else mp.pi / 2
    delta = mp.mpf(errors.delta)
    norm = mp.sqrt(1 + delta**2)
    direction = (mp.cos(azimuth) * x + mp.sin(azimuth) * y + delta * z) / norm
    angle = (1 + mp.mpf(errors.epsilon)) * mp.pi * norm
    return mp.cos(angle / 2) * eye - mp.mpc(0, 1) * mp.sin(angle / 2) * direction


def _operator(qubits, sites_letters, coef):
    """coef times the Pauli string with the given {qubit: letter} on qubits."""
    letters = _letters()
    return mp.mpc(coef.real, coef.imag) * _kron(
        [letters[sites_letters.get(q, 0)] for q in qubits])


def _factor_slices(schedule, bath, plan, qubits, with_identity, signs):
    """Slice exp(-i (area_s H_s + H_bath(signs)) / (4c)) of each segment, on
    the system qubits of one factor."""
    dim = 2 ** len(qubits)
    bath_h = mp.matrix(dim, dim)
    for q, s in zip(qubits, signs):
        for a in range(3):
            coupling = complex(bath.couplings[q - 1, a] * s)
            bath_h += _operator(qubits, {q: a + 1}, coupling)
    out = []
    for segment in schedule.segments:
        h = mp.matrix(dim, dim)
        for coef, string in segment.hamiltonian.terms:
            acts_on = {q + 1: c for q, c in enumerate(string.letters) if c}
            if set(acts_on) <= set(qubits) and (acts_on or with_identity):
                h += _operator(qubits, acts_on, coef)
        evals, vecs = mp.eighe(mp.mpf(segment.area) * h + bath_h)
        phases = [mp.expj(-x / (4 * plan.cycles_per_segment)) for x in evals]
        out.append(vecs * mp.diag(phases) * vecs.transpose_conj())
    return out


def _decoupled(slices, plan, m, errors):
    p_x = _kron([_pulse("x", errors)] * m)
    p_y = _kron([_pulse("y", errors)] * m)
    u = mp.eye(2**m)
    for f in slices:
        d = p_y * f * p_x * f
        for _ in range(2 * plan.cycles_per_segment):
            u = d * u
    return u


def exact_fidelities(schedule, bath, plan, error_models) -> list[float]:
    """The sweep's fidelity of each error model against ideal pulses, at
    40 digits."""
    n = schedule.n_physical
    active = sorted({
        q + 1 for seg in schedule.segments for _, s in seg.hamiltonian.terms
        for q, c in enumerate(s.letters) if c
    })
    # The active qubits, then each idle qubit alone (2 sign sets each, not
    # 2^m for one idle block).
    factors = [f for f in (active, *([q] for q in range(1, n + 1) if q not in active)) if f]
    with mp.workdps(DIGITS):
        nums = [mp.mpc(1)] * len(error_models)
        dens = [mp.mpf(1)] * len(error_models)
        for index, qubits in enumerate(factors):
            m = len(qubits)
            sign_sets = (list(itertools.product((1, -1), repeat=m))
                         if bath.kind == "qubit" else [(1,) * m])
            slices = [_factor_slices(schedule, bath, plan, qubits, index == 0, signs)
                      for signs in sign_sets]

            def reduced(errors):
                total = mp.matrix(2**m, 2**m)
                for s in slices:
                    total += _decoupled(s, plan, m, errors)
                return [x / len(sign_sets) for x in total]

            u = reduced(IDEAL_PULSES)
            for k, errors in enumerate(error_models):
                v = reduced(errors)
                nums[k] *= sum(x * mp.conj(y) for x, y in zip(u, v))
                dens[k] *= sum(abs(x) ** 2 for x in u) * sum(abs(y) ** 2 for y in v)
        return [float(abs(num) / mp.sqrt(den)) for num, den in zip(nums, dens)]


CASES = [
    pytest.param(schedule_u2(4, 1, 0.4), BathModel.random(4, 0.1, seed=4), 5,
                 id="n4-scalar-u2-c5"),
    pytest.param(schedule_u1(4, 2, 0.7), BathModel.random(4, 0.1, seed=4, kind="qubit"), 1,
                 id="n4-qubit-u1-c1"),
    pytest.param(schedule_u1(8, 3, 0.7), BathModel.random(8, 0.1, seed=4, kind="qubit"), 1,
                 id="n8-qubit-u1-c1"),
    pytest.param(schedule_u2(4, 2, 0.7), BathModel.random(4, 0.1, seed=1, kind="qubit"), 4,
                 id="n4-qubit-u2-c4"),
]


@pytest.mark.parametrize("schedule, bath, cycles", CASES)
def test_sweep_matches_40_digit_evaluation(schedule, bath, cycles):
    # n4-scalar-u2-c5 at flip error 0.1 is where the dense full-register
    # loop of tests/oracles.py is 1.6e-14 off the exact value. At
    # n4-qubit-u2-c4, flip error 0.1, a 64-dim factor of system qubits and
    # bath qubits was 1.02e-14 off; the sign-pattern stack is 1.9e-15 off.
    plan = InterleavingPlan(cycles)
    rows = error_sweep(schedule, plan, bath, {"flip": [0.1, -0.05], "detuning": [-0.1]})
    models = [DDErrorModel(epsilon=v) if k == "flip" else DDErrorModel(delta=v) for k, v, _ in rows]
    for (_, _, fid), exact in zip(rows, exact_fidelities(schedule, bath, plan, models)):
        assert abs(fid - exact) <= 3e-15


def exact_decouple_errors(bath, dt_values, total_time) -> list[float]:
    """1 - fidelity to the identity of each decoupling-order rung, at 40
    digits, from the XY-4 cycle of each system qubit and its bath qubit."""
    with mp.workdps(DIGITS):
        eye, *sigmas = _letters()
        p_x, p_y = _pulse("x", IDEAL_PULSES), _pulse("y", IDEAL_PULSES)
        if bath.kind == "qubit":
            sigmas = [_kron([sigma, sigmas[0]]) for sigma in sigmas]
            p_x, p_y = _kron([p_x, eye]), _kron([p_y, eye])
        stride = 1 if bath.kind == "scalar" else 2
        out = []
        for dt in dt_values:
            cycles = round(total_time / (4 * dt))
            num, den = mp.mpc(1), mp.mpf(1)
            for couplings in bath.couplings:
                h = mp.zeros(p_x.rows, p_x.cols)
                for b, sigma in zip(couplings, sigmas):
                    h += mp.mpf(b) * sigma
                evals, vecs = mp.eighe(h)
                f = vecs * mp.diag([mp.expj(-x * mp.mpf(dt)) for x in evals]) * vecs.transpose_conj()
                half = p_y * f * p_x * f
                u = mp.eye(p_x.rows)
                for _ in range(2 * cycles):
                    u = half * u
                block = [u[r, c] for r in range(0, u.rows, stride) for c in range(0, u.cols, stride)]
                num *= block[0] + block[3]
                den *= 2 * sum(abs(x) ** 2 for x in block)
            out.append(float(1 - abs(num) / mp.sqrt(den)))
        return out


@pytest.mark.parametrize("kind", ["scalar", "qubit"])
@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("seed", [2, 4])
def test_decouple_rungs_match_40_digit_evaluation(kind, n, seed):
    # Each rung is 1 - F near 1e-7, so the double-precision product of the
    # per-qubit overlaps leaves a relative error of ~1e-8 in it: on seeds
    # 0-7 at N = 4, 6 and 8 the largest was 1.12e-8 (seed 4), against
    # 3.6e-9 for the dense full-register probe where it can run.
    bath = BathModel.random(n, 0.1, seed=seed, kind=kind)
    ladder = [0.1, 0.05, 0.025]
    rungs = decoupling_order_probe(bath, ladder, 2.0)
    exact = exact_decouple_errors(bath, ladder, 2.0)
    assert [dt for dt, _ in rungs] == ladder
    for (_, err), want in zip(rungs, exact):
        assert abs(err - want) <= 2e-8 * want
