from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfsgates.cli as cli
from dfsgates import dfs, gates, pauli
from dfsgates.cli import MAX_BATH_WIDTH, MAX_GRID_STEPS, _grid_steps, main
from dfsgates.noise import MAX_CYCLES_PER_SEGMENT
from dfsgates.pauli import PauliSum


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_u1_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--gate", "u1", "--n", "4", "--j", "1",
            "--angle", str(np.pi / 4),
        )
        assert code == 0
        assert "gate_fidelity" in out
        assert "FAIL" not in out

    def test_u2_n6_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--gate", "u2", "--n", "6", "--j", "3", "--angle", "1.0",
        )
        assert code == 0
        assert out.strip().endswith("result: PASS")

    def test_u3_includes_swap_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--gate", "u3")
        assert code == 0
        assert "subspace_swap" in out

    def test_bad_index_pair_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--gate", "u3", "--n", "4", "--k", "2", "--l", "1",
        )
        assert code == 2
        assert "error:" in err

    def test_odd_n_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--gate", "u1", "--n", "5")
        assert code == 2

    @pytest.mark.parametrize("gate, target", [
        ("u1", ["--j", "6"]), ("u2", ["--j", "2"]), ("u3", ["--k", "2", "--l", "5"]),
    ])
    def test_n8_all_rows_pass(self, capsys, gate, target):
        code, out, _ = run_cli(capsys, "verify", "--gate", gate, "--n", "8", *target,
                               "--angle", "0.9")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("  ")]
        assert len(rows) == (6 if gate == "u3" else 5)
        assert all(row.endswith("PASS") for row in rows)
        assert out.strip().endswith("result: PASS")

    @pytest.mark.parametrize("gate, target, segments", [
        ("u1", ["--j", "6"], 2), ("u2", ["--j", "3"], 4), ("u3", ["--k", "2", "--l", "5"], 2),
    ])
    def test_n8_splits_each_segment_once_and_forms_no_full_size_gate(
            self, capsys, monkeypatch, gate, target, segments):
        # The rows come off the report on the gate's logical support: one mask
        # pass per segment, no Pauli-sum round trip, no 64 x 64 gate.
        def refuse(*args, **kwargs):
            raise AssertionError("full-size work on the verify path")

        for owner, name in ((gates, "_embed"), (dfs, "logical_image"), (PauliSum, "restricted"),
                            (pauli, "commutant_split"), (gates, "commutant_split")):
            monkeypatch.setattr(owner, name, refuse)
        passes = []
        compress = gates._compress
        monkeypatch.setattr(gates, "_compress", lambda h: passes.append(h) or compress(h))
        code, out, _ = run_cli(capsys, "verify", "--gate", gate, "--n", "8", *target,
                               "--angle", "0.9")
        assert code == 0
        assert out.strip().endswith("result: PASS")
        assert len(passes) == segments

    def test_stdout_matches_golden_bytes(self, capsys):
        # u1, u2 and u3 at N = 4, 6, 8 on the targets next to qubits 1 and N,
        # at three angles; the file holds their outputs in this order, each
        # headed by its own "verify ..." line.
        golden = (Path(__file__).parent / "golden" / "verify_stdout.txt").read_bytes()
        out = []
        for n in (4, 6, 8):
            for angle in ([], ["--angle=-1.3"], ["--angle=2.5"]):
                targets = [(gate, "--j", str(j)) for gate in ("u1", "u2") for j in (1, n - 2)]
                targets.append(("u3", "--k", "1", "--l", str(n - 2)))
                for gate, *target in targets:
                    code, text, _ = run_cli(capsys, "verify", "--n", str(n), "--gate", gate,
                                            *target, *angle)
                    assert code == 0
                    out.append(text)
        assert "".join(out).encode() == golden


class TestSweep:
    def test_default_grid_and_golden_rows(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--cycles", "2", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        header, rows = lines[0], lines[1:]
        assert header == "error_kind,error_value,fidelity,seed,plan_cycles,gate,theta_or_phi"
        assert len(rows) == 2 * 41
        kinds = [row.split(",")[0] for row in rows]
        assert kinds == sorted(kinds)  # detuning block, then flip block
        by_key = {(r.split(",")[0], float(r.split(",")[1])): float(r.split(",")[2]) for r in rows}
        assert by_key[("flip", 0.0)] >= 1 - 1e-9
        assert by_key[("detuning", 0.0)] >= 1 - 1e-9
        # Rows written by the pulse-by-pulse interleaving loop.
        for golden in (
            "detuning,-0.1,0.979052578400,0,2,u3,0.785398163397",
            "detuning,0,1.000000000000,0,2,u3,0.785398163397",
            "detuning,0.05,0.996782462116,0,2,u3,0.785398163397",
            "flip,-0.05,0.989647282870,0,2,u3,0.785398163397",
            "flip,0,1.000000000000,0,2,u3,0.785398163397",
            "flip,0.1,0.925688819600,0,2,u3,0.785398163397",
        ):
            assert golden in rows

    # Whole CSVs on 256-dimensional registers, recorded with dense global
    # pulses and slice propagators rebuilt for every sweep point.
    @pytest.mark.parametrize("argv, golden", [
        (["--n", "8", "--bath", "scalar", "--gate", "u3", "--k", "2", "--l", "5",
          "--angle", "0.9", "--seed", "4"], [
            "detuning,-0.1,0.964359698460,4,2,u3,0.9",
            "detuning,-0.05,0.994937603213,4,2,u3,0.9",
            "detuning,0,1.000000000000,4,2,u3,0.9",
            "flip,0,1.000000000000,4,2,u3,0.9",
            "flip,0.05,0.980853881622,4,2,u3,0.9",
            "flip,0.1,0.836882524176,4,2,u3,0.9",
        ]),
        (["--n", "4", "--bath", "qubit", "--gate", "u1", "--j", "2",
          "--angle", "0.6", "--seed", "3"], [
            "detuning,-0.1,0.978085379328,3,2,u1,0.6",
            "detuning,-0.05,0.997222753229,3,2,u1,0.6",
            "detuning,0,1.000000000000,3,2,u1,0.6",
            "flip,0,1.000000000000,3,2,u1,0.6",
            "flip,0.05,0.989860862780,3,2,u1,0.6",
            "flip,0.1,0.899390358499,3,2,u1,0.6",
        ]),
        # 8 sign patterns x 4 segments of 4-dim slices, each pulsed on both
        # qubits; recorded with the pulses applied one qubit at a time.
        (["--n", "4", "--bath", "qubit", "--gate", "u2", "--j", "2",
          "--angle", "0.6", "--seed", "3"], [
            "detuning,-0.1,0.951627251776,3,2,u2,0.6",
            "detuning,-0.05,0.995504724525,3,2,u2,0.6",
            "detuning,0,1.000000000000,3,2,u2,0.6",
            "flip,0,1.000000000000,3,2,u2,0.6",
            "flip,0.05,0.978643181218,3,2,u2,0.6",
            "flip,0.1,0.755769303268,3,2,u2,0.6",
        ]),
    ], ids=["n8-scalar-u3", "n4-qubit-u1", "n4-qubit-u2"])
    def test_golden_rows_256_dims(self, capsys, tmp_path, argv, golden):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", *argv, "--cycles", "2", "--eps-range=0:0.1",
            "--delta-range=-0.1:0", "--step", "0.05", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().splitlines()[1:] == golden

    def test_readme_sweep_matches_golden_bytes(self, capsys, tmp_path):
        # The README's `dfsgates sweep`: u3 at N = 4, no bath, the default
        # grid, 82 rows; recorded with the pulses applied one qubit at a time.
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--out", str(out_path))
        assert code == 0 and out == f"wrote 82 rows to {out_path}\n"
        golden = Path(__file__).parent / "golden" / "sweep_default.csv"
        assert out_path.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("gate", ["u1", "u2", "u3"])
    def test_qubit_bath_runs_at_n8(self, capsys, tmp_path, gate):
        # The doubled register has 2**16 dimensions. The sweep evaluates the
        # gate's system qubits (at most 8 dimensions, for each of at most 8
        # tau_x sign patterns of their bath qubits) and one 2x2 pair per
        # idle qubit; one idle block of 5 system and 5 bath qubits exited 2.
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--n", "8", "--bath", "qubit", "--gate", gate,
            "--step", "0.05", "--out", str(out_path),
        )
        assert code == 0 and err == ""
        rows = [row.split(",") for row in out_path.read_text().splitlines()[1:]]
        zero = [row for row in rows if row[1] == "0"]
        assert [row[0] for row in zero] == ["detuning", "flip"]
        assert all(row[2] == "1.000000000000" for row in zero)

    def test_monotone_near_zero(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--cycles", "2", "--eps-range", "0:0.02",
            "--delta-range", "0:0.02", "--step", "0.005", "--out", str(out_path),
        )
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        flip = [float(r.split(",")[2]) for r in rows if r.startswith("flip,")]
        assert all(a >= b - 1e-6 for a, b in zip(flip, flip[1:]))

    def test_byte_identical_reruns(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                capsys, "sweep", "--cycles", "1", "--step", "0.05", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_grid_stays_within_range(self, capsys, tmp_path):
        # A step that does not divide the range rounded up to 0.12 past hi.
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--eps-range", "0:0.1", "--delta-range", "0:0.1",
            "--step", "0.06", "--out", str(out_path),
        )
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        assert len(rows) == 4
        assert all(0 <= float(row.split(",")[1]) <= 0.1 for row in rows)

    def test_grid_that_rounds_to_repeated_points_refused(self, capsys, tmp_path,
                                                          monkeypatch):
        # Points are rounded to 12 decimals: a 1e-13 step wrote 52 rows
        # holding 6 distinct flip values.
        def no_evolution(*args):
            raise AssertionError("evolution ran")

        monkeypatch.setattr(cli, "error_sweep", no_evolution)
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--eps-range=0:5e-12", "--delta-range=0:0", "--step", "1e-13",
            "--out", str(out_path),
        )
        assert code == 2
        assert err.startswith("error: grid 0:5e-12 at step 1e-13 repeats points")
        assert not out_path.exists()

    def test_grid_that_prints_repeated_values_refused(self, capsys, tmp_path):
        # Distinct at 12 decimals, but all print as 100 at 12 significant
        # digits, so the CSV could not tell the rows apart.
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--eps-range=100:100.000000000005", "--delta-range=0:0",
            "--step", "1e-12", "--out", str(out_path),
        )
        assert code == 2
        assert err.startswith("error: grid 100:100.000000000005 at step 1e-12 repeats points")
        assert not out_path.exists()

    def test_grid_with_too_many_steps_named_as_written(self, capsys, tmp_path):
        # Printed with :g the bound read 1e+09, which the user did not write.
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--eps-range=0:1e9", "--step", "1e-3", "--out", str(out_path),
        )
        assert code == 2
        assert err.startswith("error: grid 0:1e9 at step 0.001 has 1e+12 steps, more than")
        assert not out_path.exists()

    def test_close_points_name_their_own_rows(self, capsys, tmp_path):
        # Printed to 6 digits these four rows all read flip,0.1, each with
        # its own fidelity.
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--eps-range=0.1:0.1000003", "--delta-range=0:0",
            "--step", "1e-7", "--out", str(out_path),
        )
        assert code == 0
        rows = [row.split(",") for row in out_path.read_text().splitlines()[1:]]
        flip = [row for row in rows if row[0] == "flip"]
        assert [row[1] for row in flip] == ["0.1", "0.1000001", "0.1000002", "0.1000003"]
        assert len({row[2] for row in flip}) == 4

    def test_zero_reached_from_below_prints_as_zero(self, capsys, tmp_path):
        # -0.9 + 3 * 0.3 rounds to -0.0, which was written as flip,-0.
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--eps-range=-0.9:0.3", "--step", "0.3", "--out", str(out_path),
        )
        assert code == 0
        values = [line.split(",")[1] for line in out_path.read_text().splitlines()[1:]]
        assert values == ["-0.1", "-0.9", "-0.6", "-0.3", "0", "0.3"]

    def test_bad_step_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--step", "-0.1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "error:" in err


class TestDecouple:
    def test_scalar_bath_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "decouple", "--bath", "scalar", "--seed", "7",
        )
        assert code == 0
        assert "fitted order" in out
        assert "PASS" in out

    def test_zero_bath_exact(self, capsys):
        code, out, _ = run_cli(capsys, "decouple", "--bath", "none")
        assert code == 0
        assert "exact" in out

    @pytest.mark.parametrize("n", ["6", "8"])
    def test_qubit_bath_runs_past_n4(self, capsys, n):
        # The dense register needed 2**(2N) dimensions and refused N = 6
        # and 8 with exit 2. Per qubit, all three rungs print and decouple
        # at order 2; the bare error is the bath-reduced block's, which
        # normalises to 1 - 1 under tau_x couplings, so the command still
        # reports that DD does not beat it and exits 1.
        code, out, err = run_cli(capsys, "decouple", "--bath", "qubit", "--n", n)
        assert code == 1 and err == ""
        assert len([line for line in out.splitlines() if line.startswith("  dt=")]) == 3
        order = float(out.split("fitted order: ")[1].split()[0])
        assert 1.5 <= order <= 2.5

    def test_stdout_matches_golden_bytes(self, capsys):
        # Scalar baths at N = 4 (seed 7) and at N = 8 on a four-rung
        # ladder, then bath-qubit models at N = 4 and 8, which exit 1: the
        # bath-reduced bare evolution is scalar * I, an error of 0 that DD
        # cannot beat.
        golden = (Path(__file__).parent / "golden" / "decouple_stdout.txt").read_bytes()
        out = []
        for argv, want in ((["--bath", "scalar", "--n", "4", "--seed", "7"], 0),
                           (["--bath", "scalar", "--n", "8",
                             "--dt-ladder", "0.1,0.05,0.025,0.0125"], 0),
                           (["--bath", "qubit", "--n", "4"], 1),
                           (["--bath", "qubit", "--n", "8"], 1)):
            code, text, err = run_cli(capsys, "decouple", *argv)
            assert (code, err) == (want, "")
            out.append(text)
        assert "".join(out).encode() == golden

    def test_too_few_rungs_above_the_fit_floor(self, capsys):
        # The first rung is above the 1e-10 "exact" bound, the second at
        # the 1e-13 floor of the fit: one rung cannot be fitted, and the
        # order was printed as nan.
        code, out, _ = run_cli(capsys, "decouple", "--bath", "scalar", "--bath-width", "0.005",
                               "--seed", "7", "--dt-ladder", "0.5,0.01")
        assert code == 1
        assert "nan" not in out
        assert out.splitlines()[-2:] == [
            "fitted order: none (1 of 2 rungs above the 1e-13 floor); DD beats bare: True",
            "result: FAIL",
        ]

    def test_bad_ladder_is_config_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "decouple", "--bath", "scalar", "--dt-ladder", "0.3",
        )
        assert code == 2


class TestConfigFile:
    def test_config_applies_and_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gate = u1\nn = 4\nj = 2\nangle = 0.5\n# comment\n")
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert "verify u1 n=4 j=2" in out

        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--j", "1")
        assert code == 0
        assert "verify u1 n=4 j=1" in out

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gait = u1\n")
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert "unknown config key" in err

    @pytest.mark.parametrize("line, message", [
        ("n = four", "config key 'n': invalid int value 'four'"),
        ("n = 4.0", "config key 'n': invalid int value '4.0'"),
        ("angle =", "config key 'angle': invalid float value ''"),
        ("bath_width = wide", "config key 'bath_width': invalid float value 'wide'"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, line, message):
        # int()'s and float()'s own messages named neither the key nor the file.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        command = "decouple" if line.startswith("bath") else "verify"
        assert run_quiet(command, "--config", str(cfg)) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("lines, key", [
        ("n = 4\nn = 6\n", "n"),
        ("n = 4\nn = 4\n", "n"),
        ("dt-ladder = 0.1,0.05\n# again\ndt_ladder = 0.2,0.1\n", "dt_ladder"),
    ])
    def test_repeated_key_refused(self, tmp_path, lines, key):
        # n = 4 then n = 6 silently ran at N = 6.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        command = "decouple" if "ladder" in lines else "verify"
        assert run_quiet(command, "--config", str(cfg)) == (
            2, f"error: config key {key!r} given twice\n")


class TestSharedParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_match_a_fresh_parser(self, tmp_path, monkeypatch):
        # Run one sequence on the shared parser, then each call again right
        # after a rebuild: a parse that left state on the parser would make
        # a later call differ from its fresh-parser twin.
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gate = u1\nj = 2\nangle = 0.5\n")
        calls = [
            ["verify", "--n", "8", "--gate", "u1", "--j", "3"],
            ["verify"],
            ["verify", "--bath", "qubit"],
            ["sweep", "--help"],
            ["verify", "--config", str(cfg)],
            ["decouple", "--bath", "scalar"],
        ]

        def outcome(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        parser = cli.build_parser()
        shared = [outcome(argv) for argv in calls]
        assert cli.build_parser() is parser
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert shared == fresh

        codes = [code for code, _, _ in shared]
        assert codes == [0, 0, 2, 0, 0, 0]
        assert shared[0][1].startswith("verify u1 n=8 j=3 ")
        assert shared[1][1].startswith("verify u3 n=4 k=1 l=2 angle=0.785398\n")
        assert shared[2][2].startswith("usage: dfsgates verify ")
        assert shared[3][1].startswith("usage: dfsgates sweep ")
        assert shared[4][1].startswith("verify u1 n=4 j=2 angle=0.5\n")
        assert shared[5][1].startswith("decouple n=4 bath=scalar seed=0 ")


def run_quiet(*argv):
    """Exit code and stderr of one CLI call, without pytest fixtures."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def assert_config_error(*argv):
    code, err = run_quiet(*argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def out_flag(command, out_csv):
    """--out for the one command that writes a file, nothing for the others."""
    return ["--out", str(out_csv)] if command == "sweep" else []


@pytest.fixture(scope="module")
def out_csv(tmp_path_factory):
    """Where a sweep would write; module-scoped so hypothesis can reuse it."""
    return tmp_path_factory.mktemp("bad_input") / "x.csv"


not_finite = st.sampled_from([math.inf, -math.inf, math.nan])
finite = st.floats(allow_nan=False, allow_infinity=False)
not_positive_finite = st.floats().filter(lambda x: not (math.isfinite(x) and x > 0))
good_rung = st.floats(min_value=1e-6, max_value=10.0)


class TestInputValidation:
    @settings(max_examples=30, deadline=None)
    @given(step=not_positive_finite)
    def test_sweep_step_must_be_positive_and_finite(self, out_csv, step):
        assert_config_error("sweep", f"--step={step!r}", "--out", str(out_csv))
        assert not out_csv.exists()

    @settings(max_examples=30, deadline=None)
    @given(bound=not_finite, other=finite, which=st.sampled_from(["eps", "delta"]),
           lower=st.booleans())
    def test_sweep_range_bounds_must_be_finite(self, out_csv, bound, other, which, lower):
        lo, hi = (bound, other) if lower else (other, bound)
        assert_config_error("sweep", f"--{which}-range={lo!r}:{hi!r}", "--out", str(out_csv))
        assert not out_csv.exists()

    @given(lo=st.floats(-1e6, 1e6), span=st.floats(0.0, 1e6),
           step=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_grid_step_count_is_capped(self, lo, span, step):
        hi = lo + span
        try:
            steps = _grid_steps(lo, hi, step, f"{lo!r}:{hi!r}")
        except ValueError:
            assert (hi - lo) / step > MAX_GRID_STEPS
        else:
            assert 0 <= steps <= MAX_GRID_STEPS

    def test_missing_config_is_config_error(self, tmp_path):
        assert_config_error("verify", "--config", str(tmp_path / "absent.cfg"))

    def test_out_directory_is_config_error(self, tmp_path):
        assert_config_error("sweep", "--step", "0.05", "--out", str(tmp_path))

    def test_fine_step_refused_before_the_grid_exists(self):
        # ~2e11 points: the count is refused without building the list.
        with pytest.raises(ValueError, match="more than"):
            _grid_steps(-0.1, 0.1, 1e-12, "-0.1:0.1")
        assert _grid_steps(-0.1, 0.1, 0.005, "-0.1:0.1") == 40
        assert _grid_steps(0.0, 1.0, 1.0 / MAX_GRID_STEPS, "0:1") == MAX_GRID_STEPS

    @settings(max_examples=30, deadline=None)
    @given(rungs=st.lists(good_rung, max_size=4), bad=not_positive_finite, at=st.integers(0, 4))
    def test_ladder_rungs_must_be_positive_and_finite(self, rungs, bad, at):
        rungs.insert(min(at, len(rungs)), bad)
        assert_config_error("decouple", "--dt-ladder=" + ",".join(map(repr, rungs)))

    @settings(max_examples=30, deadline=None)
    @given(rung=good_rung, repeats=st.integers(1, 4))
    def test_ladder_needs_two_distinct_rungs(self, rung, repeats):
        assert_config_error("decouple", "--dt-ladder=" + ",".join([repr(rung)] * repeats))

    @settings(max_examples=30, deadline=None)
    @given(rungs=st.lists(good_rung, min_size=2, max_size=5, unique_by=lambda dt: f"{dt:.6g}"),
           data=st.data())
    def test_ladder_refuses_a_repeat_among_distinct_rungs(self, rungs, data):
        # The refusal comes from the parser, before any rung runs.
        repeat = data.draw(st.sampled_from(rungs))
        rungs.insert(data.draw(st.integers(0, len(rungs))), repeat)
        text = ",".join(map(repr, rungs))
        with pytest.raises(ValueError, match="repeats spacings at 6 significant digits"):
            cli._parse_ladder(text)
        assert_config_error("decouple", "--dt-ladder=" + text)

    def test_long_ladder_from_config_refused_before_any_rung(self, tmp_path, monkeypatch):
        # Every whole cycle count 1..10 000 over total_time 2, twice: 20 000
        # rungs ran for seconds and printed 20 000 lines.
        rungs = [repr(2.0 / (4 * c)) for c in range(1, MAX_CYCLES_PER_SEGMENT + 1)] * 2
        cfg = tmp_path / "ladder.cfg"
        cfg.write_text("bath = scalar\ndt_ladder = " + ",".join(rungs) + "\n")
        ran = []
        monkeypatch.setattr(cli, "decoupling_order_probe", lambda *args: ran.append(args))
        code, err = run_quiet("decouple", "--config", str(cfg))
        assert code == 2 and "repeats spacings" in err and ran == []

    @settings(max_examples=30, deadline=None)
    @given(width=st.one_of(not_finite, st.floats(max_value=0.0, exclude_max=True)),
           command=st.sampled_from(["sweep", "decouple"]))
    def test_bath_width_must_be_finite_and_non_negative(self, out_csv, width, command):
        assert_config_error(command, "--bath", "scalar", f"--bath-width={width!r}",
                            *out_flag(command, out_csv))

    @settings(max_examples=30, deadline=None)
    @given(width=st.floats(min_value=MAX_BATH_WIDTH, exclude_min=True, allow_infinity=False),
           command=st.sampled_from(["sweep", "decouple"]))
    def test_bath_width_bounded_above(self, out_csv, width, command):
        # sweep --bath-width 1e300 exited 0 and wrote fidelities that carry
        # no significant digit.
        code, err = run_quiet(command, "--bath", "scalar", f"--bath-width={width!r}",
                              *out_flag(command, out_csv))
        assert code == 2
        assert err.startswith("error: bath_width must be in") and "Traceback" not in err
        assert not out_csv.exists()

    @settings(max_examples=30, deadline=None)
    @given(error=st.one_of(
        st.tuples(st.just("eps"), st.floats(min_value=6e307, allow_infinity=False)),
        st.tuples(st.just("eps"), st.floats(max_value=-6e307, allow_infinity=False)),
        st.tuples(st.just("delta"), st.floats(min_value=1.4e154, allow_infinity=False)),
        st.tuples(st.just("delta"), st.floats(max_value=-1.4e154, allow_infinity=False)),
    ))
    def test_pulse_error_with_overflowing_angle_refused(self, out_csv, error):
        # sweep --eps-range 1e308:1e308 overflowed the rotation angle
        # (1 + eps) * pi * sqrt(1 + delta**2), warned, wrote fidelity nan
        # and exited 0.
        kind, value = error
        ranges = {"eps": "0:0", "delta": "0:0", kind: f"{value!r}:{value!r}"}
        code, err = run_quiet("sweep", f"--eps-range={ranges['eps']}",
                              f"--delta-range={ranges['delta']}", "--out", str(out_csv))
        assert code == 2
        assert err.startswith("error: pulse errors must") and "Traceback" not in err
        assert not out_csv.exists()

    def test_bath_width_at_bound_accepted(self, capsys):
        code, _, _ = run_cli(capsys, "decouple", "--bath", "scalar",
                             f"--bath-width={MAX_BATH_WIDTH!r}")
        assert code in (0, 1)

    @settings(max_examples=30, deadline=None)
    @given(n=st.one_of(st.integers(9, 200), st.sampled_from([-2, 0, 2, 3, 5, 7])),
           command=st.sampled_from(["verify", "sweep", "decouple"]))
    def test_n_outside_even_range_refused(self, out_csv, n, command):
        # verify --n 16 used to allocate the 2**14 x 2**16 logical basis
        # (16 GiB) before any check ran.
        assert_config_error(command, f"--n={n}", *out_flag(command, out_csv))
        assert not out_csv.exists()

    @settings(max_examples=30, deadline=None)
    @given(cycles=st.one_of(st.integers(max_value=0),
                            st.integers(min_value=MAX_CYCLES_PER_SEGMENT + 1)),
           from_config=st.booleans())
    def test_sweep_cycles_must_be_in_range(self, out_csv, cycles, from_config):
        # Far above the cap the cycle power overflowed and every fidelity
        # was written as nan with exit 0.
        if from_config:
            cfg = out_csv.parent / "cycles.cfg"
            cfg.write_text(f"cycles = {cycles}\n")
            argv = ["--config", str(cfg)]
        else:
            argv = [f"--cycles={cycles}"]
        code, err = run_quiet("sweep", *argv, "--step", "0.1", "--out", str(out_csv))
        assert code == 2
        assert err.startswith("error: cycles per segment") and "Traceback" not in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("line, command", [
        ("gate = u9", "verify"), ("gate = u9", "sweep"),
        ("bath = foo", "sweep"), ("bath = foo", "decouple"),
    ])
    def test_config_gate_and_bath_must_be_parser_choices(self, out_csv, line, command):
        # The parser's choices never see config-file values: gate = u9 ran
        # u3 and printed "verify u9 ... PASS", bath = foo ran the qubit bath.
        cfg = out_csv.parent / "choices.cfg"
        cfg.write_text(line + "\n")
        code, err = run_quiet(command, "--config", str(cfg), *out_flag(command, out_csv))
        assert code == 2
        assert err.startswith(f"error: {line.split()[0]} must be one of")
        assert not out_csv.exists()

    @pytest.mark.parametrize("total_time", ["-2", "0", "-0.4", "1e9"])
    def test_decouple_total_time_must_give_whole_positive_cycles(self, total_time):
        # A negative cycle count inverted the cycle and printed PASS; zero
        # cycles printed "exact".
        code, err = run_quiet("decouple", "--bath", "scalar", "--total-time", total_time)
        assert code == 2
        assert err.startswith("error: dt=") and "Traceback" not in err

    @pytest.mark.parametrize("flags, cycles", [
        (["--total-time", "1e300"], "2.5e+300"),
        (["--dt-ladder", "1e-300,2e-300"], "5e+299"),
    ])
    def test_decouple_huge_cycle_count_is_printed_short(self, flags, cycles):
        # The count was printed as an integer of ~300 digits.
        code, err = run_quiet("decouple", "--bath", "scalar", *flags)
        assert code == 2
        assert f" gives {cycles} cycles over total_time=" in err
        assert len(err) < 160

    def test_decouple_rung_too_fine_for_a_finite_cycle_count(self):
        code, err = run_quiet("decouple", "--dt-ladder", "1e-320,0.1")
        assert code == 2
        assert err.startswith("error: dt=") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--step", "0.1"],
        ["sweep", "--step", "0.1", "--bath", "qubit"],
        ["decouple", "--bath", "scalar"],
    ])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_negative_seed_refused_by_name(self, tmp_path, monkeypatch, argv, from_config):
        # Without a bath, sweep wrote -1 into the seed column and exited 0;
        # with one, numpy's "expected non-negative integer" named no option.
        monkeypatch.chdir(tmp_path)
        if from_config:
            cfg = tmp_path / "seed.cfg"
            cfg.write_text("seed = -1\n")
            extra = ["--config", str(cfg)]
        else:
            extra = ["--seed", "-1"]
        code, err = run_quiet(*argv, *extra)
        assert (code, err) == (2, "error: seed must be non-negative, got -1\n")
        assert not (tmp_path / "sweep.csv").exists()

    @settings(max_examples=20, deadline=None)
    @given(value=not_finite, call=st.sampled_from(
        [("verify", "angle"), ("sweep", "angle"), ("decouple", "total-time")]))
    def test_angle_and_total_time_must_be_finite(self, out_csv, value, call):
        command, option = call
        assert_config_error(command, f"--{option}={value!r}", *out_flag(command, out_csv))


# One valid value per option, and the options each command reads besides
# --config. verify --bath qubit --seed 3 --out x.csv used to exit 0 without
# a bath and without writing x.csv.
OPTION_VALUES = {
    "n": "4", "gate": "u1", "j": "1", "k": "1", "l": "2", "angle": "0.5",
    "samples": "4", "cycles": "1", "out": "x.csv", "eps-range": "0:0.1",
    "delta-range": "0:0.1", "step": "0.05", "bath": "scalar", "bath-width": "0.1",
    "seed": "3", "dt-ladder": "0.1,0.05", "total-time": "2.0",
}
GATE_OPTIONS = {"gate", "j", "k", "l", "angle"}
BATH_OPTIONS = {"bath", "bath-width", "seed"}
READS = {
    "verify": {"n"} | GATE_OPTIONS,
    "sweep": {"n", "cycles", "out", "eps-range", "delta-range", "step"}
    | GATE_OPTIONS | BATH_OPTIONS,
    "decouple": {"n", "dt-ladder", "total-time"} | BATH_OPTIONS,
}
UNREAD = [(command, option) for command, reads in READS.items()
          for option in sorted(set(OPTION_VALUES) - reads)]


class TestOptionsPerCommand:
    def test_each_command_takes_exactly_the_options_it_reads(self):
        commands = next(action for action in cli.build_parser()._actions
                        if action.dest == "command").choices
        for command, reads in READS.items():
            flags = {flag for action in commands[command]._actions
                     for flag in action.option_strings}
            assert flags == {f"--{option}" for option in reads | {"config"}} | {"-h", "--help"}

    def test_readme_table_repeats_the_option_table(self):
        # README's command-line table lists cli.OPTIONS row for row, in order.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = [line.split(" | ") for line in readme.splitlines() if line.startswith("| `--")]
        want = [[f"| `--{key.replace('_', '-')}"
                 + (f" {{{','.join(option.choices)}}}`" if option.choices else "`"),
                 f"`{option.default}`", ", ".join(option.commands), f"{option.help} |"]
                for key, option in cli.OPTIONS.items()]
        assert rows == want

    @pytest.mark.parametrize("command, option", UNREAD)
    def test_unread_flag_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                    command, option):
        # The usage line is the command's own, which lists what it reads.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, f"--{option}", OPTION_VALUES[option]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: dfsgates {command} ")
        assert f"dfsgates {command}: error: unrecognized arguments: --{option}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, option", UNREAD)
    def test_unread_config_key_exits_2_and_writes_nothing(self, tmp_path, monkeypatch,
                                                          command, option):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option} = {OPTION_VALUES[option]}\n")
        workdir = tmp_path / "work"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        code, err = run_quiet(command, "--config", str(cfg))
        assert code == 2
        assert err == f"error: unknown config key {option.replace('-', '_')!r} for {command}\n"
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(READS))
    def test_own_config_keys_accepted(self, tmp_path, monkeypatch, command):
        # Every option a command reads is also a valid config key for it.
        monkeypatch.chdir(tmp_path)
        values = dict(OPTION_VALUES, step="0.1")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{option} = {values[option]}\n" for option in READS[command]))
        code, err = run_quiet(command, "--config", str(cfg))
        assert code == 0, err
        assert (tmp_path / "x.csv").exists() == (command == "sweep")
