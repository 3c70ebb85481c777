"""Tests of the benchmark itself: seeded inputs, output checks, tracer
transparency, and short end-to-end runs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import dfsgates.cli as cli  # noqa: E402
from checks import check_call, compare_to_reference  # noqa: E402
from tracer import Tracer, _public_callables  # noqa: E402
from workloads import WORKLOADS, decouple, sweep_small_grid  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _shape(call):
    return (call.command, _option(call.argv, "--gate"), _option(call.argv, "--n"),
            _option(call.argv, "--bath"), call.items)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_per_seed_and_keep_their_shape(name):
    workload = WORKLOADS[name]
    first = list(itertools.islice(workload.rounds(5), 3))
    assert first == list(itertools.islice(workload.rounds(5), 3))
    other = list(itertools.islice(workload.rounds(6), 3))
    assert other != first
    shapes = {tuple(sorted(map(_shape, calls))) for calls in first + other}
    assert len(shapes) == 1


def _bindings():
    snap = {}
    for key, module in list(sys.modules.items()):
        if key == "dfsgates" or key.startswith("dfsgates."):
            snap.update({(key, attr): value for attr, value in vars(module).items()})
    for owner, attr, _, _ in _public_callables():
        snap[(owner, attr)] = vars(owner)[attr]
    snap[("numpy.linalg", "eigh")] = np.linalg.eigh
    return snap


def test_tracer_leaves_results_and_bindings_unchanged(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    argvs = [
        ["verify", "--gate", "u3", "--n", "4", "--angle", "0.3"],
        ["sweep", "--step", "0.05", "--out", str(csv_path)],
        ["decouple", "--bath", "scalar", "--seed", "3"],
    ]

    def run_all():
        outputs = []
        for argv in argvs:
            code = cli.main(argv)
            csv_text = csv_path.read_text() if argv[0] == "sweep" else None
            outputs.append((code, capsys.readouterr().out, csv_text))
        return outputs

    before = _bindings()
    plain = run_all()
    with Tracer() as tracer:
        assert cli.main is not before[("dfsgates.cli", "main")]
        assert np.linalg.eigh is not before[("numpy.linalg", "eigh")]
        traced = run_all()
    after = _bindings()

    assert traced == plain
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == len(argvs)
    # expm_hermitian is reached through the gates and noise bindings, eigh
    # both through expm_hermitian and directly from gates.
    assert summary["linalg.expm_hermitian"]["calls"] > 0
    assert summary["kernel.eigh"]["calls"] > summary["linalg.expm_hermitian"]["calls"]
    assert summary["pauli.PauliSum.to_matrix"]["calls"] > 0
    roots = [span for span in tracer.spans if span[3] < 0]
    assert [span[0] for span in roots] == ["cli.main"] * len(argvs)
    assert sum(row["self_s"] for row in summary.values()) == pytest.approx(
        sum(end - start for _, start, end, _, _ in roots) * 1e-9)
    for name, _, _, parent, call in tracer.spans:
        assert parent < 0 or tracer.spans[parent][4] == call


def test_checks_reject_wrong_output(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / ".perfbench_out").mkdir()
    rng = random.Random(1)
    call = sweep_small_grid(rng, "u1", 4, "scalar")
    code = cli.main(list(call.argv))
    stdout = capsys.readouterr().out
    csv_text = (tmp_path / ".perfbench_out" / "sweep.csv").read_text()
    good = check_call(call, code, stdout, csv_text)
    assert good.ok and len(good.values) == 4

    lines = csv_text.splitlines()
    row = lines[1].split(",")
    row[2] = "1.000000000001"
    assert not check_call(call, code, stdout, "\n".join([lines[0], ",".join(row), *lines[2:]])).ok
    assert not check_call(call, code, stdout, "\n".join(lines[:-1])).ok
    assert not check_call(call, 1, stdout, csv_text).ok

    scalar = decouple(rng, "scalar")
    code = cli.main(list(scalar.argv))
    stdout = capsys.readouterr().out
    assert check_call(scalar, code, stdout, None).ok
    assert not check_call(scalar, code, stdout.replace("fitted order: 2.", "fitted order: 3."), None).ok


def test_known_qubit_bath_failure_is_recognised_not_hidden(capsys):
    call = decouple(random.Random(2), "qubit")
    code = cli.main(list(call.argv))
    outcome = check_call(call, code, capsys.readouterr().out, None)
    assert code == 1
    assert outcome.ok and outcome.known_failure


def test_reference_comparison_uses_print_resolution():
    assert compare_to_reference({"a": "1.000e+00"}, {"a": "1.000e+00"}) == (0.0, [])
    dev, bad = compare_to_reference({"a": "1.001e+00"}, {"a": "1.000e+00"})
    assert dev == pytest.approx(1e-3) and not bad
    dev, bad = compare_to_reference({"a": "0.999000000000"}, {"a": "1.000000000000"})
    assert dev == pytest.approx(1e-3) and bad
    assert compare_to_reference({"a": "1"}, {"b": "1"}) == (0.0, ["value names ['a'] != ['b']"])


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_passes_every_check(trace):
    proc = _bench("--workload", "cli-small", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 9
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        # The unscaled host times are reported beside the scaled ones.
        info = json.loads(next(line for line in proc.stdout.splitlines()
                               if line.startswith("info: "))[len("info: "):])
        assert set(info["measured"]) == set(result["metrics"]) - {"peak_rss_mb"}
        assert info["host_speed_median"] > 0
    else:
        assert result["metrics"]["check.max_ref_dev"]["value"] == 0.0


def test_qubit_bath_failure_counts_in_fail_frac():
    proc = _bench("--workload", "sweep-n4-qubitbath", "--seed", "4", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["fail_frac"]["value"] == pytest.approx(1 / 3)
    assert result["metrics"]["noise.dd_cycle.calls"]["value"] == 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cli-small", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
