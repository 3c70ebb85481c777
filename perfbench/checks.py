"""Output checks for one CLI call, and comparison against stored references.

The checks read only what a user sees: the exit code, standard output and
the sweep CSV. They hold on every seed. Each check also returns the
printed numbers it read, keyed by name, so that the reference round can be
compared number by number against `reference.json`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

SWEEP_HEADER = "error_kind,error_value,fidelity,seed,plan_cycles,gate,theta_or_phi"
VERIFY_NAMES = ("gate_fidelity", "leakage", "commutant_membership",
                "cyclic_defect", "parallel_transport")
ORDER_RANGE = (1.5, 2.5)
REF_ATOL = 1e-12

_VERIFY_ROW = re.compile(r"^  (\w+)\s+(\S+)\s+(>=|<=|==) (\S+)\s+(PASS|FAIL)$")
_RUNG = re.compile(r"^  dt=(\S+)\s+dd_error=(\S+)  bare_error=(\S+)$")
_ORDER = re.compile(r"^fitted order: (\S+) \(want >= 1\.5\); DD beats bare: (True|False)$")


@dataclass
class Outcome:
    """ok: output is what this call must print. known_failure: the call
    reproduced the documented `decouple --bath qubit` defect (exit 1)."""

    ok: bool = True
    known_failure: bool = False
    values: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def require(self, cond: bool, problem: str) -> None:
        if not cond:
            self.ok = False
            self.problems.append(problem)


def check_call(call, code: int, stdout: str, csv_text: str | None) -> Outcome:
    kind = call.command
    if kind == "verify":
        return _check_verify(call, code, stdout)
    if kind == "sweep":
        return _check_sweep(call, code, stdout, csv_text)
    return _check_decouple(call, code, stdout)


def _check_verify(call, code, stdout) -> Outcome:
    out = Outcome()
    out.require(code == 0, f"exit code {code}")
    lines = stdout.splitlines()
    out.require(bool(lines) and lines[-1] == "result: PASS", "no 'result: PASS' line")
    names = []
    for line in lines:
        m = _VERIFY_ROW.match(line)
        if not m:
            continue
        name, value, rel, bound = m.group(1), float(m.group(2)), m.group(3), float(m.group(4))
        names.append(name)
        out.values[f"verify.{name}"] = m.group(2)
        within = {">=": value >= bound, "<=": value <= bound, "==": value == bound}[rel]
        out.require(within and m.group(5) == "PASS", f"{name}={value} not {rel} {bound}")
    want = VERIFY_NAMES + (("subspace_swap",) if call.expect["gate"] == "u3" else ())
    out.require(tuple(names) == want, f"check rows {names}")
    return out


def _check_sweep(call, code, stdout, csv_text) -> Outcome:
    out = Outcome()
    out.require(code == 0, f"exit code {code}")
    grid = call.expect["grid"]
    n_rows = sum(len(v) for v in grid.values())
    out.require(stdout.startswith(f"wrote {n_rows} rows to "), f"stdout {stdout!r}")
    lines = (csv_text or "").splitlines()
    out.require(bool(lines) and lines[0] == SWEEP_HEADER, "bad or missing CSV header")
    rows = [line.split(",") for line in lines[1:]]
    out.require(len(rows) == n_rows, f"{len(rows)} rows, want {n_rows}")
    if not out.ok:
        return out
    keys = [(r[0], float(r[1])) for r in rows]
    out.require(keys == sorted(keys), "rows not sorted by (error_kind, error_value)")
    want = sorted((kind, v) for kind, values in grid.items() for v in values)
    out.require(all(math.isclose(a[1], b[1], abs_tol=1e-9) and a[0] == b[0]
                    for a, b in zip(keys, want)), "grid values differ from the request")
    seed = call.argv[call.argv.index("--seed") + 1]
    tail = [seed, str(call.expect["cycles"]), call.expect["gate"],
            f"{float(call.expect['angle']):.12g}"]
    for (kind, value), row in zip(keys, rows):
        fid = float(row[2])
        out.values[f"sweep.{kind}.{row[1]}"] = row[2]
        out.require(0.0 <= fid <= 1.0, f"fidelity {fid} outside [0, 1]")
        if value == 0.0:
            out.require(abs(fid - 1.0) <= 1e-12, f"fidelity {fid} at zero {kind} error")
        out.require(row[3:] == tail, f"row tail {row[3:]} != {tail}")
    return out


def _check_decouple(call, code, stdout) -> Outcome:
    out = Outcome()
    lines = stdout.splitlines()
    rungs = [m.groups() for m in map(_RUNG.match, lines) if m]
    order = [m.groups() for m in map(_ORDER.match, lines) if m]
    out.require(len(rungs) == 3 and len(order) == 1, f"unparsed output {stdout!r}")
    if not out.ok:
        return out
    for dt, err, bare in rungs:
        out.values[f"decouple.dd_error.{dt}"] = err
        out.values[f"decouple.bare_error.{dt}"] = bare
    out.values["decouple.fitted_order"] = order[0][0]
    fitted = float(order[0][0])
    out.require(ORDER_RANGE[0] <= fitted <= ORDER_RANGE[1], f"fitted order {fitted}")
    if code == 0:
        out.require(lines[-1] == "result: PASS", "exit 0 without 'result: PASS'")
        return out
    # The known defect: the bath-reduced block <0|U|0>_bath of the undecoupled
    # evolution is a scalar multiple of I under tau_x couplings, so
    # phase_invariant_fidelity normalises the error away and bare_error is
    # 0 up to rounding; "DD beats bare" then fails and the command exits 1.
    defect = (call.expect["bath"] == "qubit" and code == 1
              and all(float(bare) <= 1e-12 for _, _, bare in rungs)
              and order[0][1] == "False" and lines[-1] == "result: FAIL")
    out.require(defect, f"exit code {code}")
    out.known_failure = defect
    return out


def last_place(text: str) -> float:
    """One unit in the last printed digit of a number like '1.234e-05' or '0.5'."""
    mantissa, _, exponent = text.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def compare_to_reference(values: dict, reference: dict) -> tuple[float, list[str]]:
    """Largest |printed - reference| and the names outside 1e-12 plus one
    unit in the reference's last printed digit (the print resolution)."""
    problems = []
    if values.keys() != reference.keys():
        problems.append(f"value names {sorted(values)} != {sorted(reference)}")
    worst = 0.0
    for name in values.keys() & reference.keys():
        ref = reference[name]
        dev = abs(float(values[name]) - float(ref))
        worst = max(worst, dev)
        if dev > REF_ATOL + last_place(ref):
            problems.append(f"{name}: {values[name]} vs reference {ref}")
    return worst, problems
