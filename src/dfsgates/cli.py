"""Command-line front end: gate verification, error sweeps, decoupling probes.

Subcommands:

    verify    run gate-correctness, leakage, commutant, and holonomy checks
    sweep     fidelity vs pulse-error CSV over a flip/detuning grid
    decouple  residual-error-vs-dt ladder with a fitted order

Options can come from a flat key=value config file (--config); explicit
flags win over file values. Each command takes only the options it reads,
as flags or as config keys. Exit codes: 0 all checks passed, 1 a check
failed, 2 invalid configuration (an option the command does not read
among them).
"""

from __future__ import annotations

import argparse
import functools
import math
import operator
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DfsGatesError
from .gates import (
    analytic_target,
    schedule_u1,
    schedule_u2,
    schedule_u3,
    verify_holonomy,
)
from .linalg import product_fidelity
from .noise import (
    FIT_FLOOR,
    BathModel,
    InterleavingPlan,
    _csv_value,
    bare_evolution_error,
    decoupling_order_probe,
    error_sweep,
    fit_error_order,
    sweep_csv_lines,
)
from .pauli import MAX_QUBITS


class _Option(NamedTuple):
    """One option: its default (whose type parses flag and config values),
    the commands that read it, its help text and its allowed values."""

    default: object
    commands: tuple[str, ...]
    help: str
    choices: tuple[str, ...] | None = None


_GATE = ("verify", "sweep")
_BATH = ("sweep", "decouple")
# Every option, once, in the order of each command's flags. A flag is the
# key with "-" for "_"; a config key may use either.
OPTIONS = {
    "n": _Option(4, ("verify", "sweep", "decouple"), "physical qubits (even, 4..8)"),
    "gate": _Option("u3", _GATE, "gate family", ("u1", "u2", "u3")),
    "j": _Option(1, _GATE, "logical target for u1/u2"),
    "k": _Option(1, _GATE, "first logical target for u3"),
    "l": _Option(2, _GATE, "second logical target for u3"),
    "angle": _Option(float(np.pi / 4), _GATE, "gate angle theta or phi"),
    "bath": _Option("none", _BATH, "bath model", ("none", "scalar", "qubit")),
    "bath_width": _Option(0.1, _BATH, "half-width of the uniform coupling draw"),
    "seed": _Option(0, _BATH, "seed for bath draws"),
    "cycles": _Option(4, ("sweep",), "XY-4 cycles per segment"),
    "out": _Option("sweep.csv", ("sweep",), "output CSV path"),
    "eps_range": _Option("-0.1:0.1", ("sweep",), "flip-angle range lo:hi"),
    "delta_range": _Option("-0.1:0.1", ("sweep",), "detuning range lo:hi"),
    "step": _Option(0.005, ("sweep",), "grid step"),
    "dt_ladder": _Option("0.1,0.05,0.025", ("decouple",), "comma-separated pulse spacings"),
    "total_time": _Option(2.0, ("decouple",), "total idle evolution time"),
}
COMMANDS = {
    "verify": "check one gate end to end",
    "sweep": "fidelity vs pulse error, CSV out",
    "decouple": "decoupling-order probe over a dt ladder",
}

# Largest number of steps one sweep range may have; finer grids exit 2.
MAX_GRID_STEPS = 10_000
# Largest --bath-width. Couplings of this size turn a qubit through ~1e3
# radians per unit time, far past any pulse spacing that decouples them;
# at widths near 1e15 times the evolution time a double keeps no digit of
# the phases, so the printed fidelities would carry no information.
MAX_BATH_WIDTH = 1e3
_RELATIONS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, taking --config and the options it reads.

    Built once per process from the fixed OPTIONS and COMMANDS tables and
    shared read-only by every call of `main`: each parse makes a fresh
    Namespace, and usage and help are formatted when they are printed.
    """
    parser = argparse.ArgumentParser(
        prog="dfsgates",
        description="Holonomic gates in decoupling-protected subspaces: "
        "verification, pulse-error sweeps, decoupling-order probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", type=str, help="key=value config file; flags win")
        for key, option in OPTIONS.items():
            if command in option.commands:
                p.add_argument("--" + key.replace("_", "-"), type=type(option.default),
                               choices=option.choices, help=option.help)
    return parser


def _read_config(path: str) -> dict:
    """Raw string values of a key=value file by key ("-" read as "_"); a key
    given twice is refused, not silently overwritten by its last line."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key in values:
            raise ValueError(f"config key {key!r} given twice")
        values[key] = val
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags (flags win).

    A config key must name one of the command's own options; the others
    keep their defaults, which the command never reads.
    """
    merged = {key: option.default for key, option in OPTIONS.items()}
    if args.config:
        for key, val in _read_config(args.config).items():
            if key not in OPTIONS or args.command not in OPTIONS[key].commands:
                raise ValueError(f"unknown config key {key!r} for {args.command}")
            kind = type(OPTIONS[key].default)
            try:
                merged[key] = kind(val)
            except ValueError:
                raise ValueError(
                    f"config key {key!r}: invalid {kind.__name__} value {val!r}") from None
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _check_values(cfg: dict) -> None:
    """Reject non-finite or out-of-range numeric options, and values outside
    an option's choices (a config file bypasses the parser's check)."""
    for key, option in OPTIONS.items():
        if option.choices and cfg[key] not in option.choices:
            raise ValueError(
                f"{key} must be one of {', '.join(option.choices)}, got {cfg[key]!r}")
    if not (4 <= cfg["n"] <= MAX_QUBITS and cfg["n"] % 2 == 0):
        raise ValueError(f"n must be even and in 4..{MAX_QUBITS}, got {cfg['n']!r}")
    for key in ("angle", "bath_width", "step", "total_time"):
        if not math.isfinite(cfg[key]):
            raise ValueError(f"{key} must be finite, got {cfg[key]!r}")
    if cfg["seed"] < 0:
        raise ValueError(f"seed must be non-negative, got {cfg['seed']!r}")
    if not 0 <= cfg["bath_width"] <= MAX_BATH_WIDTH:
        raise ValueError(
            f"bath_width must be in 0..{MAX_BATH_WIDTH:g}, got {cfg['bath_width']!r}"
        )
    if cfg["step"] <= 0:
        raise ValueError("step must be positive")


def _parse_range(text: str) -> tuple[float, float]:
    lo, hi = (float(part) for part in text.split(":"))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"range {text!r} must have finite bounds")
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _grid_steps(lo: float, hi: float, step: float, text: str) -> int:
    """Whole steps from lo that stay within hi, refused above MAX_GRID_STEPS;
    the refusal names the range as the user wrote it, text."""
    steps = (hi - lo) / step
    if not steps <= MAX_GRID_STEPS:
        raise ValueError(
            f"grid {text} at step {step:g} has {steps:.3g} steps, "
            f"more than {MAX_GRID_STEPS}"
        )
    return math.floor(steps + 1e-9)


def _grid(text: str, step: float) -> list[float]:
    """Points lo + i * step of the range text lo:hi up to hi, rounded to 12
    decimals; refused if two share a _csv_value. A refusal names the range
    as written: bounds that print alike are what it is about."""
    lo, hi = _parse_range(text)
    points = [round(lo + i * step, 12) for i in range(_grid_steps(lo, hi, step, text) + 1)]
    if len(set(map(_csv_value, points))) < len(points):
        raise ValueError(
            f"grid {text} at step {step:g} repeats points at 12 significant digits"
        )
    return points


def _parse_ladder(text: str) -> list[float]:
    """Positive, finite spacings, at least 2, no two of which print alike at
    the .6g the ladder prints them with. Refused here, before any rung
    runs; `decoupling_order_probe` then refuses a ladder whose spacings do
    not give distinct whole cycle counts in 1..MAX_CYCLES_PER_SEGMENT, so
    a ladder that runs holds at most that many rungs."""
    dts = [float(part) for part in text.split(",")]
    if not all(math.isfinite(dt) and dt > 0 for dt in dts):
        raise ValueError(f"dt ladder {text!r} must hold positive, finite spacings")
    printed = {f"{dt:.6g}" for dt in dts}
    if len(printed) < 2:
        raise ValueError(f"dt ladder {text!r} needs at least 2 distinct spacings")
    if len(printed) < len(dts):
        raise ValueError(f"dt ladder {text!r} repeats spacings at 6 significant digits")
    return dts


def _schedule(cfg: dict):
    if cfg["gate"] == "u1":
        return schedule_u1(cfg["n"], cfg["j"], cfg["angle"])
    if cfg["gate"] == "u2":
        return schedule_u2(cfg["n"], cfg["j"], cfg["angle"])
    return schedule_u3(cfg["n"], cfg["k"], cfg["l"], cfg["angle"])


def _bath(cfg: dict) -> BathModel:
    if cfg["bath"] == "none":
        return BathModel.zero(cfg["n"])
    return BathModel.random(cfg["n"], cfg["bath_width"], cfg["seed"], kind=cfg["bath"])


def cmd_verify(cfg: dict) -> int:
    schedule = _schedule(cfg)
    report = verify_holonomy(schedule)
    # M on the support has the fidelity of M (x) I on all logical qubits.
    fid = product_fidelity([report.support_gate], [analytic_target(schedule, report.support)])
    checks = [
        ("gate_fidelity", fid, ">=", 1 - 1e-9),
        ("leakage", report.leakage, "<=", 1e-10),
        ("commutant_membership", sum(report.leaking_terms), "==", 0),
        ("cyclic_defect", report.cyclic_defect, "<=", 1e-9),
        ("parallel_transport", report.max_parallel_transport_violation, "<=", 1e-9),
    ]
    if report.subspace_swap is not None:
        checks.append(("subspace_swap", report.subspace_swap, "<=", 1e-9))

    target = (f"j={cfg['j']}" if cfg["gate"] in ("u1", "u2")
              else f"k={cfg['k']} l={cfg['l']}")
    print(f"verify {cfg['gate']} n={cfg['n']} {target} angle={cfg['angle']:.6g}")
    passed = [_RELATIONS[rel](value, bound) for _, value, rel, bound in checks]
    for (name, value, rel, bound), ok in zip(checks, passed):
        print(f"  {name:22s} {value:<12.3e} {rel} {bound:<8.0e} "
              f"{'PASS' if ok else 'FAIL'}")
    print("result: " + ("PASS" if all(passed) else "FAIL"))
    return 0 if all(passed) else 1


def cmd_sweep(cfg: dict) -> int:
    schedule = _schedule(cfg)
    plan = InterleavingPlan(cycles_per_segment=cfg["cycles"])
    bath = _bath(cfg)
    grids = {
        kind: _grid(cfg[range_key], cfg["step"])
        for kind, range_key in (("detuning", "delta_range"), ("flip", "eps_range"))
    }
    rows = error_sweep(schedule, plan, bath, grids)
    lines = sweep_csv_lines(rows, cfg["seed"], plan, schedule)
    out = Path(cfg["out"])
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {out}")
    return 0


def cmd_decouple(cfg: dict) -> int:
    bath = _bath(cfg)
    dts = _parse_ladder(cfg["dt_ladder"])
    points = decoupling_order_probe(bath, dts, cfg["total_time"])
    bare = bare_evolution_error(bath, cfg["total_time"])
    print(f"decouple n={cfg['n']} bath={cfg['bath']} seed={cfg['seed']} "
          f"total_time={cfg['total_time']:.6g}")
    for dt, err in points:
        print(f"  dt={dt:<8.6g} dd_error={err:.6e}  bare_error={bare:.6e}")
    if all(err <= 1e-10 for _, err in points):
        print("result: exact (errors at numerical floor)")
        return 0
    order, min_order = fit_error_order(points), 1.5
    dd_beats_bare = all(err < bare for _, err in points)
    ok = order >= min_order and dd_beats_bare
    fitted = sum(err > FIT_FLOOR for _, err in points)
    if fitted < 2:
        # A rung above the "exact" bound but at or below FIT_FLOOR leaves
        # too few rungs to fit, and the order is nan: say why, and fail.
        order_text = f"none ({fitted} of {len(points)} rungs above the {FIT_FLOOR:g} floor)"
    else:
        order_text = f"{order:.3f} (want >= {min_order})"
    print(f"fitted order: {order_text}; DD beats bare: {dd_beats_bare}")
    print("result: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args, unread = parser.parse_known_args(argv)
    if unread:
        # Refused with the command's own usage line, which lists the
        # options it does read, not the top-level one.
        sub = next(action for action in parser._actions if action.dest == "command")
        sub.choices[args.command].error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        cfg = _resolve(args)
        _check_values(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        return cmd_decouple(cfg)
    except (DfsGatesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
