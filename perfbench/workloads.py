"""Seeded CLI inputs for the four benchmark workloads.

A workload is an endless sequence of rounds; a round is a short, fixed list
of `dfsgates` command lines. The seed draws bath seeds, targets, angles,
error magnitudes and the order of calls inside a round. It never changes
the multiset of call shapes (subcommand, gate kind, N, grid size), so the
work in a round, and every traced call count, is the same on every seed.
run.py measures whole rounds; their odd or majority make-up
keeps the median call inside one cluster of call latencies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Sweep CSVs are written here, relative to the checkout root.
OUT_DIR = ".perfbench_out"

# `dfsgates sweep` with no range flags: -0.1:0.1 at step 0.005, both kinds.
DEFAULT_GRID = tuple(round(-0.1 + i * 0.005, 12) for i in range(41))


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its output must look like."""

    argv: tuple[str, ...]
    items: int  # sweep rows, 1 per verified gate, or dt rungs
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    item: str
    round_s: float  # nominal round time, one BLAS thread; sizes the traced run
    make_round: object  # Callable[[random.Random], list[Call]]

    def rounds(self, seed: int):
        """Endless, seed-determined sequence of rounds."""
        rng = random.Random(seed)
        while True:
            yield self.make_round(rng)


def _angle(rng: random.Random) -> str:
    return f"{rng.uniform(0.1, 1.4):.6f}"


def _targets(rng: random.Random, gate: str, n: int) -> list[str]:
    if gate == "u3":
        k, l = sorted(rng.sample(range(1, n - 1), 2))
        return ["--k", str(k), "--l", str(l)]
    return ["--j", str(rng.randint(1, n - 2))]


def verify(rng: random.Random, gate: str, n: int) -> Call:
    angle = _angle(rng)
    argv = ["verify", "--gate", gate, "--n", str(n), *_targets(rng, gate, n), "--angle", angle]
    return Call(tuple(argv), 1, {"gate": gate})


def sweep_small_grid(rng: random.Random, gate: str, n: int, bath: str) -> Call:
    """Two points per error kind, one of them zero: four rows."""
    angle = _angle(rng)
    step = f"{rng.uniform(0.02, 0.1):.3f}"
    argv = [
        "sweep", "--n", str(n), "--bath", bath, "--gate", gate, *_targets(rng, gate, n),
        "--angle", angle, "--seed", str(rng.randrange(10_000)),
        f"--eps-range=0:{step}", f"--delta-range=-{step}:0", "--step", step,
        "--out", f"{OUT_DIR}/sweep.csv",
    ]
    e = float(step)
    grid = {"flip": (0.0, e), "detuning": (-e, 0.0)}
    return Call(tuple(argv), 4, {"gate": gate, "angle": angle, "grid": grid, "cycles": 4})


def sweep_default(rng: random.Random) -> Call:
    """The README's `dfsgates sweep`: u3 at N = 4, no bath, 82 rows."""
    angle = _angle(rng)
    argv = ["sweep", "--angle", angle, "--seed", str(rng.randrange(10_000)),
            "--out", f"{OUT_DIR}/sweep.csv"]
    grid = {"flip": DEFAULT_GRID, "detuning": DEFAULT_GRID}
    return Call(tuple(argv), 82, {"gate": "u3", "angle": angle, "grid": grid, "cycles": 4})


def decouple(rng: random.Random, bath: str) -> Call:
    argv = ["decouple", "--bath", bath, "--seed", str(rng.randrange(10_000))]
    return Call(tuple(argv), 3, {"bath": bath})


def _sweep_n8_scalar(rng):
    return [sweep_small_grid(rng, gate, 8, "scalar") for gate in ("u3", "u1", "u3")]


def _sweep_n4_qubitbath(rng):
    calls = [sweep_small_grid(rng, "u1", 4, "qubit"), sweep_small_grid(rng, "u2", 4, "qubit"),
             decouple(rng, "qubit")]
    rng.shuffle(calls)
    return calls


def _verify_n8(rng):
    calls = [verify(rng, gate, 8) for gate in ("u1", "u2", "u3")]
    rng.shuffle(calls)
    return calls


def _cli_small(rng):
    calls = [verify(rng, gate, n) for n in (4, 6) for gate in ("u1", "u2", "u3")]
    calls += [decouple(rng, "scalar"), decouple(rng, "scalar"), sweep_default(rng)]
    rng.shuffle(calls)
    return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-n8-scalar", "one sweep CSV row", 5.6, _sweep_n8_scalar),
        Workload("sweep-n4-qubitbath", "one sweep CSV row or one dt rung", 4.8, _sweep_n4_qubitbath),
        Workload("verify-n8", "one verified gate", 4.0, _verify_n8),
        Workload("cli-small", "one sweep CSV row, one verified gate or one dt rung", 1.0, _cli_small),
    )
}
