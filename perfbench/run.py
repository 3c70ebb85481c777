"""dfsgates benchmark: four CLI workloads, checked outputs, a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from perfbench/workloads.py through `dfsgates.cli.main`,
in this process, as a closed loop with one client and no think time. Every
call's output is checked (perfbench/checks.py). The last line of standard
output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

--trace 0 measures whole rounds until S seconds have passed and reports the
end-to-end metrics of BENCHMARK.json, each time scaled to the reference host
speed (see HostSpeed below). --trace 1 first runs the seed-0
reference round and compares it with perfbench/reference.json, then runs
the same fixed number of rounds untraced and traced (perfbench/tracer.py),
requires byte-identical outputs from both, reports the per-layer metrics
and writes the spans to .perfbench_out/.

    python3 perfbench/run.py --write-reference

re-records perfbench/reference.json from the current program.

The program is imported from src/ of the checkout this file sits in; with
no src/dfsgates there the benchmark exits non-zero without a result.
"""

import os

# One BLAS thread, set before numpy is first imported: the plain
# single-threaded baseline, and on a two-core host a second BLAS thread would
# compete for the other core, so timings would measure the scheduler.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 9
# Host speed is sampled after each call for at least this share of the
# call's wall time (one block at least).
HOST_SAMPLE_SHARE = 0.05
# Time of one HostSpeed block at the reference host speed: the median in the
# fast phase of a 2-vCPU Xeon VM, one BLAS thread.
REFERENCE_BLOCK_S = 2.4e-3
sys.path.insert(0, str(HERE))

from checks import check_call, compare_to_reference  # noqa: E402
from workloads import OUT_DIR, WORKLOADS  # noqa: E402


def load_program():
    """Import dfsgates from this checkout's src/, and nowhere else."""
    package = SRC / "dfsgates"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no dfsgates sources at {package}")
    sys.path.insert(0, str(SRC))
    import dfsgates
    import dfsgates.cli

    if Path(dfsgates.__file__).resolve().parent != package:
        raise SystemExit(f"error: dfsgates imported from {dfsgates.__file__}, not {package}")
    return dfsgates.cli


def environment(dfsgates_version: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "worker_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "commit": git_commit(),
        "dfsgates": dfsgates_version,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


class HostSpeed:
    """Times a fixed block of work that uses none of the program: an
    interpreter loop, small numpy products, a 64x64 eigh and a 256x256
    product, the kinds of work the workloads do.

    The shared host this benchmark was built on runs the same code up to
    1.5 times slower for phases of seconds to half a minute, and a whole run
    can sit in one phase. Timed next to each call, the block tells how fast
    the host was then. A time measured between two samples, multiplied by
    `relative_speed(before, after)`, is the time at the reference speed,
    where one block takes REFERENCE_BLOCK_S.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._eigh = np.linalg.eigh
        self._q16 = np.linalg.qr(rng.standard_normal((16, 16)))[0]  # keeps norms
        a = rng.standard_normal((64, 64))
        self._h64 = a + a.T
        self._m256 = rng.standard_normal((256, 256))

    def block(self) -> float:
        # CPU time of this thread: a slow host stretches it, while other
        # threads or processes sharing the CPU, such as ones a program
        # change left running, do not.
        start = time.thread_time()
        total = 0
        for i in range(20_000):
            total += i * i
        a = self._q16
        for _ in range(200):
            a = a @ self._q16
        self._eigh(self._h64)
        self._m256 @ self._m256
        return time.thread_time() - start

    def sample(self, busy_s: float = 0.0) -> float:
        """Mean block time over blocks lasting HOST_SAMPLE_SHARE of `busy_s`."""
        times = [self.block()]
        while sum(times) < HOST_SAMPLE_SHARE * busy_s:
            times.append(self.block())
        return statistics.fmean(times)

    @staticmethod
    def relative_speed(before: float, after: float) -> float:
        return REFERENCE_BLOCK_S / ((before + after) / 2)


def setup_seconds(host: HostSpeed) -> tuple[float, float]:
    """Median time of a fresh interpreter that imports dfsgates and builds
    the CLI parser, the one-time set-up before a first call: at the
    reference host speed, and as measured."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import dfsgates.cli as c; c.build_parser()"
    scaled, measured = [], []
    before = host.sample()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: Popen.wait with a timeout polls in sleeps of up to
        # 50 ms, which quantised this measurement to 50 ms steps.
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        measured.append(time.perf_counter() - start)
        after = host.sample(measured[-1])
        scaled.append(measured[-1] * host.relative_speed(before, after))
        before = after
    return statistics.median(scaled), statistics.median(measured)


@dataclass
class Done:
    """One executed and checked call."""

    call: object
    code: int | None
    stdout: str
    csv_text: str | None
    wall_s: float
    cpu_s: float
    outcome: object

    def output(self):
        return self.code, self.stdout, self.csv_text


def run_call(cli, call) -> Done:
    csv_path = Path(OUT_DIR, "sweep.csv")
    csv_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(call.argv))
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    except Exception:  # a crash is a failed call, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    csv_text = csv_path.read_text() if call.command == "sweep" and csv_path.is_file() else None
    outcome = check_call(call, code, out.getvalue(), csv_text)
    if not outcome.ok:
        print(f"check failed: {' '.join(call.argv)}: {'; '.join(outcome.problems)}"
              f"{' / stderr: ' + err.getvalue().strip() if err.getvalue() else ''}",
              file=sys.stderr)
    return Done(call, code, out.getvalue(), csv_text, wall, cpu, outcome)


def run_rounds(cli, rounds) -> tuple[list[Done], float]:
    start = time.perf_counter()
    done = [run_call(cli, call) for calls in rounds for call in calls]
    return done, time.perf_counter() - start


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples above it (at least the median)."""
    return max(50.0, 100.0 * (1 - 10 / n))


def percentile(values, q: float) -> float:
    s = sorted(values)
    pos = q / 100 * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def timing_metrics(latencies, cpu, items: int) -> dict:
    q = tail_percentile(len(latencies))
    return {
        "items_per_s": items / sum(latencies),
        "call_p50_ms": statistics.median(latencies) * 1e3,
        "call_tail_ms": percentile(latencies, q) * 1e3,
        "cpu_s_per_item": sum(cpu) / items,
    }


def measure(cli, workload, seed: int, seconds: float):
    """Untraced closed loop over whole rounds until `seconds` have passed,
    with the host speed sampled between calls."""
    host = HostSpeed()
    setup, setup_measured = setup_seconds(host)
    done, blocks = [], [host.sample()]
    start = time.perf_counter()
    for calls in workload.rounds(seed):
        for call in calls:
            done.append(run_call(cli, call))
            blocks.append(host.sample(done[-1].wall_s))
        if time.perf_counter() - start >= seconds:
            break
    wall = [d.wall_s for d in done]
    cpu = [d.cpu_s for d in done]
    items = sum(d.call.items for d in done)
    speed = [HostSpeed.relative_speed(b0, b1) for b0, b1 in zip(blocks, blocks[1:])]
    metrics = {
        **timing_metrics([t * f for t, f in zip(wall, speed)],
                         [t * f for t, f in zip(cpu, speed)], items),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    measured = {**timing_metrics(wall, cpu, items), "setup_s": setup_measured}
    info = {"calls": len(done), "items": items, "item": workload.item,
            "tail_percentile": round(tail_percentile(len(done)), 2),
            "loop": "closed, 1 client, no think time",
            "host_speed_median": statistics.median(speed),
            "measured": measured, "wall_s": time.perf_counter() - start}
    Path(OUT_DIR, f"calls-{workload.name}-{seed}.json").write_text(json.dumps(
        [{"argv": d.call.argv, "code": d.code, "items": d.call.items,
          "wall_s": d.wall_s, "cpu_s": d.cpu_s, "host_speed": f}
         for d, f in zip(done, speed)], indent=0))
    return done, metrics, info, []


def traced(cli, workload, seed: int, seconds: float):
    """Reference round, then K rounds untraced and the same K rounds traced."""
    from tracer import DIGEST, Tracer

    problems = []
    reference = json.loads(REFERENCE.read_text())[workload.name]
    ref_calls = next(workload.rounds(REFERENCE_SEED))
    ref_done, _ = run_rounds(cli, [ref_calls])
    if [list(c.argv) for c in ref_calls] != [r["argv"] for r in reference]:
        problems.append("reference round inputs differ from reference.json")
    max_dev = 0.0
    for d, ref in zip(ref_done, reference):
        dev, bad = compare_to_reference(d.outcome.values, ref["values"])
        max_dev = max(max_dev, dev)
        problems += bad

    k = max(1, round(seconds / (2 * workload.round_s)))
    rounds = list(itertools.islice(workload.rounds(seed), k))
    plain, wall_plain = run_rounds(cli, rounds)
    with Tracer() as tracer:
        spans_done, wall_traced = run_rounds(cli, rounds)
    if [d.output() for d in plain] != [d.output() for d in spans_done]:
        problems.append("traced outputs differ from untraced outputs")

    summary = tracer.summary()
    metrics = {}
    for name, row in summary.items():
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_s"]
    for name, work in tracer.work.items():
        metrics[f"{name}.dim3_sum"] = work
    expm = summary.get("linalg.expm_hermitian", {}).get("calls", 0)
    metrics["linalg.expm_hermitian.distinct_frac"] = (
        len(tracer.inputs["linalg.expm_hermitian"]) / expm if expm else 0.0)
    points = summary.get("noise.gate_fidelity_under_error", {}).get("calls", 0)
    metrics["noise.interleave_per_point"] = (
        summary.get("noise.interleave", {}).get("calls", 0) / points if points else 0.0)
    layer_self = sum(row["self_s"] for name, row in summary.items() if name != DIGEST)
    done = ref_done + plain + spans_done
    metrics.update({
        "trace.wall_s": wall_traced,
        "trace.unattributed_s": wall_traced - layer_self,
        "trace.overhead_frac": wall_traced / wall_plain - 1,
        "check.max_ref_dev": max_dev,
        "fail_frac": sum(d.code != 0 or not d.outcome.ok for d in done) / len(done),
    })
    info = {"rounds": k, "traced_calls": len(spans_done), "layer_self_s": layer_self,
            "untraced_wall_s": wall_plain, "spans": len(tracer.spans)}
    Path(OUT_DIR, f"spans-{workload.name}-{seed}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": seed, "rounds": k,
         "fields": ["name", "start_ns", "end_ns", "parent", "call"], "spans": tracer.spans}))
    return done, metrics, info, problems


def select(metrics: dict, declared: list[dict]) -> dict:
    """Exactly the metrics BENCHMARK.json declares, with its units. A layer
    that never ran in this workload has no spans: its count and time are 0."""
    out = {}
    for spec in declared:
        name = spec["name"]
        if name in metrics:
            value = metrics[name]
        elif name.endswith((".calls", ".dim3_sum", ".self_s")):
            value = 0
        else:
            raise KeyError(f"benchmark computes no metric {name!r}")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def write_reference(cli) -> None:
    reference = {}
    for name, workload in WORKLOADS.items():
        done, _ = run_rounds(cli, [next(workload.rounds(REFERENCE_SEED))])
        if not all(d.outcome.ok for d in done):
            raise SystemExit(f"error: {name} reference round fails its checks")
        reference[name] = [{"argv": list(d.call.argv), "values": d.outcome.values} for d in done]
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # One CPU for the worker and its set-up children, so that HostSpeed
    # samples the CPU the timed code runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cli = load_program()
    os.chdir(ROOT)
    Path(OUT_DIR).mkdir(exist_ok=True)
    if args.write_reference:
        write_reference(cli)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    env = environment(sys.modules["dfsgates"].__version__)
    run = traced if args.trace else measure
    done, metrics, info, problems = run(cli, workload, args.seed, args.seconds)
    failed = sum(not d.outcome.ok for d in done)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env: " + json.dumps(env))
    print(f"info: {json.dumps({'workload': workload.name, 'seed': args.seed, **info})}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(done),
        "failed": failed,
        "metrics": select(metrics, spec["per_layer" if args.trace else "end_to_end"]),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
