"""Spans around every public dfsgates function, recorded from outside.

`Tracer` replaces each public function and method of the layer modules on
every module binding that holds it (`from .linalg import expm_hermitian`
copies the name into `gates` and `noise`, and the package re-exports it),
plus `numpy.linalg.eigh`, which `gates._segment_propagators` calls
directly. A span is [name, start_ns, end_ns, parent index, call id]; all
spans under one top-level call share its call id. Spans stay in memory;
the caller writes them out when the run ends. Leaving the `with` block
restores every binding.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "noise", "gates", "dfs", "pauli", "linalg")
KERNEL = (np.linalg, "eigh", "kernel.eigh")
# Span for input hashing done by the tracer itself, so that it is charged
# to no layer's self time.
DIGEST = "trace.digest"


def _dim3(args, kwargs) -> int:
    """Dense-kernel work count m*n*min(m, n) of the first argument (d^3 if square)."""
    m, n = np.shape(args[0] if args else next(iter(kwargs.values())))[-2:]
    return m * n * min(m, n)


def _public_callables():
    """(owner, attribute, original descriptor, span name) for each layer's
    public functions, and public methods and classmethods of its classes."""
    found = []
    for layer in LAYERS:
        module = sys.modules[f"dfsgates.{layer}"]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((module, name, obj, f"{layer}.{name}"))
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and (
                        inspect.isfunction(member) or isinstance(member, classmethod)
                    ):
                        found.append((obj, attr, member, f"{layer}.{name}.{attr}"))
    return found


class Tracer:
    """Context manager that records spans while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.work: dict[str, int] = defaultdict(int)  # computed dim^3 sums
        self.inputs: dict[str, set] = defaultdict(set)  # distinct input digests
        self._stack: list[int] = []
        self._call = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        if not self._stack:
            self._call += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._call])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def _digest(self, name: str, args, kwargs) -> None:
        span = self._open(DIGEST)
        h = np.ascontiguousarray(args[0] if args else kwargs["h"], dtype=np.complex128)
        scale = args[1] if len(args) > 1 else kwargs["scale"]
        self.inputs[name].add(hashlib.blake2b(h.tobytes() + repr(float(scale)).encode()).digest())
        self._close(span)

    def _wrap(self, fn, name: str):
        measure_work = name in ("kernel.eigh", "linalg.spectral_norm")
        hash_inputs = name == "linalg.expm_hermitian"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if measure_work:
                self.work[name] += _dim3(args, kwargs)
            if hash_inputs:
                self._digest(name, args, kwargs)
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    # -- installing --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        functions = {}  # id -> (module-level function, its wrapper)
        for owner, attr, member, name in _public_callables():
            if isinstance(member, classmethod):
                self._set(owner, attr, classmethod(self._wrap(member.__func__, name)))
            elif inspect.isclass(owner):
                self._set(owner, attr, self._wrap(member, name))
            else:
                functions[id(member)] = (member, self._wrap(member, name))
        kernel_module, attr, name = KERNEL
        kernel = getattr(kernel_module, attr)
        functions[id(kernel)] = (kernel, self._wrap(kernel, name))
        # Every binding of a wrapped function: its own module, the modules
        # that imported it, and the package namespace.
        modules = [m for key, m in list(sys.modules.items())
                   if key == "dfsgates" or key.startswith("dfsgates.")] + [kernel_module]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        return self

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- summarising -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (total
        minus the time covered by its child spans)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - children) * 1e-9
        return dict(out)
