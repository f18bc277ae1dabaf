"""In-memory span recorder for the traced benchmark run.

The traced run rebinds public names inside the ``belowband`` modules to
wrappers that record one span per call; no source file is touched.  A span
is ``(name, start, end, parent, op, tag)``: ``parent`` is the index of the
enclosing span (-1 at the top), ``op`` the benchmark operation it belongs
to and ``tag`` a small per-span annotation (caller module, solver path).
Self time of a span is its duration minus the durations of its direct
children; calls nest strictly because each workload runs one thread.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name, tag).  The module named is the one whose
# global the caller looks up, so ``classify.green_values`` sees the Green
# evaluations of root location and ``states.green_values`` those of the
# residual.  A name that a later version of the program no longer has is
# skipped and its metrics read 0.
BINDINGS = (
    ("belowband.green", "laplace_integrals", "quadrature.laplace_integrals", ""),
    ("belowband.classify", "green_values", "green.green_values", "classify"),
    ("belowband.states", "green_values", "green.green_values", "states"),
    ("belowband.classify", "green_threshold", "green.green_threshold", "classify"),
    ("belowband.states", "green_threshold", "green.green_threshold", "states"),
    ("belowband.classify", "brentq", "classify.brentq", ""),
    ("belowband.classify", "summarize", "classify.summarize", ""),
    ("belowband.cli", "summarize", "classify.summarize", ""),
    ("belowband.classify", "eigenstates", "classify.eigenstates", ""),
    ("belowband.lattice", "negative_eigenvalues", "classify.negative_eigenvalues", ""),
    ("belowband.states", "residual", "states.residual", ""),
    ("belowband.cli", "main", "cli.main", ""),
    ("belowband.lattice", "build_hamiltonian", "lattice.build_hamiltonian", ""),
    ("belowband.lattice", "lowest_eigenvalues", "lattice.lowest_eigenvalues", ""),
    ("belowband.lattice", "compare", "lattice.compare", ""),
)


class Tracer:
    """Collects spans and work counts; ``installed`` rebinds the program."""

    def __init__(self):
        self.op = -1
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.export_s = 0.0   # shipping forked children's spans home
        self._stack: list[int] = []
        self._brentq_depth = 0

    def _enter(self, name: str, tag: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, tag])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _counting(self, f):
        """``f`` that counts its calls as brentq function evaluations."""
        def counted(x, *fargs):
            self.counts["classify.brentq.fevals"] += 1
            return f(x, *fargs)
        return counted

    def wrap(self, name: str, fn, tag: str = ""):
        tracer = self

        if name == "classify.brentq":
            def traced(f, a, b, *args, **kwargs):
                tracer.counts["classify.brentq.calls"] += 1
                tracer._brentq_depth += 1
                idx = tracer._enter(name, tag)
                try:
                    return fn(tracer._counting(f), a, b, *args, **kwargs)
                finally:
                    tracer._exit(idx)
                    tracer._brentq_depth -= 1
            return traced

        def traced(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            if name == "green.green_values" and tag == "classify" \
                    and tracer._brentq_depth == 0:
                tracer.counts["classify.ladder_evals"] += 1
            if name == "lattice.lowest_eigenvalues":
                tracer._count_solve(args[0] if args else kwargs["ham"])
            idx = tracer._enter(name, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
        return traced

    def _count_solve(self, ham) -> None:
        lattice = importlib.import_module("belowband.lattice")
        dim, nnz = int(ham.dim), int(ham.matrix.nnz)
        # CSR storage: float64 data + int32 indices, int32 row pointers
        nbytes = nnz * 12 + (dim + 1) * 4
        if dim <= getattr(lattice, "DENSE_LIMIT", 0):
            self.counts["lattice.lowest_eigenvalues.calls_dense"] += 1
            nbytes += dim * dim * 8
        else:
            self.counts["lattice.lowest_eigenvalues.calls_lanczos"] += 1
        self.counts["lattice.matrix_bytes"] += nbytes
        self.counts["lattice.dims." + str(dim)] += 1

    @contextmanager
    def span(self, name: str, tag: str = ""):
        """Span around a call the benchmark makes itself."""
        self.counts[name + ".calls"] += 1
        idx = self._enter(name, tag)
        try:
            yield
        finally:
            self._exit(idx)

    @contextmanager
    def installed(self):
        """Rebind every name in BINDINGS for the duration of the block."""
        saved = []
        try:
            for modname, attr, name, tag in BINDINGS:
                mod = importlib.import_module(modname)
                if hasattr(mod, attr):
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, self.wrap(name, original, tag))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def export(self) -> dict:
        """Plain-data snapshot, used to ship a forked child's trace home."""
        return {"spans": self.spans, "counts": dict(self.counts)}

    def absorb(self, data: dict) -> None:
        """Append a child's snapshot, re-basing its parent indices."""
        base = len(self.spans)
        for name, start, end, parent, op, tag in data["spans"]:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1, op, tag])
        for key, value in data["counts"].items():
            self.counts[key] += value

    def overhead_s(self, reps: int = 20000) -> float:
        """Seconds tracing added to the run, from costs measured here and now.

        Every recorded span and every counted brentq evaluation costs what
        the same wrapper costs around an empty function; shipping forked
        children's spans home was timed as it happened.
        """
        def bare(_x=None):
            return None

        def added(wrapped) -> float:
            t0 = time.perf_counter()
            for _ in range(reps):
                bare(0.0)
            t1 = time.perf_counter()
            for _ in range(reps):
                wrapped(0.0)
            t2 = time.perf_counter()
            return max((t2 - t1) - (t1 - t0), 0.0) / reps

        probe = Tracer()
        return (len(self.spans) * added(probe.wrap("probe", bare))
                + self.counts.get("classify.brentq.fevals", 0)
                * added(probe._counting(bare))
                + self.export_s)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _tag in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _p, _op, _tag) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def busy_times(self) -> dict[str, float]:
        """Wall time inside each span name, outermost occurrence only."""
        out: dict[str, float] = defaultdict(float)
        names = [s[0] for s in self.spans]
        for name, start, end, parent, _op, _tag in self.spans:
            p, nested = parent, False
            while p >= 0:
                if names[p] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                out[name] += end - start
        return dict(out)
