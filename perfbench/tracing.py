"""Outside-in tracing of anyonbraid for the benchmark's traced run.

The wrappers are installed on module attributes and class methods from
here, so the library is not edited.  Every wrapped call adds to a layer
accumulator of calls, total seconds and seconds spent in wrapped children;
a layer's self time is total minus children.  Coarse calls (one operation,
dimino, synthesize, clifford_check, ...) also record a span.  The hot leaf
calls (DenseMatrix construction, products, keys, phase classes, GF(2)
products, Pauli decompositions) keep only accumulators, so the trace's
memory grows with the number of coarse calls, not with the number of
matrix products.

A wrapper costs time of its own: outside a child's timed window (building
the frame, the stack, the accumulators, the product hook) that time would
be booked to the caller's self time, inside it to the child's.  Both parts
are measured once per tracer on a wrapped no-op (`wrapper_costs`), and each
layer's self time excludes them: the outside part once per wrapped direct
child and once per counted CycScalar construction, the inside part once
per call of the layer itself.  What was taken out is kept per layer as
`tracer_s`.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from contextlib import contextmanager

import anyonbraid.matrix as _matrix

# (layer, module, attribute path, records a span)
TARGETS = (
    ("matrix.new", "anyonbraid.matrix", "DenseMatrix.__init__", False),
    ("matrix.matmul", "anyonbraid.matrix", "DenseMatrix.__matmul__", False),
    ("matrix.key", "anyonbraid.matrix", "DenseMatrix.key", False),
    ("matrix.projective_canonical", "anyonbraid.matrix",
     "DenseMatrix.projective_canonical", False),
    ("ring.phase_class", "anyonbraid.ring", "CycScalar.phase_class", False),
    ("gf2.matmul", "anyonbraid.gf2", "BitMatrix.__matmul__", False),
    ("pauli.basis_decompose", "anyonbraid.pauli", "pauli_basis_decompose", False),
    ("braid.eval_word", "anyonbraid.braid", "eval_word", True),
    ("symplectic.clifford_check", "anyonbraid.symplectic", "clifford_check", True),
    ("symplectic.subgroup", "anyonbraid.symplectic", "symplectic_subgroup", True),
    ("groups.dimino", "anyonbraid.groups", "dimino", True),
    ("groups.center", "anyonbraid.groups", "GroupEnumeration.center", True),
    ("synth.reach", "anyonbraid.synth", "reachability", True),
    ("synth.quotient", "anyonbraid.synth", "clifford_word_via_quotient", True),
    ("synth.bfs", "anyonbraid.synth", "synthesize", True),
    ("cli.main", "anyonbraid.cli", "main", True),
)

# Layers whose calls are the products that a closure or a search spends.
PRODUCTS = ("matrix.matmul", "gf2.matmul")

COUNTERS = (
    "matrix.matmul.computed_madds",
    "matrix.matmul.bigint_fallback",
    "ring.scalar_new.calls",
    "groups.dimino.elements",
    "groups.dimino.products",
    "synth.bfs.states",
    "synth.bfs.products",
)


def _noop(*args, **kwargs):
    return None


def _per_call(run, n: int = 5000, rounds: int = 9) -> float:
    """Median over rounds of the seconds per call that run(n) reports."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(run(n) for _ in range(rounds)) / n
    finally:
        if enabled:
            gc.enable()


def _loop_seconds(fn, n: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return time.perf_counter() - t0


def _empty_loop_seconds(n: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        pass
    return time.perf_counter() - t0


class Tracer:
    """Accumulators, spans and the patches that feed them.

    An accumulator is [calls, total seconds, seconds in wrapped children,
    wrapper cost booked by those children].  A frame on the stack is
    [child seconds, products issued directly from this call, id of the
    nearest enclosing span, wrapper cost booked by the children].
    """

    def __init__(self):
        self.acc = {name: [0, 0.0, 0.0, 0.0] for name, *_ in TARGETS}
        self.acc["bench.op"] = [0, 0.0, 0.0, 0.0]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.op_id = 0
        self._next_span = 0
        self.costs = self.wrapper_costs()
        self._patches = self._build_patches()
        self.installed = False

    def wrapper_costs(self) -> dict:
        """Seconds per call that the wrappers add, measured on a no-op.

        `outside`: booked to the caller by a timing wrapper (`matmul_hook`
        more for a matrix product); `inside`: booked to the wrapped call
        itself; `counter`: booked to the caller by the CycScalar counter.
        """
        self.acc["trace.probe"] = rec = [0, 0.0, 0.0, 0.0]
        probe = self._wrap("trace.probe", _noop, False, cost=0.0)
        counting = self._counting(_noop, 0.0)
        a = _matrix.DenseMatrix.identity(4)
        args, scratch = (a, a), dict.fromkeys(COUNTERS, 0)
        frame = [0.0, 0, None, 0.0]

        def probe_loop(n):
            """(seconds of n probe calls outside their windows, inside them)"""
            frame[0] = rec[1] = 0.0
            seconds = _loop_seconds(probe, n)
            return seconds - frame[0], rec[1]

        self.stack.append(frame)
        empty = _per_call(_empty_loop_seconds)
        call = _per_call(lambda n: _loop_seconds(_noop, n)) - empty
        costs = {
            "outside": _per_call(lambda n: probe_loop(n)[0]) - empty,
            "inside": _per_call(lambda n: probe_loop(n)[1]) - call,
            "counter": _per_call(lambda n: _loop_seconds(counting, n)) - empty - call,
            "matmul_hook": _per_call(lambda n: _loop_seconds(
                lambda: self._after_matmul(args, a, frame, scratch), n)) - empty - call,
        }
        self.stack.pop()
        del self.acc["trace.probe"]
        self.counters["ring.scalar_new.calls"] = 0
        return costs

    # -- patches -----------------------------------------------------

    def _build_patches(self) -> list[tuple]:
        patches = []
        for name, module_name, path, span in TARGETS:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                patches.append((owner, attr, original,
                                self._wrap(name, original, span)))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, span)
            # `from .x import f` copies the binding, so patch every module
            # of the package that holds this very function object.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("anyonbraid"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original, wrapper))
        cyc = sys.modules["anyonbraid.ring"].CycScalar
        original_init = cyc.__dict__["__init__"]
        patches.append((cyc, "__init__", original_init,
                        self._counting(original_init, self.costs["counter"])))
        return patches

    def _counting(self, fn, cost):
        """Count the calls of fn and book `cost` to the enclosing frame."""
        counters, stack = self.counters, self.stack

        def scalar_new(*args, **kwargs):
            counters["ring.scalar_new.calls"] += 1
            if stack:
                stack[-1][3] += cost
            return fn(*args, **kwargs)

        return scalar_new

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)
        self.installed = False

    @contextmanager
    def paused(self):
        """Run untraced code (the benchmark's own checks) inside a traced run."""
        was = self.installed
        if was:
            self.uninstall()
        try:
            yield
        finally:
            if was:
                self.install()

    # -- wrappers ----------------------------------------------------

    def _wrap(self, name, fn, span, cost=None):
        rec = self.acc[name]
        if cost is None:
            cost = self.costs["outside"]
            if name == "matrix.matmul":
                cost += self.costs["matmul_hook"]
        stack, spans, counters = self.stack, self.spans, self.counters
        clock = time.perf_counter
        product = name in PRODUCTS
        after = {
            "matrix.matmul": self._after_matmul,
            "groups.dimino": self._after_dimino,
            "synth.bfs": self._after_bfs,
        }.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None:
                if product:
                    parent[1] += 1
                parent_span = parent[2]
            else:
                parent_span = None
            if span:
                tracer._next_span += 1
                span_id = tracer._next_span
            else:
                span_id = parent_span
            frame = [0.0, 0, span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[0]
                rec[3] += frame[3]
                if parent is not None:
                    parent[0] += dt
                    parent[3] += cost
                if span:
                    spans.append((span_id, parent_span, tracer.op_id, name, t0, t1))
            if after is not None:
                after(args, out, frame, counters)
            return out

        return traced

    @staticmethod
    def _after_matmul(args, out, frame, counters):
        a, b = args[0], args[1]
        d = a.dim
        counters["matrix.matmul.computed_madds"] += 16 * d ** 3
        # Operand or result held as Python ints, or operands large enough
        # that the library computes the product in object dtype.
        if (object in (a.planes.dtype, b.planes.dtype, out.planes.dtype)
                or 4 * d * a._maxabs * b._maxabs >= _matrix._INT64_SAFE):
            counters["matrix.matmul.bigint_fallback"] += 1

    @staticmethod
    def _after_dimino(args, out, frame, counters):
        counters["groups.dimino.elements"] += len(out)
        counters["groups.dimino.products"] += frame[1]

    @staticmethod
    def _after_bfs(args, out, frame, counters):
        counters["synth.bfs.states"] += out.explored
        counters["synth.bfs.products"] += frame[1]

    # -- operations and repetitions ------------------------------------

    @contextmanager
    def op(self, label: str):
        """Root span of one timed operation of a workload."""
        self.op_id += 1
        self._next_span += 1
        span_id = self._next_span
        frame = [0.0, 0, span_id, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            rec = self.acc["bench.op"]
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += frame[0]
            rec[3] += frame[3]
            self.spans.append((span_id, None, self.op_id, "bench.op:" + label, t0, t1))

    def reset(self) -> None:
        """Zero the accumulators in place (the wrappers hold references)."""
        for rec in self.acc.values():
            rec[:] = [0, 0.0, 0.0, 0.0]
        for key in self.counters:
            self.counters[key] = 0

    def snapshot(self) -> dict:
        """Exact counts, self times and the tracer cost taken out of them,
        accumulated since the last reset."""
        counts = {f"{name}.calls": rec[0] for name, rec in self.acc.items()}
        counts.update(self.counters)
        tracer_s = {f"{name}.self_s": rec[3] + rec[0] * self.costs["inside"]
                    for name, rec in self.acc.items()}
        self_s = {key: rec[1] - rec[2] - tracer_s[key]
                  for key, rec in zip(tracer_s, self.acc.values())}
        return {"counts": counts, "self_s": self_s, "tracer_s": tracer_s}


def layer_metrics(snaps: list[dict], overhead_ratio: float) -> dict:
    """Per-layer metrics per repetition: `.calls` and the counters are exact
    counts (the same in every repetition), `.self_s` is the median over the
    traced repetitions."""
    counts = snaps[0]["counts"]
    out = {}
    for name, *_ in TARGETS:
        out[f"{name}.calls"] = counts[f"{name}.calls"]
        out[f"{name}.self_s"] = statistics.median(s["self_s"][f"{name}.self_s"] for s in snaps)
    out.update({key: counts[key] for key in COUNTERS})
    for layer, made in (("groups.dimino", "elements"), ("synth.bfs", "states")):
        products = counts[f"{layer}.products"]
        out[f"{layer}.new_per_product"] = counts[f"{layer}.{made}"] / products if products else 0.0
    out["trace_overhead_ratio"] = overhead_ratio
    return out


def check_repetitions(snaps: list[dict], walls: list[float], overhead_ratio: float) -> list[str]:
    """Problems in the traced repetitions; empty when all checks hold.

    Consecutive repetitions must report identical exact counts, and the
    time no layer claims (benchmark glue, library code reached without a
    wrapped entry point) may not exceed the tracing overhead; the 1% floor
    absorbs the noise of the untraced baseline when the overhead is smaller.
    The layer times checked here include the tracer cost taken out of the
    reported self times, so that they sum to the measured wall time.
    """
    problems = []
    for i, snap in enumerate(snaps[1:], start=2):
        diff = sorted(k for k, v in snap["counts"].items() if v != snaps[0]["counts"][k])
        if diff:
            problems.append(f"repetition {i} counts differ from repetition 1: {diff}")
    allowed = max(1 - 1 / overhead_ratio, 0.01)
    for i, (snap, wall) in enumerate(zip(snaps, walls), start=1):
        layer_self = sum(v + snap["tracer_s"][k] for k, v in snap["self_s"].items()
                         if not k.startswith("bench."))
        if not -1e-9 * wall <= wall - layer_self <= allowed * wall:
            problems.append(f"repetition {i}: layer self times {layer_self:.4f} s do not "
                            f"account for the traced wall time {wall:.4f} s")
    return problems
