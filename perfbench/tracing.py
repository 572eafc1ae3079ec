"""Spans and counts around varlap's layer entry points, for the traced run.

The wrappers live only here and are installed only for the traced run; the
program itself carries no instrumentation.  Each wrapper records a span
(name, start, end, parent) in memory and updates per-layer counters from the
call's arguments and result.  Recording is switched on only for the set-up
repetition and the solve pass the per-layer metrics describe.

The solver calls ``VariableOrderOperator._apply_flat`` directly, never the
public ``apply``, so the operator span wraps that one funnel.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

MIB = 2.0 ** 20
F8 = 8  # bytes per float64


def apply_cost(op) -> tuple[int, int]:
    """FFTs and computed bytes moved by one fast apply of ``op``.

    Counted from array sizes, not measured traffic: the input read, the
    padded array written and read by the forward FFT, its spectrum, and
    per rank term the kernel spectrum read, the product written and read,
    the inverse FFT output, the truncated and scaled block, and the
    coefficient column read with the accumulator read and written.
    """
    n = op.grid.size
    shape = op.kernels[0].pad_shape
    pad = int(np.prod(shape))
    u_spec = int(np.prod(shape[:-1])) * (shape[-1] // 2 + 1) * 16
    nbytes = n * F8 + 2 * pad * F8 + u_spec
    for kern in op.kernels:
        nbytes += kern.spectrum.nbytes + 3 * u_spec + pad * F8 + 5 * n * F8
    return len(op.kernels) + 1, nbytes


class Tracer:
    """In-memory span and counter store."""

    def __init__(self):
        self.recording = False
        self.spans: list[list] = []           # [name, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self.tables: dict[tuple, int] = {}    # distinct weight tables -> bytes
        self.ranks: list[int] = []
        self.relres: list[float] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(args, out)
            return out
        return wrapper

    # -- per-layer result hooks ------------------------------------------

    def _on_table(self, args, table):
        self.counts["weights.calls"] += 1
        self.tables[(table.alpha, table.dim, table.m)] = table.values.nbytes

    def _on_plan(self, args, plan):
        self.ranks.append(plan.rank)

    def _on_kernel(self, args, kernel):
        self.counts["operator.spectra_bytes"] += kernel.spectrum.nbytes

    def _on_solve(self, args, res):
        self.counts["solver.solves"] += 1
        self.counts["solver.iterations"] += res.iterations
        self.counts["solver.not_converged"] += res.status != "converged"
        self.relres.append(res.relres)

    def _on_apply(self, args, _out):
        ffts, nbytes = apply_cost(args[0])
        self.counts["operator.applies"] += 1
        self.counts["operator.ffts"] += ffts
        self.counts["operator.apply_bytes"] += nbytes

    def wrap_bicgstab(self, fn):
        """bicgstab span, with the linear map it is given counted per call."""
        inner = self.wrap("solver.bicgstab", fn, self._on_solve)

        @functools.wraps(fn)
        def wrapper(apply_a, rhs, config=None):
            if not self.recording:
                return fn(apply_a, rhs, config)

            def counted(x):
                self.counts["solver.matvecs"] += 1
                return apply_a(x)
            return inner(counted, rhs, config)
        return wrapper

    # -- install / remove --------------------------------------------------

    def install(self):
        """Patch every varlap module attribute bound to a traced function.

        Returns an undo callable.  Module-level functions are replaced in
        every ``varlap`` namespace that imported them, so calls through
        re-exports and ``from .x import f`` bindings are all seen.
        """
        import varlap.grid
        import varlap.lowrank
        import varlap.operator
        import varlap.oracle
        import varlap.solver

        undo = []
        functions = [
            (varlap.operator.weights_nd_fft, "weights.nd_fft", self._on_table),
            (varlap.lowrank.build_plan, "lowrank.build_plan", self._on_plan),
            (varlap.lowrank.rank_coefficients, "lowrank.rank_coefficients", None),
            (varlap.grid.sample_order, "grid.sample_order", None),
            (varlap.solver.positive_component_count, "solver.observe", None),
            (varlap.oracle.gaussian_frac_lap, "oracle.gaussian", None),
        ]
        replacements = [(fn, self.wrap(name, fn, hook))
                        for fn, name, hook in functions]
        replacements.append((varlap.solver.bicgstab,
                             self.wrap_bicgstab(varlap.solver.bicgstab)))
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "varlap" or name.startswith("varlap."))]
        for original, wrapper in replacements:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))

        cls = varlap.operator.ConstantOrderKernel
        from_block = cls.__dict__["from_block"]
        cls.from_block = classmethod(
            self.wrap("operator.spectra", from_block.__func__, self._on_kernel))
        undo.append((cls, "from_block", from_block))
        op_cls = varlap.operator.VariableOrderOperator
        apply_flat = op_cls.__dict__["_apply_flat"]
        op_cls._apply_flat = self.wrap("operator.apply", apply_flat, self._on_apply)
        undo.append((op_cls, "_apply_flat", apply_flat))

        def remove():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
        return remove

    # -- reduction ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def busy(self, *names: str) -> float:
        return float(sum(sum(self.durations(n)) for n in names))

    def self_time(self, name: str) -> float:
        """Span time of ``name`` minus the part its direct children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return float(sum(s[2] - s[1] - child[i]
                         for i, s in enumerate(self.spans) if s[0] == name))

    def root_time(self) -> float:
        """Sum of self times of all spans: the time spent inside any layer."""
        return float(sum(s[2] - s[1] for s in self.spans if s[3] < 0))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        c = self.counts
        applies = c["operator.applies"]
        apply_ms = self.durations("operator.apply")
        return {
            "weights.calls": (c["weights.calls"], "count"),
            "weights.busy_s": (self.busy("weights.nd_fft"), "s"),
            "weights.table_mb": (sum(self.tables.values()) / MIB, "MiB"),
            "lowrank.rank": (max(self.ranks, default=0), "count"),
            "lowrank.busy_s": (self.busy("lowrank.build_plan",
                                         "lowrank.rank_coefficients"), "s"),
            "grid.sample_s": (self.busy("grid.sample_order"), "s"),
            "operator.spectra_s": (self.busy("operator.spectra"), "s"),
            "operator.spectra_mb": (c["operator.spectra_bytes"] / MIB, "MiB"),
            "operator.applies": (applies, "count"),
            "operator.apply_s": (self.busy("operator.apply"), "s"),
            "operator.apply_ms_p50": (
                float(np.median(apply_ms)) * 1e3 if apply_ms else 0.0, "ms"),
            "operator.ffts_per_apply": (
                c["operator.ffts"] / applies if applies else 0.0, "count"),
            "operator.apply_mb": (
                c["operator.apply_bytes"] / applies / MIB if applies else 0.0,
                "MiB"),
            "solver.solves": (c["solver.solves"], "count"),
            "solver.iterations": (c["solver.iterations"], "count"),
            "solver.matvecs": (c["solver.matvecs"], "count"),
            "solver.self_s": (self.self_time("solver.bicgstab"), "s"),
            "solver.relres_max": (max(self.relres, default=0.0), "ratio"),
            "solver.not_converged": (c["solver.not_converged"], "count"),
            "solver.observe_s": (self.busy("solver.observe"), "s"),
            "oracle.calls": (float(len(self.durations("oracle.gaussian"))), "count"),
            "oracle.busy_s": (self.busy("oracle.gaussian"), "s"),
        }
