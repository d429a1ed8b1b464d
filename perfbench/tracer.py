"""Span tracer for the per-layer run.

The tracer wraps public functions of gridzeta from the benchmark's side; the
program itself is not edited.  A function is replaced in every gridzeta
module that has bound its name (``surface.modulus_from_t`` is a separate
binding from ``special.modulus_from_t``), so calls between modules are
traced as well as calls from the benchmark.  Methods are replaced on their
class.

Each span records its name, the op it belongs to, its parent span, and its
start and end in nanoseconds.  Spans stay in memory and are written out
once, when the run ends.  A layer's self time is its span time minus the
time of the spans it directly contains.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute, span name); "Class.method" replaces a method on its class.
TRACED = (
    ("regions", "classify_u", "regions.classify_u"),
    ("special", "agm", "special.agm"),
    ("special", "nome_t_from_u", "special.nome_t"),
    ("special", "modulus_from_t", "special.modulus_from_t"),
    ("special", "u_pair_from_t", "special.u_pair_from_t"),
    ("surface", "lift_principal", "surface.lift_principal"),
    ("surface", "SurfacePoint.__post_init__", "surface.surface_point"),
    ("surface", "deck_transform", "surface.deck_transform"),
    ("surface", "F_eval", "surface.F_eval"),
    ("surface", "zeta_tilde", "surface.zeta_tilde"),
    ("expansions", "f_and_F_series", "expansions.f_and_F_series"),
    ("expansions", "zeta_series", "expansions.zeta_series"),
    ("expansions", "zeta_series_via_theta", "expansions.zeta_series_via_theta"),
    ("expansions", "t_series_in_u", "expansions.t_series_in_u"),
    ("expansions", "geodesic_counts_from_series", "expansions.geodesic_counts_from_series"),
    ("powerseries", "ExactSeries.__mul__", "powerseries.mul"),
    ("powerseries", "ExactSeries.compose", "powerseries.compose"),
    ("powerseries", "ExactSeries.reciprocal", "powerseries.reciprocal"),
    ("powerseries", "ExactSeries.exp", "powerseries.exp"),
    ("powerseries", "ExactSeries.reversion", "powerseries.reversion"),
    ("oracles", "closed_walk_count_dp", "oracles.walk_dp"),
    ("oracles", "geodesic_count_dp", "oracles.walk_dp"),
    ("oracles", "primitive_class_count", "oracles.primitive_classes"),
    ("oracles", "log_det_torus_quadrature", "oracles.torus_quadrature"),
    ("finite_graphs", "grid_graph", "finite_graphs.build"),
    ("finite_graphs", "torus_graph", "finite_graphs.build"),
    ("finite_graphs", "normalized_log_zeta", "finite_graphs.normalized_log_zeta"),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name in TRACED))
ROOT = "op"


class Tracer:
    """Records nested spans while `active`; wrappers pass straight through
    otherwise, so the benchmark's own checks are not traced."""

    def __init__(self):
        self.names = [ROOT, *LAYERS]
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.active = False
        self.op_id = -1
        self._open: list[int] = []  # ids of the spans now open, innermost last
        self._child_ns: list[int] = []  # time of closed children, per open span

    # -- spans -----------------------------------------------------------------

    def _enter(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_op.append(self.op_id)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0)
        self._open.append(idx)
        self._child_ns.append(0)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _exit(self, idx: int, name_id: int) -> int:
        end = time.perf_counter_ns()
        self.span_end[idx] = end
        self._open.pop()
        dur = end - self.span_start[idx]
        self.calls[name_id] += 1
        self.self_ns[name_id] += dur - self._child_ns.pop()
        if self._child_ns:
            self._child_ns[-1] += dur
        return dur

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span; returns (result, duration in s)."""
        self.op_id = op_id
        self.active = True
        idx = self._enter(0)
        try:
            result = fn(*args)
        finally:
            dur = self._exit(idx, 0)
            self.active = False
        return result, dur * 1e-9

    def _wrap(self, fn, name: str):
        name_id = self._name_id[name]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx, name_id)

        return traced

    # -- installation ------------------------------------------------------------

    def install(self, package) -> None:
        """Replace every traced function in every loaded module of `package`."""
        prefix = package.__name__ + "."
        modules = [package] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith(prefix) and m is not None
        ]
        for module_name, attr, name in TRACED:
            module = sys.modules[prefix + module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                wrapped = self._wrap(original, name)
                for key, value in list(cls.__dict__.items()):
                    if value is original:  # __rmul__ is __mul__
                        setattr(cls, key, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    # -- results -----------------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op call counts and self times of every layer, plus coverage."""
        out = {}
        for i, name in enumerate(self.names):
            if i == 0:
                continue
            out[f"{name}.calls_per_op"] = self.calls[i] / n_ops
            out[f"{name}.self_ms_per_op"] = self.self_ns[i] / n_ops * 1e-6
        op_ns = sum(self.self_ns)  # root self + every layer's self = all op time
        covered = op_ns - self.self_ns[0]
        timed = [
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_name))
            if self.span_name[i] == 0 and self.span_op[i] > 0
        ]
        # mean of the timed ops alone, to set against the untraced run
        out["trace.op_ms"] = sum(timed) / len(timed) * 1e-6 if timed else 0.0
        out["trace.coverage_pct"] = 100.0 * covered / op_ns if op_ns else 0.0
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t{names[self.span_name[i]]}"
                    f"\t{self.span_start[i]}\t{self.span_end[i]}\n"
                )
