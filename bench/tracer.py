"""Out-of-program tracing of raysym's five layers for the traced benchmark run.

Nothing here is installed in an untraced run.  ``Tracer.install`` wraps each
listed function by rebinding every name in the ``raysym*`` modules that is
bound to the original object (the modules import each other's functions by
name), and patches methods on their class.  Every call records a span: a
name, a start, an end, its parent span and the operation id.  Spans stay in
flat arrays in memory and are reduced to per-layer metrics only when the run
ends, by ``Tracer.metrics``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: The traced functions of each layer; ``Cls.meth`` names a method.
LAYERS = {
    "rays": ("canonical_ray", "Ray.__init__", "ray_function", "sample_ray"),
    "oracles": (
        "RayMapOracle.image",
        "induced_map",
        "general_induced_map",
        "check_orthogonality_preservation",
        "SymmetryOperator.unitarity_defect",
    ),
    "reconstruction": (
        "reconstruct",
        "map_basis",
        "slice_coordinates",
        "fix_phases",
        "classify_automorphism",
        "probe_automorphism",
        "verify_reproduction",
        "gauge_residual",
    ),
    "conformance": ("run_full_conformance", "check_ray_function_invariance", "check_round_trip"),
    "cli": ("main", "load_operator_file", "render_reconstruction", "render_conformance", "render_probe"),
}

#: Span names of the benchmark's own code: one operation, and a user's oracle callable.
OP, ORACLE_FN = "bench.op", "bench.oracle_fn"

#: The span that implements each conformance check, as a child of run_full_conformance.
CHECK_SPANS = {
    "oracles.check_orthogonality_preservation": "orthogonality-preservation",
    "conformance.check_ray_function_invariance": "ray-function-invariance",
    "reconstruction.map_basis": "basis-completeness",
    "reconstruction.probe_automorphism": "automorphism-laws",
    "reconstruction.reconstruct": "scales-unit",
    "conformance.check_round_trip": "round-trip",
    "reconstruction.verify_reproduction": "reproduction",
}


def span_name(layer: str, qualname: str) -> str:
    return f"{layer}.{qualname.replace('__init__', 'init')}"


def metric_names() -> list[str]:
    """Every metric ``Tracer.metrics`` reports, whatever the workload."""
    names = []
    for layer, funcs in LAYERS.items():
        for f in funcs:
            names += [f"{span_name(layer, f)}.calls_per_op", f"{span_name(layer, f)}.self_ms_per_op"]
    names += [f"{layer}.self_share" for layer in LAYERS] + [f"{ORACLE_FN}.self_share"]
    names += [
        "rays.Ray.init_share_of_canonical_ray",
        "reconstruction.reconstruct.oracle_calls_over_floor",
    ]
    names += [f"conformance.check.{c}.ms_per_op" for c in CHECK_SPANS.values()]
    return names


class Tracer:
    def __init__(self):
        self.names = [OP, ORACLE_FN]
        # One entry per span: name id, parent span (-1 for none), op id, start, end.
        self.s_name = array("i")
        self.s_parent = array("q")
        self.s_op = array("q")
        self.s_start = array("d")
        self.s_end = array("d")
        self.current = -1
        self.op_id = -1
        self.recon_dims: dict[int, int] = {}
        self.raised: set[int] = set()
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        """Return ``fn`` recording one span per call under ``name``."""
        nid = self._id(name)
        names, parents, ops = self.s_name, self.s_parent, self.s_op
        starts, ends = self.s_start, self.s_end
        clock, raised, tracer = time.perf_counter, self.raised, self
        note_dim = name == "reconstruction.reconstruct"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(tracer.current)
            ops.append(tracer.op_id)
            ends.append(0.0)
            if note_dim:
                tracer.recon_dims[idx] = args[1] if len(args) > 1 else kwargs["dim"]
            tracer.current = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.add(idx)
                raise
            finally:
                ends[idx] = clock()
                tracer.current = parents[idx]

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "raysym" or n.startswith("raysym.")]
        for layer, funcs in LAYERS.items():
            module = sys.modules.get(f"raysym.{layer}")
            if module is None:
                continue
            for qual in funcs:
                owner_name, _, attr = qual.rpartition(".")
                wrapped_name = span_name(layer, qual)
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    self._rebind(owner, attr, self.wrap(original, wrapped_name))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(original, wrapped_name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self, n_ops: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics over the recorded spans, and broken invariants."""
        name = np.array(self.s_name, dtype=np.int64)
        parent = np.array(self.s_parent, dtype=np.int64)
        dur = np.array(self.s_end) - np.array(self.s_start)
        n = name.size
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)
        ids = {s: i for i, s in enumerate(self.names)}
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_sum = np.bincount(name, weights=self_t, minlength=k)
        op_time = float(dur[name == ids[OP]].sum())

        def of(span: str, table) -> float:
            return float(table[ids[span]]) if span in ids else 0.0

        out: dict[str, float] = {}
        for layer, funcs in LAYERS.items():
            layer_self = 0.0
            for f in funcs:
                s = span_name(layer, f)
                out[f"{s}.calls_per_op"] = of(s, calls) / n_ops
                out[f"{s}.self_ms_per_op"] = of(s, self_sum) * 1e3 / n_ops
                layer_self += of(s, self_sum)
            out[f"{layer}.self_share"] = layer_self / op_time
        out[f"{ORACLE_FN}.self_share"] = of(ORACLE_FN, self_sum) / op_time

        def incl_under(child: str, under: str) -> np.ndarray:
            """Durations of ``child`` spans whose parent is an ``under`` span."""
            if child not in ids or under not in ids:
                return np.zeros(0)
            mask = (name == ids[child]) & nested
            mask[mask] = name[parent[mask]] == ids[under]
            return dur[mask]

        canonical = "rays.canonical_ray"
        total = float(dur[name == ids[canonical]].sum()) if canonical in ids else 0.0
        init_in = float(incl_under("rays.Ray.init", canonical).sum())
        out["rays.Ray.init_share_of_canonical_ray"] = init_in / total if total else 0.0

        for span, check in CHECK_SPANS.items():
            ms = incl_under(span, "conformance.run_full_conformance").sum() * 1e3
            out[f"conformance.check.{check}.ms_per_op"] = float(ms) / n_ops

        problems = []
        over_floor = 0.0
        if "oracles.RayMapOracle.image" in ids and self.recon_dims:
            # Attribute each oracle call to the reconstruct span it ran under.
            img = np.nonzero(name == ids["oracles.RayMapOracle.image"])[0]
            owner = np.full(img.size, -1)
            cur = parent[img]
            recon = ids["reconstruction.reconstruct"]
            while (cur >= 0).any():
                live = cur >= 0
                hit = np.zeros(img.size, dtype=bool)
                hit[live] = name[cur[live]] == recon
                owner[hit] = cur[hit]
                cur = np.where(live & ~hit, parent[np.maximum(cur, 0)], -1)
            per_span = np.bincount(owner[owner >= 0], minlength=n)
            made = floor = 0
            for idx, dim in self.recon_dims.items():
                if idx in self.raised:
                    continue
                made += int(per_span[idx])
                floor += 2 * dim
                if per_span[idx] != 2 * dim:
                    problems.append(f"reconstruct at dim {dim} made {per_span[idx]} oracle calls, not {2 * dim}")
            over_floor = made / floor if floor else 0.0
        out["reconstruction.reconstruct.oracle_calls_over_floor"] = over_floor
        return out, problems
