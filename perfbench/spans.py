"""In-memory span tracer for the traced benchmark run.

The tracer wraps, from outside the package, every public function of the
mapcert layers (linalg -> maps -> zeros -> certify -> experiments ->
documents -> cli) and three numpy kernels (numpy.linalg.svd,
numpy.linalg.eigh, numpy.kron).  A wrapper is installed wherever a caller
looks the name up: the module attribute of every mapcert module that holds
the original function (``from .zeros import harvest_zeros`` binds the name in
the importing module), and the numpy module attribute for the kernels.  No
source file changes.

Each span records its name, start, end, parent span and the operation id of
the entry-point call it belongs to.  Spans stay in memory and are written
out once, when the run ends.  Kernel work is attributed to the innermost
enclosing layer span; ``<layer>.kernel.<k>.*`` metrics sum the kernel spans
anywhere below a layer span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("linalg", "maps", "zeros", "certify", "experiments", "documents", "cli")

# Per-layer metrics reported by the traced run, with their units.  A metric
# a workload does not exercise reads 0.
METRICS = {
    "zeros.harvest_zeros.s": "s",
    "zeros.harvest_zeros.self_s": "s",
    "zeros.harvest_zeros.pairs_kept": "count",
    "zeros.harvest_zeros.kernel.svd.calls": "count",
    "zeros.harvest_zeros.kernel.svd.s": "s",
    "certify.commutant_basis.calls": "count",
    "certify.commutant_basis.s": "s",
    "kernel.svd.calls": "count",
    "kernel.svd.s": "s",
    "kernel.svd.flops_computed": "flop",
    "kernel.svd.bytes_computed": "B",
    "kernel.kron.calls": "count",
    "kernel.kron.s": "s",
    "kernel.eigh.calls": "count",
    "kernel.eigh.s": "s",
    "maps.apply.calls": "count",
    "maps.apply.s": "s",
    "maps.is_positive_heuristic.s": "s",
    "zeros.analytic_zeros_conjugation.s": "s",
    "zeros.span_dim.s": "s",
    "linalg.span_dimension.calls": "count",
    "linalg.span_dimension.s": "s",
    "linalg.numerical_rank.calls": "count",
    "linalg.kernel_basis.calls": "count",
    "linalg.kernel_basis.s": "s",
    "certify.certify_optimal.s": "s",
    "certify.certify_exposed.s": "s",
    "experiments.run_dimension_sweep.s": "s",
    "experiments.brute_force_strong_dim_oracle.s": "s",
    "documents.s": "s",
    "cli.main.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "1",
}

# Metric groups that add up the outermost spans of several functions.
_GROUPS = {
    "documents.s": lambda name: name.startswith("documents."),
    "zeros.span_dim.s": lambda name: name in ("zeros.weak_span_dim", "zeros.strong_span_dim"),
}


def svd_cost(a, full_matrices=True, compute_uv=True):
    """Computed (flops, bytes) of one LAPACK SVD call, from shapes only.

    Flops are the Golub-Reinsch leading-order counts (Golub & Van Loan,
    Matrix Computations, 3rd ed., sec. 5.4.5) for a p x q matrix with
    p >= q: 4pq^2 - 4q^3/3 for singular values only, 4p^2q + 8pq^2 + 9q^3
    with the full left factor, 14pq^2 + 8q^3 with the thin one.  A complex
    flop counts as four real ones.  Bytes are the input plus every output
    array.  Both ignore caches and blocking, hence "computed".
    """
    shape = getattr(a, "shape", None)
    dtype = getattr(a, "dtype", None)
    if shape is None or dtype is None or len(shape) < 2:
        return 0, 0
    rows, cols = int(shape[-2]), int(shape[-1])
    batch = 1
    for d in shape[:-2]:
        batch *= int(d)
    p, q = max(rows, cols), min(rows, cols)
    complex_ = dtype.kind == "c"
    item = 16 if complex_ else 8
    if not compute_uv:
        flops = 4 * p * q * q - 4 * q ** 3 / 3
        out_items = 0
    elif full_matrices:
        flops = 4 * p * p * q + 8 * p * q * q + 9 * q ** 3
        out_items = rows * rows + cols * cols
    else:
        flops = 14 * p * q * q + 8 * q ** 3
        out_items = rows * q + q * cols
    flops *= 4 if complex_ else 1
    nbytes = item * (rows * cols + out_items) + 8 * q
    return int(round(batch * flops)), batch * nbytes


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def begin_op(self, op_id: int):
        self._op = op_id

    def _add(self, key: str, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, name, fn, on_call=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ops.append(tracer._op)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            if on_call is not None:
                on_call(args, kwargs)
            tracer._stack.append(idx)
            tracer.starts[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _svd_call(self, args, kwargs):
        flops, nbytes = svd_cost(
            args[0] if args else kwargs.get("a"),
            full_matrices=kwargs.get("full_matrices", args[1] if len(args) > 1 else True),
            compute_uv=kwargs.get("compute_uv", args[2] if len(args) > 2 else True),
        )
        self._add("kernel.svd.flops_computed", flops)
        self._add("kernel.svd.bytes_computed", nbytes)

    def _harvest_result(self, zero_set):
        self._add("zeros.harvest_zeros.pairs_kept", len(zero_set.pairs))

    # -- installation ----------------------------------------------------
    def install(self, package, numpy_module):
        """Wrap layer functions and kernels at every lookup site."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                on_result = self._harvest_result if (layer, attr) == ("zeros", "harvest_zeros") else None
                wrapper = self._wrap(f"{layer}.{attr}", fn, on_result=on_result)
                for site in modules:
                    for name, value in list(vars(site).items()):
                        if value is fn:
                            self._patch(site, name, wrapper)
        linalg = numpy_module.linalg
        self._patch(linalg, "svd", self._wrap("kernel.svd", linalg.svd, on_call=self._svd_call))
        self._patch(linalg, "eigh", self._wrap("kernel.eigh", linalg.eigh))
        self._patch(numpy_module, "kron", self._wrap("kernel.kron", numpy_module.kron))

    def _patch(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- aggregation -----------------------------------------------------
    def metrics(self, overhead_ratio: float) -> dict:
        names, parents = self.names, self.parents
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * len(names)
        for i, p in enumerate(parents):
            if p >= 0:
                child_time[p] += durations[i]
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        under: dict[str, float] = {}
        groups = {key: 0.0 for key in _GROUPS}
        for i, name in enumerate(names):
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + durations[i] - child_time[i]
            ancestors = []
            p = parents[i]
            while p >= 0:
                ancestors.append(names[p])
                p = parents[p]
            # Inclusive time counts only the outermost span of a name, so
            # recursion through one function is not counted twice.
            if name not in ancestors:
                total[name] = total.get(name, 0.0) + durations[i]
            for key, member in _GROUPS.items():
                if member(name) and not any(member(a) for a in ancestors):
                    groups[key] += durations[i]
            if name.startswith("kernel."):
                for layer_name in set(ancestors):
                    if not layer_name.startswith("kernel."):
                        under[f"{layer_name}.{name}.calls"] = under.get(f"{layer_name}.{name}.calls", 0) + 1
                        under[f"{layer_name}.{name}.s"] = under.get(f"{layer_name}.{name}.s", 0.0) + durations[i]
        out = {}
        for key, unit in METRICS.items():
            if key in self.counters:
                value = self.counters[key]
            elif key in groups:
                value = groups[key]
            elif key in under:
                value = under[key]
            elif key.endswith(".calls"):
                value = calls.get(key[: -len(".calls")], 0)
            elif key.endswith(".self_s"):
                value = self_time.get(key[: -len(".self_s")], 0.0)
            elif key.endswith(".s"):
                value = total.get(key[: -len(".s")], 0.0)
            else:
                value = 0
            out[key] = {"value": value, "unit": unit}
        out["trace.spans"] = {"value": len(names), "unit": "count"}
        out["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "1"}
        return out

    def write(self, path):
        """Write every span as one JSON line: id, name, start, end, parent, op."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, name, round(self.starts[i] - t0, 9),
                                     round(self.ends[i] - t0, 9), self.parents[i], self.ops[i]]))
                fh.write("\n")
