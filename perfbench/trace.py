"""Span tracer that wraps the public functions of spinlap's modules from the
outside, so the package itself carries no tracing code.

Every call of a wrapped function records a span (name, start, end, parent).
A span's *layer self time* is its duration minus the time spent below it in
spans of other layers: ``period_matrix`` keeps the time of the hodge helpers
it calls (``harmonic_basis``, ``cotan_laplacian``) but not that of the theta
or surface calls it makes.  A per-function figure sums the layer self time of
the outermost spans of that name, so recursion (``t_matrix_zero`` calls itself
for its error estimate) is not counted twice, while its call count keeps every
call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("surface", "hodge", "homology_spin", "theta", "spectral",
          "determinants")


def _extension_of_assembly(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["extension"]


def _extension_of_solve(args, kwargs):
    return (args[0] if args else kwargs["op"]).extension


# Span names that carry the extension, so the three extensions of one
# function are told apart.
SPLIT_BY = {
    "spectral.assemble_operator": _extension_of_assembly,
    "spectral.eigenvalues": _extension_of_solve,
}


def _count_mesh(counts, args, kwargs, result):
    counts["surface.triangles"] += int(result.n_triangles)


def _count_theta_batch(counts, args, kwargs, result):
    xi = args[1] if len(args) > 1 else kwargs["xi"]
    counts["theta.theta_batch_points"] += int(np.atleast_2d(xi).shape[0])


def _count_solve(counts, args, kwargs, result):
    op = args[0] if args else kwargs["op"]
    counts["spectral.dofs"] += int(op.n_dofs)
    counts["spectral.stiffness_nnz"] += int(op.stiffness.nnz)
    counts["spectral.eigenpairs"] += int(len(result.eigenvalues))


# Work counts taken from a call's arguments and result.
COUNTERS = {
    "surface.generate_mesh": _count_mesh,
    "theta.theta_batch": _count_theta_batch,
    "spectral.eigenvalues": _count_solve,
}

# Calls whose raised exceptions are counted.
FAILURE_COUNTS = {"spectral.zeta_determinant": "spectral.zeta_determinant_failed"}


class Tracer:
    """Records spans of the wrapped calls; install() patches, restore() undoes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []       # (namespace dict, attribute, original)

    def wrap(self, name, fn):
        split = SPLIT_BY.get(name)
        counter = COUNTERS.get(name)
        failure = FAILURE_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = f"{name}.{split(args, kwargs)}" if split else name
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = [span_name, self.clock(), None, parent]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if failure:
                    self.counts[failure] += 1
                raise
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if counter:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self, package="spinlap"):
        """Wrap every public function defined in a traced module and rebind
        each name that refers to it in any of the package's modules."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package
                                      or mod_name.startswith(package + ".")):
                continue
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    namespace[attr] = hit[1]
                    self._patched.append((namespace, attr, obj))
        return self

    def restore(self):
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def function_of(span_name):
    """'spectral.eigenvalues.szego' -> 'spectral.eigenvalues'."""
    return ".".join(span_name.split(".")[:2])


def layer_self_times(spans):
    """Per span: duration minus the time spent in descendant spans of other
    layers (reached through spans of the span's own layer only)."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    foreign = [0.0] * len(spans)
    # children are recorded after their parents, so a reverse sweep sees
    # every child's foreign time before the parent's
    for i in range(len(spans) - 1, -1, -1):
        layer = layer_of(spans[i][0])
        total = 0.0
        for c in children[i]:
            name, start, end, _ = spans[c]
            total += (end - start) if layer_of(name) != layer else foreign[c]
        foreign[i] = total
    return [end - start - foreign[i]
            for i, (_, start, end, _) in enumerate(spans)]


def _outermost(spans, i):
    """True unless an ancestor in the same unbroken run of the span's layer
    carries the same name."""
    name = spans[i][0]
    layer = layer_of(name)
    parent = spans[i][3]
    while parent >= 0 and layer_of(spans[parent][0]) == layer:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def aggregate(spans, counts):
    """Summed layer self time ('<span name>_s'), inclusive time
    ('<span name>_incl_s') and call counts ('<span name>_calls' and
    '<function>_calls') of the recorded spans, each layer's total self time
    ('<layer>.layer_s': time in its spans outside any child span), plus the
    work counts."""
    out = defaultdict(float)
    selfs = layer_self_times(spans)
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, _) in enumerate(spans):
        out[f"{layer_of(name)}.layer_s"] += end - start - child_time[i]
        out[f"{name}_calls"] += 1
        if name != function_of(name):
            out[f"{function_of(name)}_calls"] += 1
        if _outermost(spans, i):
            out[f"{name}_s"] += selfs[i]
            out[f"{name}_incl_s"] += end - start
    for key, value in counts.items():
        out[key] += value
    return dict(out)
