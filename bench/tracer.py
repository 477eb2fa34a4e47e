"""Outside-in tracer: spans around the public functions of phasebound.

`install` replaces every public function and public method defined in a
`phasebound` module by a wrapper that records a span, in every place the
function is bound: its own module, the modules that imported it with
`from .x import y`, and the package namespace. Nothing under `src/`
changes; the patching lives only in the traced benchmark process.

A span is (id, parent, layer, name, thread, start, end, counts). The
layer is the defining module's name. Spans sit in memory until the run
ends. Each thread keeps its own stack of open spans; a thread whose
stack is empty (a pool worker started by `cli._parallel`) attaches to
the outermost open span, which is the `cli.main` call.

Counts are computed by the benchmark from arguments and return values,
never read from the library: Blahut-Arimoto iterations, convergence
flags and the certified gap; grid cells per estimation call; Fock state
dimensions and the bytes a dense complex matrix of that size takes
(computed, not measured).
"""

import functools
import importlib
import inspect
import itertools
import threading
import time

__all__ = ["Tracer", "LAYERS"]

LAYERS = ("priors", "capacity", "rate_distortion", "fock", "bounds",
          "estimation", "verification", "config", "cli")

# span tuple fields
ID, PARENT, LAYER, NAME, THREAD, START, END, COUNTS = range(8)


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _ba_counts(args, kwargs, point, sig):
    """Iterations, convergence and the Blahut gap max_j ln r_j.

    r_j = sum_k p_k a_kj / c_k with a = exp(-s d) and c = a q, for the
    returned reproduction marginal q. The gap bounds how far the point's
    Lagrangian sits above the optimum; a point returned without a
    marginal (zero slope, single atom) is exact and has gap 0.
    """
    import numpy as np

    counts = {"ba_calls": 1, "ba_iters": point.iterations,
              "ba_unconverged": int(not point.converged), "ba_gap": 0.0}
    q = point.output_marginal
    if q is not None:
        bound = sig.bind(*args, **kwargs).arguments
        p = np.asarray(bound["source"], dtype=float)
        p = p / p.sum()
        a = np.exp(-float(bound["slope"]) * np.asarray(bound["distortion"],
                                                        dtype=float))
        c = np.maximum(a @ q, 1e-300)
        counts["ba_gap"] = float(np.log((p / c) @ a).max())
    return counts


def _grid_counts(args, kwargs, result, sig, evaluations):
    """g_phi * g_theta summed over the grid evaluations one call makes."""
    grid = sig.bind(*args, **kwargs).arguments.get("grid")
    phi, theta = (2048, 2048) if grid is None else (grid.phi_points,
                                                    grid.theta_points)
    cells = sum(int(phi * f) * int(theta * f) for f in evaluations)
    counts = {"grid_cells": cells}
    if hasattr(result, "converged"):
        counts["mmse_unconverged"] = int(not result.converged)
    return counts


# bayesian_mmse reruns the grid at half resolution for its drift check
_COUNT_RULES = {
    "rate_distortion.blahut_arimoto_point": _ba_counts,
    "estimation.bayesian_mmse":
        lambda a, k, r, s: _grid_counts(a, k, r, s, (1.0, 0.5)),
    "estimation.monte_carlo_mse":
        lambda a, k, r, s: _grid_counts(a, k, r, s, (1.0,)),
    "estimation.measurement_mutual_information":
        lambda a, k, r, s: _grid_counts(a, k, r, s, (1.0,)),
}


class Tracer:
    """Span recorder; create one per traced process and call install()."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._wrapped = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn):
        """Return the traced twin of `fn`, one per function object."""
        key = id(fn)
        if key in self._wrapped:
            return self._wrapped[key]
        layer = fn.__module__.split(".")[1]
        name = f"{layer}.{fn.__qualname__}"
        rule = _COUNT_RULES.get(name)
        sig = inspect.signature(fn) if rule is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            span_id = next(self._ids)
            stack.append(span_id)
            is_root = self._root is None
            if is_root:
                self._root = span_id
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                if is_root:
                    self._root = None
            counts = {}
            if rule is not None:
                counts = rule(args, kwargs, result, sig)
            matrix = getattr(result, "matrix", None)
            if type(result).__name__ == "DensityMatrix" and matrix is not None:
                counts["state_dim"] = int(matrix.shape[0])
            self.spans.append((span_id, parent, layer, name,
                               threading.get_ident(), start, end, counts))
            return result

        self._wrapped[key] = traced
        return traced

    def install(self, package):
        """Patch every binding of a public phasebound function or method."""
        prefix = package.__name__ + "."
        modules = [package] + [importlib.import_module(prefix + layer)
                               for layer in LAYERS]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and \
                        value.__module__.startswith(prefix):
                    setattr(module, attr, self.wrap(value))
                elif inspect.isclass(value) and \
                        value.__module__.startswith(prefix) and \
                        value.__module__ == module.__name__:
                    self._install_methods(value)

    def _install_methods(self, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw))
