"""In-memory span tracing around the public steinbounds functions.

The wrappers live here, outside the package: ``install`` rebinds every
reference to a traced function in the loaded ``steinbounds`` modules (the
package imports functions by name, so patching only the defining module
would miss the callers), plus two counter-only hooks:
``scipy.integrate.quad`` (attributed to the layer of the innermost open
span) and ``DistributionSpec.density`` (calls and points evaluated).

A span is ``[name, start, end, parent, op]``; ``op`` is the operation id
shared by the spans of one operation.  Self time is a span's duration minus
the durations of its direct children (children of one span never overlap:
the program is single-threaded).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function, layer) for every traced function.
TRACED = (
    ("catalog", "quantile", "catalog"),
    ("catalog", "numeric_cdf", "catalog"),
    ("solver", "build_grid", "solver"),
    ("solver", "expectation", "solver"),
    ("solver", "solve", "solver"),
    ("solver", "propagate_derivatives", "solver"),
    ("solver", "empirical_sup", "solver"),
    ("solver", "residual_norm", "solver"),
    ("closedform", "bound_for", "closedform"),
    ("engine", "value_coupled_bound", "engine"),
    ("engine", "deriv_coupled_bound", "engine"),
    ("engine", "mixed_coupled_bound", "engine"),
    ("verifier", "verify", "verifier"),
    ("verifier", "sweep", "verifier"),
)


def _spec_key(spec):
    return (spec.family, repr(sorted(spec.params.items())))


# Input identity of a call, for the useful-work ratios (distinct inputs per
# call).  DistributionSpec is not hashable, so specs key on family + params.
_KEYS = {
    "catalog.quantile": lambda a, k: (_spec_key(a[0]), a[1] if len(a) > 1 else k["p"]),
    "solver.build_grid": lambda a, k: (_spec_key(a[0]), a[1] if len(a) > 1 else k.get("n_points")),
    "solver.expectation": lambda a, k: (_spec_key(a[0]), repr(a[1] if len(a) > 1 else k["h"])),
}


class Tracer:
    """Spans and counters of one pass; the workload sets ``op`` before each
    operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.counters: Counter = Counter()
        self.inputs: dict[str, set] = defaultdict(set)
        self.density_tally = [0, 0]  # calls, points

    def _layer(self) -> str:
        return self.spans[self.stack[-1]][0].split(".", 1)[0] if self.stack else "outside"

    def _wrap(self, name: str, fn):
        spans, stack, inputs = self.spans, self.stack, self.inputs
        key_fn = _KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key_fn is not None:
                inputs[name].add(key_fn(args, kwargs))
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name == "solver.propagate_derivatives":
                before = args[0].diagnostics.get("filled_points", 0)
                self.counters["solver.filled_points"] += out.diagnostics["filled_points"] - before
            return out

        return traced

    def install(self) -> None:
        """Rebind the traced functions in every loaded steinbounds module."""
        import scipy.integrate

        import steinbounds.catalog as catalog

        modules = [m for n, m in sys.modules.items() if n == "steinbounds" or n.startswith("steinbounds.")]
        for mod_name, fn_name, layer in TRACED:
            original = getattr(sys.modules[f"steinbounds.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{layer}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

        counters = self.counters
        quad = scipy.integrate.quad

        @functools.wraps(quad)
        def counted_quad(*args, **kwargs):
            counters[f"{self._layer()}.quad.calls"] += 1
            return quad(*args, **kwargs)

        scipy.integrate.quad = counted_quad

        density = catalog.DistributionSpec.density
        ndarray = np.ndarray
        tally = self.density_tally

        # Called once per quadrature node inside quad, so kept minimal.
        @functools.wraps(density)
        def counted_density(spec, x):
            tally[0] += 1
            tally[1] += x.size if type(x) is ndarray else 1
            return density(spec, x)

        catalog.DistributionSpec.density = counted_density

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def summary(self) -> dict:
        """Per-layer counts and self times of this process's spans."""
        calls = Counter(s[0] for s in self.spans)
        return {
            "calls": dict(calls),
            "self_s": self.self_times(),
            "distinct_inputs": {k: len(v) for k, v in self.inputs.items()},
            "counters": {
                **self.counters,
                "catalog.density.calls": self.density_tally[0],
                "catalog.density.points": self.density_tally[1],
            },
            "spans": len(self.spans),
        }
