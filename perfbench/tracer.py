"""Outside-in tracer: wraps public functions of the ``hilbcheck`` layers
without changing any file of the package.

Installing rebinds each traced function under every name by which a loaded
``hilbcheck`` module refers to it, so calls between modules and within one
module both pass through the wrapper.  Uninstalling puts every original back.
Each call records a span (name, start, end, parent span, request id) in
memory; ``summary`` turns the spans into per-function call counts and self
times, and ``write_spans`` writes them out as JSON lines.
"""

import importlib
import json
import pkgutil
import sys
import time
from collections import Counter, defaultdict

import hilbcheck

# Traced functions by module.  census and verify are closed-form or
# compositions of these, so they get no layer of their own.
TRACED = {
    "upoly": ("zgcd",),
    "linalg": ("mat_rank", "kernel_basis", "rref", "determinant", "pfaffian",
               "minor_gcd_sample", "t_adic_minor_valuation"),
    "poly": ("parse_ideal_file",),
    "groebner": ("buchberger", "schreyer_syzygies", "initial_ideal",
                 "ideal_equal", "points_ideal", "linear_syzygies"),
    "artin": ("split_rational_support", "multiplication_operators", "centroid",
              "translate_ideal", "local_hilbert_function",
              "embedding_reduction", "is_primary_at_origin"),
    "apolarity": ("ideal_from_inverse_system",),
    "tangent": ("tangent_dimension", "graded_tangent_dimension",
                "family_machine", "curve_multiplicity"),
    "smooth": ("classify_smoothable", "change_coordinates",
               "project_to_graded", "salmon_turnbull_pfaffian"),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def metric_units():
    """Every per-layer metric name with its unit."""
    out = {}
    for name in TRACED_NAMES:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    out["groebner.buchberger.repeat_ratio"] = "ratio"
    out["groebner.buchberger.basis_size_max"] = "count"
    out["linalg.mat_rank.cells"] = "count"
    out["trace.overhead_s"] = "s"
    return out


def package_modules():
    """Import and return every ``hilbcheck`` module, so that no module can
    import a wrapper while tracing and keep it after uninstalling."""
    for info in pkgutil.iter_modules(hilbcheck.__path__, "hilbcheck."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hilbcheck" or name.startswith("hilbcheck."))]


class Tracer:
    """Collects spans while installed; use as a context manager."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request]
        self.request = None      # request id stamped on new spans
        self.bases = []          # (request, order, elements) of each Groebner basis
        self.cells = 0           # sum of rows x columns passed to mat_rank
        self._stack = []
        self._rebound = []       # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.request])
            stack.append(index)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if name == "groebner.buchberger":
                self.bases.append((self.request, return_value.order, return_value.elements))
            elif name == "linalg.mat_rank":
                self.cells += args[0].nrows * args[0].ncols
            return return_value

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = package_modules()
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"hilbcheck.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, original))
        return self

    def uninstall(self):
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """Per-layer metrics: calls and self time per traced function, the
        Buchberger repeat ratio and largest basis, and mat_rank cells."""
        calls = Counter()
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[index]
        metrics = {}
        for name in TRACED_NAMES:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_s[name]
        seen = set()
        repeats = 0
        for request, order, elements in self.bases:
            key = (request, repr(order), repr(elements[0].ctx) if elements else "",
                   tuple(tuple(sorted(g.terms.items())) for g in elements))
            repeats += key in seen
            seen.add(key)
        metrics["groebner.buchberger.repeat_ratio"] = repeats / len(self.bases) if self.bases else 0.0
        metrics["groebner.buchberger.basis_size_max"] = max(
            (len(e) for _, _, e in self.bases), default=0)
        metrics["linalg.mat_rank.cells"] = self.cells
        return metrics

    def write_spans(self, path):
        """Write the spans as JSON lines, times in seconds from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "request": request}) + "\n")
