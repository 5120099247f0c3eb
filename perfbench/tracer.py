"""In-process span aggregation for traced benchmark invocations.

``install()`` wraps the layer-boundary functions of each ``shiftedschur``
module before the CLI runs.  A wrapped name is replaced in every module that
holds it (``from .polyring import poly_det`` binds the function at import
time), and a wrapped method in every class attribute that holds it (so
``Poly.__rmul__`` counts as ``Poly.__mul__``).

Spans are aggregated in memory per function: calls, inclusive seconds
(outermost frame only, so recursion is not counted twice) and self seconds
(span minus the spans of wrapped callees).  ``compute_expansion`` spans are
also kept one by one, as one table row each.  Each process writes its
aggregates once, to ``<trace_dir>/<pid>.json``: the invocation process when
the CLI returns, and each forked ``--jobs`` worker from a multiprocessing
finalizer as it exits.  Workers started with ``spawn`` or ``forkserver``
import the package afresh and are not traced.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing.util
import os
import sys
import time

# Layer-boundary functions per module; "Class.method" names a method.
TARGETS = {
    "partitions": ("count_standard_tableaux", "partitions_between", "partitions_up_to"),
    "polyring": (
        "Poly.__mul__",
        "Poly.__add__",
        "Poly.substitute",
        "Poly.specialize_y",
        "poly_det",
        "divide_exact",
        "divide_linear",
        "canonical_string",
    ),
    "schur": ("double_schur", "shifted_double_schur", "restrict_to_fixed_point"),
    "structconst": (
        "compute_expansion",
        "multiply_schubert",
        "structure_constants_via_localization",
        "multiplication_table",
        "table_to_json_obj",
        "table_to_text",
        "table_to_latex",
        "expansion_to_text",
        "expansion_to_latex",
        "dumps_canonical",
    ),
    "comult": (
        "coproduct_power_polynomial",
        "verify_primitivity",
        "PowerPolynomial.__mul__",
        "TensorElement.__mul__",
    ),
    "cli": ("run",),
}

# Spans that also count toward the "structconst.render" group.
RENDER = {
    "structconst." + name
    for name in (
        "table_to_json_obj",
        "table_to_text",
        "table_to_latex",
        "expansion_to_text",
        "expansion_to_latex",
        "dumps_canonical",
    )
}
RENDER_GROUP = "structconst.render"
PAIR_SPAN = "structconst.compute_expansion"
CACHED_MODULES = ("partitions", "schur", "structconst")


class Tracer:
    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.stats: dict[str, list] = {}  # key -> [calls, inclusive_s, self_s]
        self.depth: dict[str, int] = {}
        self.stack: list[float] = []  # child-span seconds of each open frame
        self.pair_s: list[float] = []
        self.term_products = 0
        self.terms_out = 0
        self.cache_base = {m: [0, 0] for m in CACHED_MODULES}

    def wrap(self, fn, key: str):
        rec = self.stats.setdefault(key, [0, 0.0, 0.0])
        self.depth.setdefault(key, 0)
        group = RENDER_GROUP if key in RENDER else None
        if group:
            self.stats.setdefault(group, [0, 0.0, 0.0])
            self.depth.setdefault(group, 0)
        pairs = self.pair_s if key == PAIR_SPAN else None
        depth = self.depth
        stack = self.stack
        stats = self.stats
        clock = time.perf_counter

        def traced(*args, **kwargs):
            depth[key] += 1
            if group:
                depth[group] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += span
                rec[0] += 1
                rec[2] += span - child
                depth[key] -= 1
                if not depth[key]:
                    rec[1] += span
                if group:
                    depth[group] -= 1
                    if not depth[group]:
                        g = stats[group]
                        g[0] += 1
                        g[1] += span
                if pairs is not None:
                    pairs.append(span)

        return traced

    def count_mul(self, mul, poly_type):
        """Wrap Poly.__mul__ so each Poly x Poly product adds len(a)*len(b)
        to term_products and the product's length to terms_out."""

        def counted(a, b):
            out = mul(a, b)
            if isinstance(b, poly_type) and out is not NotImplemented:
                self.term_products += len(a) * len(b)
                self.terms_out += len(out)
            return out

        return counted

    def install(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "shiftedschur" or name.startswith("shiftedschur.")
        ]
        for module_name, names in TARGETS.items():
            module = importlib.import_module(f"shiftedschur.{module_name}")
            for name in names:
                key = f"{module_name}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[attr]
                    inner = self.count_mul(orig, cls) if key == "polyring.Poly.__mul__" else orig
                    wrapper = self.wrap(inner, key)
                    for alias, value in list(cls.__dict__.items()):
                        if value is orig:
                            setattr(cls, alias, wrapper)
                else:
                    orig = getattr(module, name)
                    wrapper = self.wrap(orig, key)
                    for holder in modules:
                        for alias, value in list(vars(holder).items()):
                            if value is orig:
                                setattr(holder, alias, wrapper)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # A forked --jobs worker: drop the parent's open frames and totals,
        # count its cache activity from here, and write out as it exits.
        base = self._cache_totals()
        for rec in self.stats.values():
            rec[:] = [0, 0.0, 0.0]
        self.depth.update(dict.fromkeys(self.depth, 0))
        del self.stack[:], self.pair_s[:]
        self.term_products = self.terms_out = 0
        self.cache_base = {m: [h, mi] for m, (h, mi, _) in base.items()}
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    @staticmethod
    def _cache_totals() -> dict[str, list[int]]:
        totals = {}
        for name in CACHED_MODULES:
            module = importlib.import_module(f"shiftedschur.{name}")
            hits = misses = entries = 0
            for value in vars(module).values():
                info = getattr(value, "cache_info", None)
                if info is None or getattr(value, "__module__", None) != module.__name__:
                    continue
                ci = info()
                hits += ci.hits
                misses += ci.misses
                entries += ci.currsize
            totals[name] = [hits, misses, entries]
        return totals

    def dump(self) -> None:
        cache = {
            m: [h - self.cache_base[m][0], mi - self.cache_base[m][1], e]
            for m, (h, mi, e) in self._cache_totals().items()
        }
        record = {
            "stats": self.stats,
            "pair_s": self.pair_s,
            "counts": {
                "polyring.mul.term_products": self.term_products,
                "polyring.mul.terms_out": self.terms_out,
            },
            "cache": cache,
        }
        path = os.path.join(self.trace_dir, f"{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
