"""Per-layer tracing from outside the library.

Every public function of each ``invring`` module is replaced by a wrapper
that counts its calls and times its span; a few public methods are wrapped
too.  The wrapper is bound under every name that refers to the original,
in every ``invring`` module, so ``from .linalg import rref_mod_p`` aliases
and imports done lazily at call time both reach it.  Self time is the span
minus the spans of wrapped calls nested inside it.

Spans are aggregated in memory per function and turned into metrics once,
at the end of a traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = (
    "groups",
    "poly",
    "domains",
    "linalg",
    "invariants",
    "cmcert",
    "cohomology",
    "quadratic",
    "cli",
)

# Public methods wrapped with timing: (layer, class, method).
TIMED_METHODS = (
    ("poly", "Polynomial", "__mul__"),
    ("quadratic", "Ideal", "multiply"),
)

# Per-scalar domain methods run millions of times; they are counted only,
# so their cost stays in the caller's self time instead of in wrapper
# overhead.
COUNTED_METHODS = ("coerce", "add", "sub", "mul", "neg", "is_zero", "is_unit", "inv", "div")
COUNTED_PROPERTIES = ("zero", "one")

# Private stages timed when present, so a baseline can say where a public
# function spends its self time.  A missing probe reads zero.
PROBES = (("invariants", "_integerize_rows"),)


def _rows_cells(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    return len(rows) * ncols


def _matrix_cells(args, kwargs, result):
    M = args[0] if args else kwargs["M"]
    return M.rows * M.cols


def _square_cells(args, kwargs, result):
    return len(result) ** 2


CELLS = {
    "linalg.rref_mod_p": _rows_cells,
    "linalg.kernel_mod_p": _rows_cells,
    "linalg.integer_kernel_basis": _matrix_cells,
    "poly.action_matrix": _square_cells,
}

SOP_SEARCHES = ("cmcert.find_sop_mod_p", "cmcert.find_sop_mixed")

# Functions each workload must reach.  A zero count here means a wrapper
# was not bound where the library looks the function up, so the traced
# run stops instead of reporting zeros.
REQUIRED = {
    "invariant-rings": (
        "invariants.invariant_basis",
        "invariants.minimal_generators_up_to",
        "invariants.is_standard_graded_up_to",
        "linalg.integer_kernel_basis",
        "linalg.kernel_mod_p",
        "poly.action_matrix",
        "domains.CoefficientDomain.sub",
    ),
    "cm-certify": (
        "invariants.minimal_generators_up_to",
        "invariants.canonical_span",
        "invariants.is_standard_graded_up_to",
        "linalg.rref_mod_p",
        "cmcert.find_sop_mixed",
        "cmcert.find_sop_mod_p",
        "cmcert.regular_sequence_certificate",
        "poly.Polynomial.__mul__",
    ),
    "arithmetic": (
        "quadratic.class_group",
        "quadratic.is_principal",
        "quadratic.Ideal.multiply",
        "quadratic.factor_element",
        "quadratic.primes_above",
        "cohomology.cohomology",
        "linalg.lattice_canonical",
    ),
    "cli": (
        "cli.run",
        "groups.enumerate_group",
    ),
}


class Tracer:
    """Installs wrappers into the imported ``invring`` package."""

    def __init__(self):
        # key -> [calls, total_s, self_s, cells, sop_tried, sop_found]
        self.stats: dict[str, list] = {}
        self._child = []  # child-span time of each open span

    def _entry(self, key):
        return self.stats.setdefault(key, [0, 0.0, 0.0, 0, 0, 0])

    def timed(self, key, fn):
        entry = self._entry(key)
        child = self._child
        cells = CELLS.get(key)
        is_sop = key in SOP_SEARCHES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                nested = child.pop()
                if child:
                    child[-1] += span
                entry[0] += 1
                entry[1] += span
                entry[2] += span - nested
            if cells is not None:
                entry[3] += cells(args, kwargs, result)
            if is_sop:
                entry[4] += result.tried
                entry[5] += bool(result.found)
            return result

        return wrapper

    def counted(self, key, fn):
        entry = self._entry(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"invring.{layer}") for layer in LAYERS}
        replaced = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    replaced[id(obj)] = self.timed(f"{layer}.{name}", obj)
        for layer, name in PROBES:
            obj = getattr(modules[layer], name, None)
            if inspect.isfunction(obj):
                replaced[id(obj)] = self.timed(f"{layer}.{name}", obj)
        # rebind every alias of a wrapped function, in every invring module
        package = importlib.import_module("invring")
        for mod in [package, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)
        for layer, cls_name, meth in TIMED_METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, self.timed(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
        dom_cls = modules["domains"].CoefficientDomain
        for meth in COUNTED_METHODS:
            key = f"domains.CoefficientDomain.{meth}"
            setattr(dom_cls, meth, self.counted(key, vars(dom_cls)[meth]))
        for prop in COUNTED_PROPERTIES:
            key = f"domains.CoefficientDomain.{prop}"
            getter = self.counted(key, vars(dom_cls)[prop].fget)
            setattr(dom_cls, prop, property(getter))

    def check_required(self, workload: str) -> list[str]:
        """Required functions that were never called (stale aliases)."""
        return [k for k in REQUIRED[workload] if self.stats.get(k, [0])[0] == 0]

    def metrics(self) -> dict[str, float]:
        s = self.stats

        def get(key, field):
            return s[key][field] if key in s else 0

        def total(keys, field):
            return sum(get(k, field) for k in keys)

        out = {}
        for layer in LAYERS:
            keys = [k for k in s if k.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = total(keys, 0)
            out[f"{layer}.self_s"] = total(keys, 2)
        kernels = ("linalg.integer_kernel_basis", "linalg.kernel_mod_p")
        lattice = [k for k in s if k.startswith("linalg.lattice_")]
        evaluations = total(SOP_SEARCHES, 4)
        found = total(SOP_SEARCHES, 5)
        out.update(
            {
                "invariants.minimal_generators.calls": get("invariants.minimal_generators_up_to", 0),
                "invariants.canonical_span.calls": get("invariants.canonical_span", 0),
                "invariants.invariant_basis.calls": get("invariants.invariant_basis", 0),
                "invariants.standard_graded.calls": get("invariants.is_standard_graded_up_to", 0),
                "invariants.integerize.self_s": get("invariants._integerize_rows", 2),
                "linalg.rref_mod_p.calls": get("linalg.rref_mod_p", 0),
                "linalg.rref_mod_p.cells": get("linalg.rref_mod_p", 3),
                "linalg.rref_mod_p.self_s": get("linalg.rref_mod_p", 2),
                "linalg.kernel.calls": total(kernels, 0),
                "linalg.kernel.cells": total(kernels, 3),
                "linalg.kernel.self_s": total(kernels, 2),
                "linalg.lattice.calls": total(lattice, 0),
                "cmcert.sop_searches": total(SOP_SEARCHES, 0),
                "cmcert.sop_evaluations": evaluations,
                "cmcert.sop_found": found,
                "cmcert.sop_useful_ratio": found / evaluations if evaluations else 0.0,
                "cmcert.regular_sequence.calls": get("cmcert.regular_sequence_certificate", 0),
                "poly.mul.calls": get("poly.Polynomial.__mul__", 0),
                "poly.action_matrix.calls": get("poly.action_matrix", 0),
                "poly.action_matrix.cells": get("poly.action_matrix", 3),
                "quadratic.class_group.calls": get("quadratic.class_group", 0),
                "quadratic.is_principal.calls": get("quadratic.is_principal", 0),
                "quadratic.ideal_mul.calls": get("quadratic.Ideal.multiply", 0),
                "quadratic.factor.calls": get("quadratic.factor_element", 0),
                "quadratic.primes_above.calls": get("quadratic.primes_above", 0),
                "quadratic.primes_above.self_s": get("quadratic.primes_above", 2),
                "cohomology.cohomology.calls": get("cohomology.cohomology", 0),
                "cli.commands": get("cli.run", 0),
            }
        )
        return out
