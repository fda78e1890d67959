"""Exact-arithmetic computations with invariant rings of finite matrix groups.

Truncated invariant and Veronese subrings over Z, Q, F_p, and Z localized at
p; the transfer map, which from the trivial subgroup is the Reynolds map;
cyclic group cohomology through the periodic trace complex; degree-truncated
Cohen-Macaulay and Gorenstein certificates; and divisor maps with class
groups of quadratic integer rings.

``import invring`` loads no submodule: each public name imports the module
that defines it on first access, so a command line run pays only for what
it uses.  ``from invring import *`` loads them all.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "domains": ("CoefficientDomain", "ZZ", "QQ", "GF", "Z_local", "parse_domain"),
    "linalg": (
        "IntegerMatrix",
        "SmithForm",
        "hermite_normal_form",
        "smith_normal_form",
        "integer_kernel_basis",
        "cokernel_invariant_factors",
    ),
    "poly": (
        "GradedRing",
        "Polynomial",
        "graded_piece_basis",
        "act",
        "action_matrix",
        "format_polynomial",
    ),
    "groups": (
        "MatrixGroup",
        "enumerate_group",
        "sylow_subgroup",
        "coset_representatives",
        "trivial_group",
        "BoundExceeded",
        "NotSubgroup",
    ),
    "invariants": (
        "TruncatedSubalgebra",
        "HilbertFunction",
        "truncated_invariant_ring",
        "invariant_basis",
        "hilbert_function",
        "veronese",
        "is_standard_graded_up_to",
        "minimal_generators_up_to",
        "transfer",
        "NotHInvariant",
        "IndexNotInvertible",
    ),
    "cohomology": (
        "CyclicModule",
        "CohomologyGroup",
        "trace_matrix",
        "cohomology",
        "graded_cohomology",
        "verify_h2_trivial_mod_pi",
        "verify_h1_degree0",
        "verify_pi_annihilates_h1",
        "PreconditionViolated",
    ),
    "cmcert": (
        "CMCertificate",
        "reduce_mod_p",
        "find_sop_mod_p",
        "find_sop_mixed",
        "regular_sequence_certificate",
        "cm_certificate",
        "veronese_cm_search",
        "gorenstein_symmetry_check",
        "NotStandardGraded",
        "NumeratorNotTerminated",
    ),
    "quadratic": (
        "NumberRing",
        "PrimeIdealQ",
        "Divisor",
        "factor_element",
        "primes_above",
        "ramification_length",
        "divisor_map",
        "verify_div_compatibility",
        "class_group",
        "ZeroElement",
        "BoundTooLarge",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


class _Package(types.ModuleType):
    """The class of the ``invring`` module, whose public names load lazily."""

    def __getattr__(self, name):
        if name not in _HOME:
            raise AttributeError(f"module {self.__name__!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{self.__name__}.{_HOME[name]}"), name)
        setattr(self, name, value)
        return value

    def __setattr__(self, name, value):
        # Loading the submodule cohomology binds it here, under the name of
        # the function cohomology; the name stays with the function.
        if not (name == "cohomology" and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)

    def __dir__(self):
        return sorted({*super().__dir__(), *__all__})


sys.modules[__name__].__class__ = _Package
