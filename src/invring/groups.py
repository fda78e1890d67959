"""Finite matrix groups from generators.

Closure enumeration with an explicit bound, element orders, Sylow
p-subgroups by deterministic greedy closure over p-power-order elements,
and left coset representatives.
"""

from __future__ import annotations

import json

from .domains import (
    CoefficientDomain,
    Matrix,
    is_prime,
    mat_det,
    mat_from_rows,
    mat_identity,
    mat_is_identity,
    mat_mul,
    multiplicity,
    parse_domain,
    record,
)

DEFAULT_BOUND = 10_000


class BoundExceeded(ValueError):
    """Closure grew past the bound; the generated group is infinite or too large."""


class NotSubgroup(ValueError):
    """The claimed subgroup is not contained in the ambient group."""


@record
class MatrixGroup:
    """A finite subgroup of GL_n over an exact coefficient domain."""

    n: int
    coeff: CoefficientDomain
    elements: tuple[Matrix, ...]
    generators: tuple[Matrix, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Matrix:
        return mat_identity(self.coeff, self.n)

    def contains(self, m: Matrix) -> bool:
        return m in set(self.elements)

    def __str__(self):
        return f"MatrixGroup(n={self.n}, order={self.order}, coeff={self.coeff})"


def _closure(
    generators, domain: CoefficientDomain, n: int, bound: int
) -> tuple[Matrix, ...]:
    ident = mat_identity(domain, n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in generators:
                b = mat_mul(domain, a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
                    if len(seen) > bound:
                        raise BoundExceeded(
                            f"group closure exceeded bound {bound}"
                        )
        frontier = nxt
    return tuple(sorted(seen))


def enumerate_group(
    generators,
    coeff: CoefficientDomain,
    n: int | None = None,
    bound: int = DEFAULT_BOUND,
) -> MatrixGroup:
    """Close a generator list under multiplication.

    Raises BoundExceeded when the closure passes the bound (an infinite
    group, e.g. a nontrivial unipotent generator, always trips this).
    """
    gens = tuple(mat_from_rows(coeff, g) for g in generators)
    if n is None:
        if not gens:
            raise ValueError("need n for an empty generator list")
        n = len(gens[0])
    for g in gens:
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError("generators must be square of matching size")
        if not coeff.is_unit(mat_det(coeff, g)):
            raise ValueError("generator is not invertible over the domain")
    elements = _closure(gens, coeff, n, bound)
    return MatrixGroup(n=n, coeff=coeff, elements=elements, generators=gens)


def element_order(domain: CoefficientDomain, m: Matrix, cap: int = DEFAULT_BOUND) -> int:
    power = m
    k = 1
    while not mat_is_identity(domain, power):
        power = mat_mul(domain, power, m)
        k += 1
        if k > cap:
            raise BoundExceeded(f"element order exceeds {cap}")
    return k


def sylow_subgroup(G: MatrixGroup, p: int) -> MatrixGroup:
    """A Sylow p-subgroup, chosen deterministically.

    Greedy closure over the p-power-order elements in canonical order: the
    first candidate whose closure with the current subgroup is still a
    p-group is absorbed.  Any p-subgroup sits inside some Sylow subgroup,
    so the greedy run always reaches full p-power order.  p must be prime
    (ValueError).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    target = p ** multiplicity(G.order, p)
    dom = G.coeff
    if target == 1:
        return trivial_group(G.n, dom)
    candidates = [
        g
        for g in G.elements
        if not mat_is_identity(dom, g)
        and _is_p_power(element_order(dom, g, G.order), p)
    ]
    current = {G.identity}
    gens: list[Matrix] = []
    for g in candidates:
        if len(current) == target:
            break
        if g in current:
            continue
        closure = set(_closure(gens + [g], dom, G.n, G.order))
        if _is_p_power(len(closure), p):
            gens.append(g)
            current = closure
    if len(current) != target:
        raise RuntimeError("greedy Sylow search failed to reach full order")
    elements = tuple(sorted(current))
    return MatrixGroup(n=G.n, coeff=dom, elements=elements, generators=tuple(gens))


def _is_p_power(k: int, p: int) -> bool:
    return k == p ** multiplicity(k, p)


def coset_representatives(G: MatrixGroup, H: MatrixGroup) -> list[Matrix]:
    """One representative per left coset gH, the identity first."""
    g_elems = set(G.elements)
    if H.n != G.n or H.coeff != G.coeff or not set(H.elements) <= g_elems:
        raise NotSubgroup("H is not a subgroup of G")
    dom = G.coeff
    reps = [G.identity]
    covered = set(H.elements)
    for g in G.elements:
        if g in covered:
            continue
        reps.append(g)
        covered |= {mat_mul(dom, g, h) for h in H.elements}
    if len(covered) != G.order or len(reps) * H.order != G.order:
        raise RuntimeError("coset partition failed")
    return reps


def trivial_group(n: int, coeff: CoefficientDomain) -> MatrixGroup:
    return MatrixGroup(
        n=n, coeff=coeff, elements=(mat_identity(coeff, n),), generators=()
    )


def cyclic_generator(G: MatrixGroup) -> Matrix:
    """A generator of a cyclic group (canonically least among them)."""
    dom = G.coeff
    for g in sorted(G.elements):
        if element_order(dom, g, G.order) == G.order:
            return g
    raise ValueError("group is not cyclic")


def _is_json_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _json_entry(coeff: CoefficientDomain, x):
    if isinstance(x, str):
        return coeff.parse_scalar(x)
    if _is_json_int(x):
        return x
    raise ValueError(f"matrix entry {json.dumps(x)} is neither an integer nor a string")


def group_from_json_dict(payload: dict) -> MatrixGroup:
    """Build a group from the file format {"n", "coefficients", "generators"}.

    n and the optional "bound" must be integers, and generators a list of
    n x n matrices given as lists of rows, with integer or string entries;
    anything else raises ValueError.
    """
    if not isinstance(payload, dict):
        raise ValueError("group file must hold a JSON object")
    try:
        n = payload["n"]
    except KeyError:
        raise ValueError("group file is missing field 'n'") from None
    bound = payload.get("bound", DEFAULT_BOUND)
    for key, value in (("n", n), ("bound", bound)):
        if not _is_json_int(value):
            raise ValueError(f"field '{key}' must be an integer, not {json.dumps(value)}")
    try:
        coeff = parse_domain(str(payload["coefficients"]))
    except KeyError:
        raise ValueError("group file is missing field 'coefficients'") from None
    try:
        gens_raw = payload["generators"]
    except KeyError:
        raise ValueError("group file is missing field 'generators'") from None
    if not isinstance(gens_raw, list):
        raise ValueError("field 'generators' must be a list of matrices")
    for g in gens_raw:
        if not (
            isinstance(g, list)
            and len(g) == n
            and all(isinstance(row, list) and len(row) == n for row in g)
        ):
            raise ValueError(f"generator {json.dumps(g)} is not a list of {n} rows of length {n}")
    gens = [[[_json_entry(coeff, x) for x in row] for row in g] for g in gens_raw]
    return enumerate_group(gens, coeff, n=n, bound=bound)
