"""Decision procedures for submonoid statuses and their defining conditions.

All checks are exhaustive scans or closures with deterministic witnesses:
loops run in ascending index order, and a witness is the least element or
the first counterexample in that order.
"""

from __future__ import annotations

from .monoid import FiniteMonoid, _right_orbit, unit_pairs
from .relations import (
    Verdict,
    as_subset,
    # not called here since is_clot takes the unit route; kept bound
    # because perfbench/spans.py times the closure under this name
    internal_reflexive_closure,  # noqa: F401
    syntactic_congruence,
    syntactic_preorder,
    zero_class,
    zero_class_verdict,
)


def unit_transfer_condition(m: FiniteMonoid, subset) -> Verdict:
    """xy = 1, xs in M and ty in M together imply ts in M.

    Sufficient for the reflexive syntactic relation to be compatible with
    the product; holds automatically when the monoid is Dedekind finite.
    """
    sub = as_subset(m, subset)
    table = m.table
    n = m.order
    for x, y in unit_pairs(m):
        tx = table[x]
        good_s = [s for s in range(n) if tx[s] in sub]
        good_t = [t for t in range(n) if table[t][y] in sub]
        for s in good_s:
            for t in good_t:
                if table[t][s] not in sub:
                    return Verdict(False,
                                   witness={"x": x, "y": y, "s": s, "t": t},
                                   note="scan over unit pairs")
    return Verdict(True, note="scan over unit pairs")


def is_normal_submonoid(m: FiniteMonoid, subset) -> Verdict:
    """M equals the zero-class of its syntactic congruence."""
    return zero_class_verdict(zero_class(syntactic_congruence(m, subset)),
                              as_subset(m, subset),
                              "zero-class of syntactic congruence")


def is_positive_cone(m: FiniteMonoid, subset) -> Verdict:
    """M equals the zero-class of its syntactic preorder."""
    return zero_class_verdict(zero_class(syntactic_preorder(m, subset)),
                              as_subset(m, subset),
                              "zero-class of syntactic preorder")


def is_clot(m: FiniteMonoid, subset) -> Verdict:
    """M is the zero-class of some compatible reflexive relation.

    The least such relation containing {1} x M is the submonoid of A x A
    generated by the pairs (g, g) and (1, u) with u in M, and M is a clot
    iff its zero-class is M.  A product of those generators has first
    coordinate 1 only when the product of its g's is 1, and in a finite
    monoid that makes every g a unit.  Pushing each (1, u) to the front
    then shows that the zero-class is the submonoid generated by the
    conjugates x*u*y with xy = 1 and u in M.  The witness of a failure
    is the least element of that submonoid outside M, the same element
    as the least one absorbed beyond M by the closure in A x A
    (`internal_reflexive_closure`, which the tests keep as the oracle).
    """
    sub = as_subset(m, subset)
    table = m.table
    conjugates = {table[table[x][u]][y] for x, y in unit_pairs(m)
                  for u in sub}
    zc = set(_right_orbit(m.identity, conjugates, lambda x, g: table[x][g]))
    return zero_class_verdict(zc, sub,
                              "submonoid generated by conjugates by units")


def homogeneity(m: FiniteMonoid, subset, side: str) -> Verdict:
    """Right homogeneous: aM included in Ma for all a (left: Ma in aM)."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    members = sorted(as_subset(m, subset))
    # the left check is the right one with the factors swapped
    table = m.table if side == "right" else tuple(zip(*m.table))
    for a in range(m.order):
        cone = {table[v][a] for v in members}
        bad = next((u for u in members if table[a][u] not in cone), None)
        if bad is not None:
            return Verdict(False, witness={"a": a, "u": bad},
                           note="inclusion scan")
    return Verdict(True, note="inclusion scan")
