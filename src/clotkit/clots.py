"""Decision procedures for submonoid statuses and their defining conditions.

Checks are scans or closures with deterministic witnesses: loops run in
ascending index order, and a witness is the least element or the first
counterexample in that order.  Unit transfer is decided by a theorem: on
a finite monoid it is the closure of M under the product.  D and normal
are read from membership rows, without the syntactic relations.
"""

from __future__ import annotations

from .monoid import FiniteMonoid, as_subset, inverses, submonoid_closure
from .relations import (
    Verdict,
    _membership_rows,
    # not called here, as is_clot and D and normal take shorter routes;
    # kept bound because perfbench/spans.py times them under these names
    internal_reflexive_closure,  # noqa: F401
    syntactic_congruence,  # noqa: F401
    syntactic_preorder,  # noqa: F401
    zero_class_verdict,
)


def group_verdict(m: FiniteMonoid) -> Verdict:
    """Whether every element has a two-sided inverse."""
    return subset_group_verdict(m, frozenset(range(m.order)))


def subset_group_verdict(m: FiniteMonoid, subset) -> Verdict:
    """Whether every element of the subset has its two-sided inverse in it."""
    bits = as_subset(m, subset)
    inverse = inverses(m)
    for u in sorted(bits):
        if inverse.get(u) not in bits:
            return Verdict(False, witness={"a": u})
    return Verdict(True)


def unit_transfer_condition(m: FiniteMonoid, subset) -> Verdict:
    """xy = 1, xs in M and ty in M together imply ts in M.

    On a finite monoid this holds exactly when M is closed under the
    product.  Only if: take x = y = 1.  If: xy = 1 gives yx = 1, as a
    finite monoid is Dedekind finite, so ts = t(yx)s = (ty)(xs).  The
    witness of a failure is x = y = 1 with the first (s, t) in M x M, in
    ascending order, whose product ts leaves M.  The scan over every
    factorization of 1 stays in the tests as the oracle.
    """
    sub = as_subset(m, subset)
    table, e = m.table, m.identity
    members = sorted(sub)
    for s in members:
        for t in members:
            if table[t][s] not in sub:
                return Verdict(False, witness={"x": e, "y": e, "s": s, "t": t},
                               note="closure scan")
    return Verdict(True, note="closure scan")


def _context_verdict(m: FiniteMonoid, subset, equal: bool, note: str):
    """Whether M is the zero-class {b : mem[x] in (equal: is) mem[xb] for
    all x}, mem[xb] = {y : xby in M} being row x of b's context set.  It
    lies in M if 1 does (x = y = 1): then only M is scanned, else all A."""
    sub = as_subset(m, subset)
    mem = _membership_rows(m, sub)
    scan = sorted(sub) if m.identity in sub else range(m.order)
    return zero_class_verdict(frozenset(b for b in scan if all(
        mem[tx[b]] == r if equal else mem[tx[b]] & r == r
        for tx, r in zip(m.table, mem))), sub, note)


def is_normal_submonoid(m: FiniteMonoid, subset) -> Verdict:
    """M equals the zero-class of its syntactic congruence."""
    return _context_verdict(m, subset, True,
                            "zero-class of syntactic congruence")


def is_positive_cone(m: FiniteMonoid, subset) -> Verdict:
    """M equals the zero-class of its syntactic preorder."""
    return _context_verdict(m, subset, False,
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
    conjugates = {table[table[x][u]][y] for x, y in inverses(m).items()
                  for u in sub}
    zc = submonoid_closure(m, conjugates).bits
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
