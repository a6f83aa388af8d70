"""Decision procedures for submonoid statuses and their defining conditions.

All checks are exhaustive scans with deterministic witnesses: loops run in
ascending index order, so the first counterexample found is the
lexicographically least one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .monoid import FiniteMonoid, MonoidError, inverse_table
from .relations import (
    Relation,
    Verdict,
    as_subset,
    internal_reflexive_closure,
    syntactic_congruence,
    syntactic_preorder,
    zero_class,
)


class NotAGroup(MonoidError):
    """Raised by checks that are only defined over groups."""


def _unit_pairs(m: FiniteMonoid) -> list[tuple[int, int]]:
    e = m.identity
    return [(x, y) for x in range(m.order) for y in range(m.order)
            if m.table[x][y] == e]


def unit_insertion_condition(m: FiniteMonoid, subset) -> Verdict:
    """xy = 1 implies x*u*y in M, for every u in M.

    Equivalent to M being the zero-class of the reflexive syntactic relation.
    Unit pairs are enumerated first since they are usually few.
    """
    sub = as_subset(m, subset)
    table = m.table
    members = sorted(sub)
    for x, y in _unit_pairs(m):
        tx = table[x]
        for u in members:
            if table[tx[u]][y] not in sub:
                return Verdict(False, witness={"x": x, "y": y, "u": u},
                               note="scan over unit pairs")
    return Verdict(True, note="scan over unit pairs")


def unit_transfer_condition(m: FiniteMonoid, subset) -> Verdict:
    """xy = 1, xs in M and ty in M together imply ts in M.

    Sufficient for the reflexive syntactic relation to be compatible with
    the product; holds automatically when the monoid is Dedekind finite.
    """
    sub = as_subset(m, subset)
    table = m.table
    n = m.order
    for x, y in _unit_pairs(m):
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


def _zero_class_status(m: FiniteMonoid, subset, rel: Relation,
                       note: str) -> Verdict:
    sub = as_subset(m, subset)
    zc = zero_class(rel)
    if zc == sub:
        return Verdict(True, note=note)
    return Verdict(False, witness={"u": min(zc ^ sub)}, note=note)


def is_normal_submonoid(m: FiniteMonoid, subset) -> Verdict:
    """M equals the zero-class of its syntactic congruence."""
    return _zero_class_status(m, subset, syntactic_congruence(m, subset),
                              "zero-class of syntactic congruence")


def is_positive_cone(m: FiniteMonoid, subset) -> Verdict:
    """M equals the zero-class of its syntactic preorder."""
    return _zero_class_status(m, subset, syntactic_preorder(m, subset),
                              "zero-class of syntactic preorder")


def is_clot(m: FiniteMonoid, subset) -> Verdict:
    """M is the zero-class of some compatible reflexive relation.

    Decided via the generated closure: M is a clot iff the zero-class of
    the smallest compatible reflexive relation containing {1} x M is M
    itself.  The witness is the least element absorbed beyond M.
    """
    sub = as_subset(m, subset)
    zc = zero_class(internal_reflexive_closure(m, sub))
    note = "generated reflexive-compatible closure"
    if zc == sub:
        return Verdict(True, note=note)
    return Verdict(False, witness={"u": min(zc - sub)}, note=note)


@lru_cache(maxsize=None)
def _pair_reach(m: FiniteMonoid, sub: frozenset, nmax: int):
    """BFS over pairs (plain product, interleaved product).

    Level L holds all pairs (a1*...*a(L+1), a1*u1*a2*...*uL*a(L+1)) with
    each u in M.  Returns (violation state or None, level, stabilized,
    parents) where a violation is a state with plain product 1 whose
    interleaved product left M.
    """
    n = m.order
    table = m.table
    e = m.identity
    members = sorted(sub)
    seen = set()
    parents: dict[int, tuple[int, int]] = {}
    frontier = []
    for a in range(n):
        s = a * n + a
        seen.add(s)
        frontier.append(s)
    level = 0
    while frontier and level < nmax:
        level += 1
        new = []
        for s in frontier:
            p, q = divmod(s, n)
            tp = table[p]
            tq = table[q]
            for u in members:
                tr = table[tq[u]]
                for a2 in range(n):
                    t = tp[a2] * n + tr[a2]
                    if t not in seen:
                        seen.add(t)
                        parents[t] = (s, u)
                        new.append(t)
                        if tp[a2] == e and tr[a2] not in sub:
                            return t, level, False, parents
        frontier = new
    return None, level, not frontier, parents


def interleaved_insertion_bounded(m: FiniteMonoid, subset,
                                  nmax: Optional[int] = None) -> Verdict:
    """Bounded check that identity factorizations absorb members of M:
    whenever a1*...*a(n+1) = 1, every interleaving a1*u1*a2*...*un*a(n+1)
    with u_i in M stays in M, for all n <= nmax.

    A refutation is exact; a pass is bounded unless the reachable pair set
    stabilized below nmax (then it is exact).  Default nmax is order**2.
    Exists as an independent oracle for the closure-based clot test.
    """
    sub = as_subset(m, subset)
    if nmax is None:
        nmax = m.order ** 2
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    bad, level, stabilized, parents = _pair_reach(m, sub, nmax)
    tag = f"pair-reachability bfs, n<={nmax}"
    if bad is None:
        if stabilized:
            return Verdict(True, note=f"{tag}, stabilized at level {level}")
        return Verdict(True, "bounded", note=tag, bound=nmax)
    # walk parents back to a seed to reconstruct the factorization
    n = m.order
    table = m.table
    chain = []
    s = bad
    while s in parents:
        prev, u = parents[s]
        chain.append((prev, u, s))
        s = prev
    chain.reverse()
    a_seq = [s // n]
    u_seq = []
    for prev, u, cur in chain:
        p0, q0 = divmod(prev, n)
        p1, q1 = divmod(cur, n)
        r = table[table[q0][u]]
        a2 = next(a for a in range(n)
                  if table[p0][a] == p1 and r[a] == q1)
        u_seq.append(u)
        a_seq.append(a2)
    return Verdict(False, witness={"n": level, "a_seq": a_seq,
                                   "u_seq": u_seq, "value": bad % n},
                   note=tag)


def homogeneity(m: FiniteMonoid, subset, side: str) -> Verdict:
    """Right homogeneous: aM included in Ma for all a (left: Ma in aM)."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    sub = as_subset(m, subset)
    members = sorted(sub)
    table = m.table
    for a in range(m.order):
        if side == "right":
            cone = {table[v][a] for v in members}
            bad = next((u for u in members if table[a][u] not in cone), None)
        else:
            cone = {table[a][v] for v in members}
            bad = next((u for u in members if table[u][a] not in cone), None)
        if bad is not None:
            return Verdict(False, witness={"a": a, "u": bad},
                           note="inclusion scan")
    return Verdict(True, note="inclusion scan")


def is_conjugation_closed(m: FiniteMonoid, subset) -> Verdict:
    """In a group: g*u*g^-1 in M for all g in the group and u in M."""
    inv = inverse_table(m)
    if inv is None:
        raise NotAGroup("conjugation closure is only defined over groups")
    sub = as_subset(m, subset)
    members = sorted(sub)
    table = m.table
    for g in range(m.order):
        gi = inv[g]
        tg = table[g]
        for u in members:
            if table[tg[u]][gi] not in sub:
                return Verdict(False, witness={"g": g, "u": u},
                               note="conjugation scan")
    return Verdict(True, note="conjugation scan")


def translation_preorder(m: FiniteMonoid, subset, side: str) -> Relation:
    """Right: a <= b iff b in Ma.  Left: a <= b iff b in aM.

    Always reflexive (1 is in M) and transitive; compatibility with the
    product is not guaranteed and should be checked with is_internal.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    sub = as_subset(m, subset)
    members = sorted(sub)
    table = m.table
    rows = []
    for a in range(m.order):
        r = 0
        for v in members:
            r |= 1 << (table[v][a] if side == "right" else table[a][v])
        rows.append(r)
    return Relation(m, tuple(rows), "custom")
