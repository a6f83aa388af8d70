"""Scans that no command uses, kept beside the tests as independent
oracles for the decision procedures in clotkit.

* `unit_insertion_condition`: C0 by a scan over unit pairs;
* `interleaved_insertion_bounded`: identity factorizations absorbing
  interleaved members, a breadth-first re-derivation of clot status;
* `is_conjugation_closed`: clot status on a group, by conjugation;
* `translation_preorder`: the relations b in Ma (right) and b in aM (left);
* `relation_flags`: reflexivity, symmetry, transitivity and translation
  stability of a relation.
"""

from __future__ import annotations

from typing import Optional

from clotkit.clots import _unit_pairs
from clotkit.monoid import FiniteMonoid, MonoidError
from clotkit.relations import Relation, Verdict, _bits, as_subset


class NotAGroup(MonoidError):
    """Raised by checks that are only defined over groups."""


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


def inverse_table(m: FiniteMonoid) -> Optional[tuple[int, ...]]:
    """Two-sided inverses of all elements, or None if some element has none."""
    e = m.identity
    inv = []
    for a in range(m.order):
        b = next((b for b in range(m.order)
                  if m.table[a][b] == e and m.table[b][a] == e), None)
        if b is None:
            return None
        inv.append(b)
    return tuple(inv)


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


def relation_flags(rel: Relation) -> dict[str, Verdict]:
    """Decide reflexivity, symmetry, transitivity and both translation
    stabilities by exhaustive scan; failures carry the first witness found
    in row-major order."""
    m = rel.parent
    rows = rel.rows
    table = m.table
    n = m.order
    flags: dict[str, Verdict] = {}

    bad = next((a for a in range(n) if not rows[a] >> a & 1), None)
    flags["reflexive"] = Verdict(bad is None,
                                witness=None if bad is None else {"a": bad})

    sym: Optional[dict] = None
    for a in range(n):
        for b in _bits(rows[a]):
            if not rows[b] >> a & 1:
                sym = {"a": a, "b": b}
                break
        if sym:
            break
    flags["symmetric"] = Verdict(sym is None, witness=sym)

    tra: Optional[dict] = None
    for a in range(n):
        for b in _bits(rows[a]):
            extra = rows[b] & ~rows[a]
            if extra:
                tra = {"a": a, "b": b, "c": (extra & -extra).bit_length() - 1}
                break
        if tra:
            break
    flags["transitive"] = Verdict(tra is None, witness=tra)

    left: Optional[dict] = None
    right: Optional[dict] = None
    for a in range(n):
        for b in _bits(rows[a]):
            for c in range(n):
                if left is None and not rows[table[c][a]] >> table[c][b] & 1:
                    left = {"a": a, "b": b, "c": c}
                if right is None and not rows[table[a][c]] >> table[b][c] & 1:
                    right = {"a": a, "b": b, "c": c}
            if left and right:
                break
        if left and right:
            break
    flags["left_translation"] = Verdict(left is None, witness=left)
    flags["right_translation"] = Verdict(right is None, witness=right)
    return flags
