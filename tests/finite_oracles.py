"""Scans that no command uses, kept beside the tests as independent
oracles for the decision procedures in clotkit.

* `unit_pairs`: every factorization xy = 1, the pairs the scans below
  run over;
* `is_dedekind_finite`: C3 by a scan over unit pairs, which a finite
  monoid passes by theorem;
* `unit_transfer_scan`: C2 by a scan over unit pairs, which a finite
  monoid passes exactly on the subsets closed under the product;
* `unit_insertion_condition`: C0 by a scan over unit pairs;
* `interleaved_insertion_bounded`: identity factorizations absorbing
  interleaved members, a breadth-first re-derivation of clot status;
* `is_conjugation_closed`: clot status on a group, by conjugation;
* `translation_preorder`: the relations b in Ma (right) and b in aM (left);
* `relation_flags`: reflexivity, symmetry, transitivity and translation
  stability of a relation;
* `pairwise_submonoid_closure`: the generated submonoid by products of
  every pair found, in both orders;
* `two_sided_closed_sets`: the closed sets of a product table, each
  extension closed by multiplying every new element by every member in
  both orders;
* `enumerated_residue_submonoids`: the bicyclic residue submonoids, as the
  closed sets of the multi-valued product table of the residue classes,
  deduplicated on their least periods.
"""

from __future__ import annotations

from math import lcm
from typing import Optional

from clotkit import bicyclic as bc
from clotkit.monoid import FiniteMonoid, MonoidError
from clotkit.relations import Relation, Verdict, _bits, as_subset


class NotAGroup(MonoidError):
    """Raised by checks that are only defined over groups."""


def unit_pairs(m: FiniteMonoid) -> list[tuple[int, int]]:
    """Every factorization xy = 1, in ascending order of (x, y)."""
    e = m.identity
    return [(x, y) for x, row in enumerate(m.table)
            for y, xy in enumerate(row) if xy == e]


def is_dedekind_finite(m: FiniteMonoid) -> Verdict:
    """Every one-sided inverse is two-sided: xy = 1 implies yx = 1."""
    e = m.identity
    for x, y in unit_pairs(m):
        if m.table[y][x] != e:
            return Verdict(False, witness={"x": x, "y": y})
    return Verdict(True)


def unit_transfer_scan(m: FiniteMonoid, subset) -> Verdict:
    """xy = 1, xs in M and ty in M together imply ts in M, scanned over
    every unit pair (x, y) and then every such s and t in ascending order."""
    sub = as_subset(m, subset)
    table = m.table
    n = m.order
    for x, y in unit_pairs(m):
        good_s = [s for s in range(n) if table[x][s] in sub]
        good_t = [t for t in range(n) if table[t][y] in sub]
        for s in good_s:
            for t in good_t:
                if table[t][s] not in sub:
                    return Verdict(False,
                                   witness={"x": x, "y": y, "s": s, "t": t},
                                   note="scan over unit pairs")
    return Verdict(True, note="scan over unit pairs")


def unit_insertion_condition(m: FiniteMonoid, subset) -> Verdict:
    """xy = 1 implies x*u*y in M, for every u in M.

    Equivalent to M being the zero-class of the reflexive syntactic relation.
    Unit pairs are enumerated first since they are usually few.
    """
    sub = as_subset(m, subset)
    table = m.table
    members = sorted(sub)
    for x, y in unit_pairs(m):
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
        return Verdict(True, note=tag, bound=nmax)
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


def pairwise_submonoid_closure(m: FiniteMonoid, seed) -> frozenset:
    """Smallest submonoid containing the seed: repeated pairwise products."""
    bits = {m.identity} | set(seed)
    pending = sorted(bits)
    i = 0
    while i < len(pending):
        x = pending[i]
        i += 1
        for y in list(pending):
            for z in (m.table[x][y], m.table[y][x]):
                if z not in bits:
                    bits.add(z)
                    pending.append(z)
    return frozenset(bits)


def _table_closure(both: list[list[int]], bits: int, c: int) -> int:
    """The least set closed under a product table that holds the closed set
    `bits` and the element c; both[x][y] is the bitmask of x*y and y*x.
    Only a product with a new element can be new, so each new element is
    multiplied by the members, new ones included."""
    members = [x for x in range(len(both)) if bits >> x & 1]
    bits |= 1 << c
    members.append(c)
    pending = [c]
    while pending:
        row = both[pending.pop()]
        products = 0
        for y in members:
            products |= row[y]
        new = products & ~bits
        while new:
            low = new & -new
            new ^= low
            bits |= low
            z = low.bit_length() - 1
            members.append(z)
            pending.append(z)
    return bits


def _closed_sets(both: list[list[int]], first: int,
                 cap: Optional[int] = None) -> tuple[list[int], bool]:
    """Bitmasks of the sets closed under `both` (see `_table_closure`) that
    hold the closed set `first`, by breadth-first one-element extensions in
    ascending element order; at most cap, flagged when one was left out."""
    found = [first]
    seen = {first}
    for bits in found:
        for c in range(len(both)):
            if not bits >> c & 1:
                grown = _table_closure(both, bits, c)
                if grown not in seen:
                    if len(found) == cap:
                        return found, True
                    seen.add(grown)
                    found.append(grown)
    return found, False


def two_sided_closed_sets(right: list[list[int]], one: int,
                          cap: Optional[int] = None) -> tuple[list[int], bool]:
    """The sets closed under the product table `right` (right[x][y] is the
    bitmask of x*y) that hold `one`, in the order and with the truncation
    flag of `clotkit.monoid._closed_sets`, found by closing each extension
    on both sides instead of by right orbits."""
    n = len(right)
    both = [[right[x][y] | right[y][x] for y in range(n)] for x in range(n)]
    return _closed_sets(both, _table_closure(both, 0, one), cap)


def residue_product_table(p: int, q: int) -> list[list[int]]:
    """table[c1][c2]: the bitmask of residue classes that products of an
    element of class c1 by one of class c2 fall in, class (r, s) being bit
    r*q + s.

    The product y^n1 x^m1 * y^n2 x^m2 is y^(n1 + max(d, 0)) x^(m2 +
    max(-d, 0)) with d = n2 - m1, so its class depends only on r1, s2 and d.
    The differences d are taken between representatives in [0, 2*lcm(p, q)),
    the range `residue_submonoid` proves exhaustive.
    """
    span = 2 * lcm(p, q)
    # for (s1, r2): the shifts d mod p with d >= 0, and -d mod q with d < 0
    up = [[set() for _ in range(p)] for _ in range(q)]
    down = [[set() for _ in range(p)] for _ in range(q)]
    for m1 in range(span):
        for n2 in range(span):
            d = n2 - m1
            if d >= 0:
                up[m1 % q][n2 % p].add(d % p)
            else:
                down[m1 % q][n2 % p].add(-d % q)
    classes = [(r, s) for r in range(p) for s in range(q)]
    table = []
    for r1, s1 in classes:
        row = []
        for r2, s2 in classes:
            bits = 0
            for a in up[s1][r2]:
                bits |= 1 << (((r1 + a) % p) * q + s2)
            for b in down[s1][r2]:
                bits |= 1 << (r1 * q + (s2 + b) % q)
            row.append(bits)
        table.append(row)
    return table


def closed_residue_sets(p: int, q: int) -> list[frozenset]:
    """Every residue set mod (p, q) that holds (0, 0) and is closed under
    the residue product table, listed in increasing order of their bitmasks
    (class (r, s) is bit r*q + s)."""
    found, _ = two_sided_closed_sets(residue_product_table(p, q), 0)
    return [frozenset(divmod(c, q) for c in range(p * q) if bits >> c & 1)
            for bits in sorted(found)]


def _minimal_form(p: int, q: int, residues: frozenset) -> tuple:
    """(p0, q0, residues mod (p0, q0)) for the least periods p0 | p and
    q0 | q of the set in its y- and x-exponents.  The periods of a set are
    intrinsic to it, so two residue presentations give the same triple
    exactly when they define the same submonoid."""
    p0 = next(t for t in range(1, p + 1) if p % t == 0 and all(
        ((r + t) % p, s) in residues for r, s in residues))
    q0 = next(t for t in range(1, q + 1) if q % t == 0 and all(
        (r, (s + t) % q) in residues for r, s in residues))
    return p0, q0, frozenset((r % p0, s % q0) for r, s in residues)


def enumerated_residue_submonoids(moduli_bound: int):
    """All residue submonoids with moduli <= bound, each in its first
    presentation: by (p, q), then by the order of `closed_residue_sets`."""
    out = []
    seen = set()
    for p in range(1, moduli_bound + 1):
        for q in range(1, moduli_bound + 1):
            for residues in closed_residue_sets(p, q):
                key = _minimal_form(p, q, residues)
                if key not in seen:
                    seen.add(key)
                    out.append(bc.ResidueSubmonoid(p, q, residues))
    return out
