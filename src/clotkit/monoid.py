"""Finite monoids as dense Cayley tables, with submonoid machinery.

Composition convention for transformation monoids is (a*b)(x) = a(b(x));
all left/right homogeneity verdicts elsewhere depend on this choice.
Element indices are dense integers; labels are cosmetic only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterable, NamedTuple, Optional

from .relations import Verdict

DEFAULT_ORDER_CAP = 512
DEFAULT_ENUM_CAP = 10_000


def _is_index(v) -> bool:
    # JSON true and false load as bools, and bool is a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


class MonoidError(Exception):
    """A table or subset failed monoid validation."""


class NotAssociative(MonoidError):
    def __init__(self, i: int, j: int, k: int):
        self.triple = (i, j, k)
        super().__init__(f"not associative at triple ({i}, {j}, {k})")


class BadIdentity(MonoidError):
    def __init__(self, j: int):
        self.index = j
        super().__init__(f"identity law fails at element {j}")


class IndexOutOfRange(MonoidError):
    pass


class OrderCapExceeded(MonoidError):
    pass


@dataclass(frozen=True)
class FiniteMonoid:
    """Immutable Cayley-table monoid; table[i][j] is the index of e_i * e_j."""

    table: tuple[tuple[int, ...], ...]
    identity: int
    labels: tuple[str, ...]
    name: str = "M"

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]


def validate_monoid(table, identity: int, labels=None,
                    name: str = "M") -> FiniteMonoid:
    """Check the identity law and associativity, returning a FiniteMonoid or
    raising an error that names the first violation found."""
    rows = tuple(tuple(row) for row in table)
    n = len(rows)
    if n == 0:
        raise MonoidError("empty table")
    if n > DEFAULT_ORDER_CAP:
        raise OrderCapExceeded(f"order {n} exceeds cap {DEFAULT_ORDER_CAP}")
    for row in rows:
        if len(row) != n:
            raise IndexOutOfRange("table is not square")
        for v in row:
            if not _is_index(v) or not 0 <= v < n:
                raise IndexOutOfRange(
                    f"table entry {v!r} is not an integer in [0, {n})")
    if not _is_index(identity) or not 0 <= identity < n:
        raise IndexOutOfRange(
            f"identity {identity!r} is not an integer in [0, {n})")
    for j in range(n):
        if rows[identity][j] != j or rows[j][identity] != j:
            raise BadIdentity(j)
    for i in range(n):
        ti = rows[i]
        for j in range(n):
            left_row = rows[ti[j]]
            right_row = [ti[x] for x in rows[j]]
            if left_row != tuple(right_row):
                for k in range(n):
                    if left_row[k] != right_row[k]:
                        raise NotAssociative(i, j, k)
    if labels is None:
        labels = tuple(f"e{i}" for i in range(n))
    else:
        labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise MonoidError("label count does not match order")
    return FiniteMonoid(rows, identity, labels, name)


def full_transformation_monoid(k: int):
    """All k**k self-maps of {1..k} under (a*b)(x) = a(b(x)).

    Returns the monoid plus the named subsets "bijections" and "constants".
    Maps are enumerated in lexicographic order of their image tuples and
    labelled by their image words (map (2,1) of {1,2} is "21").
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = k ** k
    if n > DEFAULT_ORDER_CAP:
        raise OrderCapExceeded(
            f"T_{k} has {n} elements, cap {DEFAULT_ORDER_CAP}")
    maps = list(iter_product(range(1, k + 1), repeat=k))
    monoid = _transformation_table(maps, k, f"T{k}")
    bijections = frozenset(i for i, f in enumerate(maps) if len(set(f)) == k)
    constants = frozenset(i for i, f in enumerate(maps) if len(set(f)) == 1)
    return monoid, {"bijections": bijections, "constants": constants}


def _transformation_table(maps: list, k: int, name: str) -> FiniteMonoid:
    """Cayley table of maps of {1..k} that contain the identity and are
    closed under composition, indexed in the given order and labelled by
    their image words."""
    index = {f: i for i, f in enumerate(maps)}
    table = tuple(
        tuple(index[tuple(a[b[x] - 1] for x in range(k))] for b in maps)
        for a in maps
    )
    labels = tuple("".join(map(str, f)) for f in maps)
    return FiniteMonoid(table, index[tuple(range(1, k + 1))], labels, name)


def direct_product(a: FiniteMonoid, b: FiniteMonoid) -> FiniteMonoid:
    """Componentwise product; element (i, j) gets index i*|b| + j."""
    n = a.order * b.order
    if n > DEFAULT_ORDER_CAP:
        raise OrderCapExceeded(
            f"product order {n} exceeds cap {DEFAULT_ORDER_CAP}")
    nb = b.order
    table = tuple(
        tuple(a.table[i1][i2] * nb + b.table[j1][j2]
              for i2 in range(a.order) for j2 in range(nb))
        for i1 in range(a.order) for j1 in range(nb)
    )
    labels = tuple(f"({a.labels[i]},{b.labels[j]})"
                   for i in range(a.order) for j in range(nb))
    return FiniteMonoid(table, a.identity * nb + b.identity, labels,
                        f"{a.name}x{b.name}")


def cyclic_group(n: int) -> FiniteMonoid:
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteMonoid(table, 0, tuple(str(i) for i in range(n)), f"Z{n}")


def restrict_to_submonoid(m: FiniteMonoid, subset: Iterable[int],
                          name: Optional[str] = None) -> FiniteMonoid:
    """Standalone monoid on a subset that contains the identity and is
    closed under the product; element order follows sorted indices."""
    elems = list(SubmonoidMask(m, frozenset(subset)))
    pos = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(pos[m.table[i][j]] for j in elems) for i in elems)
    labels = tuple(m.labels[i] for i in elems)
    return FiniteMonoid(table, pos[m.identity], labels, name or f"{m.name}|sub")


@dataclass(frozen=True)
class SubmonoidMask:
    """Subset of a monoid certified to contain 1 and be closed under product."""

    parent: FiniteMonoid
    bits: frozenset[int]

    def __post_init__(self):
        m = self.parent
        for i in self.bits:
            if not 0 <= i < m.order:
                raise IndexOutOfRange(f"element {i} outside monoid")
        if m.identity not in self.bits:
            raise MonoidError("submonoid must contain the identity")
        for i in self.bits:
            for j in self.bits:
                if m.table[i][j] not in self.bits:
                    raise MonoidError(
                        f"not closed under product: {i}*{j} = {m.table[i][j]}")

    def __iter__(self):
        return iter(sorted(self.bits))

    def __len__(self):
        return len(self.bits)


def _right_orbit(one, generators, times) -> list:
    """The submonoid generated by `generators`, breadth first: the right
    orbit of `one` under them (Froidure & Pin 1997), |orbit|*|generators|
    products x*g = times(x, g).  Refused past DEFAULT_ORDER_CAP elements."""
    orbit = [one]
    seen = {one}
    for x in orbit:
        for g in generators:
            y = times(x, g)
            if y not in seen:
                if len(orbit) >= DEFAULT_ORDER_CAP:
                    raise OrderCapExceeded(
                        f"closure exceeds cap {DEFAULT_ORDER_CAP}")
                seen.add(y)
                orbit.append(y)
    return orbit


def submonoid_closure(m: FiniteMonoid, seed: Iterable[int]) -> SubmonoidMask:
    """Smallest submonoid containing the seed: the right orbit of 1."""
    gens = sorted(set(seed))
    table = m.table
    orbit = _right_orbit(m.identity, gens, lambda x, g: table[x][g])
    # the seed is joined so that a negative index is refused, not wrapped
    return SubmonoidMask(m, frozenset(orbit).union(gens))


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


class SubmonoidEnumeration(NamedTuple):
    masks: list[SubmonoidMask]
    truncated: bool


def enumerate_submonoids(m: FiniteMonoid,
                         cap: int = DEFAULT_ENUM_CAP) -> SubmonoidEnumeration:
    """All submonoids, by `_closed_sets` from {1}: deterministic, at most
    cap, with the truncation flag set when one was left out."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    table = m.table
    both = [[1 << tx[y] | 1 << table[y][x] for y in range(m.order)]
            for x, tx in enumerate(table)]
    found, truncated = _closed_sets(both, 1 << m.identity, cap)
    masks = [SubmonoidMask(m, frozenset(
        i for i in range(m.order) if bits >> i & 1)) for bits in found]
    return SubmonoidEnumeration(masks, truncated)


def is_dedekind_finite(m: FiniteMonoid) -> Verdict:
    """Every one-sided inverse is two-sided: xy = 1 implies yx = 1."""
    e = m.identity
    for x in range(m.order):
        tx = m.table[x]
        for y in range(m.order):
            if tx[y] == e and m.table[y][x] != e:
                return Verdict(False, witness={"x": x, "y": y})
    return Verdict(True)


def group_verdict(m: FiniteMonoid) -> Verdict:
    """Whether every element has a two-sided inverse."""
    return subset_group_verdict(m, frozenset(range(m.order)))


def subset_group_verdict(m: FiniteMonoid, subset) -> Verdict:
    """Whether every element of the subset has a two-sided inverse in it."""
    bits = frozenset(getattr(subset, "bits", subset))
    e = m.identity
    for u in sorted(bits):
        if not any(m.table[u][v] == e and m.table[v][u] == e for v in bits):
            return Verdict(False, witness={"a": u})
    return Verdict(True)


@dataclass(frozen=True)
class TransformationSpec:
    """Generating maps of {1..k}, 1-based values, optionally closed."""

    domain: int
    maps: tuple[tuple[int, ...], ...]
    close: bool = True


def monoid_from_transformations(spec: TransformationSpec) -> FiniteMonoid:
    """The monoid generated by the maps: the right orbit of the identity map.
    With close false the maps must list it and every composite."""
    k = spec.domain
    if not _is_index(k) or not 1 <= k <= DEFAULT_ORDER_CAP:
        raise MonoidError(f"domain {k!r} is not an integer in "
                          f"[1, {DEFAULT_ORDER_CAP}]")
    if not isinstance(spec.close, bool):
        raise MonoidError(f"close {spec.close!r} is not a boolean")
    for f in spec.maps:
        if len(f) != k or any(not _is_index(v) or not 1 <= v <= k for v in f):
            raise MonoidError(
                f"generator {list(f)} is not a self-map of a {k}-element set")
    ident = tuple(range(1, k + 1))
    listed = {tuple(f) for f in spec.maps}
    if not spec.close and ident not in listed:
        raise MonoidError("close=false requires the identity map")

    def compose(f, g):
        h = tuple(f[x - 1] for x in g)
        if not spec.close and h not in listed:
            raise MonoidError(
                f"maps not closed under composition: {f} after {g}")
        return h

    elems = _right_orbit(ident, sorted(listed - {ident}), compose)
    return _transformation_table(sorted(elems), k, f"T{k}-gen")


def monoid_to_dict(m: FiniteMonoid,
                   submonoids: Optional[dict] = None) -> dict:
    d = {
        "name": m.name,
        "order": m.order,
        "table": [list(row) for row in m.table],
        "identity": m.identity,
        "labels": list(m.labels),
    }
    if submonoids:
        d["submonoids"] = {k: sorted(v) for k, v in submonoids.items()}
    return d


def monoid_from_dict(d: dict):
    """Parse either a Cayley-table document or a transformation document.

    Returns (monoid, named_subsets).
    """
    if "table" in d:
        m = validate_monoid(d["table"], d["identity"],
                            labels=d.get("labels"), name=d.get("name", "M"))
        order = d.get("order", m.order)
        if not _is_index(order) or order != m.order:
            raise MonoidError(f"declared order {order!r} does not match table")
        subsets = d.get("submonoids", {})
        if not isinstance(subsets, dict):
            raise MonoidError("submonoids is not an object of named subsets")
        subs = {}
        for name, indices in subsets.items():
            if not isinstance(indices, list):
                raise MonoidError(f"subset {name!r} is not a list of element "
                                  f"indices: {indices!r}")
            bad = [i for i in indices
                   if not (_is_index(i) and 0 <= i < m.order)]
            if bad:
                raise IndexOutOfRange(f"subset {name!r}: index {bad[0]!r} "
                                      f"is not an integer in [0, {m.order})")
            subs[name] = frozenset(indices)
        return m, subs
    if "domain" in d:
        spec = TransformationSpec(d["domain"],
                                  tuple(tuple(f) for f in d["generators"]),
                                  d.get("close", True))
        return monoid_from_transformations(spec), {}
    raise MonoidError("document has neither 'table' nor 'domain'")


def load_monoid(path: str):
    with open(path, encoding="utf-8") as fh:
        return monoid_from_dict(json.load(fh))
