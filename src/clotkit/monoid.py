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


def validate_monoid(table, identity: int, labels=None, name: str = "M",
                    cap: int = DEFAULT_ORDER_CAP) -> FiniteMonoid:
    """Check the identity law and associativity, returning a FiniteMonoid or
    raising an error that names the first violation found."""
    rows = tuple(tuple(row) for row in table)
    n = len(rows)
    if n == 0:
        raise MonoidError("empty table")
    if n > cap:
        raise OrderCapExceeded(f"order {n} exceeds cap {cap}")
    for row in rows:
        if len(row) != n:
            raise IndexOutOfRange("table is not square")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise IndexOutOfRange(f"table entry {v!r} outside [0, {n})")
    if not 0 <= identity < n:
        raise IndexOutOfRange(f"identity {identity} outside [0, {n})")
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


def full_transformation_monoid(k: int, cap: int = DEFAULT_ORDER_CAP):
    """All k**k self-maps of {1..k} under (a*b)(x) = a(b(x)).

    Returns the monoid plus the named subsets "bijections" and "constants".
    Maps are enumerated in lexicographic order of their image tuples and
    labelled by their image words (map (2,1) of {1,2} is "21").
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = k ** k
    if n > cap:
        raise OrderCapExceeded(f"T_{k} has {n} elements, cap {cap}")
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


def direct_product(a: FiniteMonoid, b: FiniteMonoid,
                   cap: int = DEFAULT_ORDER_CAP) -> FiniteMonoid:
    """Componentwise product; element (i, j) gets index i*|b| + j."""
    n = a.order * b.order
    if n > cap:
        raise OrderCapExceeded(f"product order {n} exceeds cap {cap}")
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
    elems = sorted(set(subset))
    pos = {e: i for i, e in enumerate(elems)}
    if m.identity not in pos:
        raise MonoidError("subset does not contain the identity")
    for i in elems:
        for j in elems:
            if m.table[i][j] not in pos:
                raise MonoidError(
                    f"subset not closed: {i}*{j} = {m.table[i][j]}")
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


def submonoid_closure(m: FiniteMonoid, seed: Iterable[int]) -> SubmonoidMask:
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
    return SubmonoidMask(m, frozenset(bits))


class SubmonoidEnumeration(NamedTuple):
    masks: list[SubmonoidMask]
    truncated: bool


def enumerate_submonoids(m: FiniteMonoid,
                         cap: int = DEFAULT_ENUM_CAP) -> SubmonoidEnumeration:
    """All submonoids, by breadth-first one-element extensions of closed sets.

    Deterministic: layers are explored in discovery order and extensions by
    ascending element index.  Stops at cap with the truncation flag set.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    first = submonoid_closure(m, ())
    seen = {first.bits}
    out = [first]
    layer = [first.bits]
    while layer:
        next_layer = []
        for bits in layer:
            for x in range(m.order):
                if x in bits:
                    continue
                grown = submonoid_closure(m, bits | {x})
                if grown.bits not in seen:
                    seen.add(grown.bits)
                    out.append(grown)
                    next_layer.append(grown.bits)
                    if len(out) >= cap:
                        return SubmonoidEnumeration(out, True)
        layer = next_layer
    return SubmonoidEnumeration(out, False)


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


def monoid_from_transformations(spec: TransformationSpec,
                                cap: int = DEFAULT_ORDER_CAP) -> FiniteMonoid:
    k = spec.domain
    if k < 1:
        raise MonoidError("domain size must be >= 1")
    for f in spec.maps:
        if len(f) != k or any(not 1 <= v <= k for v in f):
            raise MonoidError(f"map {f} is not a self-map of a {k}-element set")
    ident = tuple(range(1, k + 1))
    elems = {ident} | {tuple(f) for f in spec.maps}
    if spec.close:
        pending = sorted(elems)
        i = 0
        while i < len(pending):
            f = pending[i]
            i += 1
            for g in list(pending):
                for h in (tuple(f[g[x] - 1] for x in range(k)),
                          tuple(g[f[x] - 1] for x in range(k))):
                    if h not in elems:
                        if len(elems) >= cap:
                            raise OrderCapExceeded(
                                f"closure exceeds cap {cap}")
                        elems.add(h)
                        pending.append(h)
    else:
        if ident not in {tuple(f) for f in spec.maps}:
            raise MonoidError("close=false requires the identity map")
        for f in elems:
            for g in elems:
                h = tuple(f[g[x] - 1] for x in range(k))
                if h not in elems:
                    raise MonoidError(
                        f"maps not closed under composition: {f} after {g}")
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
        if "order" in d and d["order"] != m.order:
            raise MonoidError(
                f"declared order {d['order']} does not match table")
        subs = {}
        for name, indices in d.get("submonoids", {}).items():
            bad = [i for i in indices
                   if not (isinstance(i, int) and 0 <= i < m.order)]
            if bad:
                raise IndexOutOfRange(f"subset {name!r}: index {bad[0]!r} "
                                      f"outside [0, {m.order})")
            subs[name] = frozenset(indices)
        return m, subs
    if "domain" in d:
        spec = TransformationSpec(d["domain"],
                                  tuple(tuple(f) for f in d["generators"]),
                                  d.get("close", True))
        return monoid_from_transformations(spec), {}
    raise MonoidError("document has neither 'table' nor 'domain'")


def load_monoid(path: str):
    with open(path) as fh:
        return monoid_from_dict(json.load(fh))
