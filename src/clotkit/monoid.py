"""Finite monoids as dense Cayley tables, with submonoid machinery.

Composition convention for transformation monoids is (a*b)(x) = a(b(x));
all left/right homogeneity verdicts elsewhere depend on this choice.
Element indices are dense integers; labels are cosmetic only.  This
bottom layer imports no clotkit module, and as_subset checks subsets.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

DEFAULT_ORDER_CAP = 512
DEFAULT_ENUM_CAP = 10_000
# longest label of a transformation; a longer image word keeps its first
# characters and ends in "#<index>", which no image word contains
LABEL_LIMIT = 32


def clipped(text: str) -> str:
    """text, over 40 characters cut to its first 16 + '...' + its last 16."""
    return text if len(text) <= 40 else f"{text[:16]}...{text[-16:]}"


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


class IndexOutOfRange(MonoidError, ValueError):
    @classmethod
    def check(cls, what: str, values, n: int) -> None:
        """Refuse, as `what`, the first of values not an integer in [0, n)."""
        for v in values:
            if not _is_index(v) or not 0 <= v < n:
                raise cls(f"{what} {clipped(repr(v))} is not an integer in "
                          f"[0, {n})")


class OrderCapExceeded(MonoidError):
    pass


class FiniteMonoid(NamedTuple):
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


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def as_subset(m: FiniteMonoid, subset) -> frozenset[int]:
    """A SubmonoidMask's bits or an iterable of indices, as a frozenset;
    IndexOutOfRange names the least non-integer member by repr, else the
    least index outside the monoid."""
    out = frozenset(getattr(subset, "bits", subset))
    if not all(map(_is_index, out)):
        bad = min((v for v in out if not _is_index(v)), key=repr)
        IndexOutOfRange.check("element index", [bad], m.order)
    if out and (min(out) < 0 or max(out) >= m.order):
        bad = min(i for i in out if not 0 <= i < m.order)
        raise IndexOutOfRange(
            f"element index {bad} out of range for order {m.order}")
    return out


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
        IndexOutOfRange.check("table entry", row, n)
    IndexOutOfRange.check("identity", [identity], n)
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
        if len(set(labels)) < n:
            first = next(x for i, x in enumerate(labels) if x in labels[:i])
            raise MonoidError(f"repeated label {clipped(repr(first))}")
    return FiniteMonoid(rows, identity, labels, name)


def full_transformation_monoid(k: int):
    """All k**k self-maps of {1..k} under (a*b)(x) = a(b(x)).

    Returns the monoid plus the named subsets "bijections" and "constants".
    Maps are indexed in lexicographic order of their image tuples and
    labelled by their image words (map (2,1) of {1,2} is "21").  They are
    generated by a transposition, a k-cycle and the map that sends 2 to 1
    and fixes the rest (Howie, Fundamentals of Semigroup Theory, 1995).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = k ** k
    if n > DEFAULT_ORDER_CAP:
        raise OrderCapExceeded(
            f"T_{k} has {n} elements, cap {DEFAULT_ORDER_CAP}")
    rest = tuple(range(3, k + 1))
    generators = ([(2, 1) + rest, tuple(range(2, k + 1)) + (1,),
                   (1, 1) + rest] if k > 1 else [])
    monoid, maps = _transformation_table(k, generators, _compose, f"T{k}")
    bijections = frozenset(i for i, f in enumerate(maps) if len(set(f)) == k)
    constants = frozenset(i for i, f in enumerate(maps) if len(set(f)) == 1)
    return monoid, {"bijections": bijections, "constants": constants}


def _compose(f: tuple, g: tuple) -> tuple:
    """The map f∘g of {1..k}, x -> f(g(x)), as its image tuple."""
    return tuple(f[x - 1] for x in g)


def _transformation_table(k: int, generators: list, compose,
                          name: str) -> tuple[FiniteMonoid, list]:
    """The monoid of maps of {1..k} generated by `generators` under
    compose(f, g) = f∘g, indexed in lexicographic order of the maps and
    labelled by image words, comma-separated from 10 points on and cut to
    LABEL_LIMIT characters; and the maps.

    The right orbit of the identity map reaches every other element b as
    b'·g, with b' reached before it and g a generator.  So column b of the
    table is column b' followed by one step of the right Cayley graph,
    a·b = (a·b')·g: n² lookups after n·|generators| compositions, where
    composing every pair would cost n²·k.
    """
    ident = tuple(range(1, k + 1))
    maps = sorted(_right_orbit(ident, generators, compose))
    index = {f: i for i, f in enumerate(maps)}
    right = [[index[compose(f, g)] for g in generators] for f in maps]
    e = index[ident]
    columns = [None] * len(maps)   # columns[b][a] is a·b
    columns[e] = range(len(maps))
    reached = [e]
    for x in reached:
        for g, y in enumerate(right[x]):
            if columns[y] is None:
                columns[y] = [right[c][g] for c in columns[x]]
                reached.append(y)
    table = tuple(zip(*columns))
    words = (("," if k >= 10 else "").join(map(str, f)) for f in maps)
    labels = tuple(w if len(w) <= LABEL_LIMIT
                   else w[:LABEL_LIMIT - len(str(i)) - 1] + f"#{i}"
                   for i, w in enumerate(words))
    return FiniteMonoid(table, e, labels, name), maps


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
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DEFAULT_ORDER_CAP:
        raise OrderCapExceeded(
            f"Z{n} has {n} elements, cap {DEFAULT_ORDER_CAP}")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteMonoid(table, 0, tuple(str(i) for i in range(n)), f"Z{n}")


def restrict_to_submonoid(m: FiniteMonoid, subset: Iterable[int],
                          name: Optional[str] = None) -> FiniteMonoid:
    """Standalone monoid on a submonoid, given by its indices or its mask;
    element order follows sorted indices."""
    elems = sorted(SubmonoidMask(m, subset).bits)
    pos = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(pos[m.table[i][j]] for j in elems) for i in elems)
    labels = tuple(m.labels[i] for i in elems)
    return FiniteMonoid(table, pos[m.identity], labels, name or f"{m.name}|sub")


class _MaskFields(NamedTuple):
    parent: FiniteMonoid
    bits: frozenset[int]


class SubmonoidMask(_MaskFields):
    """Subset of a monoid certified to contain 1 and be closed under product;
    a failure names the least product, in ascending order, that leaves it."""

    __slots__ = ()

    def __new__(cls, parent: FiniteMonoid, bits) -> SubmonoidMask:
        bits = as_subset(parent, bits)
        if parent.identity not in bits:
            raise MonoidError("submonoid must contain the identity")
        table = parent.table
        members = sorted(bits)
        for i in members:
            for j in members:
                if table[i][j] not in bits:
                    raise MonoidError(
                        f"not closed under product: {i}*{j} = {table[i][j]}")
        return tuple.__new__(cls, (parent, bits))

    @classmethod
    def _closed(cls, parent: FiniteMonoid, bits: frozenset) -> SubmonoidMask:
        """The mask of a set closed by construction, without the |S|² check."""
        return tuple.__new__(cls, (parent, bits))


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
    """Smallest submonoid holding the seed, indices or a mask: 1's orbit."""
    gens = sorted(as_subset(m, seed))
    table = m.table
    orbit = _right_orbit(m.identity, gens, lambda x, g: table[x][g])
    return SubmonoidMask._closed(m, frozenset(orbit))


def _join(right: list[list[int]], members: list[int], bits: int,
          gens: tuple[int, ...]) -> int:
    """The least set closed under the product table `right` that holds the
    closed set `bits` (its `members`, generated by gens[:-1]) and c =
    gens[-1]: the set plus the right orbit of its products s·c under gens,
    as every new element is s·c·w with w a word in gens."""
    c = gens[-1]
    new = 0
    for s in members:
        new |= right[s][c]
    new &= ~bits
    while new:
        bits |= new
        products = 0
        while new:
            low = new & -new
            new ^= low
            row = right[low.bit_length() - 1]
            for g in gens:
                products |= row[g]
        new = products & ~bits
    return bits


def _closed_sets(right: list[list[int]], one: int,
                 cap: Optional[int] = None) -> tuple[list[int], bool]:
    """Bitmasks of the sets closed under the product table `right`, where
    right[x][y] is the bitmask of x*y, that hold its identity `one`:
    breadth first from {one}, each set S extended by each c outside it in
    ascending order, E(S, c) being the least closed set holding S and c; at
    most cap, flagged when one was left out.

    Each set keeps its row of extensions (E(S, c) = S for c in S).  A set
    S = E(P, d), first reached from its parent P by d, has E(S, c) =
    cl(P ∪ {c, d}) for c outside S, read from the rows: it is E(P, c) when
    that holds d, else E(T, d) for T = E(P, c) when T was extended before
    S.  Only when both fail is it closed by `_join`, through the generators
    S was reached by; on T3 that is 1,744 of 13,743 extensions."""
    n = len(right)
    first = 1 << one
    index = {first: 0}
    found = [first]
    gens = [()]
    reached: list[tuple[Optional[int], int]] = [(None, one)]
    rows: list[list[int]] = []
    for i, bits in enumerate(found):
        parent, d = reached[i]
        members = None
        row = [bits] * n
        for c in range(n):
            if bits >> c & 1:
                continue
            grown = None
            if parent is not None:
                grown = rows[parent][c]
                if not grown >> d & 1:
                    t = index[grown]
                    grown = rows[t][d] if t < i else None
            if grown is None:
                if members is None:
                    members = list(_bits(bits))
                grown = _join(right, members, bits, gens[i] + (c,))
            row[c] = grown
            if grown not in index:
                if len(found) == cap:
                    return found, True
                index[grown] = len(found)
                found.append(grown)
                gens.append(gens[i] + (c,))
                reached.append((i, c))
        rows.append(row)
    return found, False


class SubmonoidEnumeration(NamedTuple):
    masks: list[SubmonoidMask]
    truncated: bool


def enumerate_submonoids(m: FiniteMonoid,
                         cap: int = DEFAULT_ENUM_CAP) -> SubmonoidEnumeration:
    """All submonoids, by `_closed_sets` from {1}: deterministic, at most
    cap, with the truncation flag set when one was left out.  The search
    keeps a row of m.order extensions per set it extends, so at most
    cap·m.order references."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    right = [[1 << y for y in row] for row in m.table]
    found, truncated = _closed_sets(right, m.identity, cap)
    masks = [SubmonoidMask._closed(m, frozenset(_bits(bits)))
             for bits in found]
    return SubmonoidEnumeration(masks, truncated)


def inverses(m: FiniteMonoid) -> dict[int, int]:
    """Each unit mapped to its inverse, in one scan of the table: in a
    finite monoid xy = 1 gives yx = 1, so each factorization of 1 pairs a
    unit with its inverse, and a row holds 1 once if at all."""
    e = m.identity
    return {x: row.index(e) for x, row in enumerate(m.table) if e in row}


class TransformationSpec(NamedTuple):
    """Generating maps of {1..k}, 1-based values, optionally closed."""

    domain: int
    maps: tuple[tuple[int, ...], ...]
    close: bool = True


def monoid_from_transformations(spec: TransformationSpec) -> FiniteMonoid:
    """The monoid generated by the maps: the right orbit of the identity map.
    With close false the maps must list it and every composite."""
    k = spec.domain
    if not _is_index(k) or not 1 <= k <= DEFAULT_ORDER_CAP:
        raise MonoidError(f"domain {clipped(repr(k))} is not an integer in "
                          f"[1, {DEFAULT_ORDER_CAP}]")
    if not isinstance(spec.close, bool):
        raise MonoidError(
            f"close {clipped(repr(spec.close))} is not a boolean")
    for f in spec.maps:
        if len(f) != k or any(not _is_index(v) or not 1 <= v <= k for v in f):
            raise MonoidError(f"generator {clipped(repr(list(f)))} is not "
                              f"a self-map of a {k}-element set")
    ident = tuple(range(1, k + 1))
    listed = {tuple(f) for f in spec.maps}
    if not spec.close and ident not in listed:
        raise MonoidError("close=false requires the identity map")

    def compose_listed(f, g):
        h = _compose(f, g)
        if h not in listed:
            raise MonoidError(
                f"maps not closed under composition: "
                f"{clipped(repr(f))} after {clipped(repr(g))}")
        return h

    generators = sorted(listed - {ident})
    compose = _compose if spec.close else compose_listed
    return _transformation_table(k, generators, compose, f"T{k}-gen")[0]


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


# each document kind's keys, as its refusal lists them; the first marks it
DOCUMENT_KEYS = {"table": ("table", "identity", "name", "labels", "order",
                           "submonoids"),
                 "transformation": ("domain", "generators", "close")}


def monoid_from_dict(d: dict):
    """Parse a document of the first DOCUMENT_KEYS kind whose mark it holds,
    refusing the first key, in document order, that the kind does not list.

    Returns (monoid, named_subsets).
    """
    if not isinstance(d, dict):
        raise MonoidError("document is not a JSON object")
    kind = next((k for k, keys in DOCUMENT_KEYS.items() if keys[0] in d), None)
    if kind is None:
        raise MonoidError("document has neither 'table' nor 'domain'")
    keys = DOCUMENT_KEYS[kind]
    for key in d:
        if key not in keys:
            raise MonoidError(f"a {kind} document takes no "
                              f"{clipped(repr(key))}: only {', '.join(keys)}")
    if kind == "table":
        name, labels = d.get("name", "M"), d.get("labels")
        if not isinstance(name, str):
            raise MonoidError(f"name {clipped(repr(name))} is not a string")
        if "labels" in d and not isinstance(labels, list):
            raise MonoidError(
                f"labels {clipped(repr(labels))} is not a list")
        table = d["table"]
        if not isinstance(table, list):
            raise MonoidError("table is not a list of rows")
        bad = [i for i, row in enumerate(table) if not isinstance(row, list)]
        if bad:
            raise MonoidError(f"table row {bad[0]} is not a list of indices")
        # a missing identity reads as None, which validate_monoid names
        m = validate_monoid(table, d.get("identity"), labels, name)
        order = d.get("order", m.order)
        if not _is_index(order) or order != m.order:
            raise MonoidError(f"declared order {clipped(repr(order))} "
                              "does not match table")
        subsets = d.get("submonoids", {})
        if not isinstance(subsets, dict):
            raise MonoidError("submonoids is not an object of named subsets")
        for name, indices in subsets.items():
            if not isinstance(indices, list):
                raise MonoidError(
                    f"subset {clipped(repr(name))} is not a list of "
                    f"element indices: {clipped(repr(indices))}")
            IndexOutOfRange.check(f"subset {clipped(repr(name))}: index",
                                  indices, m.order)
        return m, {name: frozenset(v) for name, v in subsets.items()}
    maps = d.get("generators")
    if not (isinstance(maps, list)
            and all(isinstance(f, list) for f in maps)):
        raise MonoidError(
            f"generators {clipped(repr(maps))} is not a list of maps")
    spec = TransformationSpec(d["domain"], tuple(map(tuple, maps)),
                              d.get("close", True))
    return monoid_from_transformations(spec), {}


def load_monoid(path: str):
    # imported here, so that classifying a pair never loads json
    import json

    with open(path, encoding="utf-8") as fh:
        return monoid_from_dict(json.load(fh))
