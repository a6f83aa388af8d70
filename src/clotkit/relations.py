"""Syntactic relations on a finite monoid, stored as bit-matrix relations.

For a subset M of a monoid A, three relations are built from context sets:

* the syntactic congruence:  a ~ b  iff  (xay in M <=> xby in M) for all x, y;
* the syntactic preorder:    a <= b iff  (xay in M  => xby in M) for all x, y;
* the reflexive syntactic relation: a R b iff (xay = 1 => xby in M) for all x, y.

Each element's context is the set of pairs (x, y) with xay in M (resp. = 1),
packed into a single integer with bit x*n + y set.  Relation rows are packed
the same way: bit b of rows[a] says whether a is related to b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .monoid import FiniteMonoid


MODES = ("exact", "bounded", "n/a")


@dataclass(frozen=True)
class Verdict:
    """Answer to one condition on a pair, with how it was reached.

    mode is "exact" (decided), "bounded" (a pass confirmed only up to
    `bound`) or "n/a" (not computed; then holds is None).  A failure
    carries a witness: a dict whose values are element indices, symbolic
    elements, or lists of them.  note says how the answer was derived.
    """

    holds: Optional[bool]
    mode: str = "exact"
    witness: Optional[dict] = None
    note: str = ""
    bound: Optional[int] = None

    def __post_init__(self):
        if (self.mode not in MODES
                or (self.holds is None) != (self.mode == "n/a")):
            raise ValueError(f"verdict {self.holds!r} with mode {self.mode!r}")

    def __bool__(self) -> bool:
        return self.holds is True


def witness_json(witness: Optional[dict], labeler=str) -> Optional[dict]:
    """Wire form of a witness: bools stay, ints become labels through the
    labeler, lists and tuples recurse, anything else becomes its str."""
    if witness is None:
        return None
    return {k: _json_value(v, labeler) for k, v in witness.items()}


def _json_value(value, labeler):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return labeler(value)
    if isinstance(value, (list, tuple)):
        return [_json_value(v, labeler) for v in value]
    return str(value)


@dataclass(frozen=True)
class Relation:
    """Dense relation on a finite monoid: bit b of rows[a] means a S b."""

    parent: "FiniteMonoid"
    rows: tuple[int, ...]
    kind: str

    def related(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def pairs(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(len(self.rows)) for b in _bits(self.rows[a])]

    def matrix(self) -> list[list[bool]]:
        n = len(self.rows)
        return [[bool(r >> b & 1) for b in range(n)] for r in self.rows]

    def row_strings(self) -> list[str]:
        """Each row as a 0/1 string, character b for bit b."""
        n = len(self.rows)
        return [format(r, f"0{n}b")[::-1] for r in self.rows]

    def dump(self) -> str:
        return "\n".join([f"relation {self.kind} n={len(self.rows)}",
                          *self.row_strings()])


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def as_subset(m: "FiniteMonoid", subset) -> frozenset[int]:
    """Normalize a SubmonoidMask or iterable of indices to a frozenset."""
    bits = getattr(subset, "bits", subset)
    out = frozenset(bits)
    for i in out:
        if not 0 <= i < m.order:
            raise ValueError(f"element index {i} out of range for order {m.order}")
    return out


@lru_cache(maxsize=None)
def _membership_rows(m: "FiniteMonoid", subset: frozenset) -> tuple[int, ...]:
    # bit y of entry z: z*y in subset
    n = m.order
    rows = []
    for z in range(n):
        tz = m.table[z]
        bits = 0
        for y in range(n):
            if tz[y] in subset:
                bits |= 1 << y
        rows.append(bits)
    return tuple(rows)


@lru_cache(maxsize=None)
def _context_vectors(m: "FiniteMonoid", subset: frozenset) -> tuple[int, ...]:
    # bit x*n + y of entry a: x*a*y in subset
    n = m.order
    mem = _membership_rows(m, subset)
    table = m.table
    return tuple(
        _or_shifted([mem[table[x][a]] for x in range(n)], n) for a in range(n)
    )


def _or_shifted(rows: list[int], width: int) -> int:
    v = 0
    for x, r in enumerate(rows):
        v |= r << (x * width)
    return v


def syntactic_congruence(m: "FiniteMonoid", subset) -> Relation:
    """Relation identifying elements with equal context sets relative to M."""
    return _syntactic_congruence(m, as_subset(m, subset))


@lru_cache(maxsize=None)
def _syntactic_congruence(m: "FiniteMonoid", sub: frozenset) -> Relation:
    ctx = _context_vectors(m, sub)
    class_mask: dict[int, int] = {}
    for a, v in enumerate(ctx):
        class_mask[v] = class_mask.get(v, 0) | 1 << a
    return Relation(m, tuple(class_mask[ctx[a]] for a in range(m.order)),
                    "congruence-candidate")


def syntactic_preorder(m: "FiniteMonoid", subset) -> Relation:
    """Relation ordering elements by context-set inclusion relative to M."""
    return _syntactic_preorder(m, as_subset(m, subset))


@lru_cache(maxsize=None)
def _syntactic_preorder(m: "FiniteMonoid", sub: frozenset) -> Relation:
    ctx = _context_vectors(m, sub)
    n = m.order
    rows = []
    for a in range(n):
        ca = ctx[a]
        r = 0
        for b in range(n):
            if ca | ctx[b] == ctx[b]:
                r |= 1 << b
        rows.append(r)
    return Relation(m, tuple(rows), "preorder-candidate")


def syntactic_reflexive_relation(m: "FiniteMonoid", subset) -> Relation:
    """a related to b iff every factorization x*a*y = 1 gives x*b*y in M."""
    return _syntactic_reflexive(m, as_subset(m, subset))


@lru_cache(maxsize=None)
def _syntactic_reflexive(m: "FiniteMonoid", sub: frozenset) -> Relation:
    one_ctx = _context_vectors(m, frozenset({m.identity}))
    ctx = _context_vectors(m, sub)
    n = m.order
    rows = []
    for a in range(n):
        ka = one_ctx[a]
        r = 0
        for b in range(n):
            if ka & ctx[b] == ka:
                r |= 1 << b
        rows.append(r)
    return Relation(m, tuple(rows), "reflexive-candidate")


def zero_class(rel: Relation) -> frozenset[int]:
    """Elements related to the identity: {u : 1 S u}."""
    return frozenset(_bits(rel.rows[rel.parent.identity]))


def is_internal(rel: Relation) -> Verdict:
    """Compatibility with the product: a S b and a' S b' imply aa' S bb'.

    Scans pairs of related pairs in row-major order, so the witness of a
    failure is deterministic.
    """
    m = rel.parent
    rows = rel.rows
    table = m.table
    pairs = rel.pairs()
    for a, b in pairs:
        ta = table[a]
        tb = table[b]
        for a2, b2 in pairs:
            if not rows[ta[a2]] >> tb[b2] & 1:
                return Verdict(False,
                               witness={"a": a, "b": b, "a2": a2, "b2": b2})
    return Verdict(True)


def internal_reflexive_closure(m: "FiniteMonoid", subset) -> Relation:
    """Smallest reflexive relation containing {(1, u) : u in M} that is
    closed under pairwise products; its zero-class always contains M."""
    return _internal_reflexive_closure(m, as_subset(m, subset))


def _internal_reflexive_closure(m: "FiniteMonoid", sub: frozenset) -> Relation:
    # A reflexive relation closed under products is a submonoid of A x A
    # containing the diagonal, so the closure is the submonoid generated by
    # the pairs (g, g) and (1, u).  Being finite, it is the right orbit of
    # (1, 1) under those generators (Froidure & Pin, 1997): breadth-first,
    # each new pair (a, b) is multiplied on the right by (g, g), giving
    # (ag, bg), and by (1, u), giving (a, bu).  O(n^2 (n + |M|)) steps.
    table = m.table
    one = m.identity
    others = [u for u in sorted(sub) if u != one]
    rows = [0] * m.order
    rows[one] = 1 << one
    queue = [(one, one)]
    for a, b in queue:
        tb = table[b]
        for c, d in zip(table[a], tb):
            if not rows[c] >> d & 1:
                rows[c] |= 1 << d
                queue.append((c, d))
        for u in others:
            d = tb[u]
            if not rows[a] >> d & 1:
                rows[a] |= 1 << d
                queue.append((a, d))
    return Relation(m, tuple(rows), "generated-closure")
