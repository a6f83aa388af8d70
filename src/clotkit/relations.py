"""Syntactic relations on a finite monoid, stored as bit-matrix relations.

For a subset M of a monoid A, three relations are defined:

* the syntactic congruence:  a ~ b  iff  (xay in M <=> xby in M) for all x, y;
* the syntactic preorder:    a <= b iff  (xay in M  => xby in M) for all x, y;
* the reflexive syntactic relation: a R b iff (xay = 1 => xby in M) for all x, y.

The congruence and the preorder compare contexts, each the set of pairs
(x, y) with xay in M packed into an integer with bit x*n + y set; its row
x is the membership row of xa, from which alone clots reads D and normal.
R is read from the units (syntactic_reflexive_relation).  Rows are
bitmasks too: bit b of rows[a] says whether a S b.

Nothing is cached between calls: each builder computes its relation from
the table, and a result lives as long as its caller keeps it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:
    from .monoid import FiniteMonoid


class Verdict(NamedTuple):
    """Answer to one condition on a pair, with how it was reached.

    A failure carries a witness: a dict whose values are element indices,
    symbolic elements, or lists of them.  note says how the answer was
    derived; bound, when set, is the bound a bounded check ran to.
    v._replace(note=...) gives a copy with a new note.
    """

    holds: Optional[bool]
    witness: Optional[dict] = None
    note: str = ""
    bound: Optional[int] = None

    @property
    def mode(self) -> str:
        """How the answer was reached: "n/a" when not computed (holds is
        None), "bounded" for a pass confirmed only up to its bound, else
        "exact"; refutations are always exact."""
        if self.holds is None:
            return "n/a"
        return "bounded" if self.holds and self.bound is not None else "exact"

    def __bool__(self) -> bool:
        return self.holds is True


def witness_json(witness: Optional[dict], labeler=None) -> Optional[dict]:
    """Wire form of a witness: bools stay, ints become labels through the
    labeler when one is given and stay numbers otherwise, lists and tuples
    recurse, anything else becomes its str: a record such as a
    BicyclicElement too, though it is a tuple."""
    if witness is None:
        return None
    return {k: _json_value(v, labeler) for k, v in witness.items()}


def _json_value(value, labeler):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return labeler(value) if labeler else value
    if type(value) in (list, tuple):
        return [_json_value(v, labeler) for v in value]
    return str(value)


class Relation(NamedTuple):
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


def _membership_rows(m: "FiniteMonoid", subset: frozenset) -> list[int]:
    # bit y of mem[z]: z*y in subset
    return [sum(1 << y for y, zy in enumerate(tz) if zy in subset)
            for tz in m.table]


def _context_vectors(m: "FiniteMonoid", subset: frozenset) -> tuple[int, ...]:
    # bit x*n + y of entry a: x*a*y in subset, so row x of a is mem[x*a]
    n = m.order
    mem = _membership_rows(m, subset)
    return tuple(sum(mem[tx[a]] << x * n for x, tx in enumerate(m.table))
                 for a in range(n))


def syntactic_congruence(m: "FiniteMonoid", subset) -> Relation:
    """Relation identifying elements with equal context sets relative to M."""
    ctx = _context_vectors(m, as_subset(m, subset))
    class_mask: dict[int, int] = {}
    for a, v in enumerate(ctx):
        class_mask[v] = class_mask.get(v, 0) | 1 << a
    return Relation(m, tuple(class_mask[v] for v in ctx),
                    "congruence-candidate")


def syntactic_preorder(m: "FiniteMonoid", subset) -> Relation:
    """Relation ordering elements by context-set inclusion relative to M."""
    ctx = _context_vectors(m, as_subset(m, subset))
    return Relation(m, tuple(sum(1 << b for b, cb in enumerate(ctx)
                                 if ca & cb == ca) for ca in ctx),
                    "preorder-candidate")


def syntactic_reflexive_relation(m: "FiniteMonoid", subset) -> Relation:
    """a related to b iff every factorization x*a*y = 1 gives x*b*y in M.
    These are (x, a, (x*a)^-1) for the units x if a is a unit, and none
    otherwise: a non-unit's row is full, and a unit a's row is K*a, the
    distinct k*a for k in K = {k : x*k*x^-1 in M for every unit x}."""
    from .monoid import inverses

    sub = as_subset(m, subset)
    table = m.table
    inverse = inverses(m)
    zero = [k for k in range(m.order)
            if all(table[table[x][k]][y] in sub for x, y in inverse.items())]
    rows = [(1 << m.order) - 1] * m.order
    for a in inverse:
        rows[a] = sum(1 << table[k][a] for k in zero)
    return Relation(m, tuple(rows), "reflexive-candidate")


def zero_class(rel: Relation) -> frozenset[int]:
    """Elements related to the identity: {u : 1 S u}."""
    return frozenset(_bits(rel.rows[rel.parent.identity]))


def zero_class_verdict(zc, sub: frozenset, note: str = "") -> Verdict:
    """sub equals the zero-class zc; a failure's witness u is min(zc ^ sub)."""
    if zc == sub:
        return Verdict(True, note=note)
    return Verdict(False, witness={"u": min(zc ^ sub)}, note=note)


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
    sub = as_subset(m, subset)
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
