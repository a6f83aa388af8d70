"""Classified corpus of finite pairs, strictness witnesses, and the hunt
for a clot whose reflexive syntactic relation fails compatibility."""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import lcm
from typing import NamedTuple, Optional

from . import bicyclic as bc
from .classify import (
    IMPLICATIONS,
    ClassificationReport,
    classify_pair,
    decide,
)
from .clots import is_clot
from .monoid import (
    FiniteMonoid,
    cyclic_group,
    direct_product,
    enumerate_submonoids,
    full_transformation_monoid,
    restrict_to_submonoid,
)
from .relations import witness_json

# the corpus keeps at most this many submonoids of each monoid (T3 has 699)
CORPUS_SUBMONOID_CAP = 170


class UnknownCategory(Exception):
    pass


class CorpusPair(NamedTuple):
    name: str
    monoid: FiniteMonoid
    mask: frozenset


class Corpus(tuple):
    """Corpus(pairs), a tuple of CorpusPairs; no __slots__, as
    cached_property keeps the reports in the instance's __dict__."""

    @cached_property
    def reports(self) -> tuple[ClassificationReport, ...]:
        """classify_pair of each pair, in order; computed once, on first
        use, and dropped with the corpus."""
        return tuple(classify_pair(p.monoid, p.mask) for p in self)


def build_corpus() -> Corpus:
    """Deterministic classified corpus: the submonoids of T1, T2, T3, S3,
    Z2 to Z6, Z2xZ2, Z2xZ3, Z3xZ3 and Z2xZ4.

    Submonoids come from capped breadth-first enumeration; the bijection
    submonoids of the transformation monoids are always force-included.
    Pairs are deduplicated on (table, identity, mask) and sorted by
    monoid order, then table, then mask.
    """
    transformation = [full_transformation_monoid(k) for k in (1, 2, 3)]
    t3, named3 = transformation[2]
    z2, z3, z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    monoids = [tk for tk, _ in transformation]
    monoids.append(restrict_to_submonoid(t3, named3["bijections"], "S3"))
    monoids.extend(cyclic_group(n) for n in range(2, 7))
    monoids.extend(direct_product(a, b)
                   for a, b in ((z2, z2), (z2, z3), (z3, z3), (z2, z4)))
    seen = set()
    pairs = []

    def add(m: FiniteMonoid, bits: frozenset):
        key = (m.table, m.identity, tuple(sorted(bits)))
        if key not in seen:
            seen.add(key)
            pairs.append(CorpusPair(m.name, m, frozenset(bits)))

    for m in monoids:
        for mask in enumerate_submonoids(m, cap=CORPUS_SUBMONOID_CAP).masks:
            add(m, mask.bits)
    for tk, named in transformation[1:]:
        add(tk, frozenset(named["bijections"]))

    pairs.sort(key=lambda p: (p.monoid.order, p.monoid.table,
                              sum(1 << b for b in p.mask)))
    return Corpus(pairs)


@lru_cache(maxsize=1)
def default_corpus() -> Corpus:
    return build_corpus()


def strictness_search(corpus: Corpus, outer: str,
                      inner: str) -> Optional[CorpusPair]:
    """First corpus pair belonging to the outer category but not the inner
    one, or None (some strictness witnesses are inherently infinite).  The
    inner category must lie in the outer one by an edge of the hierarchy."""
    if (inner, outer) not in IMPLICATIONS:
        raise UnknownCategory(
            f"{inner!r} ⊆ {outer!r} is not an edge of the hierarchy")
    for pair, report in zip(corpus, corpus.reports):
        if report.holds(outer) is True and report.holds(inner) is False:
            return pair
    return None


def _closed_residue_submonoids(moduli_bound: int):
    """All residue submonoids with moduli <= bound: the diagonal families
    Δ_p(S) = {y^n x^m : n ≡ m (mod p), n mod p ∈ S} with 0 ∈ S ⊆ Z_p, which
    are every one by the theorem in the README, each in its first
    presentation mod (p, p), by p and then by S read as a bitmask."""
    return [bc.ResidueSubmonoid(p, p, frozenset(
                (r, r) for r in range(p) if mask >> r & 1))
            for p in range(1, moduli_bound + 1)
            for mask in range(1, 1 << p, 2)]


# bound of the hunt's interleaved-insertion check, stated in its report
HUNT_INSERTION_NMAX = 2
# largest moduli bound of the hunt: it runs the insertion BFS on 2^b - 1
# residue submonoids, and the whole command took 1.15 s at moduli 6
HUNT_MODULI_CEILING = 6


def open_question_report(moduli_bound: int = 4) -> dict:
    """Two-part report on whether a clot can have an incompatible reflexive
    syntactic relation.

    Part one: over the default corpus no counterexample is possible, by
    theorem (finite monoids are Dedekind finite, so every clot lies in
    C(1,0)); the scan only counts the clots.

    Part two: a hunt over the bicyclic residue submonoids with moduli <=
    moduli_bound, complete by theorem (each is a diagonal Δ_p(S)), for a
    candidate whose interleaved-insertion check passes while its C1,
    decided exactly by classify.decide, fails.  The insertion check
    stays bounded, so each conclusion of this part is evidence at a
    stated bound, never a theorem.  A moduli bound outside
    1..HUNT_MODULI_CEILING raises ValueError.
    """
    if not 1 <= moduli_bound <= HUNT_MODULI_CEILING:
        raise ValueError(f"moduli_bound {moduli_bound!r} outside "
                         f"1..{HUNT_MODULI_CEILING}")
    corpus = default_corpus()
    finite = {
        "pairs_checked": len(corpus),
        "clot_pairs": sum(is_clot(p.monoid, p.mask).holds for p in corpus),
        # every clot lies in C(1,0): C3 holds on a finite monoid and
        # C3 ⊆ C2 ⊆ C1, while C0.5 ⊆ C0
        "violations": [],
        "note": ("no finite counterexample is possible: finite monoids are "
                 "Dedekind finite, hence the unit-transfer condition holds "
                 "and the reflexive syntactic relation is compatible"),
    }

    submonoids = _closed_residue_submonoids(moduli_bound)
    candidates = []
    insertion_passes = []
    for sub in submonoids:
        exp_bound = 2 * lcm(sub.p, sub.q)
        eq = bc.b_interleaved_insertion_bounded(sub, HUNT_INSERTION_NMAX,
                                                exp_bound)
        if not eq.holds:
            continue
        insertion_passes.append(sub.describe())
        c1 = decide(sub).flags["C1"]
        if not c1.holds:
            candidates.append({"submonoid": sub.describe(),
                               **witness_json(c1.witness)})
    bicyclic_part = {
        "moduli_bound": moduli_bound,
        "submonoids_checked": len(submonoids),
        "interleaved_insertion_passes": insertion_passes,
        "candidates": candidates,
        "mode": "bounded",
        "note": ("interleaved insertion checked for "
                 f"n<={HUNT_INSERTION_NMAX}, a bounded check; compatibility "
                 "decided exactly from the diagonal form"),
    }
    return {"finite_vacuity": finite, "bicyclic_candidates": bicyclic_part}
