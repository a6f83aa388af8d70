"""Exact symbolic computation in the bicyclic monoid.

The monoid is generated by x and y subject to xy = 1; every element has a
unique normal form y^n x^m.  Products follow the closed formula

    (y^n x^m)(y^p x^q) = y^(n + max(p-m, 0)) x^(q + max(m-p, 0)).

Key structural fact used throughout: a product X*Y equals 1 exactly when
X = x^k and Y = y^k for some k, so the factorizations of 1 through a fixed
middle element form a one-parameter family.

Universal checks over infinite submonoids are bounded scans: refutations
are exact, confirmations carry the bound used.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm
from typing import Iterator

from .relations import Verdict


class BicyclicError(Exception):
    pass


class MissingIdentity(BicyclicError):
    pass


class NotClosed(BicyclicError):
    def __init__(self, left, right, product):
        self.left, self.right, self.product = left, right, product
        super().__init__(f"{left} * {right} = {product} escapes the submonoid")


@dataclass(frozen=True, order=True)
class BicyclicElement:
    """Normal form y^n x^m; n and m are the exponents of y and x."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise BicyclicError("exponents must be nonnegative")

    def __str__(self) -> str:
        return f"y{self.n}x{self.m}"


ONE = BicyclicElement(0, 0)
X = BicyclicElement(0, 1)
Y = BicyclicElement(1, 0)


def bmul(e1: BicyclicElement, e2: BicyclicElement) -> BicyclicElement:
    return BicyclicElement(e1.n + max(e2.n - e1.m, 0),
                           e2.m + max(e1.m - e2.n, 0))


def parse_element(text: str) -> BicyclicElement:
    t = text.strip()
    if t == "1":
        return ONE
    match = re.fullmatch(r"y(\d+)x(\d+)", t)
    if not match:
        raise BicyclicError(f"bad element syntax: {text!r} (expected yNxM)")
    return BicyclicElement(int(match.group(1)), int(match.group(2)))


def bword_normal_form(word: str) -> BicyclicElement:
    """Normal form of a word over {x, y} by rewriting xy -> (empty word).

    The rewriting system is terminating and has no overlaps, so the result
    is independent of rewrite order; it is the string-level oracle against
    which the product formula is tested.
    """
    for ch in word:
        if ch not in "xy":
            raise BicyclicError(f"bad character {ch!r} in word")
    while "xy" in word:
        word = word.replace("xy", "")
    n = word.count("y")
    m = word.count("x")
    assert word == "y" * n + "x" * m
    return BicyclicElement(n, m)


@dataclass(frozen=True)
class FactorizationFamily:
    """All (X, Y) with X * (y^s x^t) * Y = 1: X = x^m, Y = y^(t+m-s), m >= s."""

    s: int
    t: int

    @property
    def m_min(self) -> int:
        return self.s

    def member(self, m: int) -> tuple[BicyclicElement, BicyclicElement]:
        if m < self.s:
            raise BicyclicError(f"family parameter must be >= {self.s}")
        return BicyclicElement(0, m), BicyclicElement(self.t + m - self.s, 0)

    def members(self, count: int):
        return [self.member(self.s + i) for i in range(count)]


def one_factorizations(a: BicyclicElement) -> FactorizationFamily:
    """The complete family of solutions of X * a * Y = 1."""
    return FactorizationFamily(a.n, a.m)


@dataclass(frozen=True)
class ResidueSubmonoid:
    """Elements y^n x^m whose (n mod p, m mod q) lies in a fixed residue set."""

    p: int
    q: int
    residues: frozenset[tuple[int, int]]

    def __contains__(self, e: BicyclicElement) -> bool:
        return (e.n % self.p, e.m % self.q) in self.residues

    @property
    def is_full(self) -> bool:
        return len(self.residues) == self.p * self.q

    def describe(self) -> str:
        res = ",".join(f"({r},{s})" for r, s in sorted(self.residues))
        return f"mod({self.p},{self.q}) residues {{{res}}}"


def residue_submonoid(p: int, q: int, residues) -> ResidueSubmonoid:
    """Validate a residue-defined subset as a submonoid.

    Closure is checked over all products of representatives with exponents
    in [0, 2*lcm(p, q)); the product formula only shifts exponents by
    amounts determined modulo lcm(p, q), so this range is exhaustive.
    """
    if p < 1 or q < 1:
        raise BicyclicError("moduli must be >= 1")
    rset = frozenset((int(r) % p, int(s) % q) for r, s in residues)
    for r, s in rset:
        if not (0 <= r < p and 0 <= s < q):
            raise BicyclicError(f"residue ({r},{s}) outside moduli ({p},{q})")
    if (0, 0) not in rset:
        raise MissingIdentity("residue set must contain (0, 0)")
    sub = ResidueSubmonoid(p, q, rset)
    bound = 2 * lcm(p, q)
    reps = [BicyclicElement(n, m) for n in range(bound) for m in range(bound)
            if BicyclicElement(n, m) in sub]
    for e1 in reps:
        for e2 in reps:
            prod = bmul(e1, e2)
            if prod not in sub:
                raise NotClosed(e1, e2, prod)
    return sub


def parity_submonoid() -> ResidueSubmonoid:
    """Elements y^n x^m with both exponents even."""
    return residue_submonoid(2, 2, {(0, 0)})


def b_rm_related(a: BicyclicElement, b: BicyclicElement,
                 M: ResidueSubmonoid) -> Verdict:
    """Exact decision of the reflexive syntactic relation in the bicyclic
    monoid: every factorization X*a*Y = 1 must give X*b*Y in M.

    With a = y^s x^t the factorizations are (x^m, y^(t+m-s)) for m >= s,
    and for m >= max(s, b.n) the product X*b*Y is constant, so scanning
    m in [s, max(s, b.n)] decides the relation exactly.
    """
    fam = one_factorizations(a)
    for m in range(a.n, max(a.n, b.n) + 1):
        left, right = fam.member(m)
        prod = bmul(bmul(left, b), right)
        if prod not in M:
            return Verdict(False,
                           witness={"x": left, "y": right, "product": prod})
    return Verdict(True)


def b_unit_insertion_condition(M: ResidueSubmonoid, bound: int) -> Verdict:
    """x^k * u * y^k in M for every u in M, scanning u with exponents up to
    the bound.  For u = y^a x^b the product is constant for k >= a, so the
    k-scan per u is exact."""
    if bound < 1:
        raise BicyclicError("bound must be >= 1")
    for n in range(bound + 1):
        for m in range(bound + 1):
            u = BicyclicElement(n, m)
            if u not in M:
                continue
            for k in range(n + 2):
                xk = BicyclicElement(0, k)
                yk = BicyclicElement(k, 0)
                prod = bmul(bmul(xk, u), yk)
                if prod not in M:
                    return Verdict(False, witness={"u": u, "k": k,
                                                   "product": prod},
                                   bound=bound)
    return Verdict(True, "bounded", bound=bound,
                   note=f"members scanned up to exponent {bound}")


def _bounded_elements(bound: int) -> list[BicyclicElement]:
    return [BicyclicElement(n, m)
            for n in range(bound + 1) for m in range(bound + 1)]


def related_pairs_up_to(M: ResidueSubmonoid, bound: int):
    """All related ordered pairs with exponents at most the bound, in
    lexicographic order."""
    elems = _bounded_elements(bound)
    return [(a, b) for a in elems for b in elems if b_rm_related(a, b, M).holds]


def b_internality_counterexamples(M: ResidueSubmonoid,
                                  bound: int) -> Iterator[dict]:
    """All compatibility failures among related pairs with exponents up to
    the bound, in deterministic scan order.

    For each ordered pair of related pairs both product orders are tested,
    because compatibility can fail in either one.
    """
    pairs = related_pairs_up_to(M, bound)
    for p1 in pairs:
        for p2 in pairs:
            first = (bmul(p1[0], p2[0]), bmul(p1[1], p2[1]))
            if not b_rm_related(first[0], first[1], M).holds:
                yield {"pair1": p1, "pair2": p2, "order": "first*second",
                       "product": first}
            if p1 != p2:
                second = (bmul(p2[0], p1[0]), bmul(p2[1], p1[1]))
                if not b_rm_related(second[0], second[1], M).holds:
                    yield {"pair1": p1, "pair2": p2, "order": "second*first",
                           "product": second}


def b_internality_search(M: ResidueSubmonoid, bound: int) -> Verdict:
    """Bounded search for a compatibility failure of the reflexive syntactic
    relation; returns the first counterexample or a bounded pass.  On the
    whole monoid the relation is total, so compatibility holds exactly."""
    if bound < 1:
        raise BicyclicError("bound must be >= 1")
    if M.is_full:
        return Verdict(True, note="relation is total")
    for ce in b_internality_counterexamples(M, bound):
        return Verdict(False, witness=ce, bound=bound)
    return Verdict(True, "bounded", bound=bound,
                   note=f"no failure with exponents <= {bound}")


def b_interleaved_insertion_bounded(M: ResidueSubmonoid, nmax: int,
                                    bound: int) -> Verdict:
    """Bounded check that factorizations of 1 absorb interleaved members.

    Whenever a1*...*a(n+1) = 1 every prefix product is a power of x (the
    y-exponent of a product never drops), so states are (k, interleaved
    product) with prefix x^k.  Scans n <= nmax with all exponents <= bound.
    """
    if nmax < 1 or bound < 1:
        raise BicyclicError("nmax and bound must be >= 1")
    members = [e for e in _bounded_elements(bound) if e in M]
    steps = _bounded_elements(bound)
    kmax = 2 * bound
    # states after a1 ... a(i+1): prefix x^k, interleaved product Q
    frontier = {(k, BicyclicElement(0, k)) for k in range(kmax + 1)}
    seen = set(frontier)
    for level in range(1, nmax + 1):
        new = set()
        for k, q in frontier:
            for u in members:
                qu = bmul(q, u)
                for a in steps:
                    if a.n > k:
                        continue
                    k2 = k - a.n + a.m
                    if k2 > kmax:
                        continue
                    state = (k2, bmul(qu, a))
                    if state not in seen:
                        seen.add(state)
                        new.add(state)
                    if k2 == 0 and state[1] not in M:
                        return Verdict(False, bound=bound,
                                       witness={"n": level,
                                                "value": state[1]})
        frontier = new
        if not frontier:
            break
    return Verdict(True, "bounded", bound=bound,
                   note=f"n<={nmax}, exponents<={bound}")
