"""Bicyclic scans that no command uses, kept beside the tests as
independent oracles for clotkit's exact bicyclic procedures.

* `one_factorization`: the factorization (x^k, y^(t+k-s)) of 1 through
  y^s x^t with family parameter k, from the closed form;
* `b_unit_insertion_condition`: C0 of a residue submonoid, as the
  unit-insertion condition x^k * u * y^k in M scanned up to a bound; the
  oracle of the exact C0 that classify.decide reports;
* `related_pairs_up_to`: the related pairs of the reflexive syntactic
  relation with exponents up to a bound, decided by the integer kernel
  behind b_rm_related and b_internality_counterexamples;
* `rm_related_full_scan`: the reflexive syntactic relation by a scan of
  every factorization of 1 up to the one where the product turns
  constant; the oracle of b_rm_related, which scans one period of them;
* `normal_form_by_rewriting`: the normal form of a word by deleting
  every factor xy until none is left; the oracle of the one-pass
  bword_normal_form.
"""

from __future__ import annotations

from clotkit import bicyclic as bc
from clotkit.relations import Verdict


def one_factorization(a: bc.BicyclicElement, k: int):
    """(X, Y) = (x^k, y^(t+k-s)), the solution of X * a * Y = 1 with family
    parameter k, a = y^s x^t; every solution has this form for one k >= s."""
    if k < a.n:
        raise bc.BicyclicError(f"family parameter must be >= {a.n}")
    return bc.BicyclicElement(0, k), bc.BicyclicElement(a.m + k - a.n, 0)


def b_unit_insertion_condition(M: bc.ResidueSubmonoid,
                               bound: int) -> Verdict:
    """x^k * u * y^k in M for every u in M, scanning u with exponents up to
    the bound.  For u = y^a x^b the product is constant for k >= a, so the
    k-scan per u is exact.  The whole monoid holds every product."""
    if bound < 1:
        raise bc.BicyclicError("bound must be >= 1")
    if M.is_full:
        return Verdict(True, note="the whole monoid")
    for u in bc._elements(*bc._exponents(bound)):
        if u not in M:
            continue
        for k in range(u.n + 2):
            prod = bc.bmul(bc.bmul(bc.BicyclicElement(0, k), u),
                           bc.BicyclicElement(k, 0))
            if prod not in M:
                return Verdict(False, witness={"u": u, "k": k,
                                               "product": prod}, bound=bound)
    return Verdict(True, bound=bound,
                   note=f"members scanned up to exponent {bound}")


def related_pairs_up_to(M: bc.ResidueSubmonoid, bound: int):
    """All related ordered pairs with exponents at most the bound, in
    lexicographic order."""
    exps = bc._exponents(bound)
    return [bc._elements(a, b) for a in exps for b in exps
            if bc._rm_failure(a, b, M) is None]


def rm_related_full_scan(a: bc.BicyclicElement, b: bc.BicyclicElement,
                         M: bc.ResidueSubmonoid) -> Verdict:
    """Every factorization X*a*Y = 1 gives X*b*Y in M, scanning the family
    parameter m over [a.n, max(a.n, b.n)]; the product is constant beyond."""
    for m in range(a.n, max(a.n, b.n) + 1):
        left, right = one_factorization(a, m)
        prod = bc.bmul(bc.bmul(left, b), right)
        if prod not in M:
            return Verdict(False,
                           witness={"x": left, "y": right, "product": prod})
    return Verdict(True)


def normal_form_by_rewriting(word: str) -> bc.BicyclicElement:
    """Normal form of a word over {x, y}, deleting xy until none is left."""
    for ch in word:
        if ch not in "xy":
            raise bc.BicyclicError(f"bad character {ch!r} in word")
    while "xy" in word:
        word = word.replace("xy", "")
    n = word.count("y")
    m = word.count("x")
    assert word == "y" * n + "x" * m
    return bc.BicyclicElement(n, m)
