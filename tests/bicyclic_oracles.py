"""Bicyclic scans that no command uses, kept beside the tests as
independent oracles for clotkit's exact bicyclic procedures.

* `b_unit_insertion_condition`: C0 of a residue submonoid, as the
  unit-insertion condition x^k * u * y^k in M scanned up to a bound; the
  oracle of classify_bicyclic's C0;
* `related_pairs_up_to`: the related pairs of the reflexive syntactic
  relation with exponents up to a bound, decided by the integer kernel
  behind b_rm_related and b_internality_counterexamples.
"""

from __future__ import annotations

from clotkit import bicyclic as bc
from clotkit.relations import Verdict


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
    return Verdict(True, "bounded", bound=bound,
                   note=f"members scanned up to exponent {bound}")


def related_pairs_up_to(M: bc.ResidueSubmonoid, bound: int):
    """All related ordered pairs with exponents at most the bound, in
    lexicographic order."""
    exps = bc._exponents(bound)
    return [bc._elements(a, b) for a in exps for b in exps
            if bc._rm_failure(a, b, M) is None]
