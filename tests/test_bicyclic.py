from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clotkit import bicyclic as bc
from clotkit.bicyclic import (
    ONE,
    X,
    Y,
    BicyclicElement,
    MissingIdentity,
    NotClosed,
    b_interleaved_insertion_bounded,
    b_internality_counterexamples,
    b_internality_search,
    b_rm_related,
    b_unit_insertion_condition,
    bmul,
    bword_normal_form,
    one_factorizations,
    parity_submonoid,
    parse_element,
    residue_submonoid,
)
from clotkit.relations import Verdict
from clotkit.search import _closed_residue_submonoids

exponents = st.integers(min_value=0, max_value=8)
elements = st.builds(BicyclicElement, exponents, exponents)


def word_of(e: BicyclicElement) -> str:
    return "y" * e.n + "x" * e.m


def test_defining_relation():
    assert bmul(X, Y) == ONE
    assert bmul(Y, X) == BicyclicElement(1, 1)


def test_product_examples():
    assert bmul(BicyclicElement(1, 2), BicyclicElement(3, 1)) == \
        BicyclicElement(2, 1)
    assert bmul(ONE, BicyclicElement(4, 7)) == BicyclicElement(4, 7)
    assert bmul(BicyclicElement(4, 7), ONE) == BicyclicElement(4, 7)


def test_word_normal_forms():
    assert bword_normal_form("xy") == ONE
    assert bword_normal_form("yx") == BicyclicElement(1, 1)
    assert bword_normal_form("yxxyyyx") == BicyclicElement(2, 1)
    assert bword_normal_form("") == ONE
    with pytest.raises(bc.BicyclicError):
        bword_normal_form("xzy")


@given(st.text(alphabet="xy", max_size=14))
def test_fold_of_products_matches_rewriting(word):
    folded = ONE
    for ch in word:
        folded = bmul(folded, X if ch == "x" else Y)
    assert folded == bword_normal_form(word)


@given(elements, elements)
def test_product_matches_word_concatenation(e1, e2):
    assert bmul(e1, e2) == bword_normal_form(word_of(e1) + word_of(e2))


def test_associativity_exhaustive_up_to_six():
    elems = [BicyclicElement(n, m) for n in range(7) for m in range(7)]
    for e1 in elems:
        for e2 in elems:
            left = bmul(e1, e2)
            for e3 in elems:
                assert bmul(left, e3) == bmul(e1, bmul(e2, e3))


def test_parse_and_format():
    assert parse_element("y2x1") == BicyclicElement(2, 1)
    assert parse_element("1") == ONE
    assert str(BicyclicElement(2, 1)) == "y2x1"
    with pytest.raises(bc.BicyclicError):
        parse_element("x2y1")


def test_factorization_family_examples():
    fam = one_factorizations(BicyclicElement(2, 1))
    assert fam.m_min == 2
    assert fam.member(2) == (BicyclicElement(0, 2), BicyclicElement(1, 0))
    assert fam.member(5) == (BicyclicElement(0, 5), BicyclicElement(4, 0))

    fam = one_factorizations(ONE)
    assert fam.member(0) == (ONE, ONE)
    assert fam.member(3) == (BicyclicElement(0, 3), BicyclicElement(3, 0))

    fam = one_factorizations(X)
    assert fam.member(0) == (ONE, Y)
    assert fam.member(2) == (BicyclicElement(0, 2), BicyclicElement(3, 0))


def test_factorization_family_members_multiply_to_one():
    for s in range(6):
        for t in range(6):
            a = BicyclicElement(s, t)
            fam = one_factorizations(a)
            for left, right in fam.members(6):
                assert bmul(bmul(left, a), right) == ONE


def test_factorization_family_complete_up_to_six():
    elems = [BicyclicElement(n, m) for n in range(7) for m in range(7)]
    for s in range(4):
        for t in range(4):
            a = BicyclicElement(s, t)
            fam = one_factorizations(a)
            family = {fam.member(m) for m in range(s, 14)}
            scanned = {(left, right) for left in elems for right in elems
                       if bmul(bmul(left, a), right) == ONE}
            assert scanned <= family


def test_residue_submonoid_validation():
    parity = parity_submonoid()
    assert BicyclicElement(2, 4) in parity
    assert BicyclicElement(1, 2) not in parity

    whole = residue_submonoid(1, 1, {(0, 0)})
    assert whole.is_full and BicyclicElement(3, 5) in whole

    diag = residue_submonoid(2, 2, {(0, 0), (1, 1)})
    assert BicyclicElement(1, 1) in diag and BicyclicElement(1, 2) not in diag

    with pytest.raises(MissingIdentity):
        residue_submonoid(2, 2, {(1, 1)})
    with pytest.raises(NotClosed):
        residue_submonoid(2, 2, {(0, 0), (1, 0)})


def test_residue_submonoid_matches_element_scan():
    """Validation builds only the members; the element-level scan over
    every exponent pair below 2*lcm(p, q) must reach the same verdict and
    the same first escaping product, on every residue set with (0, 0)."""
    checked = 0
    for p, q in ((1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
        span = 2 * lcm(p, q)
        classes = [(r, s) for r in range(p) for s in range(q)][1:]
        elements = [BicyclicElement(n, m)
                    for n in range(span) for m in range(span)]
        for bits in range(1 << len(classes)):
            residues = {(0, 0)} | {c for i, c in enumerate(classes)
                                   if bits >> i & 1}
            members = [e for e in elements
                       if (e.n % p, e.m % q) in residues]
            expected = next(((e1, e2, bmul(e1, e2)) for e1 in members
                             for e2 in members
                             if (bmul(e1, e2).n % p, bmul(e1, e2).m % q)
                             not in residues), None)
            if expected is None:
                assert residue_submonoid(p, q, residues).residues == residues
            else:
                with pytest.raises(NotClosed) as err:
                    residue_submonoid(p, q, residues)
                e = err.value
                assert (e.left, e.right, e.product) == expected
            checked += 1
    assert checked == 2 + 2 + 8 + 32 + 32 + 256


def test_rm_related_reproduces_doubling_counterexample():
    parity = parity_submonoid()
    assert b_rm_related(BicyclicElement(2, 1), BicyclicElement(1, 2),
                        parity).holds
    assert b_rm_related(X, Y, parity).holds
    verdict = b_rm_related(BicyclicElement(1, 1), BicyclicElement(2, 2),
                           parity)
    assert not verdict.holds
    assert verdict.witness == {"x": X, "y": Y,
                               "product": BicyclicElement(1, 1)}


def test_rm_related_reflexive():
    parity = parity_submonoid()
    for n in range(5):
        for m in range(5):
            a = BicyclicElement(n, m)
            assert b_rm_related(a, a, parity).holds


@given(elements, elements)
@settings(max_examples=200)
def test_rm_related_short_scan_matches_long_scan(a, b):
    parity = parity_submonoid()
    fam = one_factorizations(a)
    long_scan = all(
        bmul(bmul(left, b), right) in parity
        for left, right in (fam.member(m)
                            for m in range(a.n, max(a.n, b.n) + 11)))
    assert b_rm_related(a, b, parity).holds == long_scan


@given(elements, elements)
@settings(max_examples=200)
def test_rm_product_constant_beyond_scan_range(a, b):
    parity = parity_submonoid()
    fam = one_factorizations(a)
    cut = max(a.n, b.n)
    base_left, base_right = fam.member(cut)
    base = bmul(bmul(base_left, b), base_right)
    for m in (cut + 1, cut + 2):
        left, right = fam.member(m)
        assert bmul(bmul(left, b), right) == base


def test_relation_rows_at_bound_two():
    parity = parity_submonoid()
    pairs = bc.related_pairs_up_to(parity, 2)
    assert len(pairs) == 36
    rows = {}
    for a, b in pairs:
        rows.setdefault(str(a), set()).add(str(b))
    assert rows["y0x0"] == {"y0x0", "y0x2", "y2x0"}
    assert rows["y0x1"] == {"y0x1", "y1x0", "y2x1"}
    assert rows["y2x0"] == {"y0x0", "y0x2", "y1x1", "y2x0", "y2x2"}


def test_unit_insertion_parity_witness():
    verdict = b_unit_insertion_condition(parity_submonoid(), 4)
    assert not verdict.holds and verdict.mode != "bounded"
    assert verdict.witness == {"u": BicyclicElement(2, 2), "k": 1,
                               "product": BicyclicElement(1, 1)}


def test_unit_insertion_whole_monoid_exact_pass():
    # every x^k * u * y^k lies in the whole monoid, so no scan is needed
    verdict = b_unit_insertion_condition(residue_submonoid(1, 1, {(0, 0)}), 5)
    assert verdict.holds and verdict.mode == "exact"
    assert verdict.bound is None and verdict.note == "the whole monoid"


def test_unit_insertion_mod_three_fails():
    sub = residue_submonoid(3, 3, {(0, 0)})
    verdict = b_unit_insertion_condition(sub, 6)
    assert not verdict.holds
    assert verdict.witness == {"u": BicyclicElement(3, 3), "k": 1,
                               "product": BicyclicElement(2, 2)}


def test_even_x_exponent_set_is_not_closed():
    # {y^n x^m : m even} escapes itself: x*x * y = x
    with pytest.raises(NotClosed):
        residue_submonoid(1, 2, {(0, 0)})


def test_internality_search_finds_failure_even_at_bound_one():
    # the generator pair itself breaks compatibility: x R y and y R x,
    # but (xy, yx) = (1, yx) is not related since yx has odd exponents
    parity = parity_submonoid()
    verdict = b_internality_search(parity, 1)
    assert not verdict.holds
    assert verdict.witness == {
        "pair1": (X, Y), "pair2": (Y, X), "order": "first*second",
        "product": (ONE, BicyclicElement(1, 1))}


def test_internality_search_first_counterexample_at_bound_two():
    parity = parity_submonoid()
    verdict = b_internality_search(parity, 2)
    assert not verdict.holds
    assert verdict.witness == {
        "pair1": (ONE, BicyclicElement(0, 2)),
        "pair2": (ONE, BicyclicElement(2, 0)),
        "order": "second*first",
        "product": (ONE, BicyclicElement(2, 2))}


def test_internality_enumeration_contains_published_configuration():
    parity = parity_submonoid()
    found = list(b_internality_counterexamples(parity, 2))
    assert {
        "pair1": (BicyclicElement(2, 1), BicyclicElement(1, 2)),
        "pair2": (X, Y),
        "order": "second*first",
        "product": (BicyclicElement(1, 1), BicyclicElement(2, 2)),
    } in found


def test_internality_counterexamples_are_genuine():
    parity = parity_submonoid()
    for ce in b_internality_counterexamples(parity, 2):
        a1, b1 = ce["pair1"]
        a2, b2 = ce["pair2"]
        assert b_rm_related(a1, b1, parity).holds
        assert b_rm_related(a2, b2, parity).holds
        if ce["order"] == "first*second":
            prod = (bmul(a1, a2), bmul(b1, b2))
        else:
            prod = (bmul(a2, a1), bmul(b2, b1))
        assert prod == ce["product"]
        assert not b_rm_related(prod[0], prod[1], parity).holds


def test_internality_search_whole_monoid_exact_pass():
    # the relation is total on the whole monoid, so no scan is needed
    whole = residue_submonoid(1, 1, {(0, 0)})
    verdict = b_internality_search(whole, 2)
    assert verdict.holds and verdict.mode == "exact"
    assert verdict.bound is None and verdict.note == "relation is total"
    assert not list(b_internality_counterexamples(whole, 2))


def test_interleaved_insertion_bicyclic():
    parity = parity_submonoid()
    verdict = b_interleaved_insertion_bounded(parity, 2, 4)
    assert not verdict.holds
    assert verdict.witness["n"] == 1

    whole = residue_submonoid(1, 1, {(0, 0)})
    assert b_interleaved_insertion_bounded(whole, 2, 4).holds

    # diagonal residue submonoid: insertion products preserve n - m mod 2
    diag = residue_submonoid(2, 2, {(0, 0), (1, 1)})
    assert b_interleaved_insertion_bounded(diag, 2, 4).holds


# --------------------------------------------- element-level references
# The scans as they were written on BicyclicElement and bmul, before they
# ran on integer exponent pairs, kept as oracles for the integer kernels.

def _reference_rm_related(a, b, M):
    fam = one_factorizations(a)
    for m in range(a.n, max(a.n, b.n) + 1):
        left, right = fam.member(m)
        prod = bmul(bmul(left, b), right)
        if prod not in M:
            return Verdict(False,
                           witness={"x": left, "y": right, "product": prod})
    return Verdict(True)


def _reference_elements(bound):
    return [BicyclicElement(n, m)
            for n in range(bound + 1) for m in range(bound + 1)]


def _reference_counterexamples(M, bound):
    elems = _reference_elements(bound)
    pairs = [(a, b) for a in elems for b in elems
             if _reference_rm_related(a, b, M).holds]
    for p1 in pairs:
        for p2 in pairs:
            first = (bmul(p1[0], p2[0]), bmul(p1[1], p2[1]))
            if not _reference_rm_related(first[0], first[1], M).holds:
                yield {"pair1": p1, "pair2": p2, "order": "first*second",
                       "product": first}
            if p1 != p2:
                second = (bmul(p2[0], p1[0]), bmul(p2[1], p1[1]))
                if not _reference_rm_related(second[0], second[1], M).holds:
                    yield {"pair1": p1, "pair2": p2, "order": "second*first",
                           "product": second}


def _reference_internality_search(M, bound):
    if M.is_full:
        return Verdict(True, note="relation is total")
    for ce in _reference_counterexamples(M, bound):
        return Verdict(False, witness=ce, bound=bound)
    return Verdict(True, "bounded", bound=bound,
                   note=f"no failure with exponents <= {bound}")


def _reference_interleaved(M, nmax, bound):
    members = [e for e in _reference_elements(bound) if e in M]
    steps = _reference_elements(bound)
    kmax = 2 * bound
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


@pytest.fixture(scope="module")
def residue_submonoids():
    subs = _closed_residue_submonoids(4)
    assert len(subs) == 15
    return subs


def test_rm_related_matches_element_reference(residue_submonoids):
    elems = _reference_elements(4)
    for sub in residue_submonoids:
        for a in elems:
            for b in elems:
                assert repr(b_rm_related(a, b, sub)) == \
                    repr(_reference_rm_related(a, b, sub)), (sub, a, b)


def test_related_pairs_match_element_reference(residue_submonoids):
    elems = _reference_elements(3)
    for sub in residue_submonoids:
        assert bc.related_pairs_up_to(sub, 3) == [
            (a, b) for a in elems for b in elems
            if _reference_rm_related(a, b, sub).holds], sub


def test_internality_counterexamples_match_element_reference(
        residue_submonoids):
    for sub in residue_submonoids:
        assert list(b_internality_counterexamples(sub, 2)) == \
            list(_reference_counterexamples(sub, 2)), sub


def test_internality_search_matches_element_reference(residue_submonoids):
    for sub in residue_submonoids:
        for bound in (2, 3):
            assert repr(b_internality_search(sub, bound)) == \
                repr(_reference_internality_search(sub, bound)), (sub, bound)


def test_interleaved_insertion_matches_element_reference(residue_submonoids):
    for sub in residue_submonoids:
        for nmax, bound in ((2, 2 * lcm(sub.p, sub.q)), (1, 3)):
            assert repr(b_interleaved_insertion_bounded(sub, nmax, bound)) \
                == repr(_reference_interleaved(sub, nmax, bound)), \
                (sub, nmax, bound)
