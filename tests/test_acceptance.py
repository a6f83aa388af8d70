"""Acceptance suite: exact reproduction of the three worked examples plus
whole-corpus property checks.  Run with `pytest tests/test_acceptance.py -v -s`
to see one line per criterion."""

import random
import time
from itertools import product as iter_product

from clotkit import bicyclic as bc
from clotkit.classify import (
    check_consistency,
    classify_pair,
    decide,
)
from clotkit.clots import (
    group_verdict,
    homogeneity,
    is_clot,
    is_normal_submonoid,
)
from clotkit.monoid import full_transformation_monoid
from clotkit.natfuncs import doubling_refutation_report
from clotkit.relations import (
    is_internal,
    syntactic_congruence,
    syntactic_preorder,
    syntactic_reflexive_relation,
    zero_class,
)
from clotkit.search import (
    open_question_report,
    strictness_search,
)
from bicyclic_oracles import one_factorization
from finite_oracles import (
    interleaved_insertion_bounded,
    is_conjugation_closed,
    relation_flags,
    unit_insertion_condition,
)
from natfuncs_oracle import (
    DOUBLING,
    SHIFT_DOWN,
    SHIFT_UP,
    ea,
    ea_compose,
    ea_in_doubling_submonoid,
    ea_power,
)


def test_criterion_1_bicyclic_example_reproduction():
    start = time.perf_counter()
    parity = bc.parity_submonoid()
    y2x = bc.BicyclicElement(2, 1)
    yx2 = bc.BicyclicElement(1, 2)
    yx = bc.BicyclicElement(1, 1)
    y2x2 = bc.BicyclicElement(2, 2)

    assert bc.b_rm_related(y2x, yx2, parity).holds
    assert bc.b_rm_related(bc.X, bc.Y, parity).holds
    refuted = bc.b_rm_related(yx, y2x2, parity)
    assert not refuted.holds
    assert refuted.witness == {"x": bc.X, "y": bc.Y, "product": yx}

    search = bc.b_internality_search(parity, 2)
    assert not search.holds
    published = {
        "pair1": (y2x, yx2),
        "pair2": (bc.X, bc.Y),
        "order": "second*first",
        "product": (yx, y2x2),
    }
    assert published in list(bc.b_internality_counterexamples(parity, 2))

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 bicyclic example reproduction: PASS ({elapsed:.3f}s)")


def test_criterion_2_doubling_example_reproduction():
    start = time.perf_counter()
    report = doubling_refutation_report(5)
    assert report.fg_is_identity
    assert len(report.composites) == 5
    for n, (slope, offset) in enumerate(report.composites, start=1):
        h = ea_compose(SHIFT_DOWN, ea_compose(ea_power(DOUBLING, n), SHIFT_UP))
        assert ea(slope, offset) == h == ea(2 ** n, 2 ** n - 1)
        assert ea_in_doubling_submonoid(h) is None
    assert report.passed
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 doubling example reproduction: PASS ({elapsed:.3f}s)")


def test_criterion_3_bijection_submonoid_reproduction():
    start = time.perf_counter()
    for k in (2, 3, 4):
        m, named = full_transformation_monoid(k)
        bij = named["bijections"]
        assert is_normal_submonoid(m, bij).holds
        left = homogeneity(m, bij, "left")
        right = homogeneity(m, bij, "right")
        assert not left.holds
        # the failing side is witnessed by a constant map
        assert len(set(m.labels[left.witness["a"]])) == 1
        if k == 2:
            assert right.holds
        else:
            assert not right.holds
        rm = syntactic_reflexive_relation(m, bij)
        assert zero_class(rm) == bij
    # k = 4: the left witness is the constant map 1111, and R relates
    # 59,968 pairs, so is_internal's scan over pairs of related pairs makes
    # about 3.6e9 checks; that scan alone keeps classify_pair off T4 with
    # its bijections.
    assert m.labels[left.witness["a"]] == "1111"
    assert len(rm.pairs()) == 59_968
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 3 bijection submonoids reproduction: PASS ({elapsed:.3f}s)")


def test_criterion_4_relation_property_suite(corpus):
    assert len(corpus) >= 200
    failures = []
    for pair in corpus:
        m = pair.monoid
        cong = syntactic_congruence(m, pair.mask)
        flags = relation_flags(cong)
        if not (flags["reflexive"].holds and flags["symmetric"].holds
                and flags["transitive"].holds and is_internal(cong).holds):
            failures.append(("congruence", pair.name))
        pre = syntactic_preorder(m, pair.mask)
        flags = relation_flags(pre)
        if not (flags["reflexive"].holds and flags["transitive"].holds
                and is_internal(pre).holds):
            failures.append(("preorder", pair.name))
        refl = syntactic_reflexive_relation(m, pair.mask)
        flags = relation_flags(refl)
        if not flags["reflexive"].holds:
            failures.append(("reflexivity-with-1", pair.name))
        if not (flags["left_translation"].holds
                and flags["right_translation"].holds):
            failures.append(("translations", pair.name))
    # reflexivity must fail exactly when the subset misses the identity
    monoids = {p.monoid for p in corpus}
    for m in monoids:
        for a in range(min(m.order, 6)):
            if a == m.identity:
                continue
            rel = syntactic_reflexive_relation(m, frozenset({a}))
            if relation_flags(rel)["reflexive"].holds:
                failures.append(("reflexivity-without-1", f"{m.name}:{a}"))
        if m.order > 1:
            rest = frozenset(range(m.order)) - {m.identity}
            rel = syntactic_reflexive_relation(m, rest)
            if relation_flags(rel)["reflexive"].holds:
                failures.append(("reflexivity-without-1", f"{m.name}:rest"))
    assert failures == []
    print(f"ACCEPTANCE 4 relation properties on {len(corpus)} pairs: PASS")


def test_criterion_5_status_suite(corpus):
    failures = []
    for pair in corpus:
        m = pair.monoid
        insertion = unit_insertion_condition(m, pair.mask).holds
        zc = zero_class(syntactic_reflexive_relation(m, pair.mask))
        if insertion != (zc == pair.mask):
            failures.append(("insertion-vs-zero-class", pair.name))
        if not zc <= pair.mask:
            failures.append(("zero-class-inside-M", pair.name))
        if is_clot(m, pair.mask).holds != insertion:
            failures.append(("clot-vs-insertion", pair.name))
        if group_verdict(m).holds:
            if is_conjugation_closed(m, pair.mask).holds != insertion:
                failures.append(("clot-vs-conjugation", pair.name))
    assert failures == []
    print(f"ACCEPTANCE 5 status equivalences on {len(corpus)} pairs: PASS")


def test_criterion_6_interleaved_insertion_oracle(corpus):
    checked = 0
    for pair in corpus:
        if pair.monoid.order > 27:
            continue
        checked += 1
        oracle = interleaved_insertion_bounded(pair.monoid, pair.mask)
        assert oracle.holds == is_clot(pair.monoid, pair.mask).holds, pair.name
    assert checked >= 200
    print(f"ACCEPTANCE 6 insertion oracle agreement on {checked} pairs: PASS")


def test_criterion_7_hierarchy_suite(corpus):
    for report in corpus.reports:
        assert check_consistency(report) == [], report.pair

    w = strictness_search(corpus, "C3", "C4")
    assert w.name == "T2"

    w = strictness_search(corpus, "D", "Dl")
    assert w.name == "T2" and sorted(w.mask) == [1, 2]

    w = strictness_search(corpus, "D", "Dr")
    assert w is not None and w.name == "T3"
    found = classify_pair(w.monoid, w.mask)
    assert found.holds("D") and not found.holds("Dr")
    # the bijection submonoid itself also separates D from Dr in-corpus
    t3, named3 = full_transformation_monoid(3)
    s3_report = classify_pair(t3, frozenset(named3["bijections"]))
    assert s3_report.holds("D") and not s3_report.holds("Dr")

    w = strictness_search(corpus, "Dr", "C(4,0)")
    assert w is not None and not group_verdict(w.monoid).holds

    # inclusions that only infinite monoids separate
    assert strictness_search(corpus, "C", "C1") is None
    assert strictness_search(corpus, "C1", "C2") is None
    # the parity submonoid of B escapes C1 and C0, and the doubling powers
    # escape the zero-class of their reflexive syntactic relation
    parity = decide(bc.parity_submonoid())
    assert parity.holds("C1") is False and parity.holds("C0") is False
    assert doubling_refutation_report(5).passed
    print(f"ACCEPTANCE 7 hierarchy consistency and strictness: PASS")


def test_criterion_8_open_question_report(corpus):
    start = time.perf_counter()
    report = open_question_report(moduli_bound=4)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    fin = report["finite_vacuity"]
    assert fin["violations"] == []
    assert fin["pairs_checked"] == len(corpus)
    hunt = report["bicyclic_candidates"]
    assert hunt["mode"] == "bounded"
    assert "bounded" in hunt["note"]
    print(f"ACCEPTANCE 8 open-question report: PASS ({elapsed:.1f}s, "
          f"{hunt['submonoids_checked']} submonoids, "
          f"{len(hunt['candidates'])} candidates)")


def test_criterion_9_oracle_cross_checks():
    # product formula against string rewriting, all words of length <= 12
    mismatches = 0
    for length in range(13):
        for letters in iter_product("xy", repeat=length):
            word = "".join(letters)
            folded = bc.ONE
            for ch in word:
                folded = bc.bmul(folded, bc.X if ch == "x" else bc.Y)
            if folded != bc.bword_normal_form(word):
                mismatches += 1
    assert mismatches == 0

    # composition against pointwise evaluation, 200 seeded random pairs
    rng = random.Random(20260811)

    def random_map():
        slope = rng.randrange(0, 5)
        threshold = rng.randrange(1, 6)
        offset = rng.randrange(1 - slope * threshold, 7)
        exceptions = tuple(rng.randrange(1, 10) for _ in range(threshold - 1))
        return ea(slope, offset, threshold, exceptions)

    for _ in range(200):
        outer, inner = random_map(), random_map()
        composed = ea_compose(outer, inner)
        upto = 2 * max(outer.threshold, inner.threshold,
                       composed.threshold) + 8
        for x in range(1, upto + 1):
            assert composed(x) == outer(inner(x))

    # factorization family completeness against exhaustive scan at bound 6
    elems = [bc.BicyclicElement(n, m) for n in range(7) for m in range(7)]
    for a in elems:
        expected = {one_factorization(a, m) for m in range(a.n, 14)}
        for left in elems:
            for right in elems:
                if bc.bmul(bc.bmul(left, a), right) == bc.ONE:
                    assert (left, right) in expected
    print("ACCEPTANCE 9 oracle cross-checks: PASS")
