from itertools import product
from math import lcm

import pytest

from clotkit import bicyclic as bc
from clotkit import monoid, relations, search
from clotkit.classify import (
    FLAG_ORDER,
    IMPLICATIONS,
    classify_bicyclic,
    classify_pair,
)
from clotkit.monoid import (
    TransformationSpec,
    _closed_sets,
    full_transformation_monoid,
    monoid_from_transformations,
)
from clotkit.search import (
    HUNT_INSERTION_NMAX,
    HUNT_MODULI_CEILING,
    Corpus,
    UnknownCategory,
    _closed_residue_submonoids,
    build_corpus,
    open_question_report,
    strictness_search,
)
from finite_oracles import (
    closed_residue_sets,
    enumerated_residue_submonoids,
    residue_product_table,
    two_sided_closed_sets,
)


def test_corpus_is_deterministic_and_deduplicated(corpus):
    again = build_corpus()
    assert [(p.name, p.monoid.table, p.mask) for p in corpus] == \
        [(p.name, p.monoid.table, p.mask) for p in again]
    keys = [(p.monoid.table, p.monoid.identity, tuple(sorted(p.mask)))
            for p in corpus]
    assert len(keys) == len(set(keys))


def test_corpus_is_sorted(corpus):
    keys = [(p.monoid.order, p.monoid.table, sum(1 << b for b in p.mask))
            for p in corpus]
    assert keys == sorted(keys)


def test_corpus_contains_canonical_pairs(corpus):
    t2, named2 = full_transformation_monoid(2)
    t3, named3 = full_transformation_monoid(3)
    tables = {(p.monoid.table, p.mask) for p in corpus}
    assert (t2.table, frozenset(named2["bijections"])) in tables
    assert (t3.table, frozenset(named3["bijections"])) in tables


def test_empty_corpus():
    empty = Corpus(())
    assert len(empty) == 0 and list(empty) == [] and empty.reports == ()
    assert strictness_search(empty, "C3", "C4") is None


def test_corpus_masks_are_valid_submonoids(corpus):
    for pair in corpus[:40]:
        m = pair.monoid
        assert m.identity in pair.mask
        for i in pair.mask:
            for j in pair.mask:
                assert m.table[i][j] in pair.mask


def test_strictness_witnesses(corpus):
    w = strictness_search(corpus, "C3", "C4")
    assert w.name == "T2" and sorted(w.mask) == [1]

    w = strictness_search(corpus, "D", "Dl")
    assert w.name == "T2" and sorted(w.mask) == [1, 2]

    w = strictness_search(corpus, "D", "Dr")
    assert w.name == "T3" and sorted(w.mask) == [5, 15, 19]

    w = strictness_search(corpus, "Dr", "C(4,0)")
    assert w.name == "T2" and sorted(w.mask) == [1]

    w = strictness_search(corpus, "D", "normal")
    assert w.name == "T2" and sorted(w.mask) == [0, 1, 3]


def test_strictness_witnesses_revalidate(corpus):
    for outer, inner in (("C3", "C4"), ("D", "Dl"), ("D", "Dr"),
                         ("Dr", "C(4,0)"), ("C", "C0"), ("C0", "C0.5"),
                         ("D", "normal")):
        w = strictness_search(corpus, outer, inner)
        if w is None:
            continue
        report = classify_pair(w.monoid, w.mask)
        assert report.holds(outer) is True
        assert report.holds(inner) is False


def test_corpus_reports_computed_once(corpus):
    assert isinstance(corpus, tuple)
    assert corpus.reports is corpus.reports
    assert len(corpus.reports) == len(corpus)
    for i in (0, len(corpus) // 2, len(corpus) - 1):
        pair = corpus[i]
        assert corpus.reports[i] == classify_pair(pair.monoid, pair.mask)


def test_infinite_only_inclusions_have_no_finite_witness(corpus):
    assert strictness_search(corpus, "C", "C1") is None
    assert strictness_search(corpus, "C1", "C2") is None


def test_unknown_category_and_non_inclusions_rejected(corpus):
    with pytest.raises(UnknownCategory):
        strictness_search(corpus, "C9", "C1")
    with pytest.raises(UnknownCategory):
        strictness_search(corpus, "C5", "C3")  # wrong direction


def test_strictness_search_accepts_exactly_the_edges(corpus):
    accepted = set()
    for outer in FLAG_ORDER:
        for inner in FLAG_ORDER:
            try:
                strictness_search(corpus, outer, inner)
            except UnknownCategory:
                continue
            accepted.add((inner, outer))
    assert accepted == set(IMPLICATIONS) and len(accepted) == 15


def test_open_question_report_rejects_moduli_outside_the_ceiling(
        monkeypatch):
    # refused before the default corpus is built
    monkeypatch.setattr(search, "default_corpus", None)
    for bound in (0, HUNT_MODULI_CEILING + 1):
        with pytest.raises(ValueError, match=f"moduli_bound {bound} "):
            open_question_report(moduli_bound=bound)


def test_open_question_report_small_bound(corpus):
    report = open_question_report(moduli_bound=2)
    fin = report["finite_vacuity"]
    assert fin["pairs_checked"] == len(corpus)
    assert fin["violations"] == []
    assert fin["clot_pairs"] > 0

    hunt = report["bicyclic_candidates"]
    assert hunt["moduli_bound"] == 2
    assert hunt["mode"] == "bounded"
    assert hunt["candidates"] == []
    # the whole monoid and the diagonal pass the bounded insertion check
    assert any("(1,1)" in s for s in hunt["interleaved_insertion_passes"])


def test_hunt_runs_no_bounded_compatibility_search(monkeypatch):
    # C1 of each residue submonoid comes from classify_bicyclic, exactly
    def refuse(*args):
        raise AssertionError("the hunt ran b_internality_search")

    monkeypatch.setattr(bc, "b_internality_search", refuse)
    hunt = open_question_report(moduli_bound=4)["bicyclic_candidates"]
    assert hunt["candidates"] == [] and hunt["mode"] == "bounded"


def test_hunt_insertion_passes_are_the_exact_clots():
    # the oracle for reading the hunt's passes off classify_bicyclic: the
    # bounded interleaved-insertion check passes exactly on the clots
    for sub in _closed_residue_submonoids(5):
        scan = bc.b_interleaved_insertion_bounded(
            sub, HUNT_INSERTION_NMAX, 2 * lcm(sub.p, sub.q))
        assert scan.holds == classify_bicyclic(sub).holds("C0.5"), \
            sub.describe()


# The finite part as it was computed before it took C1 from Dedekind
# finiteness: every flag of every pair from classify_pair, C1 by the
# is_internal scan.  Kept as the oracle.
def _finite_vacuity_by_classification(corpus):
    clot_pairs, violations = 0, []
    for report in corpus.reports:
        if report.holds("C0.5"):
            clot_pairs += 1
            if report.holds("C(1,0)") is not True:
                violations.append(report.pair)
    return clot_pairs, violations


def test_finite_vacuity_matches_classification(corpus):
    fin = open_question_report(moduli_bound=1)["finite_vacuity"]
    assert (fin["clot_pairs"], fin["violations"]) == \
        _finite_vacuity_by_classification(corpus)


def test_finite_vacuity_builds_no_syntactic_relation(corpus, monkeypatch):
    # C(1,0) of a clot holds by theorem, so the finite section counts clots
    # with is_clot and builds no syntactic relation
    def refuse(*args):
        raise AssertionError("the hunt built a syntactic relation")

    clots = sum(report.holds("C0.5") for report in corpus.reports)
    monkeypatch.setattr(relations, "_context_vectors", refuse)
    fin = open_question_report(moduli_bound=1)["finite_vacuity"]
    assert (fin["clot_pairs"], fin["violations"]) == (clots, [])


# ------------------------------------------------- residue submonoids
# Two oracles for the closed form: the closed sets of the residue product
# table (finite_oracles), and the brute-force enumeration that table
# replaced, where every residue set is validated by residue_submonoid and
# sets are told apart by their membership on a common grid.

def _brute_force_residue_sets(p, q):
    residues = [(r, s) for r in range(p) for s in range(q)
                if (r, s) != (0, 0)]
    out = []
    for mask in range(1 << len(residues)):
        rset = {(0, 0)} | {residues[i] for i in range(len(residues))
                           if mask >> i & 1}
        try:
            out.append(bc.residue_submonoid(p, q, rset))
        except bc.BicyclicError:
            continue
    return out


def _brute_force_closed_residue_submonoids(moduli_bound):
    grid = lcm(*range(1, moduli_bound + 1))
    out = []
    seen = set()
    for p in range(1, moduli_bound + 1):
        for q in range(1, moduli_bound + 1):
            for sub in _brute_force_residue_sets(p, q):
                key = frozenset(
                    (n, m) for n in range(grid) for m in range(grid)
                    if bc.BicyclicElement(n, m) in sub)
                if key not in seen:
                    seen.add(key)
                    out.append(sub)
    return out


def test_residue_product_table_matches_all_four_exponents():
    for p, q in product(range(1, 4), repeat=2):
        span = 2 * lcm(p, q)
        expected = {}
        for n1, m1, n2, m2 in product(range(span), repeat=4):
            prod = bc.bmul(bc.BicyclicElement(n1, m1),
                           bc.BicyclicElement(n2, m2))
            c1, c2 = n1 % p * q + m1 % q, n2 % p * q + m2 % q
            expected[c1, c2] = (expected.get((c1, c2), 0)
                                | 1 << (prod.n % p * q + prod.m % q))
        table = residue_product_table(p, q)
        assert {(c1, c2): table[c1][c2] for c1 in range(p * q)
                for c2 in range(p * q)} == expected, (p, q)


def test_table_closed_sets_are_the_validated_sets():
    for p, q in product(range(1, 4), repeat=2):
        assert closed_residue_sets(p, q) == \
            [sub.residues for sub in _brute_force_residue_sets(p, q)], (p, q)


def _product_bits(m):
    return [[1 << y for y in row] for row in m.table]


def test_closed_sets_match_the_two_sided_search(corpus, t3):
    # T4 truncates while it extends {1}; the two monoids of order 42 and 58
    # generated in T4 have thousands of submonoids, and by cap 1,000 many
    # extensions are read from the row of a set other than the parent
    t4 = full_transformation_monoid(4)[0]
    generated = [monoid_from_transformations(TransformationSpec(4, gens))
                 for gens in (((3, 2, 3, 4), (4, 1, 1, 2)),
                              ((4, 1, 4, 3), (2, 4, 1, 2)))]
    assert [m.order for m in generated] == [42, 58]
    cases = [(m, (1, 10, 170, None))
             for m in {pair.monoid for pair in corpus} | {t3[0]}]
    cases += [(t4, (1, 10, 170))] + [(m, (1, 10, 170, 1000))
                                     for m in generated]
    for m, caps in cases:
        right = _product_bits(m)
        for cap in caps:
            assert _closed_sets(right, m.identity, cap) == \
                two_sided_closed_sets(right, m.identity, cap), (m.name, cap)


def test_closed_sets_join_few_extensions(t3, monkeypatch):
    # 13,743 one-element extensions of T3's 699 closed sets; all but 1,744
    # are read from the rows of sets already extended
    calls = []
    join = monoid._join
    monkeypatch.setattr(monoid, "_join",
                        lambda *args: calls.append(1) or join(*args))
    found, truncated = _closed_sets(_product_bits(t3[0]), t3[0].identity)
    assert (len(found), truncated) == (699, False)
    assert len(calls) <= 2000


def test_closed_residue_submonoids_match_brute_force():
    for bound in range(1, 4):
        assert enumerated_residue_submonoids(bound) == \
            _brute_force_closed_residue_submonoids(bound), bound


def test_closed_form_matches_the_table_enumeration():
    # list equality: the same submonoids, presentations and order
    for bound in range(1, HUNT_MODULI_CEILING + 1):
        assert _closed_residue_submonoids(bound) == \
            enumerated_residue_submonoids(bound), bound


def test_closed_form_lists_validated_submonoids():
    for bound in range(1, HUNT_MODULI_CEILING + 1):
        assert len(_closed_residue_submonoids(bound)) == 2 ** bound - 1
    for sub in _closed_residue_submonoids(HUNT_MODULI_CEILING):
        assert bc.residue_submonoid(sub.p, sub.p, sub.residues) == sub


def test_closed_residue_submonoids_at_moduli_four():
    assert [sub.describe() for sub in _closed_residue_submonoids(4)] == [
        "mod(1,1) residues {(0,0)}",
        "mod(2,2) residues {(0,0)}",
        "mod(2,2) residues {(0,0),(1,1)}",
        "mod(3,3) residues {(0,0)}",
        "mod(3,3) residues {(0,0),(1,1)}",
        "mod(3,3) residues {(0,0),(2,2)}",
        "mod(3,3) residues {(0,0),(1,1),(2,2)}",
        "mod(4,4) residues {(0,0)}",
        "mod(4,4) residues {(0,0),(1,1)}",
        "mod(4,4) residues {(0,0),(2,2)}",
        "mod(4,4) residues {(0,0),(1,1),(2,2)}",
        "mod(4,4) residues {(0,0),(3,3)}",
        "mod(4,4) residues {(0,0),(1,1),(3,3)}",
        "mod(4,4) residues {(0,0),(2,2),(3,3)}",
        "mod(4,4) residues {(0,0),(1,1),(2,2),(3,3)}",
    ]
