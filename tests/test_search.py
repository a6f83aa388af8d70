import pytest

from clotkit.classify import classify_pair
from clotkit.monoid import full_transformation_monoid
from clotkit.search import (
    Corpus,
    CorpusConfig,
    UnknownCategory,
    build_corpus,
    infinite_strictness_evidence,
    open_question_report,
    strictness_search,
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


def test_empty_configuration_gives_empty_corpus():
    config = CorpusConfig(zn_max=1, transformation_max=0,
                          include_products=False)
    assert len(build_corpus(config)) == 0


def test_corpus_masks_are_valid_submonoids(corpus):
    for pair in corpus.pairs[:40]:
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


def test_strictness_witnesses_revalidate(corpus):
    for outer, inner in (("C3", "C4"), ("D", "Dl"), ("D", "Dr"),
                         ("Dr", "C(4,0)"), ("C", "C0"), ("C0", "C0.5")):
        w = strictness_search(corpus, outer, inner)
        if w is None:
            continue
        report = classify_pair(w.monoid, w.mask)
        assert report.holds(outer) is True
        assert report.holds(inner) is False


def test_infinite_only_inclusions_have_no_finite_witness(corpus):
    assert strictness_search(corpus, "C", "C1") is None
    assert strictness_search(corpus, "C1", "C2") is None


def test_infinite_strictness_evidence():
    evidence = infinite_strictness_evidence(bound=3, nmax=3)
    assert evidence == {
        "bicyclic_parity_not_C1": True,
        "bicyclic_parity_not_C0": True,
        "doubling_powers_escape_zero_class": True,
    }


def test_unknown_category_and_non_inclusions_rejected(corpus):
    with pytest.raises(UnknownCategory):
        strictness_search(corpus, "C9", "C1")
    with pytest.raises(UnknownCategory):
        strictness_search(corpus, "C5", "C3")  # wrong direction


def test_open_question_report_empty_corpus():
    report = open_question_report(Corpus((), False), moduli_bound=1)
    assert report["finite_vacuity"]["pairs_checked"] == 0
    assert report["finite_vacuity"]["clot_pairs"] == 0


def test_open_question_report_small_bound(corpus):
    report = open_question_report(corpus, moduli_bound=2)
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
