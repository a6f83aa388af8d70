import gc
import json
import sys
from itertools import product

import pytest

from clotkit import classify, relations
from clotkit.bicyclic import (
    ONE,
    X,
    Y,
    BicyclicElement,
    ResidueSubmonoid,
    b_internality_search,
    bmul,
    parity_submonoid,
    residue_submonoid,
)
from clotkit.classify import (
    CONJUNCTIONS,
    FLAG_ORDER,
    GROUP_M,
    IMPLICATIONS,
    NOT_COMPUTED,
    ClassificationReport,
    FinitePair,
    _infer,
    check_consistency,
    classify_pair,
    decide,
    report_json,
)
from clotkit.clots import (
    is_clot,
    is_normal_submonoid,
    is_positive_cone,
    subset_group_verdict,
)
from clotkit.monoid import (
    FiniteMonoid,
    MonoidError,
    full_transformation_monoid,
    restrict_to_submonoid,
)
from clotkit.search import _closed_residue_submonoids
from clotkit.relations import (
    Verdict,
    syntactic_congruence,
    syntactic_preorder,
    syntactic_reflexive_relation,
)
from bicyclic_oracles import b_unit_insertion_condition
from finite_oracles import (
    _minimal_form,
    closed_residue_sets,
    is_dedekind_finite,
)

A3 = frozenset({0, 3, 4})
SWAP12 = frozenset({0, 2})


def flags_of(report):
    return {name: report.flags[name].holds for name in FLAG_ORDER}


def test_s3_even_permutations_all_true(s3):
    report = classify_pair(s3, A3)
    assert all(v is True for v in flags_of(report).values())
    assert check_consistency(report) == []


def test_t2_bijections_profile(t2):
    m, named = t2
    report = classify_pair(m, named["bijections"])
    got = flags_of(report)
    assert got == {
        "C": True, "C1": True, "C2": True, "C3": True,
        "C4": False, "C5": False,
        "C0": True, "C0.5": True,
        "C(1,0)": True, "C(2,0)": True, "C(3,0)": True,
        "C(4,0)": False, "C(5,0)": False,
        "D": True, "Dr": True, "Dl": False, "Dh": True,
        "normal": True,
    }
    assert check_consistency(report) == []


def test_s3_nonnormal_subgroup_profile(s3):
    report = classify_pair(s3, SWAP12)
    got = flags_of(report)
    assert got["C4"] is True and got["C5"] is True
    assert got["C0"] is False and got["C0.5"] is False
    assert got["D"] is False and got["normal"] is False
    assert got["Dr"] is False and got["Dh"] is False
    assert check_consistency(report) == []


def test_modes_all_exact_for_finite_pairs(t2):
    m, named = t2
    report = classify_pair(m, named["bijections"])
    assert {f.mode for f in report.flags.values()} == {"exact"}


def test_corrupted_report_is_flagged(s3):
    report = classify_pair(s3, A3)
    broken = dict(report.flags)
    broken["C2"] = Verdict(False, witness={"x": 0})
    corrupted = type(report)(report.pair, broken)
    assert "C3=>C2" in check_consistency(corrupted)


def test_corrupted_derived_flag_is_flagged(s3):
    # SWAP12 is a subgroup of the group S3, so C5 and Dh follow group(M)
    report = classify_pair(s3, SWAP12)
    for name, a in (("C5", "C4"), ("Dh", "Dr")):
        flipped = Verdict(not report.holds(name))
        corrupted = type(report)(report.pair,
                                 {**report.flags, name: flipped})
        assert check_consistency(corrupted) == [f"{name}<=>{a}&{GROUP_M}"]


def test_group_flag_keeps_its_witness(t2):
    m, named = t2
    whole = frozenset(range(m.order))
    group = classify_pair(m, whole).flags[GROUP_M]
    assert group == subset_group_verdict(m, whole)
    assert (group.holds, group.witness) == (False, {"a": 0})
    assert classify_pair(m, named["bijections"]).holds(GROUP_M) is True
    other = residue_submonoid(2, 4, {(0, 0), (0, 2), (1, 1), (1, 3)})
    for sub in (parity_submonoid(), other):
        group = decide(sub).flags[GROUP_M]
        assert (group.holds, group.mode) == (False, "exact")
        assert group.witness == {"a": BicyclicElement(0, sub.q)}


def test_every_edge_and_conjunction_is_checked():
    unknown = {name: NOT_COMPUTED for name in FLAG_ORDER}
    yes, no = Verdict(True), Verdict(False)
    for inner, outer in IMPLICATIONS:
        report = ClassificationReport(
            "synthetic", {**unknown, inner: yes, outer: no})
        assert f"{inner}=>{outer}" in check_consistency(report)
    for name, (a, b) in CONJUNCTIONS.items():
        rule = f"{name}<=>{a}&{b}"
        # both operands hold but the conjunction fails
        report = ClassificationReport(
            "synthetic", {**unknown, a: yes, b: yes, name: no})
        assert check_consistency(report) == [rule]
        # one operand fails but the conjunction holds
        report = ClassificationReport(
            "synthetic", {**unknown, a: no, name: yes})
        assert rule in check_consistency(report)


def _inferred(given):
    """The flags the pass settles from the given ones, and its violations."""
    flags = dict(given)
    return flags, _infer(flags)


def test_refuted_c1_refutes_the_chain_above_it():
    witness = {"x": 7}
    flags, bad = _inferred({"C1": Verdict(False, witness=witness)})
    assert bad == []
    for name in ("C2", "C3", "C4", "C5"):
        assert flags[name].holds is False and flags[name].mode == "exact"
        assert flags[name].witness == witness
    for inner, outer in (("C2", "C1"), ("C3", "C2"), ("C4", "C3")):
        assert flags[inner].note == f"by {inner} ⊆ {outer}"
    # C5 = C4 ∧ group(M) takes the failing operand and names itself
    assert flags["C5"] == flags["C4"]._replace(note="by C5 = C4 ∧ group(M)")
    for i in range(1, 6):
        assert flags[f"C({i},0)"].holds is False
        assert flags[f"C({i},0)"].witness == witness
    # nothing decides the other chain
    assert flags["C"].holds is None and flags["C0"].holds is None


def test_proved_normal_proves_every_flag_outside_it():
    flags, bad = _inferred({"normal": Verdict(True)})
    assert bad == []
    for inner, outer in (("normal", "D"), ("D", "C0.5"), ("C0.5", "C0"),
                         ("C0", "C")):
        assert flags[outer] == Verdict(True, note=f"by {inner} ⊆ {outer}")
    # D does not prove homogeneity
    assert flags["Dr"].holds is None and flags["Dl"].holds is None


def test_bounded_pass_propagates_with_its_bound():
    flags, _ = _inferred({"C(1,0)": Verdict(True, bound=5)})
    for name in ("C0.5", "C0", "C"):
        assert flags[name].holds is True
        assert flags[name].mode == "bounded" and flags[name].bound == 5


def test_report_json_states_a_bounded_pass_and_its_bound():
    flags, _ = _inferred({"C(1,0)": Verdict(True, bound=5)})
    report = ClassificationReport("synthetic", flags)
    entry = report_json(report)["flags"]["C0"]
    assert entry == {"holds": True, "mode": "bounded", "bound": 5,
                     "note": "by C0.5 ⊆ C0"}


def test_a_flag_the_classifier_set_is_never_overwritten():
    own = Verdict(True, note="own")
    given = {"C1": Verdict(False, witness={"x": 0}), "C2": own,
             "C5": Verdict(False, note="set"),
             GROUP_M: Verdict(False, witness={"a": 1})}
    flags, bad = _inferred(given)
    assert flags["C2"] is own and flags["C5"] is given["C5"]
    assert bad == ["C2=>C1"]


def test_consistency_sees_through_an_unset_flag():
    # normal ⊆ D ⊆ C0.5: the gap at D hides no contradiction
    report = ClassificationReport(
        "synthetic", {**{name: NOT_COMPUTED for name in FLAG_ORDER},
                      "normal": Verdict(True), "C0.5": Verdict(False)})
    assert check_consistency(report) == ["normal=>D"]
    assert report.flags["D"] is NOT_COMPUTED


def _every_residue_submonoid():
    # every residue set mod (p, q) with p, q <= 6: 126 presentations
    for p, q in product(range(1, 7), repeat=2):
        for residues in closed_residue_sets(p, q):
            yield ResidueSubmonoid(p, q, residues)


def test_bicyclic_residue_reports_are_settled():
    for sub in _every_residue_submonoid():
        name = sub.describe()
        h, s = sub.diagonal_form
        # the least periods of the set are (h, h): h is least
        p0, q0, least = _minimal_form(sub.p, sub.q, sub.residues)
        assert (p0, q0, s) == (h, h, {r for r, _ in least}), name
        report = decide(sub)
        # no flag is n/a or bounded: every one is proved or refuted
        assert all(f.mode == "exact" and f.bound is None
                   for f in report.flags.values()), name
        assert check_consistency(report) == [], name
        again = dict(report.flags)
        assert _infer(again) == []
        assert again == report.flags


def test_diagonal_shortcut_agrees_with_the_scans():
    # the bounded scans are the oracle of the proofs: on Δ_h(S) with
    # S ≠ Z_h they find the proof's witness at bound h, and on D_h they
    # pass at bound max(h, 3)
    diagonals = 0
    for sub in _every_residue_submonoid():
        h, s = sub.diagonal_form
        bound = max(h, 3) if len(s) == h else h
        report = decide(sub)
        for flag, scan in (("C1", b_internality_search(sub, bound)),
                           ("C0", b_unit_insertion_condition(sub, bound))):
            f = report.flags[flag]
            assert (f.holds, f.witness) == (scan.holds, scan.witness), (
                sub.describe(), flag)
        diagonals += report.holds("C0")
    assert diagonals == 52


def test_diagonal_reports_have_no_bounded_flag():
    # the closed form lists Δ_p(S) mod (p, p) with p least, so its diagonal
    # form is (p, S); a diagonal in another presentation keeps its form
    closed = _closed_residue_submonoids(6)
    for sub in closed:
        assert sub.diagonal_form == (sub.p, {r for r, _ in sub.residues})
    other = residue_submonoid(2, 4, {(0, 0), (0, 2), (1, 1), (1, 3)})
    assert other.diagonal_form == (2, {0, 1})
    for sub in closed + [other]:
        report = decide(sub)
        assert all(f.mode == "exact" for f in report.flags.values()), (
            sub.describe())


def test_bicyclic_whole_monoid_is_not_homogeneous():
    report = decide(residue_submonoid(1, 1, {(0, 0)}))
    right, left = report.flags["Dr"], report.flags["Dl"]
    assert (right.holds, right.mode, right.witness) == (
        False, "exact", {"a": X, "u": Y})
    assert (left.holds, left.mode, left.witness) == (
        False, "exact", {"a": Y, "u": X})
    elements = [BicyclicElement(n, m) for n in range(6) for m in range(6)]
    # Dr: a*u = xy = 1 lies outside Ba = Bx
    a, u = right.witness["a"], right.witness["u"]
    assert bmul(a, u) == ONE
    assert bmul(a, u) not in {bmul(v, a) for v in elements}
    # Dl: u*a = xy = 1 lies in Ba = By but outside aB = yB
    a, u = left.witness["a"], left.witness["u"]
    assert bmul(u, a) == ONE
    assert bmul(u, a) not in {bmul(a, v) for v in elements}
    assert report.flags["D"].holds is True
    assert check_consistency(report) == []


def test_diagonal_homogeneity_witnesses():
    # on D_h, aM ⊆ Ma fails at a = x, u = y^h and Ma ⊆ aM at a = y, u = x^h
    for h in range(1, 7):
        sub = residue_submonoid(h, h, {(r, r) for r in range(h)})
        members = [e for e in (BicyclicElement(n, m) for n in range(13)
                               for m in range(13)) if e in sub]
        report = decide(sub)
        right, left = report.flags["Dr"], report.flags["Dl"]
        assert (right.holds, right.mode, right.witness) == (
            False, "exact", {"a": X, "u": BicyclicElement(h, 0)})
        assert (left.holds, left.mode, left.witness) == (
            False, "exact", {"a": Y, "u": BicyclicElement(0, h)})
        a, u = right.witness["a"], right.witness["u"]
        assert u in sub
        assert bmul(a, u) not in {bmul(v, a) for v in members}
        a, u = left.witness["a"], left.witness["u"]
        assert u in sub and bmul(u, a) in {bmul(v, a) for v in members}
        assert bmul(u, a) not in {bmul(a, v) for v in members}
        assert report.flags["D"].holds is True, h
        assert check_consistency(report) == []


def test_bicyclic_c0_fails_past_any_bound():
    # Δ_7({0}) first leaves the shifted diagonal at u = y^7 x^7, past the
    # exponents 6 that a scan at bound 6 reads
    sub = residue_submonoid(7, 7, {(0, 0)})
    c0 = decide(sub).flags["C0"]
    u, product = BicyclicElement(7, 7), BicyclicElement(6, 6)
    assert (c0.holds, c0.mode, c0.bound) == (False, "exact", None)
    assert c0.witness == {"u": u, "k": 1, "product": product}
    assert u in sub and product not in sub
    assert bmul(bmul(X, u), Y) == product
    assert b_unit_insertion_condition(sub, 6).mode == "bounded"


def test_bicyclic_parity_report():
    report = decide(parity_submonoid())
    f = report.flags
    assert f["C1"].holds is False and f["C1"].mode == "exact"
    assert f["C0"].holds is False and f["C0"].mode == "exact"
    assert f["C0.5"].holds is False
    assert f["C3"].holds is False and f["C4"].holds is False
    assert f["C5"].holds is False
    # C2 and D are refuted through C2 ⊆ C1 and D ⊆ C0.5
    assert f["C2"].holds is False and f["C2"].mode == "exact"
    assert f["C2"].note == "by C2 ⊆ C1"
    assert f["D"].holds is False and f["D"].mode == "exact"
    assert f["C(1,0)"].holds is False
    assert f["C(1,0)"].note == "by C(1,0) = C1 ∧ C0"
    assert check_consistency(report) == []


def test_bicyclic_whole_monoid_report():
    whole = residue_submonoid(1, 1, {(0, 0)})
    assert whole.diagonal_form == (1, {0})
    report = decide(whole)
    f = report.flags
    assert f["C0"].holds is True and f["C0"].mode == "exact"
    assert f["C1"].holds is True and f["C0.5"].holds is True
    assert f["C3"].holds is False
    assert f["C(1,0)"].holds is True
    assert check_consistency(report) == []


def test_bicyclic_diagonal_report_is_exact():
    diag = residue_submonoid(2, 2, {(0, 0), (1, 1)})
    report = decide(diag)
    f = report.flags
    for name in ("C1", "C0", "C2", "normal"):
        assert f[name].holds is True and f[name].mode == "exact", name
        assert "φ_2" in f[name].note, name
    # the hierarchy settles the rest, through C(1,0) ⊆ C0.5 and normal ⊆ D
    assert f["C0.5"] == Verdict(True, note="by C(1,0) ⊆ C0.5")
    assert f["D"] == f["normal"]._replace(note="by normal ⊆ D")
    assert f["C(2,0)"] == Verdict(True, note="by C(2,0) = C2 ∧ C0")
    assert f["Dh"].note == "by Dh = Dr ∧ group(M)"
    assert check_consistency(report) == []


def test_report_json_round_trips(t2):
    m, named = t2
    report = classify_pair(m, named["bijections"])
    text = json.dumps(report_json(report, m), indent=2, sort_keys=True)
    parsed = json.loads(text)
    assert json.dumps(parsed, indent=2, sort_keys=True) == text
    assert parsed["pair"] == report.pair
    assert set(parsed["flags"]) == set(FLAG_ORDER)
    # witnesses are rendered with element labels
    assert parsed["flags"]["Dl"]["witness"] == {"a": "11", "u": "21"}


def test_finite_pairs_make_upper_chain_collapse(corpus):
    # every finite pair is Dedekind finite, hence in C2 and C1,
    # so being a clot coincides with membership in C(1,0)
    for report in corpus.reports:
        assert report.holds("C3") and report.holds("C2") and report.holds("C1")
        assert report.holds("C0.5") == report.holds("C(1,0)")


def test_classify_pair_builds_no_context_vector(corpus, monkeypatch):
    # D and normal read their zero-classes from membership rows, so only
    # the relation command packs the n^3-bit context vectors.  On T4 the
    # C1 scan of classify_pair would cover every pair of R's full non-unit
    # rows, so D and normal are called there directly; S4 with the four
    # constants is a monoid of order 28 that classify_pair settles quickly
    def refuse(*args):
        raise AssertionError("classify_pair built a context vector")

    monkeypatch.setattr(relations, "_context_vectors", refuse)
    for pair, report in zip(corpus, corpus.reports):
        assert classify_pair(pair.monoid, pair.mask) == report, report.pair
    t4, named4 = full_transformation_monoid(4)
    s4 = named4["bijections"]
    assert is_positive_cone(t4, s4) and is_normal_submonoid(t4, s4)
    constants = {a for a, row in enumerate(t4.table) if len(set(row)) == 1}
    elements = sorted(s4 | constants)
    m = restrict_to_submonoid(t4, elements, "S4+constants")
    sub = frozenset(i for i, a in enumerate(elements) if a in s4)
    report = classify_pair(m, sub)
    assert report.holds("D") and report.holds("normal")


@pytest.mark.parametrize("words, cause", [
    (("21",), "submonoid must contain the identity"),
    (("11", "12", "21"), "not closed under product: 2*0 = 3"),  # 21·11 = 22
])
def test_classify_pair_refuses_a_non_submonoid(t2, words, cause):
    # C2 is read from C3 ⊆ C2, so a subset that is not a submonoid, which
    # would break that edge, is refused rather than classified
    m, _ = t2
    with pytest.raises(MonoidError) as raised:
        classify_pair(m, frozenset(m.labels.index(w) for w in words))
    assert str(raised.value) == cause


def test_decide_of_a_finite_pair_is_classify_pair_with_notes(
        corpus, t3, t3_submonoids, monkeypatch):
    # is_internal reads R alone, and R takes 50 values on the corpus and 9
    # on the 699 submonoids of T3, so each R is scanned once
    scans = {}

    def is_internal(rel):
        key = rel.parent.table, rel.rows
        if key not in scans:
            scans[key] = relations.is_internal(rel)
        return scans[key]

    monkeypatch.setattr(classify, "is_internal", is_internal)
    pairs = [(p.monoid, p.mask) for p in corpus]
    pairs += [(t3[0], bits) for bits in t3_submonoids]
    assert len(pairs) == 219 + 699
    noted = 0
    for m, bits in pairs:
        full, bare = decide(FinitePair(m, bits)), classify_pair(m, bits)
        assert full.pair == bare.pair
        assert full.flags.keys() == bare.flags.keys()
        for name, verdict in full.flags.items():
            # same holds, witness and bound; classify_pair drops the note
            assert verdict._replace(note="") == bare.flags[name], (
                full.pair, name)
            noted += bool(verdict.note)
        assert not any(v.note for v in bare.flags.values()), full.pair
    assert noted


def test_pair_kinds_decide_only_flags_of_the_report(corpus):
    known = {*FLAG_ORDER, GROUP_M}
    kinds = [FinitePair(p.monoid, p.mask) for p in corpus
             if p.monoid.order <= 6]
    kinds += _closed_residue_submonoids(6)
    assert {pair.name[:2] for pair in kinds} >= {"T2", "B:"}
    for pair in kinds:
        assert set(pair.flags()) <= known, pair.name


def test_c3_is_the_theorem_the_dedekind_scan_confirms(corpus):
    # classify_pair sets C3 by theorem, an exact pass with no witness; the
    # unit-pair scan is its oracle, on every corpus monoid and on T4
    t4, _ = full_transformation_monoid(4)
    for m in {pair.monoid for pair in corpus} | {t4}:
        assert is_dedekind_finite(m) == Verdict(True), m.name
    for report in corpus.reports:
        c3 = report.flags["C3"]
        assert c3 == Verdict(True) and c3.mode == "exact", report.pair


def test_no_state_outlives_a_call():
    # renamed so that it equals no monoid another test has used; a tuple
    # takes no weak reference, so its reference count shows what is kept
    m, named = full_transformation_monoid(2)
    m = FiniteMonoid(m.table, m.identity, m.labels, "T2, dropped after use")
    sub = named["bijections"]
    before = sys.getrefcount(m)
    classify_pair(m, sub)
    for build in (syntactic_congruence, syntactic_preorder,
                  syntactic_reflexive_relation):
        build(m, sub)
    is_clot(m, sub)
    gc.collect()
    assert sys.getrefcount(m) == before
