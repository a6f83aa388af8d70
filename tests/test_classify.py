import gc
import json
import weakref
from dataclasses import replace

import pytest

from clotkit.bicyclic import (
    ONE,
    X,
    Y,
    BicyclicElement,
    BicyclicError,
    b_internality_search,
    b_unit_insertion_condition,
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
    _infer,
    check_consistency,
    classify_bicyclic,
    classify_pair,
    report_json,
)
from clotkit.clots import is_clot
from clotkit.monoid import full_transformation_monoid
from clotkit.search import _closed_residue_submonoids
from clotkit.relations import (
    Verdict,
    syntactic_congruence,
    syntactic_preorder,
    syntactic_reflexive_relation,
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
    corrupted = type(report)(report.pair, broken, report.m_is_group)
    assert "C3=>C2" in check_consistency(corrupted)


def test_every_edge_and_conjunction_is_checked():
    unknown = {name: NOT_COMPUTED for name in FLAG_ORDER}
    yes, no = Verdict(True), Verdict(False)
    for inner, outer in IMPLICATIONS:
        report = ClassificationReport(
            "synthetic", {**unknown, inner: yes, outer: no}, None)
        assert f"{inner}=>{outer}" in check_consistency(report)
    for name, (a, b) in CONJUNCTIONS.items():
        rule = f"{name}<=>{a}&{b}"
        # both operands hold but the conjunction fails
        if b == GROUP_M:
            report = ClassificationReport(
                "synthetic", {**unknown, a: yes, name: no}, True)
        else:
            report = ClassificationReport(
                "synthetic", {**unknown, a: yes, b: yes, name: no}, None)
        assert check_consistency(report) == [rule]
        # one operand fails but the conjunction holds
        report = ClassificationReport(
            "synthetic", {**unknown, a: no, name: yes}, None)
        assert rule in check_consistency(report)


def _inferred(given, m_group=NOT_COMPUTED):
    """The flags the pass settles from the given ones, and its violations."""
    flags = dict(given)
    return flags, _infer(flags, m_group)


def test_refuted_c1_refutes_the_chain_above_it():
    witness = {"x": 7}
    flags, bad = _inferred({"C1": Verdict(False, witness=witness)})
    assert bad == []
    for name in ("C2", "C3", "C4", "C5"):
        assert flags[name].holds is False and flags[name].mode == "exact"
        assert flags[name].witness == witness
    for inner, outer in (("C2", "C1"), ("C3", "C2"), ("C4", "C3")):
        assert flags[inner].note == f"by {inner} ⊆ {outer}"
    # C5 = C4 ∧ group(M) takes the failing operand as it is
    assert flags["C5"] == flags["C4"]
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
    flags, _ = _inferred({"C(1,0)": Verdict(True, "bounded", bound=5)})
    for name in ("C0.5", "C0", "C"):
        assert flags[name].holds is True
        assert flags[name].mode == "bounded" and flags[name].bound == 5


def test_a_flag_the_classifier_set_is_never_overwritten():
    own = Verdict(True, note="own")
    given = {"C1": Verdict(False, witness={"x": 0}), "C2": own,
             "C5": Verdict(False, note="set")}
    flags, bad = _inferred(given, Verdict(False, witness={"a": 1}))
    assert flags["C2"] is own and flags["C5"] is given["C5"]
    assert bad == ["C2=>C1"]


def test_consistency_sees_through_an_unset_flag():
    # normal ⊆ D ⊆ C0.5: the gap at D hides no contradiction
    report = ClassificationReport(
        "synthetic", {**{name: NOT_COMPUTED for name in FLAG_ORDER},
                      "normal": Verdict(True), "C0.5": Verdict(False)}, None)
    assert check_consistency(report) == ["normal=>D"]
    assert report.flags["D"] is NOT_COMPUTED


def test_bicyclic_residue_reports_are_settled():
    for sub in _closed_residue_submonoids(4):
        report = classify_bicyclic(sub, 4)
        assert check_consistency(report) == [], sub.describe()
        again = dict(report.flags)
        assert _infer(again, Verdict(False)) == []
        assert again == report.flags
        unset = {n for n, f in report.flags.items() if f.mode == "n/a"}
        # D_p = Δ_p(Z_p) has every diagonal class; on the non-full ones
        # only the homogeneity flags are left open
        if len(sub.residues) < sub.p or sub.is_full:
            assert unset == set(), sub.describe()
        else:
            assert unset == {"Dr", "Dl"}, sub.describe()


def _diagonal(p, q, d):
    return residue_submonoid(p, q, {(r, s) for r in range(p)
                                    for s in range(q) if (r - s) % d == 0})


def test_diagonal_shortcut_agrees_with_the_scans():
    # every D_d with moduli <= 6, in each presentation mod (p, q) with
    # d | gcd(p, q), is recognised; the bounded procedures, which
    # classify_bicyclic skips on it, are the oracle and both pass
    for p in range(2, 7):
        for q in range(2, 7):
            for d in range(2, 7):
                if p % d == 0 and q % d == 0:
                    sub = _diagonal(p, q, d)
                    assert sub.diagonal_modulus == d, sub.describe()
                    assert b_internality_search(sub, 3).holds, sub.describe()
                    assert b_unit_insertion_condition(sub, 3).holds, (
                        sub.describe())


def test_diagonal_reports_have_no_bounded_flag():
    closed = _closed_residue_submonoids(6)
    for sub in closed:
        # in the closed form, D_d = Δ_d(Z_d) presented mod (d, d)
        expected = sub.p if len(sub.residues) == sub.p > 1 else None
        assert sub.diagonal_modulus == expected, sub.describe()
    for sub in closed + [
            residue_submonoid(2, 4, {(0, 0), (0, 2), (1, 1), (1, 3)})]:
        report = classify_bicyclic(sub, 3)
        assert check_consistency(report) == [], sub.describe()
        if sub.diagonal_modulus is not None:
            assert all(f.mode != "bounded" for f in report.flags.values()), (
                sub.describe())


def test_bicyclic_parity_report():
    report = classify_bicyclic(parity_submonoid(), bound=4)
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
    assert check_consistency(report) == []


def test_bicyclic_whole_monoid_report():
    whole = residue_submonoid(1, 1, {(0, 0)})
    report = classify_bicyclic(whole, bound=3)
    f = report.flags
    assert f["C0"].holds is True and f["C0"].mode == "exact"
    assert f["C1"].holds is True and f["C0.5"].holds is True
    assert f["C3"].holds is False
    assert f["C(1,0)"].holds is True
    assert check_consistency(report) == []


def test_bicyclic_whole_monoid_is_not_homogeneous():
    report = classify_bicyclic(residue_submonoid(1, 1, {(0, 0)}), bound=3)
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


def test_bicyclic_diagonal_report_is_exact():
    diag = residue_submonoid(2, 2, {(0, 0), (1, 1)})
    report = classify_bicyclic(diag, bound=3)
    f = report.flags
    for name in ("C1", "C0", "C2", "normal"):
        assert f[name].holds is True and f[name].mode == "exact", name
        assert "φ_2" in f[name].note, name
    # the hierarchy settles the rest, through C(1,0) ⊆ C0.5 and normal ⊆ D
    assert f["C0.5"] == Verdict(True, note="by C(1,0) ⊆ C0.5")
    assert f["D"] == replace(f["normal"], note="by normal ⊆ D")
    assert f["C(2,0)"].holds is True
    assert check_consistency(report) == []
    # the shortcut skips the scans, not their check of the bound
    with pytest.raises(BicyclicError):
        classify_bicyclic(diag, bound=0)


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


def test_no_state_outlives_a_call():
    # renamed so that it equals no monoid another test has used
    m, named = full_transformation_monoid(2)
    m = replace(m, name="T2, dropped after use")
    sub = named["bijections"]
    classify_pair(m, sub)
    for build in (syntactic_congruence, syntactic_preorder,
                  syntactic_reflexive_relation):
        build(m, sub)
    is_clot(m, sub)
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None
