import random

import pytest

from clotkit.clots import (
    homogeneity,
    is_clot,
    is_normal_submonoid,
    is_positive_cone,
    unit_transfer_condition,
)
from clotkit.monoid import (
    FiniteMonoid,
    enumerate_submonoids,
    full_transformation_monoid,
    submonoid_closure,
    subset_group_verdict,
)
from clotkit.relations import (
    internal_reflexive_closure,
    is_internal,
    syntactic_congruence,
    syntactic_preorder,
    syntactic_reflexive_relation,
    witness_json,
    zero_class,
    zero_class_verdict,
)
from finite_oracles import (
    NotAGroup,
    interleaved_insertion_bounded,
    is_conjugation_closed,
    relation_flags,
    translation_preorder,
    unit_insertion_condition,
    unit_transfer_scan,
)

A3 = frozenset({0, 3, 4})           # even permutations in the S3 fixture
SWAP12 = frozenset({0, 2})          # identity and the transposition "213"


def sample_pairs(t2, t3, s3, z4):
    m2, named2 = t2
    m3, named3 = t3
    yield m2, frozenset(named2["bijections"])
    yield m2, frozenset({m2.identity})
    yield m2, frozenset({m2.identity, 0})
    yield m2, frozenset(range(4))
    yield m3, frozenset(named3["bijections"])
    yield s3, A3
    yield s3, SWAP12
    yield s3, frozenset(range(6))
    yield z4, frozenset({0, 2})


def test_unit_insertion_condition(s3, t2):
    assert unit_insertion_condition(s3, A3).holds
    m2, named2 = t2
    assert unit_insertion_condition(m2, named2["bijections"]).holds

    v = unit_insertion_condition(s3, SWAP12)
    assert not v.holds
    assert v.witness == {"x": 1, "y": 1, "u": 2}
    x, y, u = v.witness["x"], v.witness["y"], v.witness["u"]
    assert s3.mul(x, y) == s3.identity and u in SWAP12
    assert s3.mul(s3.mul(x, u), y) not in SWAP12


def test_unit_transfer_condition_everywhere_finite(t2, t3, s3, z4):
    for m, sub in sample_pairs(t2, t3, s3, z4):
        assert unit_transfer_condition(m, sub).holds


def test_unit_transfer_is_closure_under_the_product(t3, t3_submonoids, s3,
                                                    corpus):
    """C2 by closure against the scan over unit pairs: the same verdict on
    every corpus pair, all 699 submonoids of T3 and every subset of S3.  A
    failure's witness meets the definition, with x = y = 1 and the least
    (s, t) whose product ts leaves M."""
    m3 = t3[0]
    cases = [(pair.monoid, pair.mask) for pair in corpus]
    cases += [(m3, bits) for bits in t3_submonoids]
    cases += [(s3, frozenset(i for i in range(6) if bits >> i & 1))
              for bits in range(64)]
    assert len(cases) == 219 + 699 + 64
    failures = 0
    for m, sub in cases:
        v = unit_transfer_condition(m, sub)
        assert v.holds == unit_transfer_scan(m, sub).holds, \
            (m.name, sorted(sub))
        if v.holds:
            continue
        failures += 1
        x, y, s, t = (v.witness[k] for k in "xyst")
        assert m.mul(x, y) == m.identity
        assert m.mul(x, s) in sub and m.mul(t, y) in sub
        assert m.mul(t, s) not in sub
        assert x == y == m.identity
        assert (s, t) == min((s, t) for s in sub for t in sub
                             if m.mul(t, s) not in sub)
    assert failures > 0


def test_normal_submonoid(t2, t3, s3):
    m2, named2 = t2
    m3, named3 = t3
    assert is_normal_submonoid(m2, named2["bijections"]).holds
    assert is_normal_submonoid(m3, named3["bijections"]).holds
    v = is_normal_submonoid(s3, SWAP12)
    assert not v.holds and v.witness == {"u": 2}


def test_positive_cone(t2, s3):
    m2, named2 = t2
    assert is_positive_cone(m2, named2["bijections"]).holds
    assert is_positive_cone(s3, A3).holds
    assert not is_positive_cone(s3, SWAP12).holds


def test_is_clot(t2, s3):
    assert is_clot(s3, A3).holds
    v = is_clot(s3, SWAP12)
    assert not v.holds and v.witness == {"u": 1}
    m2, named2 = t2
    assert is_clot(m2, named2["bijections"]).holds


def test_is_clot_matches_orbit_closure(t3, t3_submonoids, s3, corpus):
    """The unit route against the zero-class of the closure in A x A: same
    verdict and same witness bytes on every pair of the default corpus,
    all 699 submonoids of T3, T4 with its bijections, and every subset of
    S3 (a subset that is no submonoid is never a clot)."""
    m3 = t3[0]
    t4, named4 = full_transformation_monoid(4)
    cases = [(pair.monoid, pair.mask) for pair in corpus]
    cases += [(m3, bits) for bits in t3_submonoids]
    cases.append((t4, frozenset(named4["bijections"])))
    cases += [(s3, frozenset(i for i in range(6) if bits >> i & 1))
              for bits in range(64)]
    assert len(cases) == 219 + 699 + 1 + 64
    failures = 0
    for m, sub in cases:
        zc = zero_class(internal_reflexive_closure(m, sub))
        expected = None if zc == sub else {"u": min(zc - sub)}
        v = is_clot(m, sub)
        assert (v.holds, repr(v.witness)) == (zc == sub, repr(expected)), \
            (m.name, sorted(sub))
        failures += not v.holds
    assert failures > 0


def test_cone_and_normal_match_the_syntactic_relations(t3, t3_submonoids,
                                                       corpus):
    """D and normal from membership rows against the zero-classes of the
    syntactic preorder and congruence: the same whole Verdict on every
    corpus pair, all 699 submonoids of T3, 300 seeded subsets of T3 (about
    half without 1, where all of A is scanned), T4 with its bijections,
    T4 with the submonoid generated by its constants, and five seeded T4
    submonoids."""
    m3 = t3[0]
    t4, named4 = full_transformation_monoid(4)
    rng = random.Random(1)
    constants = [a for a, row in enumerate(t4.table) if len(set(row)) == 1]
    cases = [(pair.monoid, pair.mask) for pair in corpus]
    cases += [(m3, bits) for bits in t3_submonoids]
    cases += [(m3, frozenset(rng.sample(range(27), rng.randint(0, 27))))
              for _ in range(300)]
    cases.append((t4, frozenset(named4["bijections"])))
    cases.append((t4, submonoid_closure(t4, constants).bits))
    cases += [(t4, mask.bits) for mask in
              rng.sample(enumerate_submonoids(t4, cap=2000).masks, 5)]
    assert len(cases) == 219 + 699 + 300 + 2 + 5
    assert sum(m.identity not in sub for m, sub in cases) > 100
    outcomes = set()
    for m, sub in cases:
        cone = zero_class_verdict(zero_class(syntactic_preorder(m, sub)), sub,
                                  "zero-class of syntactic preorder")
        normal = zero_class_verdict(
            zero_class(syntactic_congruence(m, sub)), sub,
            "zero-class of syntactic congruence")
        assert is_positive_cone(m, sub) == cone, (m.name, sorted(sub))
        assert is_normal_submonoid(m, sub) == normal, (m.name, sorted(sub))
        outcomes.add((cone.holds, normal.holds))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_clot_iff_unit_insertion(t2, t3, s3, z4):
    for m, sub in sample_pairs(t2, t3, s3, z4):
        assert is_clot(m, sub).holds == unit_insertion_condition(m, sub).holds


def test_normal_implies_cone_implies_clot(t2, t3, s3, z4):
    for m, sub in sample_pairs(t2, t3, s3, z4):
        if is_normal_submonoid(m, sub).holds:
            assert is_positive_cone(m, sub).holds
        if is_positive_cone(m, sub).holds:
            assert is_clot(m, sub).holds


def test_clot_iff_conjugation_closed_on_groups(s3, z4):
    for m, sub in ((s3, A3), (s3, SWAP12), (s3, frozenset({0})),
                   (z4, frozenset({0, 2}))):
        assert is_clot(m, sub).holds == is_conjugation_closed(m, sub).holds


def test_conjugation_closed_witness(s3):
    v = is_conjugation_closed(s3, SWAP12)
    assert not v.holds and v.witness == {"g": 1, "u": 2}
    assert is_conjugation_closed(s3, frozenset({0})).holds


def test_conjugation_check_requires_group(t2):
    m, named = t2
    with pytest.raises(NotAGroup):
        is_conjugation_closed(m, named["bijections"])


def test_interleaved_insertion_level_one_is_unit_insertion(s3):
    v = interleaved_insertion_bounded(s3, SWAP12, 4)
    assert not v.holds
    assert v.witness["n"] == 1
    assert v.witness["u_seq"] == [2] and v.witness["a_seq"] == [1, 1]
    # the reconstructed factorization really multiplies to 1 and escapes M
    a1, a2 = v.witness["a_seq"]
    (u,) = v.witness["u_seq"]
    assert s3.mul(a1, a2) == s3.identity
    assert s3.mul(s3.mul(a1, u), a2) == v.witness["value"]
    assert v.witness["value"] not in SWAP12


def test_interleaved_insertion_agrees_with_clot(t2, t3, s3, z4):
    for m, sub in sample_pairs(t2, t3, s3, z4):
        assert interleaved_insertion_bounded(m, sub).holds == \
            is_clot(m, sub).holds


def test_homogeneity_t2(t2):
    m, named = t2
    bij = named["bijections"]
    left = homogeneity(m, bij, "left")
    assert not left.holds
    assert left.witness == {"a": m.labels.index("11"),
                            "u": m.labels.index("21")}
    assert homogeneity(m, bij, "right").holds


def test_homogeneity_t3_fails_both_sides(t3):
    m, named = t3
    bij = named["bijections"]
    left = homogeneity(m, bij, "left")
    right = homogeneity(m, bij, "right")
    assert not left.holds and not right.holds
    # left failure is witnessed by a constant map
    assert m.labels[left.witness["a"]] == "111"


def test_homogeneity_witness_is_genuine(t3):
    m, named = t3
    bij = sorted(named["bijections"])
    left = homogeneity(m, named["bijections"], "left")
    a, u = left.witness["a"], left.witness["u"]
    assert m.mul(u, a) not in {m.mul(a, v) for v in bij}


def test_translation_preorder_identity_only(t2):
    m, _ = t2
    for side in ("left", "right"):
        rel = translation_preorder(m, {m.identity}, side)
        assert rel.matrix() == [[a == b for b in range(4)] for a in range(4)]


def test_translation_preorder_t2_right_internal(t2):
    m, named = t2
    rel = translation_preorder(m, named["bijections"], "right")
    assert is_internal(rel).holds
    assert zero_class(rel) == frozenset(named["bijections"])
    flags = relation_flags(rel)
    assert flags["reflexive"].holds and flags["transitive"].holds


def test_translation_preorder_t3_right_not_internal(t3):
    m, named = t3
    rel = translation_preorder(m, named["bijections"], "right")
    v = is_internal(rel)
    assert not v.holds
    w = v.witness
    assert rel.related(w["a"], w["b"]) and rel.related(w["a2"], w["b2"])
    assert not rel.related(m.table[w["a"]][w["a2"]],
                           m.table[w["b"]][w["b2"]])


def test_group_plus_right_homogeneous_gives_symmetric_translation(s3, z4):
    for m, sub in ((s3, A3), (z4, frozenset({0, 2}))):
        assert subset_group_verdict(m, sub).holds
        assert homogeneity(m, sub, "right").holds
        rel = translation_preorder(m, sub, "right")
        assert relation_flags(rel)["symmetric"].holds


def test_right_homogeneous_implies_internal_translation_and_cone(t2, t3, s3, z4):
    for m, sub in sample_pairs(t2, t3, s3, z4):
        if homogeneity(m, sub, "right").holds:
            assert is_internal(translation_preorder(m, sub, "right")).holds
            assert is_positive_cone(m, sub).holds


def test_zero_class_condition_iff_unit_insertion(t2, t3, s3, z4):
    for m, sub in sample_pairs(t2, t3, s3, z4):
        zc = zero_class(syntactic_reflexive_relation(m, sub))
        assert (zc == sub) == unit_insertion_condition(m, sub).holds


def test_invalid_side_rejected(t2):
    m, named = t2
    with pytest.raises(ValueError):
        homogeneity(m, named["bijections"], "up")
    with pytest.raises(ValueError):
        translation_preorder(m, named["bijections"], "down")


def test_witness_json_labels(s3):
    v = unit_insertion_condition(s3, SWAP12)
    assert witness_json(v.witness, s3.labels.__getitem__) == {
        "x": "132", "y": "132", "u": "213"}
    ok = unit_insertion_condition(s3, A3)
    assert ok.holds and witness_json(ok.witness, s3.labels.__getitem__) is None
    # bools stay bools, lists and tuples recurse, other values become str
    mixed = {"flag": True, "seq": (0, [2]), "tag": "left", "ratio": 0.5}
    assert witness_json(mixed, s3.labels.__getitem__) == {
        "flag": True, "seq": ["123", ["213"]], "tag": "left", "ratio": "0.5"}


def _invariant_flags(m, sub):
    """C0, clot, positive cone, normality, right and left homogeneity and
    group(M) of the pair, each as its holds."""
    c0 = zero_class(syntactic_reflexive_relation(m, sub)) == sub
    return (c0, is_clot(m, sub).holds, is_positive_cone(m, sub).holds,
            is_normal_submonoid(m, sub).holds,
            homogeneity(m, sub, "right").holds,
            homogeneity(m, sub, "left").holds,
            subset_group_verdict(m, sub).holds)


def test_opposite_monoid_swaps_only_the_homogeneity_sides(corpus):
    # M^op has the transposed table; every condition but homogeneity is
    # left-right symmetric, and right homogeneity of M^op is left of M
    opposite = {}
    for pair in corpus:
        m, sub = pair.monoid, pair.mask
        if m not in opposite:
            opposite[m] = FiniteMonoid(tuple(zip(*m.table)), m.identity,
                                       m.labels, f"{m.name}^op")
        c0, clot, cone, normal, right, left, group = _invariant_flags(m, sub)
        assert _invariant_flags(opposite[m], sub) == (
            c0, clot, cone, normal, left, right, group), pair.name


def test_conjugation_by_s3_preserves_every_t3_flag(t3, t3_submonoids):
    # Aut(T3) is S3 acting by conjugation, a -> s·a·s^-1
    m, named = t3
    table = m.table
    inverse = {s: next(t for t in named["bijections"]
                       if table[s][t] == m.identity)
               for s in named["bijections"]}
    conjugations = [[table[table[s][a]][t] for a in range(m.order)]
                    for s, t in inverse.items()]
    classes = {}
    for sub in t3_submonoids:
        least = min(tuple(sorted(phi[a] for a in sub))
                    for phi in conjugations)
        classes.setdefault(least, []).append(sub)
    assert len(classes) == 160
    for least, members in classes.items():
        expected = _invariant_flags(m, frozenset(least))
        for sub in members:
            assert _invariant_flags(m, sub) == expected, sorted(sub)
