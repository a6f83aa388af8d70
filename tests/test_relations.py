"""The bit-matrix relations against a direct brute-force oracle."""

import json
import random

from clotkit.cli import RELATION_BUILDERS, main
from clotkit.clots import is_clot
from clotkit.monoid import (
    _bits,
    cyclic_group,
    enumerate_submonoids,
    full_transformation_monoid,
    inverses,
    monoid_to_dict,
    validate_monoid,
)
from clotkit.relations import (
    Verdict,
    internal_reflexive_closure,
    is_internal,
    syntactic_congruence,
    syntactic_preorder,
    syntactic_reflexive_relation,
    zero_class,
)
from finite_oracles import context_reflexive_relation, relation_flags


def naive_relation(m, subset, kind):
    """Direct definitional computation, no bit vectors."""
    n = m.order
    sub = set(subset)
    e = m.identity

    def ctx(a):
        return {(x, y) for x in range(n) for y in range(n)
                if m.table[m.table[x][a]][y] in sub}

    def one_ctx(a):
        return {(x, y) for x in range(n) for y in range(n)
                if m.table[m.table[x][a]][y] == e}

    out = []
    for a in range(n):
        row = []
        for b in range(n):
            if kind == "cong":
                row.append(ctx(a) == ctx(b))
            elif kind == "pre":
                row.append(ctx(a) <= ctx(b))
            else:
                row.append(all(m.table[m.table[x][b]][y] in sub
                               for x, y in one_ctx(a)))
        out.append(row)
    return out


def oracle_pairs(t2, s3, z4):
    m2, named2 = t2
    sigma = m2.labels.index("21")
    c1 = m2.labels.index("11")
    yield m2, frozenset(named2["bijections"])
    yield m2, frozenset({m2.identity})
    yield m2, frozenset({m2.identity, c1})
    yield m2, frozenset({c1})                    # plain subset, no identity
    yield m2, frozenset(range(4))
    yield s3, frozenset({0, 3, 4})               # even permutations
    yield s3, frozenset({0, s3.labels.index("213")})
    yield z4, frozenset({0, 2})
    yield z4, frozenset({1, 3})                  # plain subset


def test_relations_match_naive_oracle(t2, s3, z4):
    for m, sub in oracle_pairs(t2, s3, z4):
        for kind, builder in (("cong", syntactic_congruence),
                              ("pre", syntactic_preorder),
                              ("refl", syntactic_reflexive_relation)):
            rel = builder(m, sub)
            assert rel.matrix() == naive_relation(m, sub, kind), (m.name, kind, sorted(sub))


def test_congruence_classes_t2_bijections(t2):
    m, named = t2
    rel = syntactic_congruence(m, named["bijections"])
    classes = {frozenset(b for b in range(4) if rel.related(a, b))
               for a in range(4)}
    id_, sigma = m.labels.index("12"), m.labels.index("21")
    c1, c2 = m.labels.index("11"), m.labels.index("22")
    assert classes == {frozenset({id_, sigma}), frozenset({c1, c2})}


def test_congruence_total_when_subset_is_everything(t2):
    m, _ = t2
    rel = syntactic_congruence(m, range(4))
    assert all(rel.related(a, b) for a in range(4) for b in range(4))
    assert zero_class(rel) == frozenset(range(4))


def test_congruence_identity_relation_on_z2():
    z2 = validate_monoid([[0, 1], [1, 0]], 0)
    rel = syntactic_congruence(z2, {0})
    assert rel.matrix() == [[True, False], [False, True]]


def test_preorder_reflexive_and_constants_below_identity(t2):
    m, named = t2
    rel = syntactic_preorder(m, named["bijections"])
    assert all(rel.related(a, a) for a in range(4))
    c1, id_ = m.labels.index("11"), m.labels.index("12")
    assert rel.related(c1, id_)          # constants have empty context
    assert not rel.related(id_, c1)


def test_congruence_is_preorder_meet_transpose(t2, s3):
    for m, sub in ((t2[0], t2[1]["bijections"]), (s3, {0, 3, 4}),
                   (t2[0], {t2[0].identity, 0})):
        cong = syntactic_congruence(m, sub)
        pre = syntactic_preorder(m, sub)
        both = [[pre.related(a, b) and pre.related(b, a)
                 for b in range(m.order)] for a in range(m.order)]
        assert cong.matrix() == both


def reflexive_cases(corpus, t3, t3_submonoids, s3):
    """The default corpus, the 699 submonoids of T3, 300 seeded random
    subsets of T3 (some without the identity), the 64 subsets of S3 and T4
    with its bijections."""
    m3 = t3[0]
    rng = random.Random(20261020)
    cases = [(p.monoid, p.mask) for p in corpus]
    cases += [(m3, bits) for bits in t3_submonoids]
    cases += [(m3, frozenset(rng.sample(range(27), rng.randint(0, 27))))
              for _ in range(300)]
    cases += [(s3, frozenset(_bits(mask))) for mask in range(64)]
    t4, named4 = full_transformation_monoid(4)
    cases.append((t4, frozenset(named4["bijections"])))
    return cases


def test_reflexive_relation_matches_context_oracle(corpus, t3, t3_submonoids,
                                                   s3):
    cases = reflexive_cases(corpus, t3, t3_submonoids, s3)
    random_t3 = cases[len(corpus) + 699:len(corpus) + 999]
    assert len(cases) == len(corpus) + 699 + 300 + 64 + 1
    assert {t3[0].identity in sub for _, sub in random_t3} == {True, False}
    for m, sub in cases:
        rel = syntactic_reflexive_relation(m, sub)
        assert rel == context_reflexive_relation(m, sub), (m.name, sorted(sub))


def test_reflexive_relation_rows_are_full_or_translated_zero_classes(
        corpus, t3, t3_submonoids, s3):
    # x*a*y = 1 only for units, as (x, a, (x*a)^-1): a non-unit's row is A,
    # a unit a's row is K*a, K the zero-class, so |R| = (n - |G|)*n + |G|*|K|
    for m, sub in reflexive_cases(corpus, t3, t3_submonoids, s3):
        units = inverses(m)
        rel = syntactic_reflexive_relation(m, sub)
        zc = zero_class(rel)
        for a in range(m.order):
            row = set(_bits(rel.rows[a]))
            if a in units:
                assert row == {m.table[k][a] for k in zc}, (m.name, a)
            else:
                assert row == set(range(m.order)), (m.name, a)
        assert len(rel.pairs()) == ((m.order - len(units)) * m.order
                                    + len(units) * len(zc))


def test_c0_iff_clot_on_finite_submonoids(corpus, t3, t3_submonoids):
    # both say that M is closed under conjugation by units
    cases = [(p.monoid, p.mask) for p in corpus]
    cases += [(t3[0], bits) for bits in t3_submonoids]
    for m, sub in cases:
        zc = zero_class(syntactic_reflexive_relation(m, sub))
        assert (zc == sub) == is_clot(m, sub).holds, (m.name, sorted(sub))


def test_reflexive_relation_on_group_tracks_parity(s3):
    even = {i for i, lab in enumerate(s3.labels)
            if lab in ("123", "231", "312")}
    rel = syntactic_reflexive_relation(s3, even)
    for a in range(6):
        for b in range(6):
            assert rel.related(a, b) == ((a in even) == (b in even))


def test_reflexive_relation_reflexivity_tracks_identity_membership(t2):
    m, named = t2
    with_one = syntactic_reflexive_relation(m, named["bijections"])
    assert relation_flags(with_one)["reflexive"].holds
    c1 = m.labels.index("11")
    without_one = syntactic_reflexive_relation(m, {c1})
    flag = relation_flags(without_one)["reflexive"]
    assert not flag.holds
    assert not without_one.related(m.identity, m.identity)


def test_preorder_contained_in_reflexive_relation_when_identity_in_subset(t2, s3):
    for m, sub in ((t2[0], t2[1]["bijections"]), (s3, {0, 3, 4})):
        pre = syntactic_preorder(m, sub)
        refl = syntactic_reflexive_relation(m, sub)
        for a in range(m.order):
            assert pre.rows[a] & ~refl.rows[a] == 0


def test_zero_classes(t2, s3):
    m, named = t2
    assert zero_class(syntactic_congruence(m, named["bijections"])) == \
        frozenset(named["bijections"])
    twelve = s3.labels.index("213")
    rel = syntactic_reflexive_relation(s3, {0, twelve})
    assert zero_class(rel) == frozenset({0})


def test_relation_flags_on_congruence_and_preorder(t2, s3):
    for m, sub in ((t2[0], t2[1]["bijections"]), (s3, {0, 3, 4})):
        flags = relation_flags(syntactic_congruence(m, sub))
        assert all(flags[k].holds for k in flags)
        flags = relation_flags(syntactic_preorder(m, sub))
        assert flags["reflexive"].holds and flags["transitive"].holds
        assert flags["left_translation"].holds
        assert flags["right_translation"].holds


def test_preorder_symmetry_fails_with_witness(t2):
    m, named = t2
    flag = relation_flags(syntactic_preorder(m, named["bijections"]))["symmetric"]
    assert not flag.holds
    a, b = flag.witness["a"], flag.witness["b"]
    pre = syntactic_preorder(m, named["bijections"])
    assert pre.related(a, b) and not pre.related(b, a)


def test_reflexive_relation_translations_when_identity_present(t2, s3):
    for m, sub in ((t2[0], t2[1]["bijections"]), (s3, {0, 3, 4}),
                   (t2[0], {t2[0].identity, 0})):
        flags = relation_flags(syntactic_reflexive_relation(m, sub))
        assert flags["left_translation"].holds
        assert flags["right_translation"].holds


def test_is_internal_for_syntactic_relations(t2, s3, z4):
    for m, sub in oracle_pairs(t2, s3, z4):
        assert is_internal(syntactic_congruence(m, sub)).holds
        assert is_internal(syntactic_preorder(m, sub)).holds


def test_is_internal_witness_is_genuine():
    # an artificial non-compatible relation: relate 1 ~ 1 and 1 ~ 3 in Z4
    z4 = cyclic_group(4)
    rows = tuple((1 << a) | ((1 << 3) if a == 1 else 0) for a in range(4))
    from clotkit.relations import Relation
    rel = Relation(z4, rows, "custom")
    verdict = is_internal(rel)
    assert not verdict.holds
    w = verdict.witness
    assert rel.related(w["a"], w["b"]) and rel.related(w["a2"], w["b2"])
    assert not rel.related(z4.table[w["a"]][w["a2"]],
                           z4.table[w["b"]][w["b2"]])


def test_internal_reflexive_closure_identity_only(t2):
    m, _ = t2
    rel = internal_reflexive_closure(m, {m.identity})
    assert rel.matrix() == [[a == b for b in range(4)] for a in range(4)]


def test_internal_reflexive_closure_on_s3(s3):
    twelve = s3.labels.index("213")
    rel = internal_reflexive_closure(s3, {0, twelve})
    assert zero_class(rel) == frozenset(range(6))
    even = frozenset({0, 3, 4})
    rel = internal_reflexive_closure(s3, even)
    assert zero_class(rel) == even


def test_internal_reflexive_closure_properties(t2, s3, z4):
    cases = [(t2[0], t2[1]["bijections"]), (s3, frozenset({0, 3, 4})),
             (z4, frozenset({0, 2})), (t2[0], frozenset({t2[0].identity, 0}))]
    for m, sub in cases:
        rel = internal_reflexive_closure(m, sub)
        assert is_internal(rel).holds
        assert relation_flags(rel)["reflexive"].holds
        assert zero_class(rel) >= frozenset(sub)


def pair_product_closure(m, sub):
    """The closure as a pair-product fixpoint: every pair, once added, is
    multiplied on both sides by every pair added before it.  O(P^2) in the
    P related pairs; the orbit search in relations must agree with it."""
    n = m.order
    table = m.table
    rows = [0] * n
    pending = []

    def add(a, b):
        if not rows[a] >> b & 1:
            rows[a] |= 1 << b
            pending.append((a, b))

    for a in range(n):
        add(a, a)
    for u in sorted(sub):
        add(m.identity, u)
    i = 0
    while i < len(pending):
        a, b = pending[i]
        i += 1
        for j in range(i):
            a2, b2 = pending[j]
            add(table[a][a2], table[b][b2])
            add(table[a2][a], table[b2][b])
    return tuple(rows)


def test_internal_reflexive_closure_matches_pair_product_fixpoint(
        t2, t3, t3_submonoids, s3, z4, klein):
    t3m = t3[0]
    t3_masks = t3_submonoids
    cases = [(m, mask.bits) for m in (t2[0], s3, z4, klein)
             for mask in enumerate_submonoids(m).masks]
    # every 35th of the 699 submonoids of T3, in enumeration order
    cases += [(t3m, bits) for bits in t3_masks[::35]]
    assert len(cases) == 20 + 20
    for m, sub in cases:
        rel = internal_reflexive_closure(m, sub)
        assert rel.rows == pair_product_closure(m, sub), sorted(sub)
        assert rel.kind == "generated-closure"


def test_internal_reflexive_closure_is_recomputed_equal(t3):
    m, named = t3
    first = internal_reflexive_closure(m, named["bijections"])
    second = internal_reflexive_closure(m, named["bijections"])
    assert first == second and first is not second


def test_internal_reflexive_closure_t4_bijections_is_a_clot():
    t4, named = full_transformation_monoid(4)
    bij = frozenset(named["bijections"])
    rel = internal_reflexive_closure(t4, bij)
    assert t4.order == 256
    assert zero_class(rel) == bij


def test_zero_class_of_reflexive_relation_within_submonoid(t2, s3, z4):
    for m, sub in ((t2[0], t2[1]["bijections"]), (s3, {0, 3, 4}),
                   (z4, {0, 2}), (t2[0], {t2[0].identity, 0})):
        assert zero_class(syntactic_reflexive_relation(m, sub)) <= frozenset(sub)


def test_relation_dump_format(t2, tmp_path, capsys):
    # the relation command is the one text form of a relation: a header,
    # then row a as a 0/1 string whose character b says whether a S b
    m, named = t2
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(monoid_to_dict(m, named)))
    for kind, build in RELATION_BUILDERS.items():
        assert main(["relation", str(path), "--submonoid", "bijections",
                     "--kind", kind]) == 0
        rel = build(m, named["bijections"])
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"relation {rel.kind} n=4", *rel.row_strings()]
        if kind == "cong":
            assert lines == ["relation congruence-candidate n=4",
                             "1001", "0110", "0110", "1001"]


def test_verdict_mode_is_derived_from_holds_and_bound():
    assert Verdict._fields == ("holds", "witness", "note", "bound")
    assert Verdict(None).mode == "n/a"
    assert Verdict(True, bound=3).mode == "bounded"
    # refutations are always exact, bound or not
    assert Verdict(False, bound=3).mode == "exact"
    assert Verdict(True).mode == "exact" and Verdict(False).mode == "exact"
    assert bool(Verdict(True)) and not Verdict(False) and not Verdict(None)
