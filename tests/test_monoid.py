from itertools import combinations
from itertools import product as iter_product

import pytest

from clotkit import monoid as monoid_module
from clotkit.monoid import (
    LABEL_LIMIT,
    BadIdentity,
    FiniteMonoid,
    IndexOutOfRange,
    MonoidError,
    NotAssociative,
    OrderCapExceeded,
    SubmonoidMask,
    TransformationSpec,
    cyclic_group,
    direct_product,
    enumerate_submonoids,
    full_transformation_monoid,
    group_verdict,
    inverses,
    monoid_from_dict,
    monoid_from_transformations,
    monoid_to_dict,
    restrict_to_submonoid,
    submonoid_closure,
    subset_group_verdict,
    validate_monoid,
)
from finite_oracles import (
    is_dedekind_finite,
    pairwise_submonoid_closure,
    unit_pairs,
)

Z2_TABLE = [[0, 1], [1, 0]]


def brute_force_submonoids(m):
    """Oracle: filter all subsets that contain 1 and are closed."""
    out = set()
    for bits in iter_product((0, 1), repeat=m.order):
        subset = {i for i, b in enumerate(bits) if b}
        if m.identity not in subset:
            continue
        if all(m.table[i][j] in subset for i in subset for j in subset):
            out.add(frozenset(subset))
    return out


def test_validate_trivial_monoid():
    m = validate_monoid([[0]], 0)
    assert m.order == 1 and m.identity == 0


def test_validate_z2():
    m = validate_monoid(Z2_TABLE, 0)
    assert m.table == ((0, 1), (1, 0))


def test_validate_rejects_wrong_identity():
    with pytest.raises(BadIdentity) as exc:
        validate_monoid([[0, 1], [1, 1]], 1)
    assert exc.value.index == 0


def test_validate_rejects_first_nonassociative_triple():
    table = [[0, 1, 2], [1, 2, 1], [2, 1, 1]]
    with pytest.raises(NotAssociative) as exc:
        validate_monoid(table, 0)
    assert exc.value.triple == (1, 1, 2)


def test_validate_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        validate_monoid([[0, 5], [1, 0]], 0)
    with pytest.raises(IndexOutOfRange):
        validate_monoid([[0, 1], [1]], 0)


def test_multiply(t2):
    z2 = validate_monoid(Z2_TABLE, 0)
    assert z2.mul(1, 1) == 0
    assert all(z2.mul(z2.identity, a) == a for a in range(2))
    m, _ = t2
    c1 = m.labels.index("11")
    sigma = m.labels.index("21")
    assert m.mul(c1, sigma) == c1  # (c1*s)(x) = c1(s(x)) is constant 1


def test_full_transformation_monoid_small():
    m1, named1 = full_transformation_monoid(1)
    assert m1.order == 1 and named1["bijections"] == {0}

    m2, named2 = full_transformation_monoid(2)
    assert m2.order == 4
    assert sorted(m2.labels) == ["11", "12", "21", "22"]
    assert named2["bijections"] == {m2.labels.index("12"), m2.labels.index("21")}
    assert named2["constants"] == {m2.labels.index("11"), m2.labels.index("22")}

    m3, named3 = full_transformation_monoid(3)
    assert m3.order == 27
    assert len(named3["bijections"]) == 6
    assert len(named3["constants"]) == 3


def test_full_transformation_table_matches_pointwise_composition():
    for k in (2, 3, 4):
        m, _ = full_transformation_monoid(k)
        maps = [tuple(int(c) for c in label) for label in m.labels]
        assert maps == sorted(iter_product(range(1, k + 1), repeat=k))
        assert maps[m.identity] == tuple(range(1, k + 1))
        for i, a in enumerate(maps):
            for j, b in enumerate(maps):
                composed = tuple(a[b[x] - 1] for x in range(k))
                assert maps[m.table[i][j]] == composed


def test_long_cycle_generates_the_cyclic_group():
    # the t-th power of the 512-cycle x -> x + 1 sends 1 to t + 1, so it is
    # the t-th map in lexicographic order, and the table is addition mod 512
    cycle = tuple(range(2, 513)) + (1,)
    m = monoid_from_transformations(TransformationSpec(512, (cycle,)))
    assert (m.table, m.identity) == (cyclic_group(512).table, 0)


def test_long_labels_are_cut_and_distinct():
    cycle = tuple(range(2, 513)) + (1,)
    m = monoid_from_transformations(TransformationSpec(512, (cycle,)))
    word = ",".join(map(str, range(1, 513)))   # 1,939 characters
    assert m.labels[m.identity] == word[:LABEL_LIMIT - 2] + "#0"
    assert max(map(len, m.labels)) == LABEL_LIMIT
    assert len(set(m.labels)) == m.order
    # a word within the limit keeps every character
    ten = tuple(range(2, 11)) + (1,)
    short = monoid_from_transformations(TransformationSpec(10, (ten,)))
    assert short.labels[short.identity] == "1,2,3,4,5,6,7,8,9,10"


def test_full_transformation_cap():
    with pytest.raises(OrderCapExceeded):
        full_transformation_monoid(5)


# builders refuse a size out of range before building anything
@pytest.mark.parametrize("build, error, message", [
    (lambda: full_transformation_monoid(0), ValueError, "k must be >= 1"),
    (lambda: cyclic_group(0), ValueError, "n must be >= 1"),
    (lambda: cyclic_group(-3), ValueError, "n must be >= 1"),
    (lambda: cyclic_group(513), OrderCapExceeded, "Z513 has 513 elements"),
    (lambda: enumerate_submonoids(cyclic_group(2), cap=0), ValueError,
     "cap must be >= 1"),
])
def test_builders_refuse_a_size_out_of_range(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_direct_product_trivial_is_isomorphic_copy():
    one = validate_monoid([[0]], 0)
    z3 = cyclic_group(3)
    prod = direct_product(one, z3)
    assert prod.table == z3.table and prod.identity == z3.identity


def test_direct_product_klein(klein):
    assert klein.table == (
        (0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    assert klein.order == 4


def test_direct_product_order(t2):
    m, _ = t2
    prod = direct_product(m, cyclic_group(2))
    assert prod.order == 8
    validate_monoid(prod.table, prod.identity)


def test_submonoid_closure(t2):
    m, _ = t2
    sigma = m.labels.index("21")
    c1 = m.labels.index("11")
    assert submonoid_closure(m, ()).bits == {m.identity}
    assert submonoid_closure(m, {sigma}).bits == {m.identity, sigma}
    assert submonoid_closure(m, {c1}).bits == {m.identity, c1}


def test_submonoid_closure_idempotent(t2, s3):
    m, _ = t2
    for seed_bits in iter_product((0, 1), repeat=m.order):
        seed = {i for i, b in enumerate(seed_bits) if b}
        once = submonoid_closure(m, seed).bits
        assert submonoid_closure(m, once).bits == once
    for seed in ({1}, {1, 2}, {3, 4}):
        once = submonoid_closure(s3, seed).bits
        assert submonoid_closure(s3, once).bits == once


def test_submonoid_closure_matches_pairwise_oracle(t3, corpus):
    m, _ = t3
    seeds = [*combinations(range(m.order), 1),
             *combinations(range(m.order), 2)]
    for seed in seeds:
        assert submonoid_closure(m, seed).bits == \
            pairwise_submonoid_closure(m, seed), seed
    # the conjugates x*u*y (xy = 1) that is_clot closes, on every corpus pair
    for pair in corpus:
        t = pair.monoid.table
        seed = {t[t[x][u]][y] for x, y in unit_pairs(pair.monoid)
                for u in pair.mask}
        assert submonoid_closure(pair.monoid, seed).bits == \
            pairwise_submonoid_closure(pair.monoid, seed), pair.name


def test_submonoid_closure_rejects_indices_outside(t2):
    m, _ = t2
    for seed in ({-1}, {m.order}):
        with pytest.raises((IndexOutOfRange, IndexError)):
            submonoid_closure(m, seed)


def test_enumerate_submonoids_trivial_and_z2():
    one = validate_monoid([[0]], 0)
    enum = enumerate_submonoids(one)
    assert [m.bits for m in enum.masks] == [frozenset({0})]
    assert not enum.truncated

    z2 = validate_monoid(Z2_TABLE, 0)
    enum = enumerate_submonoids(z2)
    assert sorted(sorted(m.bits) for m in enum.masks) == [[0], [0, 1]]


def test_enumerate_submonoids_t2_matches_brute_force(t2):
    m, _ = t2
    enum = enumerate_submonoids(m)
    assert not enum.truncated
    assert {mask.bits for mask in enum.masks} == brute_force_submonoids(m)
    assert len(enum.masks) == 6


def test_enumerate_submonoids_truncation(t3):
    m, _ = t3
    enum = enumerate_submonoids(m, cap=10)
    assert enum.truncated and len(enum.masks) == 10


@pytest.mark.parametrize("cap", [1, 5, 6, 7])
def test_enumerate_submonoids_cap_boundary(t2, cap):
    enum = enumerate_submonoids(t2[0], cap=cap)
    assert len(enum.masks) == min(cap, 6)
    assert enum.truncated == (cap < 6)
    assert enum.masks == enumerate_submonoids(t2[0]).masks[:cap]


def test_submonoid_mask_validation(t2):
    m, _ = t2
    sigma = m.labels.index("21")
    SubmonoidMask(m, frozenset({m.identity, sigma}))
    with pytest.raises(MonoidError):
        SubmonoidMask(m, frozenset({sigma}))  # identity missing
    with pytest.raises(MonoidError):
        SubmonoidMask(m, frozenset({m.identity, m.labels.index("11"), sigma}))


def test_submonoid_mask_names_the_least_failing_product(t3):
    # the closure check scans in ascending order, as every witness does
    m, _ = t3
    bits = frozenset(m.labels.index(w) for w in ("122", "123", "321", "331"))
    assert sorted(bits) == [4, 5, 21, 24]
    with pytest.raises(MonoidError) as raised:
        SubmonoidMask(m, bits)
    assert str(raised.value) == "not closed under product: 4*21 = 12"


def test_closure_and_restriction_read_a_masks_bits(t3):
    m, _ = t3
    for mask in enumerate_submonoids(m).masks:
        assert submonoid_closure(m, mask) == submonoid_closure(m, mask.bits)
        assert restrict_to_submonoid(m, mask) == \
            restrict_to_submonoid(m, mask.bits)


def test_masks_closed_by_construction_pass_the_full_check(t3, corpus):
    # enumerate_submonoids and submonoid_closure skip SubmonoidMask's |S|²
    # check; the constructor runs it here on every set they build
    m, _ = t3
    for mask in enumerate_submonoids(m).masks:
        assert SubmonoidMask(m, mask.bits) == mask
    for pair in corpus:
        assert SubmonoidMask(pair.monoid, pair.mask) == \
            submonoid_closure(pair.monoid, pair.mask), pair.name


def test_slot_records_are_immutable_values(t2):
    # every record is a NamedTuple; SubmonoidMask subclasses one
    assert issubclass(FiniteMonoid, tuple) and issubclass(SubmonoidMask, tuple)
    m, named = t2
    twin = FiniteMonoid(m.table, m.identity, m.labels, m.name)
    assert twin == m and hash(twin) == hash(m) and twin is not m
    assert twin != FiniteMonoid(m.table, m.identity, m.labels, "other")
    mask = SubmonoidMask(m, named["bijections"])
    assert repr(mask) == f"SubmonoidMask(parent={m!r}, bits={mask.bits!r})"
    assert repr(m) == (f"FiniteMonoid(table={m.table!r}, identity="
                       f"{m.identity!r}, labels={m.labels!r}, name='T2')")
    for record, field in ((m, "name"), (mask, "bits")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_dedekind_finiteness_on_small_monoids(t2, t3, s3, z4):
    for m in (t2[0], t3[0], s3, z4, cyclic_group(6)):
        assert is_dedekind_finite(m).holds


def test_dedekind_finite_product_conjunction(t2):
    m, _ = t2
    prod = direct_product(m, cyclic_group(3))
    assert prod.order == m.order * 3
    assert is_dedekind_finite(prod).holds == (
        is_dedekind_finite(m).holds and is_dedekind_finite(cyclic_group(3)).holds)


def test_inverses_are_the_factorizations_of_one(corpus):
    # one scan of the table against the oracle's scan of every product, on
    # every corpus monoid and on T4: the same pairs, and x -> x^-1 is an
    # involution
    t4, _ = full_transformation_monoid(4)
    for m in {pair.monoid for pair in corpus} | {t4}:
        inverse = inverses(m)
        assert sorted(inverse.items()) == unit_pairs(m), m.name
        assert all(inverse[y] == x for x, y in inverse.items()), m.name
    assert len(inverses(t4)) == 24


def test_subset_is_group(t2):
    m, _ = t2
    sigma = m.labels.index("21")
    c1 = m.labels.index("11")
    assert subset_group_verdict(m, {m.identity}).holds
    assert subset_group_verdict(m, {m.identity, sigma}).holds
    assert not subset_group_verdict(m, {m.identity, c1}).holds


def test_subset_group_verdict_rejects_an_index_out_of_range():
    with pytest.raises(ValueError, match="index 99 out of range for order 3"):
        subset_group_verdict(cyclic_group(3), [0, 99])


def test_is_group(s3, t2):
    assert group_verdict(s3).holds
    assert not group_verdict(t2[0]).holds


def test_restrict_to_submonoid(t3, s3):
    assert s3.order == 6
    assert group_verdict(s3).holds
    validate_monoid(s3.table, s3.identity)


def test_restrict_to_submonoid_rejects_non_submonoids(t2):
    m, _ = t2
    sigma, c1 = m.labels.index("21"), m.labels.index("11")
    for subset in ({sigma}, {m.identity, sigma, c1}, {m.identity, 9}):
        with pytest.raises(MonoidError):
            restrict_to_submonoid(m, subset)


def test_constructed_monoids_revalidate(t2, t3, s3, klein, z4):
    for m in (t2[0], t3[0], s3, klein, z4):
        again = validate_monoid(m.table, m.identity, labels=m.labels)
        assert again.table == m.table


def test_monoid_json_round_trip(t2):
    m, named = t2
    doc = monoid_to_dict(m, named)
    back, subs = monoid_from_dict(doc)
    assert back.table == m.table and back.identity == m.identity
    assert subs["bijections"] == frozenset(named["bijections"])


def test_transformation_spec_closure():
    spec = TransformationSpec(2, ((2, 1),), close=True)
    m = monoid_from_transformations(spec)
    assert m.order == 2
    assert sorted(m.labels) == ["12", "21"]


def test_transformation_spec_unclosed_rejected():
    with pytest.raises(MonoidError):
        monoid_from_transformations(TransformationSpec(2, ((2, 1),), close=False))
    with pytest.raises(MonoidError):
        monoid_from_transformations(TransformationSpec(2, ((1, 3),)))


def test_transformation_spec_unclosed_names_the_composite():
    spec = TransformationSpec(2, ((1, 2), (1, 1), (2, 1)), close=False)
    with pytest.raises(MonoidError,
                       match=r"not closed under composition: \(2, 1\) after "
                             r"\(1, 1\)"):
        monoid_from_transformations(spec)
    listed = TransformationSpec(2, ((1, 2), (1, 1), (2, 2)), close=False)
    assert monoid_from_transformations(listed).labels == ("11", "12", "22")


def test_transformation_labels_stay_distinct_on_ten_points_or_more():
    # without a separator both generators would read 11134567891011
    rest = tuple(range(3, 11)) + (11,)
    spec = TransformationSpec(11, ((1, 11) + rest, (11, 1) + rest))
    m = monoid_from_transformations(spec)
    assert m.order == 4
    assert len(set(m.labels)) == 4
    assert "1,11,3,4,5,6,7,8,9,10,11" in m.labels
    nine = TransformationSpec(9, ((2, 1, 3, 4, 5, 6, 7, 8, 9),))
    assert sorted(monoid_from_transformations(nine).labels) == \
        ["123456789", "213456789"]


@pytest.mark.parametrize("close", [True, False])
def test_transformation_order_cap_holds_for_both_close_values(
        monkeypatch, close):
    # all 256 maps of {1..4}, listed: closed, and above a cap of 100
    maps = tuple(iter_product(range(1, 5), repeat=4))
    monkeypatch.setattr(monoid_module, "DEFAULT_ORDER_CAP", 100)
    with pytest.raises(OrderCapExceeded):
        monoid_from_transformations(TransformationSpec(4, maps, close=close))


@pytest.mark.parametrize("close", [True, False])
def test_transformation_monoid_at_the_cap(monkeypatch, close):
    maps = tuple(iter_product(range(1, 4), repeat=3))
    monkeypatch.setattr(monoid_module, "DEFAULT_ORDER_CAP", 27)
    spec = TransformationSpec(3, maps, close=close)
    assert monoid_from_transformations(spec).table == \
        full_transformation_monoid(3)[0].table


def test_order_cap_is_read_at_call_time(monkeypatch, t2):
    monkeypatch.setattr(monoid_module, "DEFAULT_ORDER_CAP", 3)
    m, _ = t2
    with pytest.raises(OrderCapExceeded):
        validate_monoid(m.table, m.identity)
    with pytest.raises(OrderCapExceeded):
        full_transformation_monoid(2)
    with pytest.raises(OrderCapExceeded):
        direct_product(cyclic_group(2), cyclic_group(2))
    with pytest.raises(OrderCapExceeded):
        cyclic_group(4)


def test_largest_builtin_transformation_monoid():
    m, named = full_transformation_monoid(4)
    assert m.order == 256
    assert len(named["bijections"]) == 24
    assert len(named["constants"]) == 4
    e = m.identity
    assert all(m.table[e][j] == j for j in range(0, 256, 17))
