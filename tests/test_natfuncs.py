import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clotkit.natfuncs import doubling_refutation_report
from natfuncs_oracle import (
    DOUBLING,
    IDENTITY,
    SHIFT_DOWN,
    SHIFT_UP,
    ea,
    ea_compose,
    ea_in_doubling_submonoid,
    ea_power,
    ea_to_literal,
)


@st.composite
def maps(draw):
    slope = draw(st.integers(min_value=0, max_value=4))
    threshold = draw(st.integers(min_value=1, max_value=5))
    # offset keeps the tail in the positive naturals
    offset = draw(st.integers(min_value=1 - slope * threshold, max_value=6))
    exceptions = tuple(draw(st.integers(min_value=1, max_value=9))
                       for _ in range(threshold - 1))
    return ea(slope, offset, threshold, exceptions)


def pointwise_equal(p, q, upto):
    return all(p(x) == q(x) for x in range(1, upto + 1))


def test_basic_maps_evaluate():
    assert [SHIFT_DOWN(x) for x in (1, 2, 3, 9)] == [1, 1, 2, 8]
    assert [SHIFT_UP(x) for x in (1, 5)] == [2, 6]
    assert DOUBLING(7) == 14


def test_validation_errors():
    with pytest.raises(ValueError):
        ea(1, -1)                      # 1 -> 0 leaves the domain
    with pytest.raises(ValueError):
        ea(-1, 10)
    with pytest.raises(ValueError):
        ea(1, 0, 3, (1,))              # wrong exception count
    with pytest.raises(ValueError):
        ea(1, 0, 2, (0,))              # exception value below 1
    with pytest.raises(ValueError, match="threshold must be >= 1"):
        ea(1, 0, threshold=0)
    with pytest.raises(ValueError, match="domain is the positive naturals"):
        DOUBLING(0)


def test_normalization_removes_redundant_exceptions():
    redundant = ea(2, 1, 2, (3,))      # 2*1+1 = 3 agrees with the tail
    assert redundant.threshold == 1 and redundant.exceptions == ()
    assert redundant == ea(2, 1)
    kept = ea(2, 1, 2, (5,))
    assert kept.threshold == 2


def test_shift_down_after_shift_up_is_identity():
    assert ea_compose(SHIFT_DOWN, SHIFT_UP) == IDENTITY
    # the other order is not the identity: it fixes nothing below 2
    other = ea_compose(SHIFT_UP, SHIFT_DOWN)
    assert other != IDENTITY
    assert other(1) == 2 and other(5) == 5


def test_conjugated_doubling_closed_form():
    composed = ea_compose(SHIFT_DOWN, ea_compose(DOUBLING, SHIFT_UP))
    assert composed == ea(2, 1)
    for n in range(1, 7):
        h = ea_compose(SHIFT_DOWN, ea_compose(ea_power(DOUBLING, n), SHIFT_UP))
        assert h.slope == 2 ** n and h.offset == 2 ** n - 1
        assert h.threshold == 1


def test_identity_composition():
    h = ea(3, 2, 3, (7, 1))
    assert ea_compose(IDENTITY, h) == h
    assert ea_compose(h, IDENTITY) == h


def test_constant_tail_composition():
    const5 = ea(0, 5)
    assert ea_compose(SHIFT_UP, const5) == ea(0, 6)
    assert ea_compose(const5, SHIFT_UP) == const5


@given(maps(), maps())
@settings(max_examples=200)
def test_composition_matches_pointwise_oracle(outer, inner):
    composed = ea_compose(outer, inner)
    upto = 2 * max(outer.threshold, inner.threshold, composed.threshold) + 8
    reference = [outer(inner(x)) for x in range(1, upto + 1)]
    assert [composed(x) for x in range(1, upto + 1)] == reference


@given(maps(), maps(), maps())
@settings(max_examples=150)
def test_composition_associative(p, q, r):
    assert ea_compose(p, ea_compose(q, r)) == \
        ea_compose(ea_compose(p, q), r)


@given(maps())
def test_equality_is_pointwise(h):
    # two normalized maps agreeing far enough must be structurally equal
    same = ea(h.slope, h.offset, h.threshold, h.exceptions)
    assert h == same


def test_doubling_membership():
    assert ea_in_doubling_submonoid(IDENTITY) == 0
    assert ea_in_doubling_submonoid(ea(8, 0)) == 3
    assert ea_in_doubling_submonoid(ea(2, 1)) is None
    assert ea_in_doubling_submonoid(ea(3, 0)) is None
    assert ea_in_doubling_submonoid(ea(0, 1)) is None
    assert ea_in_doubling_submonoid(ea(2, 0, 2, (5,))) is None


def test_refutation_report():
    report = doubling_refutation_report(5)
    assert report.passed and report.fg_is_identity
    assert len(report.composites) == 5
    for n, (slope, offset) in enumerate(report.composites, start=1):
        assert (slope, offset) == (2 ** n, 2 ** n - 1)
        assert ea_in_doubling_submonoid(ea(slope, offset)) is None


def test_refutation_report_matches_the_calculus():
    # each closed form against f*(2^n * -)*g composed in the calculus, and
    # the literal paper-examples prints against the calculus' own
    report = doubling_refutation_report(64)
    assert report.passed
    assert report.fg_is_identity == (ea_compose(SHIFT_DOWN, SHIFT_UP)
                                     == IDENTITY)
    assert len(report.composites) == 64
    for n, (slope, offset) in enumerate(report.composites, start=1):
        h = ea_compose(SHIFT_DOWN, ea_compose(ea_power(DOUBLING, n), SHIFT_UP))
        assert h == ea(slope, offset)
        assert ea_in_doubling_submonoid(h) is None
        assert ea_to_literal(h) == f"affine({slope},{offset},1){{}}"


def test_refutation_report_vacuous():
    report = doubling_refutation_report(0)
    assert report.passed and report.composites == ()
    with pytest.raises(ValueError, match="nmax must be >= 0"):
        doubling_refutation_report(-1)


def test_literal_form():
    assert ea_to_literal(ea(1, -1, 2, (1,))) == "affine(1,-1,2){1:1}"
    assert ea_to_literal(DOUBLING) == "affine(2,0,1){}"
