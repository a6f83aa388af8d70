"""decide on random finite pairs, against the definitions of its flags.

A pair is a monoid generated by one to three maps of {1..k}, k from 2 to
4, of order at most 24, with the submonoid generated by up to three of
its elements.  Each zero-class flag is compared with the zero-class of
the relation that defines it, built by an independent route, and the
homogeneity flags with the inclusions aM ⊆ Ma and Ma ⊆ aM themselves.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clotkit.classify import FinitePair, check_consistency, decide
from clotkit.monoid import (
    TransformationSpec,
    monoid_from_transformations,
    submonoid_closure,
)
from clotkit.relations import (
    internal_reflexive_closure,
    is_internal,
    syntactic_congruence,
    syntactic_preorder,
    zero_class,
)
from finite_oracles import context_reflexive_relation

MAX_ORDER = 24
# is_internal scans pairs of related pairs; keep its oracle to small orders
MAX_INTERNAL_ORDER = 16


@st.composite
def random_pairs(draw):
    k = draw(st.integers(2, 4))
    point = st.integers(1, k)
    maps = draw(st.lists(st.tuples(*[point] * k), min_size=1, max_size=3))
    m = monoid_from_transformations(TransformationSpec(k, tuple(maps)))
    assume(m.order <= MAX_ORDER)
    seed = draw(st.lists(st.integers(0, m.order - 1), max_size=3))
    return m, submonoid_closure(m, seed).bits


def _translates(m, sub, a):
    """(aM, Ma) as sets of indices."""
    return ({m.table[a][u] for u in sub}, {m.table[u][a] for u in sub})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pair=random_pairs())
def test_decide_agrees_with_the_definitions(pair):
    m, sub = pair
    report = decide(FinitePair(m, sub))
    flags = report.flags
    zero_classes = {
        "D": zero_class(syntactic_preorder(m, sub)),
        "normal": zero_class(syntactic_congruence(m, sub)),
        "C0": zero_class(context_reflexive_relation(m, sub)),
        "C0.5": zero_class(internal_reflexive_closure(m, sub)),
    }
    for name, zc in zero_classes.items():
        assert flags[name].holds is (zc == sub), name
        if zc != sub:
            assert flags[name].witness == {"u": min(zc ^ sub)}, name
    translates = [_translates(m, sub, a) for a in range(m.order)]
    assert flags["Dr"].holds is all(am <= ma for am, ma in translates)
    assert flags["Dl"].holds is all(ma <= am for am, ma in translates)
    if m.order <= MAX_INTERNAL_ORDER:
        rel = context_reflexive_relation(m, sub)
        assert flags["C1"].holds is is_internal(rel).holds
    assert check_consistency(report) == []
