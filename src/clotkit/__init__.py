"""Deciding normal submonoids, positive cones and clots via syntactic
relations, with exact symbolic counterexamples in the bicyclic monoid and
in the endofunctions of the naturals."""

from .monoid import (
    FiniteMonoid,
    SubmonoidMask,
    TransformationSpec,
    cyclic_group,
    direct_product,
    enumerate_submonoids,
    full_transformation_monoid,
    group_verdict,
    is_dedekind_finite,
    load_monoid,
    monoid_from_dict,
    monoid_to_dict,
    restrict_to_submonoid,
    submonoid_closure,
    subset_group_verdict,
    validate_monoid,
)
from .relations import (
    Relation,
    Verdict,
    internal_reflexive_closure,
    is_internal,
    syntactic_congruence,
    syntactic_preorder,
    syntactic_reflexive_relation,
    witness_json,
    zero_class,
)
from .clots import (
    homogeneity,
    is_clot,
    is_normal_submonoid,
    is_positive_cone,
    unit_transfer_condition,
)
from .bicyclic import (
    BicyclicElement,
    ResidueSubmonoid,
    b_internality_search,
    b_rm_related,
    b_unit_insertion_condition,
    bmul,
    bword_normal_form,
    one_factorizations,
    parity_submonoid,
    residue_submonoid,
)
from .natfuncs import (
    EventuallyAffineMap,
    doubling_refutation_report,
    ea,
    ea_compose,
    ea_in_doubling_submonoid,
)
from .classify import (
    ClassificationReport,
    check_consistency,
    classify_bicyclic,
    classify_pair,
)
from .search import (
    Corpus,
    build_corpus,
    default_corpus,
    open_question_report,
    strictness_search,
)

__version__ = "0.1.0"
