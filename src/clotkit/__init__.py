"""Deciding normal submonoids, positive cones and clots via syntactic
relations, with exact symbolic counterexamples in the bicyclic monoid and
a closed-form one in the endofunctions of the naturals.

Importing the package loads none of its modules: a module is loaded when
it, or a name below that it defines, is first used (PEP 562), so
classifying a finite pair never loads the bicyclic, natural-function,
search or command-line code.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each module, with the names the package exports from it
_EXPORTS = {
    "monoid": """FiniteMonoid SubmonoidMask TransformationSpec cyclic_group
        direct_product enumerate_submonoids full_transformation_monoid
        load_monoid monoid_from_dict monoid_to_dict restrict_to_submonoid
        submonoid_closure validate_monoid""".split(),
    "relations": """Relation Verdict internal_reflexive_closure is_internal
        syntactic_congruence syntactic_preorder syntactic_reflexive_relation
        witness_json zero_class""".split(),
    "clots": """group_verdict homogeneity is_clot is_normal_submonoid
        is_positive_cone subset_group_verdict unit_transfer_condition
        """.split(),
    "bicyclic": """BicyclicElement ResidueSubmonoid b_internality_search
        b_rm_related bmul bword_normal_form parity_submonoid
        residue_submonoid""".split(),
    "natfuncs": ["doubling_refutation_report"],
    "classify": """ClassificationReport FinitePair check_consistency
        classify_pair decide""".split(),
    "search": """Corpus build_corpus default_corpus open_question_report
        strictness_search""".split(),
}

__all__ = [*_EXPORTS, *(name for names in _EXPORTS.values()
                        for name in names)]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(_import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
