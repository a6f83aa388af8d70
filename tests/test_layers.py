"""monoid is the bottom layer: the modules import each other in one order,
and as_subset is the one range check of an index subset above it."""

import ast
from pathlib import Path

import pytest

from clotkit.classify import classify_pair
from clotkit.clots import is_clot
from clotkit.monoid import (
    IndexOutOfRange,
    MonoidError,
    SubmonoidMask,
    as_subset,
    restrict_to_submonoid,
    submonoid_closure,
)
from clotkit.relations import (
    internal_reflexive_closure,
    syntactic_reflexive_relation,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clotkit"

# each module may import only the modules before it; natfuncs imports none
LAYERS = ("monoid", "relations", "clots", "classify", "bicyclic", "search",
          "cli")
ALLOWED = {name: set(LAYERS[:i]) for i, name in enumerate(LAYERS)}
ALLOWED["natfuncs"] = set()
# the one package import inside a function, so that only paper-examples
# loads natfuncs
LOCAL_IMPORTS = {("cli", "_example_doubling", "natfuncs")}
# the entry points that take an index subset, each through as_subset
ENTRY_POINTS = [
    as_subset, SubmonoidMask, submonoid_closure, restrict_to_submonoid,
    classify_pair, is_clot, syntactic_reflexive_relation,
    internal_reflexive_closure,
]


def _package_imports(node):
    """The package modules that an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and node.module == "clotkit":
            return [a.name for a in node.names]
        if node.level == 0:
            parts = (node.module or "").split(".")
            return parts[1:2] if parts[0] == "clotkit" else []
        if node.module is None:
            return [a.name for a in node.names]
        return [node.module.split(".")[0]]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names
                if a.name.startswith("clotkit.")]
    return []


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ALLOWED)


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_modules_import_only_the_layers_below(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    top = [m for node in tree.body for m in _package_imports(node)]
    assert set(top) <= ALLOWED[name], set(top) - ALLOWED[name]
    local = {(name, scope.name, m) for scope in ast.walk(tree)
             if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(scope) for m in _package_imports(node)}
    assert local <= LOCAL_IMPORTS, local - LOCAL_IMPORTS
    # every package import is a statement of the module body or in one of
    # the functions above: none hides under `if TYPE_CHECKING` or a `try`
    everywhere = sum(len(_package_imports(node)) for node in ast.walk(tree))
    assert everywhere == len(top) + len(local)


@pytest.mark.parametrize("subset, least", [({1, 9, 7}, 7), ({1, -1}, -1)])
@pytest.mark.parametrize("check", ENTRY_POINTS, ids=lambda f: f.__name__)
def test_one_range_check_names_the_least_bad_index(t2, check, subset, least):
    m, _ = t2
    with pytest.raises(IndexOutOfRange) as raised:
        check(m, subset)
    assert isinstance(raised.value, ValueError)
    assert isinstance(raised.value, MonoidError)
    assert str(raised.value) == \
        f"element index {least} out of range for order 4"


@pytest.mark.parametrize("subset, least", [
    ({1, 1.5}, "1.5"), ({1, "a"}, "'a'"), ({1, None}, "None"),
    ({True, 3}, "True"),
], ids=["float", "str", "None", "bool"])
@pytest.mark.parametrize("check", ENTRY_POINTS, ids=lambda f: f.__name__)
def test_one_type_check_names_the_least_non_integer(t2, check, subset,
                                                    least):
    m, _ = t2
    with pytest.raises(IndexOutOfRange) as raised:
        check(m, subset)
    assert isinstance(raised.value, ValueError)
    assert isinstance(raised.value, MonoidError)
    assert str(raised.value) == \
        f"element index {least} is not an integer in [0, 4)"


def test_submonoid_mask_normalizes_its_bits(t2):
    m, _ = t2
    assert SubmonoidMask(m, [1, 2]).bits == frozenset({1, 2})
    mask = SubmonoidMask(m, [1, 2])
    assert SubmonoidMask(m, mask) == mask
