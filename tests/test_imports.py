"""The package loads its modules on first use: each check runs in a fresh
interpreter, so modules imported by other tests cannot hide a load."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# every public name of the package when its __init__ imported each module
PUBLIC_NAMES = """
    bicyclic classify clots monoid natfuncs relations search
    FiniteMonoid SubmonoidMask TransformationSpec cyclic_group direct_product
    enumerate_submonoids full_transformation_monoid group_verdict
    load_monoid monoid_from_dict monoid_to_dict restrict_to_submonoid
    submonoid_closure subset_group_verdict validate_monoid
    Relation Verdict internal_reflexive_closure is_internal
    syntactic_congruence syntactic_preorder syntactic_reflexive_relation
    witness_json zero_class
    homogeneity is_clot is_normal_submonoid is_positive_cone
    unit_transfer_condition
    BicyclicElement ResidueSubmonoid b_internality_search b_rm_related
    bmul bword_normal_form parity_submonoid residue_submonoid
    doubling_refutation_report
    ClassificationReport FinitePair check_consistency classify_pair decide
    Corpus build_corpus default_corpus open_question_report
    strictness_search
""".split()


def _run(code: str):
    """Run code in a fresh interpreter; return the JSON it prints last."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = ("sorted(m for m in sys.modules if m.startswith('clotkit.'))")


def test_finite_path_loads_only_its_modules():
    bare, finite = _run(f"""
import json, sys
import clotkit
bare = {LOADED}
t2, named = clotkit.full_transformation_monoid(2)
assert clotkit.classify_pair(t2, named["bijections"]).holds("C0.5")
print(json.dumps([bare, {LOADED}]))
""")
    assert bare == []
    assert finite == ["clotkit.classify", "clotkit.clots", "clotkit.monoid",
                      "clotkit.relations"]


def test_finite_path_does_not_load_json():
    # only load_monoid reads JSON, so it imports json itself
    loaded = _run("""
import sys
bare = "json" in sys.modules
import clotkit.classify
after = "json" in sys.modules
import json
print(json.dumps([bare, after]))
""")
    assert loaded == [False, False]


def test_star_import_gives_every_public_name():
    star, same, public, version = _run(f"""
import json, sys
star = {{}}
exec("from clotkit import *", star)
del star["__builtins__"]
import clotkit


def defining(name):
    module = sys.modules.get(f"clotkit.{{name}}")
    return module or getattr(sys.modules[star[name].__module__], name)


same = {{n: star[n] is defining(n) for n in star}}
public = [n for n in dir(clotkit) if not n.startswith("_")]
print(json.dumps([sorted(star), same, public, clotkit.__version__]))
""")
    assert star == sorted(PUBLIC_NAMES)
    assert [n for n, ok in same.items() if not ok] == []
    assert public == sorted(PUBLIC_NAMES)
    assert version == "0.1.0"


def test_unknown_attribute_names_itself():
    message = _run("""
import json
import clotkit
try:
    clotkit.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
""")
    assert message == "module 'clotkit' has no attribute 'no_such_name'"


def test_no_path_loads_dataclasses_or_inspect():
    # dataclasses, with the inspect, ast, dis and tokenize it pulls in, was
    # about 10 ms of every start; the records are tuples or slot classes
    heavy = "[m for m in ('dataclasses', 'inspect') if m in sys.modules]"
    finite = _run(f"""
import json, sys
import clotkit
t2, named = clotkit.full_transformation_monoid(2)
clotkit.classify_pair(t2, named["bijections"])
print(json.dumps({heavy}))
""")
    cli = _run(f"""
import json, sys
import clotkit.cli
print(json.dumps({heavy}))
""")
    assert finite == cli == []
