import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import clotkit
from clotkit.classify import classify_bicyclic
from clotkit.cli import main
from clotkit.monoid import full_transformation_monoid, monoid_to_dict
from clotkit.relations import witness_json
from clotkit.search import _closed_residue_submonoids

# a number longer than the 4,300 digits int() converts
BIG = "9" * 5000


@pytest.fixture()
def t2_file(tmp_path):
    m, named = full_transformation_monoid(2)
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(monoid_to_dict(m, named)))
    return str(path)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_good_file(t2_file, capsys):
    code, out, _ = run(capsys, "validate", t2_file)
    assert code == 0
    assert "order 4" in out


def test_validate_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "invalid" in err


def test_validate_bad_table(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "order": 2,
                                "table": [[0, 1], [1, 1]], "identity": 1}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/nowhere.json")
    assert code == 2


def test_classify_named_submonoid(t2_file, capsys):
    code, out, _ = run(capsys, "classify", t2_file, "--submonoid", "bijections")
    assert code == 0
    assert "Dl" in out and "✗" in out and "✓" in out
    assert "consistency: ok" in out


def test_classify_json_round_trips(t2_file, capsys):
    code, out, _ = run(capsys, "classify", t2_file,
                       "--submonoid", "bijections", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, indent=2, sort_keys=True) == out.strip()
    assert parsed["flags"]["Dl"]["holds"] is False
    assert parsed["flags"]["Dl"]["witness"] == {"a": "11", "u": "21"}


def test_classify_index_list(t2_file, capsys):
    code, out, _ = run(capsys, "classify", t2_file, "--submonoid", "1,2")
    assert code == 0


def test_classify_rejects_non_submonoid(t2_file, capsys):
    code, _, err = run(capsys, "classify", t2_file, "--submonoid", "0,1,2")
    assert code == 2 and "not a submonoid" in err


def test_classify_all_submonoids(t2_file, capsys):
    code, out, _ = run(capsys, "classify", t2_file, "--all-submonoids",
                       "--json")
    assert code == 0
    parsed = json.loads(out)
    assert isinstance(parsed, list) and len(parsed) == 6


def test_classify_json_shape_follows_the_option(tmp_path, t2_file, capsys):
    # --all-submonoids prints a list even of one pair; --submonoid an object
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"table": [[0]], "identity": 0}))
    for file, extra in ((str(path), ()), (t2_file, ("--cap", "1"))):
        code, out, _ = run(capsys, "classify", file, "--all-submonoids",
                           *extra, "--json")
        parsed = json.loads(out)
        assert code == 0 and isinstance(parsed, list) and len(parsed) == 1
    code, out, _ = run(capsys, "classify", str(path), "--submonoid", "0",
                       "--json")
    assert code == 0 and json.loads(out)["pair"] == "M:{0}"


@pytest.mark.parametrize("args, message", [
    (("classify", "T2", "--submonoid", "abc"),
     "submonoid 'abc' is neither a named subset nor a comma-separated index"),
    (("classify", "T2", "--submonoid", " , "), "empty submonoid selector"),
    (("classify", "T2"), "need --submonoid or --all-submonoids"),
    (("bicyclic", "--mod", "2,x", "--residues", "(0,0)"),
     "--mod expects P,Q; got '2,x'"),
    (("bicyclic", "--mod", "2,2", "--residues", "(0,0)", "--normal-form",
      "yxz"), "bad character 'z' in word"),
    (("classify", "T2", "--submonoid", "bijections", "--all-submonoids"),
     "give --submonoid or --all-submonoids, not both"),
    (("bicyclic", "--mod", "2,2", "--residues", "(0,0)", "--check-rm",
      "y1x1"), "--check-rm expects A,B; got 'y1x1'"),
    (("bicyclic", "--mod", "2,2", "--residues", "(0,0)", "--check-rm",
      "y1x1,y2x2,y3x3"), "--check-rm expects A,B; got 'y1x1,y2x2,y3x3'"),
    (("bicyclic", "--mod", "2,2", "--residues", "(0,0)", "--check-rm",
      "y1x1,zz"),
     "bad --check-rm argument: bad element syntax: 'zz' (expected yNxM)"),
    # more digits than int() takes: the parsers stop at MAX_DIGITS first,
    # and echo an argument over 40 characters by its two ends
    pytest.param(("bicyclic", "--mod", "2,2", "--residues", f"(0,{BIG})"),
                 f"bad residue '(0,{'9' * 13}...{'9' * 15})' in --residues "
                 f"'(0,{'9' * 13}...{'9' * 15})': "
                 "expected (r,s) with r, s >= 0 of at most 100 digits",
                 id="residue-too-long"),
    pytest.param(("bicyclic", "--mod", "2,2", "--residues", "(0,0)",
                  "--check-rm", f"y{BIG}x1,y1x1"),
                 "bad --check-rm argument: bad element syntax: "
                 f"'y{'9' * 15}...{'9' * 14}x1' "
                 "(expected yNxM), N and M of at most 100 digits",
                 id="exponent-too-long"),
    pytest.param(("bicyclic", "--mod", f"2,{BIG}", "--residues", "(0,0)"),
                 f"--mod expects P,Q; got '2,{'9' * 14}...{'9' * 16}'",
                 id="modulus-too-long"),
])
def test_bad_arguments_exit_2(t2_file, capsys, args, message):
    args = [t2_file if a == "T2" else a for a in args]
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert f"error: {message}" in err, err
    assert len(err) < 300


def test_relation_dump(t2_file, capsys):
    code, out, _ = run(capsys, "relation", t2_file,
                       "--submonoid", "bijections", "--kind", "cong")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "relation congruence-candidate n=4"
    assert lines[1:] == ["1001", "0110", "0110", "1001"]


def test_relation_json(t2_file, capsys):
    code, out, _ = run(capsys, "relation", t2_file,
                       "--submonoid", "bijections", "--kind", "refl", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["kind"] == "reflexive-candidate"
    assert sorted(parsed["zero_class"]) == ["12", "21"]


def test_closure_of_a_non_clot(t2_file, capsys):
    # conjugating the constant 11 by the swap 21 gives 22, outside {11, 12}
    code, out, _ = run(capsys, "closure", t2_file, "--submonoid", "0,1")
    assert code == 0
    assert out.splitlines() == ["relation generated-closure n=4", "1001",
                                "1101", "1011", "1001",
                                "zero-class: 11, 12, 22", "clot: no"]
    code, out, _ = run(capsys, "closure", t2_file, "--submonoid", "0,1",
                       "--json")
    parsed = json.loads(out)
    assert code == 0 and parsed["clot"] is False
    assert parsed["zero_class"] == ["11", "12", "22"]


def test_relation_index_out_of_range(t2_file, capsys):
    code, out, err = run(capsys, "relation", t2_file,
                         "--submonoid", "9", "--kind", "refl")
    assert code == 2 and out == ""
    assert "index 9" in err and "out of range for order 4" in err


def test_validate_rejects_out_of_range_subset(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"table": [[0]], "identity": 0,
                                "submonoids": {"s": [5]}}))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert "subset 's'" in err and "index 5" in err


Z2 = {"table": [[0, 1], [1, 0]], "identity": 0}


# JSON true and false load as bools, which Python counts as 1 and 0
@pytest.mark.parametrize("doc, field", [
    (dict(Z2, submonoids={"x": [0, True]}), "subset 'x': index True"),
    (dict(Z2, table=[[0, True], [1, 0]]), "table entry True"),
    (dict(Z2, table=[[False, 1], [1, 0]]), "table entry False"),
    (dict(Z2, identity=False), "identity False"),
    (dict(Z2, identity=True), "identity True"),
    ({"domain": 2, "generators": [[2, True]]}, "generator [2, True]"),
    ({"domain": True, "generators": [[1]]}, "domain True"),
    ({"table": [[0]], "identity": 0, "order": True}, "declared order True"),
    (dict(Z2, submonoids={"x": 5}), "subset 'x' is not a list"),
    (dict(Z2, submonoids={"x": "01"}), "subset 'x' is not a list"),
    (dict(Z2, submonoids=[[0]]), "submonoids is not an object"),
    # close is used only as a boolean; domain is capped before any map
    ({"domain": 2, "generators": [[1, 1]], "close": "no"}, "close 'no'"),
    ({"domain": 2, "generators": [[1, 1]], "close": 1}, "close 1"),
    ({"domain": 2, "generators": [[1, 1]], "close": None}, "close None"),
    ({"domain": 513, "generators": []}, "domain 513"),
    ({"domain": 1_000_000, "generators": []}, "domain 1000000"),
    # name must be a string and labels a list
    (dict(Z2, name=["n"]), "name ['n'] is not a string"),
    (dict(Z2, name=None), "name None is not a string"),
    (dict(Z2, labels="ab"), "labels 'ab' is not a list"),
    (dict(Z2, labels={"a": 1}), "labels {'a': 1} is not a list"),
    # a missing or mistyped key is named, and so is one the format ignores
    ({"domain": 2, "generators": 5}, "generators 5 is not a list of maps"),
    ({"domain": 2, "generators": [1]}, "generators [1] is not a list"),
    ({"domain": 2}, "generators None is not a list of maps"),
    ({"table": [[0]]}, "identity None is not an integer"),
    ({"domain": 2, "generators": [], "name": "T"}, "takes no 'name'"),
    ({"domain": 2, "generators": [], "labels": ["a"]}, "takes no 'labels'"),
    ({"domain": 2, "generators": [], "submonoids": {"x": [0]}},
     "takes no 'submonoids'"),
    ("table", "document is not a JSON object"),
    # a table is a list of rows, each a list of element indices
    ({"table": 5, "identity": 0}, "table is not a list of rows"),
    ({"table": [0]}, "table row 0 is not a list of indices"),
    ({"table": {"a": [0]}, "identity": 0}, "table is not a list of rows"),
    ({"table": ["0"], "identity": 0}, "table row 0 is not a list of indices"),
    ({"table": [], "identity": 0}, "empty table"),
    # labels name the elements, one each, in witnesses and zero-classes
    (dict(Z2, labels=["a"]), "label count does not match order"),
    (dict(Z2, labels=["a", "a"]), "repeated label 'a'"),
])
def test_malformed_file_names_the_field(tmp_path, capsys, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", str(path), "--submonoid", "x")
    assert code == 2 and out == ""
    assert field in err, err


def test_huge_domain_refused_before_any_allocation(tmp_path):
    # run under a 1 GiB address-space limit: building the identity map of
    # {1..10^9} would need far more, so a late check fails with exit 3
    resource = pytest.importorskip("resource")
    path = tmp_path / "huge.json"
    path.write_text('{"domain": 1000000000, "generators": []}')

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ,
               PYTHONPATH=str(Path(clotkit.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "clotkit.cli", "validate", str(path)],
        capture_output=True, text=True, env=env, preexec_fn=limit,
        timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "domain 1000000000" in proc.stderr


def test_closed_stdout_exits_quietly():
    # the read end is closed before the command writes, as after `| head`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ,
               PYTHONPATH=str(Path(clotkit.__file__).resolve().parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "clotkit.cli", "hunt", "--bound", "2",
             "--json"], stdout=write_end, stderr=subprocess.PIPE, env=env,
            timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def _write_bytes(path, data):
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("make, message", [
    (lambda d: _write_bytes(d / "latin1.json", b'{"name": "\xff"}'),
     "codec can't decode"),
    (lambda d: str(d), "Is a directory"),
    (lambda d: _write_bytes(d / "deep.json",
                            b"[" * 100_000 + b"]" * 100_000),
     "recursion"),
])
def test_unreadable_monoid_file_exits_2(tmp_path, capsys, make, message):
    path = make(tmp_path)
    code, out, err = run(capsys, "validate", path)
    assert code == 2 and out == ""
    assert path in err and message in err, err


# documents that are often valid, with fields replaced by values of the
# wrong type, booleans, out-of-range numbers, or dropped
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 8),
                 st.floats(allow_nan=False), st.text(max_size=3),
                 st.lists(st.integers(-1, 6), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(0, 3),
                                 max_size=2))
VALID_TABLES = [
    {"table": [[0]], "identity": 0},
    {"table": [[0, 1], [1, 0]], "identity": 0, "order": 2,
     "labels": ["1", "g"], "submonoids": {"all": [0, 1]}},
    {"table": [[0, 1], [1, 1]], "identity": 0, "name": "U1"},
]


@st.composite
def monoid_documents(draw):
    if draw(st.booleans()):
        doc = dict(draw(st.sampled_from(VALID_TABLES)))
        keys = ["table", "identity", "order", "labels", "submonoids", "name"]
    else:
        k = draw(st.integers(0, 5))
        maps = st.lists(st.integers(0, k + 1), min_size=k, max_size=k)
        doc = {"domain": k,
               "generators": draw(st.lists(maps, max_size=3)),
               "close": draw(st.booleans())}
        keys = ["domain", "generators", "close"]
    for key in draw(st.lists(st.sampled_from(keys), max_size=2)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(JUNK)
    return draw(st.one_of(st.just(doc), JUNK)) if draw(
        st.integers(0, 9)) == 0 else doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=monoid_documents())
def test_fuzzed_monoid_documents_exit_0_or_2(tmp_path, capsys, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code in (0, 2), (doc, err)


def test_closure_command(t2_file, capsys):
    code, out, _ = run(capsys, "closure", t2_file, "--submonoid", "bijections")
    assert code == 0
    assert "clot: yes" in out


def test_bicyclic_check_rm(capsys):
    code, out, _ = run(capsys, "bicyclic", "--mod", "2,2",
                       "--residues", "(0,0)", "--check-rm", "y1x1,y2x2")
    assert code == 0
    assert "false" in out
    assert "witness (y0x1, y1x0)" in out and "product y1x1" in out


def test_bicyclic_related_pair(capsys):
    code, out, _ = run(capsys, "bicyclic", "--mod", "2,2",
                       "--residues", "(0,0)", "--check-rm", "y2x1,y1x2")
    assert code == 0 and "true" in out


def test_bicyclic_json(capsys):
    code, out, _ = run(capsys, "bicyclic", "--mod", "2,2", "--residues",
                       "(0,0)", "--check-rm", "y1x1,y2x2", "--json")
    parsed = json.loads(out)
    assert parsed["check_rm"]["related"] is False
    assert parsed["check_rm"]["witness"]["x"] == "y0x1"
    assert json.dumps(parsed, indent=2, sort_keys=True) == out.strip()


def test_bicyclic_condition_and_internality(capsys):
    # both exact sections are printed on every call, with no switch
    code, out, _ = run(capsys, "bicyclic", "--mod", "2,2", "--residues",
                       "(0,0)")
    assert code == 0
    assert "unit insertion: fails" in out
    assert "compatibility: fails" in out


@pytest.mark.parametrize("switch", ["--condition-r", "--internality"])
def test_bicyclic_section_switches_rejected(capsys, switch):
    with pytest.raises(SystemExit) as exc:
        main(["bicyclic", "--mod", "2,2", "--residues", "(0,0)", switch])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {switch}" in capsys.readouterr().err


def test_bicyclic_diagonal_holds_exactly(capsys):
    # D_2 = {y^n x^m : n ≡ m mod 2}: both conditions hold, with no bound
    code, out, _ = run(capsys, "bicyclic", "--mod", "2,2", "--residues",
                       "(0,0),(1,1)")
    assert code == 0
    assert out == ("submonoid mod(2,2) residues {(0,0),(1,1)}\n"
                   "unit insertion: holds\n"
                   "compatibility: holds\n")


def test_bicyclic_sections_are_the_report_flags(capsys):
    for sub in _closed_residue_submonoids(6):
        residues = ",".join(f"({r},{s})" for r, s in sorted(sub.residues))
        code, out, _ = run(capsys, "bicyclic", "--mod", f"{sub.p},{sub.q}",
                           "--residues", residues, "--json")
        assert code == 0
        parsed = json.loads(out)
        flags = classify_bicyclic(sub).flags
        for key, flag in (("unit_insertion", "C0"), ("internality", "C1")):
            assert parsed[key] == {
                "holds": flags[flag].holds,
                "witness": witness_json(flags[flag].witness)}, (
                sub.describe(), key)


def test_bicyclic_whole_monoid_internality_holds(capsys):
    code, out, _ = run(capsys, "bicyclic", "--mod", "1,1", "--residues",
                       "(0,0)", "--json")
    assert code == 0
    assert json.loads(out)["internality"] == {"holds": True, "witness": None}


def test_bicyclic_whole_monoid_unit_insertion_exact(capsys):
    # every x^k * u * y^k lies in the whole monoid: an exact pass, no bound
    code, out, _ = run(capsys, "bicyclic", "--mod", "1,1", "--residues",
                       "(0,0)")
    assert code == 0
    assert out == ("submonoid mod(1,1) residues {(0,0)}\n"
                   "unit insertion: holds\n"
                   "compatibility: holds\n")
    code, out, _ = run(capsys, "bicyclic", "--mod", "1,1", "--residues",
                       "(0,0)", "--json")
    assert code == 0
    assert json.loads(out)["unit_insertion"] == {
        "holds": True, "witness": None}


def test_bicyclic_normal_form(capsys):
    code, out, _ = run(capsys, "bicyclic", "--mod", "1,1", "--residues",
                       "(0,0)", "--normal-form", "yxxyyyx")
    assert code == 0 and "normal form: y2x1" in out


def test_bicyclic_normal_form_of_the_empty_word(capsys):
    # the empty word is a word, and its normal form is the identity
    code, out, _ = run(capsys, "bicyclic", "--mod", "2,2", "--residues",
                       "(0,0)", "--normal-form", "")
    assert code == 0 and out.splitlines()[-1] == "normal form: y0x0"
    code, out, _ = run(capsys, "bicyclic", "--mod", "2,2", "--residues",
                       "(0,0)", "--normal-form", "", "--json")
    assert code == 0 and json.loads(out)["normal_form"] == "y0x0"


def test_bicyclic_bad_element(capsys):
    code, _, err = run(capsys, "bicyclic", "--mod", "2,2", "--residues",
                       "(0,0)", "--check-rm", "abc,def")
    assert code == 2


def test_bicyclic_non_closed_residues(capsys):
    code, _, err = run(capsys, "bicyclic", "--mod", "1,2", "--residues",
                       "(0,0)", "--check-rm", "y1x1,y2x2")
    assert code == 2


def test_bad_bound_rejected(t2_file, capsys):
    code, _, err = run(capsys, "hunt", "--bound", "0")
    assert code == 2 and "--bound 0 must be positive" in err
    code, _, err = run(capsys, "hunt", "--bound", "-3")
    assert code == 2 and "--bound -3 must be positive" in err
    code, _, err = run(capsys, "classify", t2_file, "--all-submonoids",
                       "--cap", "0")
    assert code == 2 and "--cap 0 must be positive" in err


def test_bicyclic_malformed_residue_rejected(capsys):
    for residues, token in (("(0,0),(1;1)", "'(1;1)'"), ("(0,0),", "''"),
                            ("(0,0) (1,1)", "'(0,0) (1,1)'"),
                            ("(0,0),(-1,1)", "'(-1,1)'"), ("0,0", "'0'")):
        code, out, err = run(capsys, "bicyclic", "--mod", "2,2", "--residues",
                             residues, "--check-rm", "y1x1,y2x2")
        assert code == 2 and out == "", residues
        assert f"bad residue {token} in --residues" in err, err
    code, out, _ = run(capsys, "bicyclic", "--mod", "2,2", "--residues",
                       " { (0, 0) , (1,1) } ")
    assert code == 0
    assert out == ("submonoid mod(2,2) residues {(0,0),(1,1)}\n"
                   "unit insertion: holds\n"
                   "compatibility: holds\n")


def test_bicyclic_mod_above_ceiling_rejected(capsys, monkeypatch):
    from clotkit import cli as cli_module

    # the refusal comes before the residue set is validated
    monkeypatch.setattr(cli_module.bc, "residue_submonoid", None)
    ceiling = cli_module.BOUND_CEILINGS["bicyclic --mod"]
    for mod in ("30,29", f"{ceiling + 1},1", f"1,{ceiling + 1}", "0,2"):
        code, _, err = run(capsys, "bicyclic", "--mod", mod, "--residues",
                           "(0,0)")
        assert code == 2
        assert f"--mod {mod}: each modulus must lie in 1..{ceiling}" in err


def test_bicyclic_mod_at_ceiling_validates(capsys):
    from clotkit import cli as cli_module

    ceiling = cli_module.BOUND_CEILINGS["bicyclic --mod"]
    diagonal = ",".join(f"({r},{r})" for r in range(ceiling))
    code, out, _ = run(capsys, "bicyclic", "--mod", f"{ceiling},{ceiling}",
                       "--residues", diagonal)
    assert code == 0
    assert out.startswith(f"submonoid mod({ceiling},{ceiling})")


def test_bicyclic_bound_above_ceiling_rejected(capsys, monkeypatch):
    from clotkit import cli as cli_module

    # bicyclic decides C0 and C1 exactly and takes no --bound: the parser
    # refuses every value before the submonoid is classified
    monkeypatch.setattr(cli_module, "classify_bicyclic", None)
    for bound in ("3", "0", "100000000"):
        with pytest.raises(SystemExit) as exc:
            main(["bicyclic", "--mod", "2,2", "--residues", "(0,0)",
                  "--bound", bound])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bound" in capsys.readouterr().err


def test_hunt_bound_above_ceiling_rejected(capsys, monkeypatch):
    from clotkit import cli as cli_module

    monkeypatch.setattr(cli_module, "open_question_report", None)
    ceiling = cli_module.BOUND_CEILINGS["hunt"]
    code, _, err = run(capsys, "hunt", "--bound", str(ceiling + 1))
    assert code == 2 and f"--bound {ceiling + 1}" in err


def test_classify_cap_above_ceiling_rejected(capsys, monkeypatch):
    from clotkit import cli as cli_module

    # the refusal comes before the monoid file is read
    monkeypatch.setattr(cli_module, "_load", None)
    ceiling = cli_module.BOUND_CEILINGS["classify --cap"]
    assert ceiling == 10_000
    code, out, err = run(capsys, "classify", "any.json", "--all-submonoids",
                         "--cap", str(ceiling + 1))
    assert code == 2 and out == ""
    assert f"--cap {ceiling + 1} is above the ceiling {ceiling}" in err


def test_classify_cap_at_ceiling_accepted(t2_file, capsys):
    code, out, err = run(capsys, "classify", t2_file, "--all-submonoids",
                         "--cap", "10000", "--json")
    assert code == 0 and err == ""
    assert len(json.loads(out)) == 6


def test_examples_command_passes(capsys):
    code, out, _ = run(capsys, "paper-examples")
    assert code == 0
    assert out.count("PASS") == 3 and "FAIL" not in out
    code, out, _ = run(capsys, "examples")
    assert code == 0


def test_examples_json(capsys):
    code, out, _ = run(capsys, "paper-examples", "--json")
    parsed = json.loads(out)
    assert parsed["passed"] is True


def test_hunt_small_bound(capsys):
    code, out, _ = run(capsys, "hunt", "--bound", "2")
    assert code == 0
    assert "finite vacuity" in out and "0 violations" in out


def test_hunt_json_round_trips(capsys):
    code, out, _ = run(capsys, "hunt", "--bound", "2", "--json")
    parsed = json.loads(out)
    assert json.dumps(parsed, indent=2, sort_keys=True) == out.strip()
    assert parsed["bicyclic_candidates"]["candidates"] == []
    assert parsed["finite_vacuity"]["violations"] == []


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_internal_error_exits_3(capsys, monkeypatch):
    from clotkit import cli as cli_module

    def boom(args):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_module, "cmd_hunt", boom)
    # the parser binds func at build time, so rebuild through main
    parser = cli_module.build_parser()
    args = parser.parse_args(["hunt"])
    monkeypatch.setattr(args, "func", boom)
    try:
        code = args.func(args)
    except RuntimeError:
        code = None
    assert code is None  # the exception itself is what main() maps to 3

    monkeypatch.setattr(cli_module, "open_question_report",
                        lambda **kw: (_ for _ in ()).throw(RuntimeError("x")))
    code = cli_module.main(["hunt", "--bound", "1"])
    captured = capsys.readouterr()
    assert code == 3 and "internal error" in captured.err
