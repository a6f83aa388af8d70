import json

import pytest

from clotkit.cli import main
from clotkit.monoid import full_transformation_monoid, monoid_to_dict


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
    code, out, _ = run(capsys, "bicyclic", "--mod", "2,2", "--residues",
                       "(0,0)", "--condition-r", "--internality",
                       "--bound", "2")
    assert code == 0
    assert "unit insertion: fails" in out
    assert "compatibility: fails" in out


def test_bicyclic_whole_monoid_internality_holds(capsys):
    code, out, _ = run(capsys, "bicyclic", "--mod", "1,1", "--residues",
                       "(0,0)", "--condition-r", "--internality")
    assert code == 0
    assert "unit insertion: holds\n" in out
    assert "compatibility: holds\n" in out
    code, out, _ = run(capsys, "bicyclic", "--mod", "1,1", "--residues",
                       "(0,0)", "--internality", "--json")
    assert json.loads(out)["internality"] == {
        "holds": True, "bounded": False, "bound": None, "witness": None}


def test_bicyclic_whole_monoid_unit_insertion_exact(capsys):
    # every x^k * u * y^k lies in the whole monoid: an exact pass, no bound
    code, out, _ = run(capsys, "bicyclic", "--mod", "1,1", "--residues",
                       "(0,0)", "--condition-r")
    assert code == 0
    assert out == ("submonoid mod(1,1) residues {(0,0)}\n"
                   "unit insertion: holds\n")
    code, out, _ = run(capsys, "bicyclic", "--mod", "1,1", "--residues",
                       "(0,0)", "--condition-r", "--json")
    assert code == 0
    assert json.loads(out)["unit_insertion"] == {
        "holds": True, "bounded": False, "bound": None, "witness": None}


def test_bicyclic_normal_form(capsys):
    code, out, _ = run(capsys, "bicyclic", "--mod", "1,1", "--residues",
                       "(0,0)", "--normal-form", "yxxyyyx")
    assert code == 0 and "normal form: y2x1" in out


def test_bicyclic_bad_element(capsys):
    code, _, err = run(capsys, "bicyclic", "--mod", "2,2", "--residues",
                       "(0,0)", "--check-rm", "abc,def")
    assert code == 2


def test_bicyclic_non_closed_residues(capsys):
    code, _, err = run(capsys, "bicyclic", "--mod", "1,2", "--residues",
                       "(0,0)", "--check-rm", "y1x1,y2x2")
    assert code == 2


def test_bad_bound_rejected(t2_file, capsys):
    code, _, err = run(capsys, "bicyclic", "--mod", "2,2", "--residues",
                       "(0,0)", "--bound", "0")
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
    assert out == "submonoid mod(2,2) residues {(0,0),(1,1)}\n"


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

    # the refusal comes before any scan starts
    monkeypatch.setattr(cli_module.bc, "b_internality_search", None)
    code, _, err = run(capsys, "bicyclic", "--mod", "2,2", "--residues",
                       "(0,0)", "--internality", "--bound", "100000000")
    assert code == 2 and "--bound 100000000" in err
    ceiling = cli_module.BOUND_CEILINGS["bicyclic"]
    code, _, err = run(capsys, "bicyclic", "--mod", "2,2", "--residues",
                       "(0,0)", "--bound", str(ceiling + 1))
    assert code == 2 and "--bound" in err


def test_hunt_bound_above_ceiling_rejected(capsys, monkeypatch):
    from clotkit import cli as cli_module

    monkeypatch.setattr(cli_module, "open_question_report", None)
    ceiling = cli_module.BOUND_CEILINGS["hunt"]
    code, _, err = run(capsys, "hunt", "--bound", str(ceiling + 1))
    assert code == 2 and f"--bound {ceiling + 1}" in err


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
