r"""Byte-for-byte checks of what clotkit prints, against the files in
tests/golden/.

The files pin verdicts, witnesses and their labels, so a refactor that
changes any byte of output fails here.  Rewrite them only for an intended
output change, with

    PYTHONPATH=src python tests/test_golden.py

hunt_bound6.json is compared by the CI workflow only, since the hunt at
moduli 6 takes about 2 s; rewrite it with

    PYTHONPATH=src python -m clotkit.cli hunt --bound 6 --json \
        > tests/golden/hunt_bound6.json
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from clotkit import bicyclic as bc
from clotkit.classify import decide, report_json
from clotkit.cli import main
from clotkit.monoid import full_transformation_monoid, monoid_to_dict
from clotkit.search import default_corpus

GOLDEN = Path(__file__).parent / "golden"

BICYCLIC = ("bicyclic", "--mod", "2,2", "--residues", "(0,0)",
            "--check-rm", "y1x1,y2x2")


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def _t2_cli(command, *extra) -> str:
    m, named = full_transformation_monoid(2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t2.json"
        path.write_text(json.dumps(monoid_to_dict(m, named)))
        return _cli(command, str(path), "--submonoid", "bijections", *extra)


def _corpus_reports() -> str:
    """One compact report_json line per default-corpus pair."""
    lines = []
    corpus = default_corpus()
    for pair, report in zip(corpus, corpus.reports):
        lines.append(json.dumps(report_json(report, pair.monoid),
                                sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def _bicyclic_reports() -> str:
    """report_json lines of decide on bicyclic pairs: the whole monoid, the
    parity submonoid, D_2, Δ_4({0, 2}), whose C0 witness lies below the
    modulus, and the parity submonoid presented mod (2, 4)."""
    subs = [bc.residue_submonoid(1, 1, {(0, 0)}), bc.parity_submonoid(),
            bc.residue_submonoid(2, 2, {(0, 0), (1, 1)}),
            bc.residue_submonoid(4, 4, {(0, 0), (2, 2)}),
            bc.residue_submonoid(2, 4, {(0, 0), (0, 2)})]
    return "".join(json.dumps(report_json(decide(sub)),
                              sort_keys=True, separators=(",", ":")) + "\n"
                   for sub in subs)


CASES = {
    "corpus_reports.jsonl": _corpus_reports,
    "bicyclic_reports.jsonl": _bicyclic_reports,
    "paper_examples.txt": lambda: _cli("paper-examples"),
    "paper_examples.json": lambda: _cli("paper-examples", "--json"),
    "bicyclic.txt": lambda: _cli(*BICYCLIC),
    "bicyclic.json": lambda: _cli(*BICYCLIC, "--json"),
    "hunt_bound2.json": lambda: _cli("hunt", "--bound", "2", "--json"),
    "hunt_bound4.json": lambda: _cli("hunt", "--bound", "4", "--json"),
}
for _suffix, _extra in ((".txt", ()), (".json", ("--json",))):
    CASES[f"t2_classify{_suffix}"] = (
        lambda e=_extra: _t2_cli("classify", *e))
    CASES[f"t2_closure{_suffix}"] = (
        lambda e=_extra: _t2_cli("closure", *e))
    for _kind in ("cong", "pre", "refl"):
        CASES[f"t2_relation_{_kind}{_suffix}"] = (
            lambda k=_kind, e=_extra: _t2_cli("relation", "--kind", k, *e))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert CASES[name]() == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, produce in sorted(CASES.items()):
        (GOLDEN / name).write_text(produce(), encoding="utf-8")
        print(f"wrote {GOLDEN / name}")
