"""Command-line interface.

Exit codes: 0 success, 2 invalid input, 3 internal error.  The
paper-examples subcommand exits 0 only if all three bundled worked
examples reproduce.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import bicyclic as bc
from .classify import FLAG_ORDER, check_consistency, classify_pair, report_json
from .clots import homogeneity, is_normal_submonoid
from .monoid import (
    FiniteMonoid,
    MonoidError,
    SubmonoidMask,
    enumerate_submonoids,
    full_transformation_monoid,
    load_monoid,
)
from .natfuncs import doubling_refutation_report, ea_to_literal
from .relations import (
    internal_reflexive_closure,
    syntactic_congruence,
    syntactic_preorder,
    syntactic_reflexive_relation,
    witness_json,
    zero_class,
)
from .search import open_question_report

OK, BAD_INPUT, INTERNAL = 0, 2, 3

RELATION_BUILDERS = {
    "cong": syntactic_congruence,
    "pre": syntactic_preorder,
    "refl": syntactic_reflexive_relation,
}

# one residue (r,s) of --residues
RESIDUE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")
# text forms of bicyclic witnesses, filled from their JSON form
RM_WITNESS = "witness ({x}, {y}) product {product}"
PAIRS = "pairs ({pair1[0]},{pair1[1]}) and ({pair2[0]},{pair2[1]}) -> "
PRODUCT = "({product[0]},{product[1]}) [{order}]"
# bicyclic checks: (JSON key, title, text of a bounded pass, witness text)
BOUNDED_SECTIONS = (
    ("unit_insertion", "unit insertion", "holds (bounded)",
     "witness u={u} k={k} product {product}"),
    ("internality", "compatibility", "no failure found (bounded)",
     PAIRS + "product " + PRODUCT),
)


# Largest --bound each command accepts, and the largest modulus of
# bicyclic --mod, so that no argument starts work without limit.  hunt: the
# whole command took 2.3 s at moduli 6; the bicyclic part grows with the
# moduli.  bicyclic: the compatibility search took 1.6 s at bound 6 on
# mod(2,2) residues {(0,0),(1,1)}, the costliest of the residue submonoids
# with moduli up to 6 (the whole monoid needs no scan), so the default is
# also the ceiling.  --mod: validating a residue set multiplies its members
# with exponents below 2*lcm(p, q), at most 4*lcm(p, q)**2 of them; moduli
# up to 6, those the hunt reaches, keep that under 3,600.
BOUND_CEILINGS = {"hunt": 6, "bicyclic": 6, "bicyclic --mod": 6}


class InputError(Exception):
    pass


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load(path: str):
    try:
        return load_monoid(path)
    except FileNotFoundError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (MonoidError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InputError(f"invalid monoid file {path}: {exc}") from exc


def _resolve_subset(m: FiniteMonoid, named: dict, selector: str) -> frozenset:
    if selector in named:
        return frozenset(named[selector])
    try:
        indices = frozenset(int(tok) for tok in selector.split(",")
                            if tok.strip())
    except ValueError:
        raise InputError(f"submonoid {selector!r} is neither a named subset "
                         "nor a comma-separated index list") from None
    if not indices:
        raise InputError("empty submonoid selector")
    bad = [i for i in sorted(indices) if not 0 <= i < m.order]
    if bad:
        raise InputError(f"element index {bad[0]} in submonoid {selector!r} "
                         f"out of range for order {m.order}")
    return indices


def _mask(m: FiniteMonoid, bits: frozenset) -> SubmonoidMask:
    try:
        return SubmonoidMask(m, bits)
    except MonoidError as exc:
        raise InputError(f"not a submonoid: {exc}") from exc


def _print_report(report, m: FiniteMonoid) -> None:
    print(f"pair {report.pair}")
    for name in FLAG_ORDER:
        f = report.flags[name]
        if f.holds is None:
            cell = "n/a"
        else:
            cell = "✓" if f.holds else "✗"
            if f.mode == "bounded":
                cell += " (bounded)"
        line = f"  {name:<8}{cell}"
        if f.witness:
            w = witness_json(f.witness, m.labels.__getitem__)
            line += "   witness " + ", ".join(f"{k}={v}" for k, v in w.items())
        print(line)
    bad = check_consistency(report)
    print("consistency: " + ("ok" if not bad else "VIOLATED " + ", ".join(bad)))


def cmd_validate(args) -> int:
    m, named = _load(args.file)
    print(f"ok: monoid '{m.name}' of order {m.order}, "
          f"identity {m.labels[m.identity]}")
    for name, bits in named.items():
        print(f"  subset {name}: {sorted(bits)}")
    return OK


def cmd_classify(args) -> int:
    m, named = _load(args.file)
    if args.all_submonoids:
        enum = enumerate_submonoids(m, cap=args.cap)
        masks = [mask.bits for mask in enum.masks]
        if enum.truncated:
            print(f"note: truncated at {args.cap} submonoids",
                  file=sys.stderr)
    elif args.submonoid:
        masks = [_mask(m, _resolve_subset(m, named, args.submonoid)).bits]
    else:
        raise InputError("need --submonoid or --all-submonoids")
    reports = [classify_pair(m, bits) for bits in masks]
    if args.json:
        _emit_json([report_json(r, m) for r in reports]
                   if len(reports) > 1 else report_json(reports[0], m))
    else:
        for r in reports:
            _print_report(r, m)
    return OK


def _relation_json(m: FiniteMonoid, rel, zc) -> dict:
    return {"kind": rel.kind, "n": m.order, "rows": rel.row_strings(),
            "zero_class": sorted(m.labels[i] for i in zc)}


def cmd_relation(args) -> int:
    m, named = _load(args.file)
    subset = _resolve_subset(m, named, args.submonoid)
    rel = RELATION_BUILDERS[args.kind](m, subset)
    if args.json:
        _emit_json(_relation_json(m, rel, zero_class(rel)))
    else:
        print(rel.dump())
    return OK


def cmd_closure(args) -> int:
    m, named = _load(args.file)
    mask = _mask(m, _resolve_subset(m, named, args.submonoid))
    rel = internal_reflexive_closure(m, mask)
    zc = zero_class(rel)
    is_clot = zc == mask.bits
    if args.json:
        _emit_json({**_relation_json(m, rel, zc), "clot": is_clot})
    else:
        print(rel.dump())
        print("zero-class: " + ", ".join(sorted(m.labels[i] for i in zc)))
        print(f"clot: {'yes' if is_clot else 'no'}")
    return OK


def _parse_residues(text: str) -> set[tuple[int, int]]:
    """Residues written (r,s),(r,s),..., optionally inside braces."""
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    residues = set()
    # split at the commas that lie outside parentheses
    for token in re.split(r",(?![^()]*\))", body):
        match = RESIDUE.fullmatch(token.strip())
        if not match:
            raise InputError(f"bad residue {token.strip()!r} in --residues "
                             f"{text!r}: expected (r,s) with r, s >= 0")
        residues.add((int(match.group(1)), int(match.group(2))))
    return residues


def _bounded_json(v) -> dict:
    return {"holds": v.holds, "bounded": v.mode == "bounded",
            "bound": v.bound, "witness": witness_json(v.witness)}


def cmd_bicyclic(args) -> int:
    try:
        p_str, q_str = args.mod.split(",")
        p, q = int(p_str), int(q_str)
    except ValueError:
        raise InputError(f"--mod expects P,Q; got {args.mod!r}") from None
    ceiling = BOUND_CEILINGS["bicyclic --mod"]
    if not (1 <= p <= ceiling and 1 <= q <= ceiling):
        raise InputError(f"--mod {args.mod}: each modulus must lie in "
                         f"1..{ceiling}, the ceiling")
    try:
        sub = bc.residue_submonoid(p, q, _parse_residues(args.residues))
    except bc.BicyclicError as exc:
        raise InputError(str(exc)) from exc
    out: dict = {"submonoid": sub.describe()}
    if args.check_rm:
        try:
            a_str, b_str = args.check_rm.split(",")
            a, b = bc.parse_element(a_str), bc.parse_element(b_str)
        except (ValueError, bc.BicyclicError) as exc:
            raise InputError(f"bad --check-rm argument: {exc}") from exc
        verdict = bc.b_rm_related(a, b, sub)
        out["check_rm"] = {
            "a": str(a), "b": str(b), "related": verdict.holds,
            "witness": witness_json(verdict.witness),
        }
    if args.condition_r:
        out["unit_insertion"] = _bounded_json(
            bc.b_unit_insertion_condition(sub, args.bound))
    if args.internality:
        out["internality"] = _bounded_json(
            bc.b_internality_search(sub, args.bound))
    if args.normal_form:
        try:
            out["normal_form"] = str(bc.bword_normal_form(args.normal_form))
        except bc.BicyclicError as exc:
            raise InputError(str(exc)) from exc
    if args.json:
        _emit_json(out)
        return OK
    print(f"submonoid {out['submonoid']}")
    if "check_rm" in out:
        r = out["check_rm"]
        print("true" if r["related"] else "false")
        if r["witness"]:
            print(RM_WITNESS.format(**r["witness"]))
    for key, title, passed, template in BOUNDED_SECTIONS:
        if key in out:
            r = out[key]
            state = ("fails" if not r["holds"]
                     else passed if r["bounded"] else "holds")
            print(f"{title}: {state}")
            if r["witness"]:
                print("  " + template.format(**r["witness"]))
    if "normal_form" in out:
        print(f"normal form: {out['normal_form']}")
    return OK


def _example_bicyclic() -> tuple[list[str], bool]:
    parity = bc.parity_submonoid()
    fact1 = bc.b_rm_related(bc.parse_element("y2x1"),
                            bc.parse_element("y1x2"), parity).holds
    fact2 = bc.b_rm_related(bc.X, bc.Y, parity).holds
    fail = bc.b_rm_related(bc.parse_element("y1x1"),
                           bc.parse_element("y2x2"), parity)
    fact3 = (not fail.holds and fail.witness["x"] == bc.X
             and fail.witness["y"] == bc.Y
             and fail.witness["product"] == bc.BicyclicElement(1, 1))
    search = bc.b_internality_search(parity, 2)
    lines = [f"  y2x1 R y1x2: {str(fact1).lower()}",
             f"  y0x1 R y1x0: {str(fact2).lower()}",
             f"  y1x1 R y2x2: {str(fail.holds).lower()}"]
    if fail.witness:
        lines[-1] += "  " + RM_WITNESS.format(**witness_json(fail.witness))
    if not search.holds:
        w = witness_json(search.witness)
        lines.append("  compatibility fails at bound 2: "
                     + (PAIRS + PRODUCT).format(**w))
    return lines, fact1 and fact2 and fact3 and not search.holds


def _example_doubling() -> tuple[list[str], bool]:
    report = doubling_refutation_report(5)
    lines = [f"  f*g = identity: {str(report.fg_is_identity).lower()}"]
    for row in report.rows:
        lines.append(f"  f*u^{row.n}*g = {ea_to_literal(row.composite)}: "
                     f"outside the doubling submonoid")
    return lines, report.passed


def _example_bijections() -> tuple[list[str], bool]:
    lines = []
    ok = True
    for k in (2, 3):
        tk, named = full_transformation_monoid(k)
        bij = named["bijections"]
        normal = is_normal_submonoid(tk, bij).holds
        left = homogeneity(tk, bij, "left").holds
        right = homogeneity(tk, bij, "right").holds
        # some side fails for every k; both sides fail for T3
        ok &= (normal and (not left or not right)
               and (k != 3 or not (left or right)))
        lines.append(f"  T{k}, bijections: normal={str(normal).lower()}, "
                     f"left homogeneous={str(left).lower()}, "
                     f"right homogeneous={str(right).lower()}")
    return lines, ok


EXAMPLES = (
    ("Example 1 (bicyclic, parity submonoid)", _example_bicyclic),
    ("Example 2 (doubling submonoid of Set(N,N))", _example_doubling),
    ("Example 3 (bijections of a finite set)", _example_bijections),
)


def _run_examples() -> tuple[list[str], bool]:
    lines = []
    all_ok = True
    for title, run in EXAMPLES:
        detail, ok = run()
        lines.append(f"{title}: {'PASS' if ok else 'FAIL'}")
        lines.extend(detail)
        all_ok &= ok
    return lines, all_ok


def cmd_examples(args) -> int:
    lines, ok = _run_examples()
    if args.json:
        _emit_json({"lines": lines, "passed": ok})
    else:
        for line in lines:
            print(line)
    if not ok:
        print("example reproduction failed", file=sys.stderr)
        return INTERNAL
    return OK


def cmd_hunt(args) -> int:
    report = open_question_report(moduli_bound=args.bound)
    if args.json:
        _emit_json(report)
        return OK
    fin = report["finite_vacuity"]
    print(f"finite vacuity: {fin['pairs_checked']} pairs, "
          f"{fin['clot_pairs']} clots, {len(fin['violations'])} violations")
    print(f"  {fin['note']}")
    bcand = report["bicyclic_candidates"]
    print(f"bicyclic hunt (moduli <= {bcand['moduli_bound']}, bounded): "
          f"{bcand['submonoids_checked']} submonoids, "
          f"{len(bcand['candidates'])} candidates")
    for c in bcand["candidates"]:
        print(f"  candidate: {c['submonoid']}")
    print(f"  {bcand['note']}")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clotkit",
        description="Decide normal submonoids, positive cones and clots of "
                    "monoids via syntactic relations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a monoid file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="classify (monoid, submonoid) pairs")
    p.add_argument("file")
    p.add_argument("--submonoid", help="named subset or index list")
    p.add_argument("--all-submonoids", action="store_true")
    p.add_argument("--cap", type=int, default=10_000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("relation", help="print a syntactic relation")
    p.add_argument("file")
    p.add_argument("--submonoid", required=True)
    p.add_argument("--kind", choices=sorted(RELATION_BUILDERS), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_relation)

    p = sub.add_parser("closure",
                       help="generated reflexive-compatible closure")
    p.add_argument("file")
    p.add_argument("--submonoid", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("bicyclic", help="bicyclic residue submonoid checks")
    p.add_argument("--mod", required=True, metavar="P,Q")
    p.add_argument("--residues", required=True)
    p.add_argument("--check-rm", metavar="A,B")
    p.add_argument("--condition-r", action="store_true",
                   help="bounded unit-insertion check")
    p.add_argument("--internality", action="store_true",
                   help="bounded compatibility search")
    p.add_argument("--normal-form", metavar="WORD",
                   help="reduce a word over x,y")
    p.add_argument("--bound", type=int, default=6,
                   help="exponent bound of the scans, at most "
                        f"{BOUND_CEILINGS['bicyclic']}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bicyclic)

    for alias in ("examples", "paper-examples"):
        p = sub.add_parser(alias, help="re-run the bundled worked examples")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=cmd_examples)

    p = sub.add_parser("hunt", help="clot-versus-compatibility hunt")
    p.add_argument("--bound", type=int, default=4,
                   help="bound on the residue moduli, at most "
                        f"{BOUND_CEILINGS['hunt']}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hunt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("bound", "cap"):
        value = getattr(args, flag, 1)
        if value < 1:
            print(f"error: --{flag} {value} must be positive",
                  file=sys.stderr)
            return BAD_INPUT
    ceiling = BOUND_CEILINGS.get(args.command)
    if ceiling is not None and args.bound > ceiling:
        print(f"error: --bound {args.bound} is above the ceiling "
              f"{ceiling} of {args.command}", file=sys.stderr)
        return BAD_INPUT
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except Exception as exc:  # noqa: BLE001 - contract maps these to exit 3
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
