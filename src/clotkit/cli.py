"""Command-line interface.

Each command builds one document and the text lines rendered from it;
main prints the document as JSON under --json, else the lines.

Exit codes: 0 success, 2 invalid input, 3 internal error.  The
paper-examples subcommand exits 0 only if all three bundled worked
examples reproduce.  A reader that closes stdout early, as `| head` does,
ends the output quietly: exit 0, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import bicyclic as bc
from .classify import check_consistency, classify_pair, decide, report_json
from .clots import homogeneity, is_normal_submonoid
from .monoid import (
    DEFAULT_ENUM_CAP,
    FiniteMonoid,
    MonoidError,
    SubmonoidMask,
    clipped,
    enumerate_submonoids,
    full_transformation_monoid,
    load_monoid,
)
from .relations import (
    internal_reflexive_closure,
    syntactic_congruence,
    syntactic_preorder,
    syntactic_reflexive_relation,
    witness_json,
    zero_class,
)
from .search import HUNT_MODULI_CEILING, open_question_report

OK, BAD_INPUT, INTERNAL = 0, 2, 3

RELATION_BUILDERS = {
    "cong": syntactic_congruence,
    "pre": syntactic_preorder,
    "refl": syntactic_reflexive_relation,
}

# one residue (r,s) of --residues
RESIDUE = re.compile(rf"\(\s*(\d{{1,{bc.MAX_DIGITS}}})\s*,"
                     rf"\s*(\d{{1,{bc.MAX_DIGITS}}})\s*\)")
# text forms of bicyclic witnesses, filled from their JSON form
RM_WITNESS = "witness ({x}, {y}) product {product}"
C1_WITNESS = ("pairs ({pair1[0]},{pair1[1]}) and ({pair2[0]},{pair2[1]}) "
              "-> product ({product[0]},{product[1]}) [{order}]")


# Largest --bound of hunt, largest modulus of bicyclic --mod and largest
# --cap of classify, so that no argument starts work without limit.  hunt:
# search.HUNT_MODULI_CEILING, which open_question_report enforces too.
# --mod: validating a residue set multiplies its members with exponents
# below 2*lcm(p, q), at most 4*lcm(p, q)**2 of them; moduli up to 6, those
# the hunt reaches, keep that under 3,600.  --cap: enumerate_submonoids
# keeps at most cap sets and a row of order extensions for each.
BOUND_CEILINGS = {"hunt": HUNT_MODULI_CEILING, "bicyclic --mod": 6,
                  "classify --cap": DEFAULT_ENUM_CAP}


class InputError(Exception):
    pass


def _integer(text: str) -> int:
    """int(text), for --bound and --cap.  argparse refuses, as type=int
    does, a value that is no int or has over MAX_DIGITS characters, which
    int() does not read; a long value is echoed clipped."""
    try:
        if len(text) <= bc.MAX_DIGITS:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"invalid int value: {clipped(text)!r}")


def _load(path: str):
    # a path is echoed whole up to 255 characters, a file name's usual limit
    shown = path if len(path) <= 255 else clipped(path)
    try:
        return load_monoid(path)
    except OSError as exc:
        raise InputError(f"cannot read {shown}: {exc.strerror}") from exc
    # ValueError: undecodable bytes or bad JSON; RecursionError: deep nesting
    except (MonoidError, ValueError, RecursionError) as exc:
        raise InputError(f"invalid monoid file {shown}: {exc}") from exc


def _resolve_subset(m: FiniteMonoid, named: dict, selector: str) -> frozenset:
    if selector in named:
        return frozenset(named[selector])
    try:
        indices = frozenset(int(tok) for tok in selector.split(",")
                            if tok.strip())
    except ValueError:
        raise InputError(f"submonoid {clipped(selector)!r} is neither a "
                         "named subset nor a comma-separated index list"
                         ) from None
    if not indices:
        raise InputError("empty submonoid selector")
    bad = [i for i in sorted(indices) if not 0 <= i < m.order]
    if bad:
        raise InputError(f"element index {clipped(str(bad[0]))} in "
                         f"submonoid {clipped(selector)!r} out of range "
                         f"for order {m.order}")
    return indices


def _mask(m: FiniteMonoid, bits: frozenset) -> SubmonoidMask:
    try:
        return SubmonoidMask(m, bits)
    except MonoidError as exc:
        raise InputError(f"not a submonoid: {exc}") from exc


def cmd_validate(args):
    # validate has no --json, so it builds no document
    m, named = _load(args.file)
    lines = [f"ok: monoid '{m.name}' of order {m.order}, "
             f"identity {m.labels[m.identity]}"]
    return None, lines + [f"  subset {name}: {sorted(bits)}"
                          for name, bits in named.items()]


def _report(report, monoid=None) -> tuple[dict, list[str]]:
    """The document of a report and its text: a row per flag, with the
    witness of a refutation, then the consistency line."""
    doc = report_json(report, monoid)
    lines = [f"pair {doc['pair']}"]
    for name, entry in doc["flags"].items():
        cell = ("n/a" if entry["holds"] is None
                else "✓" if entry["holds"] else "✗")
        if "witness" in entry:
            cell += "   witness " + ", ".join(
                f"{k}=({','.join(map(str, v))})" if isinstance(v, list)
                else f"{k}={v}" for k, v in entry["witness"].items())
        lines.append(f"  {name:<8}{cell}")
    bad = check_consistency(report)
    lines.append("consistency: "
                 + ("ok" if not bad else "VIOLATED " + ", ".join(bad)))
    return doc, lines


def cmd_classify(args):
    if args.all_submonoids and args.submonoid is not None:
        raise InputError("give --submonoid or --all-submonoids, not both")
    m, named = _load(args.file)
    if args.all_submonoids:
        enum = enumerate_submonoids(m, cap=args.cap)
        masks = [mask.bits for mask in enum.masks]
        if enum.truncated:
            print(f"note: truncated at {args.cap} submonoids",
                  file=sys.stderr)
    elif args.submonoid is not None:
        masks = [_mask(m, _resolve_subset(m, named, args.submonoid)).bits]
    else:
        raise InputError("need --submonoid or --all-submonoids")
    reports = [_report(classify_pair(m, bits), m) for bits in masks]
    docs = [doc for doc, _ in reports]
    lines = [line for _, text in reports for line in text]
    # --all-submonoids lists its pairs, however many; --submonoid has one
    return (docs if args.all_submonoids else docs[0]), lines


def cmd_relation(args):
    """relation --kind K, or closure: the generated closure, whose document
    also says whether the pair is a clot: its zero class is the submonoid."""
    m, named = _load(args.file)
    subset = _resolve_subset(m, named, args.submonoid)
    if args.command == "closure":
        mask = _mask(m, subset)
        rel = internal_reflexive_closure(m, mask)
    else:
        rel = RELATION_BUILDERS[args.kind](m, subset)
    zc = zero_class(rel)
    doc = {"kind": rel.kind, "n": m.order, "rows": rel.row_strings(),
           "zero_class": sorted(m.labels[i] for i in zc)}
    lines = [f"relation {doc['kind']} n={doc['n']}", *doc["rows"]]
    if args.command == "closure":
        doc["clot"] = zc == mask.bits
        lines += ["zero-class: " + ", ".join(doc["zero_class"]),
                  f"clot: {'yes' if doc['clot'] else 'no'}"]
    return doc, lines


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
            raise InputError(f"bad residue {clipped(token.strip())!r} "
                             f"in --residues {clipped(text)!r}: "
                             "expected (r,s) with r, s >= 0 "
                             f"of at most {bc.MAX_DIGITS} digits")
        residues.add((int(match.group(1)), int(match.group(2))))
    return residues


def cmd_bicyclic(args):
    try:
        p_str, q_str = args.mod.split(",")
        p, q = int(p_str), int(q_str)
    except ValueError:
        raise InputError(f"--mod expects P,Q; got "
                         f"{clipped(args.mod)!r}") from None
    ceiling = BOUND_CEILINGS["bicyclic --mod"]
    if not (1 <= p <= ceiling and 1 <= q <= ceiling):
        raise InputError(f"--mod {clipped(args.mod)}: each modulus must "
                         f"lie in 1..{ceiling}, the ceiling")
    try:
        sub = bc.residue_submonoid(p, q, _parse_residues(args.residues))
    except bc.BicyclicError as exc:
        raise InputError(str(exc)) from exc
    doc = {"submonoid": sub.describe()}
    lines = [f"submonoid {doc['submonoid']}"]
    if args.check_rm:
        parts = args.check_rm.split(",")
        if len(parts) != 2:
            raise InputError(f"--check-rm expects A,B; got "
                             f"{clipped(args.check_rm)!r}")
        try:
            a, b = map(bc.parse_element, parts)
        except (ValueError, bc.BicyclicError) as exc:
            raise InputError(f"bad --check-rm argument: {exc}") from exc
        verdict = bc.b_rm_related(a, b, sub)
        witness = witness_json(verdict.witness)
        doc["check_rm"] = {"a": str(a), "b": str(b),
                           "related": verdict.holds, "witness": witness}
        lines.append("true" if verdict.holds else "false")
        if witness:
            lines.append(RM_WITNESS.format(**witness))
    doc["report"], report_lines = _report(decide(sub))
    lines += report_lines
    if args.normal_form is not None:
        try:
            doc["normal_form"] = str(bc.bword_normal_form(args.normal_form))
        except bc.BicyclicError as exc:
            raise InputError(str(exc)) from exc
        lines.append(f"normal form: {doc['normal_form']}")
    return doc, lines


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
    c1 = decide(parity).flags["C1"]
    lines = [f"  y2x1 R y1x2: {str(fact1).lower()}",
             f"  y0x1 R y1x0: {str(fact2).lower()}",
             f"  y1x1 R y2x2: {str(fail.holds).lower()}"]
    if fail.witness:
        lines[-1] += "  " + RM_WITNESS.format(**witness_json(fail.witness))
    if not c1.holds:
        lines.append("  compatibility fails: "
                     + C1_WITNESS.format(**witness_json(c1.witness)))
    return lines, fact1 and fact2 and fact3 and not c1.holds


def _example_doubling() -> tuple[list[str], bool]:
    from .natfuncs import doubling_refutation_report

    report = doubling_refutation_report(5)
    lines = [f"  f*g = identity: {str(report.fg_is_identity).lower()}"]
    for n, (slope, offset) in enumerate(report.composites, start=1):
        lines.append(f"  f*u^{n}*g = affine({slope},{offset},1){{}}: "
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


def cmd_examples(args):
    doc = {"lines": [], "passed": True}
    for title, run in EXAMPLES:
        detail, ok = run()
        doc["lines"] += [f"{title}: {'PASS' if ok else 'FAIL'}", *detail]
        doc["passed"] &= ok
    return doc, doc["lines"]


def cmd_hunt(args):
    report = open_question_report(moduli_bound=args.bound)
    fin, bcand = report["finite_vacuity"], report["bicyclic_candidates"]
    return report, [
        f"finite vacuity: {fin['pairs_checked']} pairs, "
        f"{fin['clot_pairs']} clots, {len(fin['violations'])} violations",
        f"  {fin['note']}",
        f"bicyclic hunt (moduli <= {bcand['moduli_bound']}, "
        f"{bcand['mode']}): {bcand['submonoids_checked']} submonoids, "
        f"{len(bcand['candidates'])} candidates",
        *(f"  candidate: {c['submonoid']}" for c in bcand["candidates"]),
        f"  {bcand['note']}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clotkit",
        description="Decide normal submonoids, positive cones and clots of "
                    "monoids via syntactic relations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a monoid file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate, json=False)

    p = sub.add_parser("classify", help="classify (monoid, submonoid) pairs")
    p.add_argument("file")
    p.add_argument("--submonoid", help="named subset or index list")
    p.add_argument("--all-submonoids", action="store_true")
    p.add_argument("--cap", type=_integer, default=DEFAULT_ENUM_CAP,
                   help="most submonoids --all-submonoids lists, at most "
                        f"{BOUND_CEILINGS['classify --cap']}")
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
    p.set_defaults(func=cmd_relation)

    p = sub.add_parser("bicyclic", help="report on a bicyclic residue pair")
    p.add_argument("--mod", required=True, metavar="P,Q")
    p.add_argument("--residues", required=True)
    p.add_argument("--check-rm", metavar="A,B")
    p.add_argument("--normal-form", metavar="WORD",
                   help="reduce a word over x,y")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bicyclic)

    p = sub.add_parser("paper-examples", aliases=["examples"],
                       help="re-run the bundled worked examples")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("hunt", help="clot-versus-compatibility hunt")
    p.add_argument("--bound", type=_integer, default=4,
                   help="bound on the residue moduli, at most "
                        f"{BOUND_CEILINGS['hunt']}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hunt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    ceilings = {"bound": BOUND_CEILINGS.get(args.command),
                "cap": BOUND_CEILINGS.get(f"{args.command} --cap")}
    for flag, ceiling in ceilings.items():
        value = getattr(args, flag, 1)
        shown = f"--{flag} {clipped(str(value))}"
        if value < 1:
            print(f"error: {shown} must be positive", file=sys.stderr)
            return BAD_INPUT
        if ceiling is not None and value > ceiling:
            print(f"error: {shown} is above the ceiling {ceiling} of "
                  f"{args.command}", file=sys.stderr)
            return BAD_INPUT
    try:
        doc, lines = args.func(args)
        print(json.dumps(doc, indent=2, sort_keys=True) if args.json
              else "\n".join(lines))
        # a closed pipe shows up here, while the try can still catch it
        sys.stdout.flush()
        if args.func is cmd_examples and not doc["passed"]:
            print("example reproduction failed", file=sys.stderr)
            return INTERNAL
        return OK
    except BrokenPipeError:
        # the reader is gone: send what is left, flushed at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return OK
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except Exception as exc:  # noqa: BLE001 - contract maps these to exit 3
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
