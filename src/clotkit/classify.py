"""Membership reports for the hierarchy of (monoid, submonoid) conditions.

Flag names, from weakest to strongest requirements:

* C        every pair (always true);
* C1       the reflexive syntactic relation is compatible with the product;
* C2       the unit-transfer condition holds;
* C3       the monoid is Dedekind finite;
* C4       the monoid is a group;
* C5       monoid and submonoid are both groups;
* C0       M equals the zero-class of its reflexive syntactic relation;
* C0.5     M is a clot;
* C(i,0)   Ci together with C0;
* D        M is a positive cone (zero-class of its syntactic preorder);
* Dr / Dl  M is right / left homogeneous;
* Dh       Dr with M a group;
* normal   M is a normal submonoid (zero-class of its syntactic congruence).

Every report also holds group(M), the verdict that M is a group, as an
operand of C5 and Dh; it is not in FLAG_ORDER, so no output prints it.
Each flag carries a mode, derived from the verdict: "exact", "bounded"
(a pass confirmed only up to a stated bound) or "n/a" (not computed for
this kind of pair).

decide(pair) reports on a pair of any kind: a record with a name and a
flags() method, such as FinitePair here or bicyclic.ResidueSubmonoid.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .clots import (
    group_verdict,
    homogeneity,
    is_clot,
    is_normal_submonoid,
    is_positive_cone,
    subset_group_verdict,
    # not called here since C3 ⊆ C2 settles C2; kept bound because
    # perfbench/spans.py times the unit-transfer layer under this name
    unit_transfer_condition,  # noqa: F401
)
from .monoid import FiniteMonoid, SubmonoidMask, as_subset
from .relations import (
    Verdict,
    is_internal,
    syntactic_reflexive_relation,
    witness_json,
    zero_class,
    zero_class_verdict,
)

FLAG_ORDER = (
    "C", "C1", "C2", "C3", "C4", "C5",
    "C0", "C0.5",
    "C(1,0)", "C(2,0)", "C(3,0)", "C(4,0)", "C(5,0)",
    "D", "Dr", "Dl", "Dh", "normal",
)

# The hierarchy, declared once.  Each edge (inner, outer) says that every
# pair in the inner class lies in the outer one: the inclusions of the two
# chains and of the homogeneity chain.
IMPLICATIONS = (
    ("C5", "C4"), ("C4", "C3"), ("C3", "C2"), ("C2", "C1"), ("C1", "C"),
    ("C(1,0)", "C0.5"), ("C0.5", "C0"), ("C0", "C"), ("C0.5", "C"),
    ("Dr", "D"), ("Dl", "D"), ("D", "C0.5"),
    ("C(4,0)", "Dr"), ("C(4,0)", "Dl"),
    ("normal", "D"),
)

# Each derived flag is the conjunction of two verdicts listed before it,
# or of one and GROUP_M, the flag that M is a group.
GROUP_M = "group(M)"
CONJUNCTIONS = {
    "C5": ("C4", GROUP_M),
    "Dh": ("Dr", GROUP_M),
    **{f"C({i},0)": (f"C{i}", "C0") for i in range(1, 6)},
}


class ClassificationReport(NamedTuple):
    pair: str
    flags: dict[str, Verdict]

    def holds(self, name: str) -> Optional[bool]:
        return self.flags[name].holds


NOT_COMPUTED = Verdict(None)


def flag_and(f1: Verdict, f2: Verdict) -> Verdict:
    """Three-valued conjunction; a definite False wins over n/a, and a
    bounded pass holds up to the smaller bound of its bounded operands."""
    if f1.holds is False:
        return f1
    if f2.holds is False:
        return f2
    if f1.holds is None or f2.holds is None:
        return NOT_COMPUTED
    bounds = [f.bound for f in (f1, f2) if f.bound is not None]
    return Verdict(True, bound=min(bounds, default=None))


def _infer(flags: dict[str, Verdict]) -> list[str]:
    """Settle in place every n/a flag that the hierarchy decides; return
    the violated edges and conjunctions.  Each round first fills the
    conjunctions, the flag_and of operands the classifier may have set,
    then crosses the edges: a proved inner flag proves the outer one, a
    refuted outer flag refutes the inner one.  The settling verdict gets
    a note naming its rule: "by D ⊆ C0.5" or "by C(4,0) = C4 ∧ C0".
    A flag missing from the table, GROUP_M too, starts as n/a."""
    for name in (GROUP_M, *FLAG_ORDER):
        flags.setdefault(name, NOT_COMPUTED)
    changed = True
    while changed:
        changed = False
        for name, (a, b) in CONJUNCTIONS.items():
            if flags[name].holds is None:
                both = flag_and(flags[a], flags[b])
                if both.holds is not None:
                    flags[name] = both._replace(note=f"by {name} = {a} ∧ {b}")
                    changed = True
        for inner, outer in IMPLICATIONS:
            for src, dst, holds in ((inner, outer, True),
                                    (outer, inner, False)):
                if flags[src].holds is holds and flags[dst].holds is None:
                    flags[dst] = flags[src]._replace(
                        note=f"by {inner} ⊆ {outer}")
                    changed = True
    return ([f"{i}=>{o}" for i, o in IMPLICATIONS
             if flags[i].holds is True and flags[o].holds is False]
            + [f"{n}<=>{a}&{b}" for n, (a, b) in CONJUNCTIONS.items()
               if {flag_and(flags[a], flags[b]).holds,
                   flags[n].holds} == {True, False}])


class FinitePair(NamedTuple):
    """A finite monoid with a subset of its elements, given as indices."""

    monoid: FiniteMonoid
    bits: frozenset

    @property
    def name(self) -> str:
        bits = sorted(as_subset(self.monoid, self.bits))
        return f"{self.monoid.name}:{{{','.join(str(b) for b in bits)}}}"

    def flags(self) -> dict[str, Verdict]:
        """Every flag but C2 and the derived ones, all exact; SubmonoidMask
        raises MonoidError, naming the cause, for a subset that is not a
        submonoid."""
        m = self.monoid
        sub = SubmonoidMask(m, self.bits).bits
        rm = syntactic_reflexive_relation(m, sub)
        return {
            GROUP_M: subset_group_verdict(m, sub),
            "C": Verdict(True),
            "C1": is_internal(rm),
            # finite monoids are Dedekind finite (xy = 1 makes z -> xz onto,
            # so one-to-one, and x(yx) = x1 gives yx = 1); C3 ⊆ C2 sets C2
            "C3": Verdict(True),
            "C4": group_verdict(m),
            "C0": zero_class_verdict(zero_class(rm), sub),
            "C0.5": is_clot(m, sub),
            "D": is_positive_cone(m, sub),
            "Dr": homogeneity(m, sub, "right"),
            "Dl": homogeneity(m, sub, "left"),
            "normal": is_normal_submonoid(m, sub),
        }


def decide(pair) -> ClassificationReport:
    """The report of a pair of any kind: a record with a `name` and a
    `flags()` method, which returns the flags its theorems decide; the
    hierarchy settles the rest."""
    flags = pair.flags()
    _infer(flags)
    return ClassificationReport(pair.name, flags)


def classify_pair(m: FiniteMonoid, subset) -> ClassificationReport:
    """decide of the finite pair (m, subset), with no notes: the report
    gives verdicts and witnesses."""
    pair, flags = decide(FinitePair(m, subset))
    return ClassificationReport(pair, {
        n: f._replace(note="") if f.note else f for n, f in flags.items()})


def check_consistency(report: ClassificationReport) -> list[str]:
    """Violated edges and conjunctions of the hierarchy, found by running
    the inference on a copy of the report's flags; empty iff consistent."""
    return _infer(dict(report.flags))


def report_json(report: ClassificationReport,
                monoid: Optional[FiniteMonoid] = None) -> dict:
    """Wire form of a report; witness elements are labelled by the monoid
    when it is given, else ints stay numbers and the rest take their str."""
    labeler = monoid.labels.__getitem__ if monoid else None
    flags = {}
    for name in FLAG_ORDER:
        f = report.flags[name]
        entry: dict = {"holds": f.holds, "mode": f.mode}
        if f.witness is not None:
            entry["witness"] = witness_json(f.witness, labeler)
        if f.note:
            entry["note"] = f.note
        if f.bound is not None:
            entry["bound"] = f.bound
        flags[name] = entry
    return {"pair": report.pair, "flags": flags}
