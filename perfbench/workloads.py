"""The three workloads: inputs made from the seed before clotkit sees them,
and checks of clotkit's outputs against the oracles.

Each workload gives `make(seed) -> (inputs, expected)`, where `inputs` goes
to the worker as JSON and `expected` stays here, and
`check(round_result, expected) -> list of problems`.
"""

from __future__ import annotations

import json
import random
from math import lcm

import oracles

T3_DRAW = 100
# t4-scale: one pair per slot, drawn once from POOL_SEED until the generated
# monoid's order falls in the slot; the run's seed then relabels the points
# {1..4}.  A verdict's cost grows about as the fourth power of the order and
# varies by a fifth between monoids of one order, so a fresh draw per seed
# would move run_s by more than its bound; relabelled monoids are
# isomorphic and cost the same.  Most slots are of one size, so that the
# median verdict is one of many alike and not a single timing.
T4_ORDER_SLOTS = ((40, 41),) * 6 + ((42, 46),) * 4 + ((52, 59),) * 2
POOL_SEED = 0
HUNT_ARGV = ["hunt", "--bound", "4", "--json"]
MAX_MODULUS = 4
# exponent limit for the bicyclic oracles: above the exponents of any
# witness of the hunt's bounds and a multiple of every modulus <= 4
EXPONENT_LIMIT = 36


# ---------------------------------------------------------------- finite

def _indices(monoid: oracles.MapMonoid, value):
    if isinstance(value, list):
        return [_indices(monoid, v) for v in value]
    return monoid.label_index[value]


def check_finite(output: dict, monoid: oracles.MapMonoid,
                 pair: oracles.FinitePair) -> list:
    """Finite monoids are Dedekind finite, so C1, C2 and C3 must hold; six
    flags must equal the oracle; every refutation's witness must refute it
    by the oracle; the implications must be consistent."""
    flags = output["report"]["flags"]
    name = output["report"]["pair"]
    problems = [f"{name}: {flag} is not exact" for flag, f in flags.items()
                if f["mode"] != "exact"]
    for flag in ("C", "C1", "C2", "C3"):
        if flags[flag]["holds"] is not True:
            problems.append(f"{name}: {flag} fails on a finite pair")
    for flag, holds in pair.flags().items():
        if flags[flag]["holds"] is not holds:
            problems.append(f"{name}: {flag} is {flags[flag]['holds']}, "
                            f"oracle says {holds}")
    for flag, f in flags.items():
        if f["holds"] is False:
            try:
                witness = {k: _indices(monoid, v)
                           for k, v in f["witness"].items()}
            except (AttributeError, KeyError, TypeError):
                witness = None
            if witness is None or not pair.refutes(flag, witness):
                problems.append(f"{name}: witness {f.get('witness')} does "
                                f"not refute {flag}")
    if output["consistency"]:
        problems.append(f"{name}: inconsistent {output['consistency']}")
    return problems


def make_t3_pairs(seed: int):
    t3 = oracles.full_transformations(3)
    subs = sorted(oracles.all_submonoids(t3.table, t3.identity),
                  key=lambda s: (len(s), sorted(s)))
    draw = random.Random(seed).sample(subs, T3_DRAW)
    inputs = {"submonoids": [[t3.labels[i] for i in sorted(s)] for s in draw]}
    expected = {"monoid": t3, "count": len(subs),
                "pairs": [oracles.FinitePair(t3.table, t3.identity, s)
                          for s in draw]}
    return inputs, expected


def check_t3_pairs(result: dict, expected: dict) -> list:
    problems = []
    if result["facts"]["submonoids"] != expected["count"]:
        problems.append(f"T3 has {expected['count']} submonoids, clotkit "
                        f"enumerated {result['facts']['submonoids']}")
    for output, pair in zip(result["outputs"], expected["pairs"]):
        if output is not None:
            problems += check_finite(output, expected["monoid"], pair)
    return problems


def t4_pool() -> list:
    """(generators, element) per slot; distinct monoids, so no verdict
    reuses another's cached relations."""
    rng = random.Random(POOL_SEED)
    pool, seen = [], set()
    for low, high in T4_ORDER_SLOTS:
        while True:
            gens = [tuple(rng.randint(1, 4) for _ in range(4))
                    for _ in range(2)]
            maps = frozenset(oracles.generated_maps(4, gens))
            if low <= len(maps) <= high and maps not in seen:
                break
        seen.add(maps)
        pool.append((gens, rng.choice(sorted(maps))))
    return pool


def make_t4_scale(seed: int):
    sigma = list(range(1, 5))
    random.Random(seed).shuffle(sigma)
    inverse = tuple(sigma.index(v) + 1 for v in range(1, 5))

    def relabel(f):
        return oracles.compose(tuple(sigma), oracles.compose(f, inverse))

    items, monoids, pairs = [], [], []
    for gens, element in t4_pool():
        gens = [relabel(g) for g in gens]
        monoid = oracles.MapMonoid(4, oracles.generated_maps(4, gens))
        element = relabel(element)
        sub = oracles.submonoid_generated(
            monoid.table, monoid.identity, {monoid.index[element]})
        items.append({"generators": gens,
                      "element": oracles.map_label(element)})
        monoids.append(monoid)
        pairs.append(oracles.FinitePair(monoid.table, monoid.identity, sub))
    return {"pairs": items}, {"monoids": monoids, "pairs": pairs}


def check_t4_scale(result: dict, expected: dict) -> list:
    problems = []
    for i, (facts, monoid, pair) in enumerate(zip(
            result["facts"]["pairs"], expected["monoids"], expected["pairs"])):
        members = sorted(monoid.labels[u] for u in pair.M)
        if facts["order"] != monoid.order or facts["submonoid"] != members:
            problems.append(f"pair {i}: clotkit built order {facts['order']} "
                            f"with submonoid {facts['submonoid']}, oracle "
                            f"order {monoid.order} with {members}")
    for output, monoid, pair in zip(result["outputs"], expected["monoids"],
                                    expected["pairs"]):
        if output is not None:
            problems += check_finite(output, monoid, pair)
    return problems


# ------------------------------------------------------------------ hunt

def c1_refuted(w: dict, sub: oracles.Residues) -> bool:
    """Both pairs related, the product as stated, and the product pair
    refuted by an explicit factorization of 1."""
    limit = EXPONENT_LIMIT
    a, b = map(oracles.parse_element, w["pair1"])
    c, d = map(oracles.parse_element, w["pair2"])
    if w["order"] == "first*second":
        product = (oracles.bmul(a, c), oracles.bmul(b, d))
    elif w["order"] == "second*first":
        product = (oracles.bmul(c, a), oracles.bmul(d, b))
    else:
        return False
    return (tuple(map(oracles.parse_element, w["product"])) == product
            and oracles.rm_refutation(a, b, sub, limit) is None
            and oracles.rm_refutation(c, d, sub, limit) is None
            and oracles.rm_refutation(*product, sub, limit) is not None)


def make_hunt(seed: int):
    """The hunt takes no seeded input: it is the fixed command users run."""
    return ({"argv": HUNT_ARGV},
            {"submonoids": oracles.residue_submonoids(MAX_MODULUS)})


def check_hunt(result: dict, expected: dict) -> list:
    output = result["outputs"][0]
    if output is None:
        return []
    if output["exit"] != 0:
        return [f"hunt exited {output['exit']}"]
    report = json.loads(output["stdout"])
    problems = []
    finite = report["finite_vacuity"]
    corpus = result["corpus"]
    if finite["violations"]:
        problems.append(f"finite violations {finite['violations']}")
    clots = sum(
        oracles.clot_zero_class(*corpus["monoids"][i], members)
        == frozenset(members) for i, members in corpus["pairs"])
    if finite["clot_pairs"] != clots or \
            finite["pairs_checked"] != len(corpus["pairs"]):
        problems.append(f"hunt counts {finite['clot_pairs']} clots in "
                        f"{finite['pairs_checked']} pairs, oracle {clots} in "
                        f"{len(corpus['pairs'])}")
    hunt = report["bicyclic_candidates"]
    grids = {s.grid() for s in expected["submonoids"]}
    if hunt["submonoids_checked"] != len(grids):
        problems.append(f"hunt checked {hunt['submonoids_checked']} residue "
                        f"submonoids, oracle enumerates {len(grids)}")
    if hunt["mode"] != "bounded" or hunt["moduli_bound"] != MAX_MODULUS:
        problems.append(f"hunt mode {hunt['mode']}, moduli bound "
                        f"{hunt['moduli_bound']}")
    for text in hunt["interleaved_insertion_passes"]:
        sub = oracles.Residues.parse(text)
        if sub.grid() not in grids:
            problems.append(f"pass {text} is not a residue submonoid")
        elif not oracles.unit_insertion_holds(sub, 2 * lcm(sub.p, sub.q) + 2):
            problems.append(f"pass {text} fails unit insertion")
    for cand in hunt["candidates"]:
        sub = oracles.Residues.parse(cand["submonoid"])
        if not c1_refuted(cand, sub):
            problems.append(f"candidate {cand} is not a compatibility failure")
    return problems


WORKLOADS = {
    "t3-pairs": (make_t3_pairs, check_t3_pairs),
    "t4-scale": (make_t4_scale, check_t4_scale),
    "hunt": (make_hunt, check_hunt),
}
