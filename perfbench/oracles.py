"""Reference decisions written apart from clotkit, used to check its verdicts.

Nothing here imports clotkit.  Each decision goes back to the definition by
a different route than the program takes:

* finite monoids are Cayley tables (``table[a][b]`` is the index of a*b);
  transformation monoids are built from maps of {1..k} given as image
  tuples, composed as (f*g)(x) = f(g(x));
* clot status is the zero-class of the submonoid of A x A generated by the
  diagonal and {1} x M, found by orbit search (Froidure-Pin): right
  multiplication by the generators from (1, 1);
* the zero-classes of the congruence, the preorder and the reflexive
  relation come from explicit context sets of (x, y) pairs;
* homogeneity is the direct inclusion test aM in Ma (right) or Ma in aM;
* bicyclic elements are pairs (n, m) for y^n x^m, multiplied by cancelling
  the xy factors in the middle of y^n1 x^m1 y^n2 x^m2;
* residue submonoids are enumerated from a residue product table.
"""

from __future__ import annotations

import re
from itertools import product as iter_product
from math import lcm


# ---------------------------------------------------------------- finite

def compose(f: tuple, g: tuple) -> tuple:
    """(f*g)(x) = f(g(x)) for maps given as 1-based image tuples."""
    return tuple(f[v - 1] for v in g)


def map_label(f: tuple) -> str:
    return "".join(map(str, f))


class MapMonoid:
    """A monoid of self-maps of {1..k} as a Cayley table over sorted maps."""

    def __init__(self, k: int, maps):
        self.k = k
        self.maps = sorted(set(maps))
        self.index = {f: i for i, f in enumerate(self.maps)}
        self.labels = [map_label(f) for f in self.maps]
        self.label_index = {s: i for i, s in enumerate(self.labels)}
        self.table = [[self.index[compose(f, g)] for g in self.maps]
                      for f in self.maps]
        self.identity = self.index[tuple(range(1, k + 1))]

    @property
    def order(self) -> int:
        return len(self.maps)


def full_transformations(k: int) -> MapMonoid:
    return MapMonoid(k, iter_product(range(1, k + 1), repeat=k))


def generated_maps(k: int, gens) -> set:
    """All products of the generators, the identity included: the orbit of
    the identity under right multiplication by each generator."""
    ident = tuple(range(1, k + 1))
    seen = {ident}
    queue = [ident]
    for f in queue:
        for g in gens:
            h = compose(f, tuple(g))
            if h not in seen:
                seen.add(h)
                queue.append(h)
    return seen


def submonoid_generated(table, identity: int, seed) -> frozenset:
    seen = {identity}
    queue = [identity]
    gens = sorted(set(seed))
    for a in queue:
        for g in gens:
            b = table[a][g]
            if b not in seen:
                seen.add(b)
                queue.append(b)
    return frozenset(seen)


def all_submonoids(table, identity: int) -> list:
    """Every submonoid, by closing each known one under one more element."""
    first = submonoid_generated(table, identity, ())
    found = {first}
    queue = [first]
    n = len(table)
    for sub in queue:
        for x in range(n):
            if x not in sub:
                grown = submonoid_generated(table, identity, sub | {x})
                if grown not in found:
                    found.add(grown)
                    queue.append(grown)
    return list(found)


def clot_zero_class(table, identity: int, members) -> frozenset:
    """{b : (1, b) lies in the submonoid of A x A generated by the diagonal
    and {1} x M}."""
    n = len(table)
    gens = [(a, a) for a in range(n)] + [(identity, u) for u in members]
    start = identity * n + identity
    seen = {start}
    queue = [start]
    for s in queue:
        ra = table[s // n]
        rb = table[s % n]
        for g, h in gens:
            t = ra[g] * n + rb[h]
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return frozenset(s % n for s in seen if s // n == identity)


class FinitePair:
    """Reference answers for one pair (A, M) of a finite monoid A."""

    def __init__(self, table, identity: int, members):
        self.table = table
        self.e = identity
        self.M = frozenset(members)
        n = len(table)
        units = [(x, y) for x in range(n) for y in range(n)
                 if table[x][y] == identity]
        # context of b relative to M: the pairs (x, y) with x*b*y in M
        ctx = [frozenset(x * n + y for x in range(n) for y in range(n)
                         if table[table[x][b]][y] in self.M)
               for b in range(n)]
        one = ctx[identity]
        self.refl_zero = frozenset(
            b for b in range(n)
            if all(table[table[x][b]][y] in self.M for x, y in units))
        self.normal_zero = frozenset(b for b in range(n) if ctx[b] == one)
        self.cone_zero = frozenset(b for b in range(n) if one <= ctx[b])
        self.clot_zero = clot_zero_class(table, identity, self.M)

    def right_cone(self, a: int) -> set:
        return {self.table[v][a] for v in self.M}

    def left_cone(self, a: int) -> set:
        return {self.table[a][v] for v in self.M}

    def right_homogeneous(self) -> bool:
        return all(self.table[a][u] in self.right_cone(a)
                   for a in range(len(self.table)) for u in self.M)

    def left_homogeneous(self) -> bool:
        return all(self.table[u][a] in self.left_cone(a)
                   for a in range(len(self.table)) for u in self.M)

    def flags(self) -> dict:
        return {
            "C0": self.refl_zero == self.M,
            "C0.5": self.clot_zero == self.M,
            "normal": self.normal_zero == self.M,
            "D": self.cone_zero == self.M,
            "Dr": self.right_homogeneous(),
            "Dl": self.left_homogeneous(),
        }

    def invertible_in(self, a: int, within) -> bool:
        t = self.table
        return any(t[a][b] == self.e and t[b][a] == self.e for b in within)

    def refutes(self, flag: str, w: dict) -> bool:
        """Whether the witness w, with element indices, refutes the flag.

        C, C1, C2 and C3 hold for every finite pair (finite monoids are
        Dedekind finite), so nothing refutes them.
        """
        t = self.table
        if flag in ("C0", "C0.5", "normal", "D"):
            zero = {"C0": self.refl_zero, "C0.5": self.clot_zero,
                    "normal": self.normal_zero, "D": self.cone_zero}[flag]
            return w.keys() == {"u"} and w["u"] in zero ^ self.M
        if flag == "Dr":
            return (w.keys() == {"a", "u"} and w["u"] in self.M
                    and t[w["a"]][w["u"]] not in self.right_cone(w["a"]))
        if flag == "Dl":
            return (w.keys() == {"a", "u"} and w["u"] in self.M
                    and t[w["u"]][w["a"]] not in self.left_cone(w["a"]))
        if flag == "C4":
            return (w.keys() == {"a"}
                    and not self.invertible_in(w["a"], range(len(t))))
        if flag == "C5":
            return self.refutes("C4", w) or self.m_not_group(w)
        if flag == "Dh":
            return self.refutes("Dr", w) or self.m_not_group(w)
        match = re.fullmatch(r"C\((\d),0\)", flag)
        if match:
            return (self.refutes(f"C{match.group(1)}", w)
                    or self.refutes("C0", w))
        return False

    def m_not_group(self, w: dict) -> bool:
        return (w.keys() == {"a"} and w["a"] in self.M
                and not self.invertible_in(w["a"], self.M))


# -------------------------------------------------------------- bicyclic

ONE = (0, 0)
X = (0, 1)
Y = (1, 0)


def bmul(a: tuple, b: tuple) -> tuple:
    """y^n1 x^m1 * y^n2 x^m2: the middle x^m1 y^n2 loses min(m1, n2) xy."""
    k = min(a[1], b[0])
    return (a[0] + b[0] - k, a[1] - k + b[1])


def parse_element(text: str) -> tuple:
    match = re.fullmatch(r"y(\d+)x(\d+)", text)
    if not match:
        raise ValueError(f"not a bicyclic element: {text!r}")
    return int(match.group(1)), int(match.group(2))


class Residues:
    """The elements y^n x^m with (n mod p, m mod q) in a residue set."""

    def __init__(self, p: int, q: int, residues):
        self.p, self.q = p, q
        self.residues = frozenset((r % p, s % q) for r, s in residues)

    def __contains__(self, e: tuple) -> bool:
        return (e[0] % self.p, e[1] % self.q) in self.residues

    def grid(self, size: int = 12) -> frozenset:
        """Membership on [0, size)^2; equal for equal submonoids when size
        is a common multiple of the moduli."""
        return frozenset((n, m) for n in range(size) for m in range(size)
                         if (n, m) in self)

    @classmethod
    def parse(cls, text: str) -> "Residues":
        """Read clotkit's description "mod(p,q) residues {(r,s),...}"."""
        match = re.fullmatch(r"mod\((\d+),(\d+)\) residues \{(.*)\}", text)
        if not match:
            raise ValueError(f"not a residue submonoid: {text!r}")
        pairs = re.findall(r"\((\d+),(\d+)\)", match.group(3))
        return cls(int(match.group(1)), int(match.group(2)),
                   [(int(r), int(s)) for r, s in pairs])


def residue_product_table(p: int, q: int) -> dict:
    """For classes c1, c2 the residues of all products of representatives.

    The product depends on the exponents through their residues and through
    the difference m1 - n2; representatives in [0, 2*lcm(p, q)) realise
    every residue of that difference with both signs.
    """
    span = 2 * lcm(p, q)
    out = {}
    for n1, m1, n2, m2 in iter_product(range(span), repeat=4):
        c1 = (n1 % p, m1 % q)
        c2 = (n2 % p, m2 % q)
        n, m = bmul((n1, m1), (n2, m2))
        out.setdefault((c1, c2), set()).add((n % p, m % q))
    return out


def residue_submonoids(max_modulus: int = 4) -> list:
    """All distinct residue submonoids with moduli <= max_modulus, each given
    by its first presentation in order of (p, q) and then discovery."""
    grid_size = lcm(*range(1, max_modulus + 1))
    found = {}
    for p in range(1, max_modulus + 1):
        for q in range(1, max_modulus + 1):
            table = residue_product_table(p, q)

            def close(rset):
                rset = set(rset)
                queue = list(rset)
                for c1 in queue:
                    for c2 in list(rset):
                        for c in table[c1, c2] | table[c2, c1]:
                            if c not in rset:
                                rset.add(c)
                                queue.append(c)
                return frozenset(rset)

            classes = [(r, s) for r in range(p) for s in range(q)]
            first = close({(0, 0)})
            closed = {first}
            queue = [first]
            for rset in queue:
                for c in classes:
                    if c not in rset:
                        grown = close(rset | {c})
                        if grown not in closed:
                            closed.add(grown)
                            queue.append(grown)
            for rset in queue:
                sub = Residues(p, q, rset)
                found.setdefault(sub.grid(grid_size), sub)
    return list(found.values())


def factorizations_of_one(a: tuple, limit: int):
    """Every (X, Y) with X*a*Y = 1, for X with exponents <= limit.

    Right multiplication never cancels the leading y^n of a normal form, so
    X*a must be a power x^m of x, and then Y = y^m is its only right
    inverse.
    """
    for n in range(limit + 1):
        for m in range(limit + 1):
            z = bmul((n, m), a)
            if z[0] == 0 and bmul(z, (z[1], 0)) == ONE:
                yield (n, m), (z[1], 0)


def rm_refutation(a: tuple, b: tuple, sub: Residues, limit: int):
    """A factorization X*a*Y = 1 with X*b*Y outside M, or None when every
    factorization whose X has exponents <= limit keeps X*b*Y in M."""
    for x, y in factorizations_of_one(a, limit):
        if bmul(bmul(x, b), y) not in sub:
            return x, y
    return None


def unit_insertion_holds(sub: Residues, limit: int) -> bool:
    """x^k u y^k in M for every u in M and k with exponents <= limit."""
    return all(bmul(bmul((0, k), (n, m)), (k, 0)) in sub
               for n in range(limit + 1) for m in range(limit + 1)
               if (n, m) in sub for k in range(limit + 1))
