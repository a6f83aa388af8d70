"""The doubling example: powers of x -> 2x in the endofunctions of the
positive naturals escape the zero-class of the reflexive syntactic
relation of the submonoid they generate.

Take g(x) = x + 1 and f its left inverse: f(1) = 1 and f(x) = x - 1 for
x > 1.  Then f*g = id, since g(x) > 1 for every x.  For n >= 1, and
every x >= 1, 2^n * g(x) = 2^n x + 2^n > 1, so

    f*(2^n * -)*g  is  x -> 2^n x + 2^n - 1.

Its value at 1 is 2^(n+1) - 1, odd and above 1, while a power x -> 2^k x
of the doubling map sends 1 to 2^k, which is 1 or even.  So the
factorization f*1*g = 1 carries 2^n * - outside the submonoid, and
1 R (2^n * -) fails.
"""

from __future__ import annotations

from typing import NamedTuple


def _g(x: int) -> int:
    return x + 1


def _f(x: int) -> int:
    return max(x - 1, 1)


class DoublingRefutationReport(NamedTuple):
    fg_is_identity: bool
    composites: tuple[tuple[int, int], ...]  # (slope, offset) at n - 1
    passed: bool


def doubling_refutation_report(nmax: int) -> DoublingRefutationReport:
    """Witness that 2^n * - (1 <= n <= nmax) is not related to 1 by the
    reflexive syntactic relation of the doubling submonoid, from the
    closed forms, checked against f and g on x = 1..nmax+1 (the module
    docstring proves them for every x).  The composite for n is
    slope*x + offset.  No claim about the full zero-class is made.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    xs = range(1, nmax + 2)
    fg_ok = all(_f(_g(x)) == x for x in xs)
    composites = tuple((2 ** n, 2 ** n - 1) for n in range(1, nmax + 1))
    passed = fg_ok and all(
        all(_f(2 ** n * _g(x)) == slope * x + offset for x in xs)
        and (slope + offset) % 2 == 1 and slope + offset > 1
        for n, (slope, offset) in enumerate(composites, start=1))
    return DoublingRefutationReport(fg_ok, composites, passed)
