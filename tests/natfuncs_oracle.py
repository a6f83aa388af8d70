"""The eventually affine maps of the positive naturals, kept beside the
tests as the symbolic oracle of `clotkit.natfuncs`.

An eventually affine map has finitely many exceptional values followed by
an affine tail a*x + b.  The class is closed under composition and has a
normal form (minimal threshold), so equality is structural.  The tests
compose f*(2^n * -)*g, with g = x+1 and f its left inverse, in this
calculus and compare it with the closed form 2^n x + 2^n - 1 that
`doubling_refutation_report` returns.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class EventuallyAffineMap(NamedTuple):
    """x -> exceptions[x-1] for x < threshold, else slope*x + offset.

    Maps the positive naturals into themselves; construct via ea() which
    validates and normalizes (threshold is minimal).
    """

    slope: int
    offset: int
    threshold: int = 1
    exceptions: tuple[int, ...] = ()

    def __call__(self, x: int) -> int:
        if x < 1:
            raise ValueError("domain is the positive naturals")
        if x < self.threshold:
            return self.exceptions[x - 1]
        return self.slope * x + self.offset


def ea(slope: int, offset: int, threshold: int = 1,
       exceptions=()) -> EventuallyAffineMap:
    """Validated, normalized constructor.  The result has the minimal
    threshold, a normal form, so `==` on maps is pointwise equality."""
    exceptions = tuple(int(v) for v in exceptions)
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if len(exceptions) != threshold - 1:
        raise ValueError("need exactly threshold-1 exceptional values")
    if slope < 0:
        raise ValueError("slope must be >= 0")
    if slope * threshold + offset < 1:
        raise ValueError("tail must map into the positive naturals")
    if any(v < 1 for v in exceptions):
        raise ValueError("exceptional values must be >= 1")
    while threshold > 1 and exceptions[-1] == slope * (threshold - 1) + offset:
        exceptions = exceptions[:-1]
        threshold -= 1
    return EventuallyAffineMap(slope, offset, threshold, exceptions)


IDENTITY = ea(1, 0)
DOUBLING = ea(2, 0)
SHIFT_UP = ea(1, 1)                      # g(x) = x + 1
SHIFT_DOWN = ea(1, -1, 2, (1,))          # f(1) = 1, f(x) = x - 1 for x > 1


def ea_compose(outer: EventuallyAffineMap,
               inner: EventuallyAffineMap) -> EventuallyAffineMap:
    """Pointwise composition outer(inner(x)), renormalized.

    Once x clears inner's threshold and inner(x) clears outer's, the
    composite is affine with slope and offset multiplied through; a
    constant inner tail gives a constant composite tail.
    """
    if inner.slope == 0:
        raw_threshold = inner.threshold
        slope, offset = 0, outer(inner.offset)
    else:
        need = outer.threshold - inner.offset
        raw_threshold = max(inner.threshold, -(-need // inner.slope), 1)
        slope = outer.slope * inner.slope
        offset = outer.slope * inner.offset + outer.offset
    exceptions = tuple(outer(inner(x)) for x in range(1, raw_threshold))
    return ea(slope, offset, raw_threshold, exceptions)


def ea_power(h: EventuallyAffineMap, n: int) -> EventuallyAffineMap:
    out = IDENTITY
    for _ in range(n):
        out = ea_compose(out, h)
    return out


def ea_in_doubling_submonoid(h: EventuallyAffineMap) -> Optional[int]:
    """The n with h = (x -> 2^n x), or None."""
    if h.threshold != 1 or h.offset != 0 or h.slope < 1:
        return None
    n = h.slope.bit_length() - 1
    return n if 1 << n == h.slope else None


def ea_to_literal(h: EventuallyAffineMap) -> str:
    inner = ",".join(f"{x}:{v}" for x, v in enumerate(h.exceptions, start=1))
    return f"affine({h.slope},{h.offset},{h.threshold}){{{inner}}}"
