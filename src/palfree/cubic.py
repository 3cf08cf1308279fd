"""Interval arithmetic over Fractions and the cubic t^3 - 2t^2 + t - 1.

The dominant root governs the growth of every length sequence in the
structure analysis; the complex pair enters the tail bounds.  Everything
here is outward rounded, so an Interval.certainly_leq verdict is a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

CUBIC = (1, -2, 1, -1)  # t^3 - 2t^2 + t - 1, highest degree first
DEFAULT_WIDTH = Fraction(1, 10 ** 15)


class Interval:
    """Closed interval with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, o):
        if isinstance(o, ComplexInterval):
            return NotImplemented
        o = as_interval(o)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, o):
        if isinstance(o, ComplexInterval):
            return NotImplemented
        return self + (-as_interval(o))

    def __rsub__(self, o):
        return as_interval(o) + (-self)

    def __mul__(self, o):
        if isinstance(o, ComplexInterval):
            return NotImplemented
        o = as_interval(o)
        c = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(c), max(c))

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, ComplexInterval):
            return NotImplemented
        o = as_interval(o)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("interval divisor straddles zero")
        c = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(min(c), max(c))

    def __rtruediv__(self, o):
        return as_interval(o) / self

    def certainly_leq(self, o) -> bool:
        return self.hi <= as_interval(o).lo

    def certainly_lt(self, o) -> bool:
        return self.hi < as_interval(o).lo

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def __repr__(self):
        return f"[{float(self.lo):.15g}, {float(self.hi):.15g}]"


def as_interval(x) -> Interval:
    return x if isinstance(x, Interval) else Interval(x)


def sqrt_interval(x: Interval, width: Fraction = DEFAULT_WIDTH) -> Interval:
    """Outward-rounded square root of a nonnegative interval, its endpoints
    on the grid of step 1/S, S the least power of two with 1/S <= width."""
    if x.lo < 0:
        raise ValueError("sqrt of an interval reaching below zero")
    scale = 1 << (math.ceil(1 / width) - 1).bit_length()
    lo = Fraction(math.isqrt(math.floor(x.lo * scale * scale)), scale)
    hi = Fraction(math.isqrt(math.floor(x.hi * scale * scale)), scale)
    if hi * hi < x.hi:
        hi += Fraction(1, scale)
    return Interval(lo, hi)


class ComplexInterval:
    """Axis-aligned rectangle: real and imaginary Intervals."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = as_interval(re)
        self.im = as_interval(im)

    def __add__(self, o):
        o = as_complex(o)
        return ComplexInterval(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexInterval(-self.re, -self.im)

    def __sub__(self, o):
        return self + (-as_complex(o))

    def __mul__(self, o):
        o = as_complex(o)
        return ComplexInterval(self.re * o.re - self.im * o.im,
                               self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conjugate(self):
        return ComplexInterval(self.re, -self.im)

    def abs2(self) -> Interval:
        return self.re * self.re + self.im * self.im

    def abs(self) -> Interval:
        return sqrt_interval(self.abs2())

    def __truediv__(self, o):
        o = as_complex(o)
        d = o.abs2()
        n = self * o.conjugate()
        return ComplexInterval(n.re / d, n.im / d)

    def __repr__(self):
        return f"({self.re} + {self.im}i)"


def as_complex(x) -> ComplexInterval:
    if isinstance(x, ComplexInterval):
        return x
    return ComplexInterval(as_interval(x))


def eval_poly(coeffs, x: Interval) -> Interval:
    out = as_interval(coeffs[0])
    for c in coeffs[1:]:
        out = out * x + c
    return out


def isolate_root(width: Fraction = DEFAULT_WIDTH) -> Interval:
    """The cubic's Perron root, by bisection of [1, 2]; exact endpoints."""
    lo, hi = Fraction(1), Fraction(2)
    if not (eval_poly(CUBIC, Interval(lo)).hi < 0 < eval_poly(CUBIC, Interval(hi)).lo):
        raise ValueError("the cubic has no sign change on [1, 2]")
    while hi - lo > width:
        mid = (lo + hi) / 2
        fmid = eval_poly(CUBIC, Interval(mid))
        if fmid.hi < 0:
            lo = mid
        elif fmid.lo > 0:
            hi = mid
        else:
            break  # the evaluation straddles zero at this precision
    return Interval(lo, hi)


@dataclass
class CubicConstants:
    """Perron root and complex pair of the cubic, plus the Vandermonde
    solution (A real, B complex, C = conj(B)) for one seed triple."""

    seeds: tuple[int, int, int]
    beta: Interval
    lam_re: Interval
    lam_im: Interval
    A: Interval
    B: ComplexInterval

    def lam(self) -> ComplexInterval:
        return ComplexInterval(self.lam_re, self.lam_im)


def solve_sequence(seeds, width: Fraction = DEFAULT_WIDTH) -> CubicConstants:
    """Constants for s_n satisfying s_{n+1} = 2 s_n - s_{n-1} + s_{n-2}.

    Uses the root relations of the cubic: beta lam lam' = 1 and
    beta + lam + lam' = 2, so the complex pair is derived from beta alone.
    """
    s0, s1, s2 = seeds
    beta = isolate_root(width=width)
    lam_re = (2 - beta) * Fraction(1, 2)
    lam_abs2 = 1 / beta
    lam_im = sqrt_interval(lam_abs2 - lam_re * lam_re, width)
    lam = ComplexInterval(lam_re, lam_im)
    lam_bar = lam.conjugate()
    # Lagrange solve of the 3x3 Vandermonde system
    denomA = beta * beta - (2 - beta) * beta + lam_abs2  # = |beta - lam|^2
    A = (s2 - s1 * (2 - beta) + s0 * lam_abs2) / denomA
    B = (as_complex(s0) * beta * lam_bar - as_complex(s1) * (beta + lam_bar) + s2) \
        / ((as_complex(beta) - lam) * (lam_bar - lam))
    return CubicConstants(tuple(seeds), beta, lam_re, lam_im, A, B)


def perron_root() -> Interval:
    return isolate_root()


def asymptotic_exponent_value() -> Interval:
    """1 + beta^2 / (beta^2 - 1), for beta isolated to width 10^-14."""
    beta = isolate_root(Fraction(1, 10 ** 14))
    b2 = beta * beta
    return 1 + b2 / (b2 - 1)
