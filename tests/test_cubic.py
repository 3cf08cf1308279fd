from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import closed_form
from palfree.cubic import (CUBIC, DEFAULT_WIDTH, ComplexInterval, Interval,
                           as_complex, asymptotic_exponent_value, eval_poly,
                           isolate_root, solve_sequence, sqrt_interval)
from palfree.structure import TAIL_WIDTH, length_sequence

F = Fraction
rationals = st.fractions(min_value=-100, max_value=100)


@given(rationals, rationals, rationals, rationals)
def test_interval_arithmetic_contains_points(a, b, c, d):
    x = Interval(min(a, b), max(a, b))
    y = Interval(min(c, d), max(c, d))
    # midpoint arithmetic stays inside the result interval
    for op in ("__add__", "__sub__", "__mul__"):
        r = getattr(x, op)(y)
        v = getattr(x.mid, op)(y.mid)
        assert r.lo <= v <= r.hi
    if y.lo > 0 or y.hi < 0:
        r = x / y
        assert r.lo <= x.mid / y.mid <= r.hi


def test_interval_division_by_zero_interval():
    with pytest.raises(ZeroDivisionError):
        Interval(1) / Interval(-1, 1)


@given(st.fractions(min_value=0, max_value=10000))
@example(Fraction(1, 10 ** 400))  # below 1/den_cap squared: float(v) is 0
def test_sqrt_outward(v):
    iv = sqrt_interval(Interval(v))
    assert iv.lo * iv.lo <= v <= iv.hi * iv.hi
    assert iv.width < F(1, 10 ** 12)


def test_complex_interval_ops():
    z = ComplexInterval(F(1, 2), F(3, 4))
    w = z * z.conjugate()
    assert w.re.contains(F(1, 4) + F(9, 16))
    assert w.im.contains(0)
    q = z / z
    assert q.re.contains(1) and q.im.contains(0)


def test_root_isolation():
    beta = isolate_root()
    assert beta.width <= F(1, 10 ** 15)
    val = eval_poly(CUBIC, beta)
    assert val.lo <= 0 <= val.hi
    assert abs(beta.mid - F("1.75488")) < F(1, 10 ** 5)


def test_isolate_root_is_bisected_once_per_width():
    """The cached root equals a fresh bisection at each width the callers
    use: solve_sequence's and perron_root's default, the asymptotic
    exponent's 10^-14 and the tail bounds' 10^-16."""
    for width in (DEFAULT_WIDTH, F(1, 10 ** 14), TAIL_WIDTH):
        cached = isolate_root(width)
        fresh = isolate_root.__wrapped__(width)
        assert (cached.lo, cached.hi) == (fresh.lo, fresh.hi)
        assert isolate_root(width) is cached


def test_solved_constants_reproduce_integer_sequences():
    """The closed forms of the four length sequences of nu_p and mu_p
    reproduce the integer recurrence."""
    seen = set()
    for kind in ("nu_p", "mu_p"):
        for base in ("012", "01"):
            ints = length_sequence(kind, base, 20)
            seeds = tuple(ints[:3])
            seen.add(seeds)
            cc = solve_sequence(seeds)
            assert cc.seeds == seeds
            for n in range(21):
                iv = closed_form(cc, n)
                assert iv.lo <= ints[n] <= iv.hi, (seeds, n)
                assert iv.width < F(1, 10 ** 6)  # widths compound under powering
            assert max(cc.beta.width, cc.A.width, cc.B.re.width,
                       cc.B.im.width) / 2 < F(1, 10 ** 12)
    assert seen == {(6, 10, 17), (4, 7, 13), (11, 21, 36), (10, 15, 26)}


def test_constant_values_frozen():
    # values pinned from the exact interval computation itself (the closed
    # forms reproduce the integer recurrences above, which is the oracle)
    expect = {
        (6, 10, 17): F("5.581322403"),
        (4, 7, 13): F("4.213215630"),
        (11, 21, 36): F("11.530751580"),
        (10, 15, 26): F("8.704306843"),
    }
    for seeds, val in expect.items():
        cc = solve_sequence(seeds)
        assert abs(cc.A.mid - val) < F(1, 10 ** 9) * 5, seeds


def test_rounded_root_artifacts_documented():
    """Solving the same systems against 5-digit roots shifts the first two
    leading constants by about 1e-5; the exact values differ from those
    rounded-root artifacts.  Guards against silently matching them."""
    cc1 = solve_sequence((6, 10, 17))
    cc2 = solve_sequence((4, 7, 13))
    assert abs(cc1.A.mid - F("5.581308964")) > F(1, 10 ** 6)
    assert abs(cc2.A.mid - F("4.213205567")) > F(1, 10 ** 6)


def test_asymptotic_value():
    iv = asymptotic_exponent_value()
    assert iv.width <= F(1, 10 ** 10)
    assert abs(iv.mid - F("2.48")) < F(5, 1000)
    assert abs(iv.mid - F("2.480862716147")) < F(1, 10 ** 9)


def test_lambda_relations():
    cc = solve_sequence((6, 10, 17))
    beta, lam = cc.beta, cc.lam()
    # beta * |lam|^2 = 1 and beta + 2 Re(lam) = 2
    prod = beta * lam.abs2()
    assert prod.contains(1)
    tot = beta + 2 * cc.lam_re
    assert tot.contains(2)
    assert lam.abs().hi < 1
