import re
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from palfree.cubic import ComplexInterval, as_interval
from palfree.repetition import ExponentBound, Violation
from palfree.structure import named_stream


TEST_TIME_LIMIT_S = 300  # a test still running after this fails


class TimeLimitExceeded(BaseException):
    """A BaseException, so that hypothesis does not take it for a failing
    example and replay the runaway code while shrinking."""


@contextmanager
def time_limit(name: str, seconds: float):
    """Fail the running test, by name, once the block has run for seconds:
    SIGALRM interrupts it wherever it is, so a runaway loop fails instead of
    stalling the suite."""
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{name} ran past its {seconds} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with time_limit(item.nodeid, TEST_TIME_LIMIT_S):
        yield


@pytest.fixture(scope="session")
def p_word():
    return named_stream("p").prefix(200000)


@pytest.fixture(scope="session")
def nu_word():
    return named_stream("nu_p").prefix(200000)


@pytest.fixture(scope="session")
def mu_word():
    return named_stream("mu_p").prefix(200000)


def brute_critical_exponent(w):
    """Oracle of the critical exponent: the largest length / period over
    the maximal stretches of w, at least 1.  A factor v with smallest
    period p lies inside a maximal stretch of period p, which is at least
    as long, and a stretch of length ln at period p has exponent at least
    ln / p, so the two maxima agree; test_critical_exponent_oracles_agree
    checks that against factor_critical_exponent."""
    return max((Fraction(ln, p) for ln, p, _st in maximal_stretches(w)),
               default=Fraction(1))


def smallest_period(w):
    """Smallest p with w[i] == w[i+p] for all valid i (border function)."""
    n = len(w)
    if n == 0:
        raise ValueError("empty word has no period")
    border = [0] * n
    k = 0
    for i in range(1, n):
        while k and w[i] != w[k]:
            k = border[k - 1]
        if w[i] == w[k]:
            k += 1
        border[i] = k
    return n - border[n - 1]


def exponent_of(w):
    """Maximal exponent |w|/p with p the smallest period, plus the period word."""
    p = smallest_period(w)
    return Fraction(len(w), p), w[:p]


FACTOR_ORACLE_MAX = 60  # factor_critical_exponent is cubic in the length


def factor_critical_exponent(w):
    """Definitional oracle: maximal exponent over all factors, each read
    off its smallest period; words of at most FACTOR_ORACLE_MAX letters."""
    if len(w) > FACTOR_ORACLE_MAX:
        raise ValueError(f"{len(w)} letters: the factor oracle takes at most "
                         f"{FACTOR_ORACLE_MAX}")
    best = Fraction(1)
    n = len(w)
    for i in range(n):
        for j in range(i + 1, n + 1):
            e, _ = exponent_of(w[i:j])
            if e > best:
                best = e
    return best


def closed_form(cc, n):
    """Closed-form s_n = A beta^n + 2 Re(B lam^n) of the constants cc, as
    an interval."""
    bpow = as_interval(1)
    for _ in range(n):
        bpow = bpow * cc.beta
    lpow = ComplexInterval(1)
    lam = cc.lam()
    for _ in range(n):
        lpow = lpow * lam
    term = cc.B * lpow
    return cc.A * bpow + 2 * term.re


def violates(bound, exponent):
    """Definitional oracle for ExponentBound.min_violating_length: whether a
    repetition of this exponent breaks the bound."""
    return exponent > bound.threshold if bound.strict else exponent >= bound.threshold


def maximal_stretches(w):
    """Definitional oracle for runs.iter_runs: (length, period, start) of
    every maximal stretch at every period, by a quadratic letter scan."""
    out = []
    n = len(w)
    for p in range(1, n):
        run = 0
        for i in range(p, n):
            if w[i] == w[i - p]:
                run += 1
                if i == n - 1 or w[i + 1] != w[i + 1 - p]:
                    out.append((run + p, p, i - run - p + 1))
            else:
                run = 0
    return out


def _first_violation_scan(w: str, bound: ExponentBound) -> Violation | None:
    """Leftmost-end then shortest violating factor, by per-position scan."""
    n = len(w)
    best = None  # (end, length, period)
    for p in range(1, n):
        run = 0
        need = bound.min_violating_length(p)
        if need - p < 1:
            need = p + 1
        for i in range(p, n):
            if w[i] == w[i - p]:
                run += 1
                if run + p >= need:
                    end = i - (run + p - need)
                    cand = (end, need, p)
                    if best is None or cand < best:
                        best = cand
                    break
            else:
                run = 0
    if best is None:
        return None
    end, length, p = best
    factor = w[end - length + 1:end + 1]
    return Violation(factor, factor[:p], Fraction(length, p))


def palindrome_set_scan(w: str) -> set[str]:
    """Reference enumerator: expand around every center.  O(n * maxpal)."""
    out = {""}
    n = len(w)
    for center in range(n):
        r = 0
        while center - r >= 0 and center + r < n and w[center - r] == w[center + r]:
            out.add(w[center - r:center + r + 1])
            r += 1
        r = 0
        while center - r >= 0 and center + 1 + r < n and w[center - r] == w[center + 1 + r]:
            out.add(w[center - r:center + r + 2])
            r += 1
    return out


def special_factor_oracle(text: str, max_len: int):
    """Definitional oracle for structure's right-special walk: for each
    length n <= max_len, the left, right and (left, right) extension sets of
    every length-n factor of text, read off its factor sets of lengths n + 1
    and n + 2.  Returns the bispecial factors as (word, left, right, bi), by
    length then word, and the complexity increments: entry n - 1 sums
    #right - 1 over the right-special length-n factors."""
    letters = sorted(set(text))

    def factor_set(n):
        return {text[i:i + n] for i in range(len(text) - n + 1)}

    bispecials, increments = [], []
    for n in range(1, max_len + 1):
        longer, longest = factor_set(n + 1), factor_set(n + 2)
        inc = 0
        for w in sorted(factor_set(n)):
            left = {a for a in letters if a + w in longer}
            right = {b for b in letters if w + b in longer}
            bi = {(a, b) for a in left for b in right if a + w + b in longest}
            if len(right) >= 2:
                inc += len(right) - 1
                if len(left) >= 2:
                    bispecials.append((w, left, right, bi))
        increments.append(inc)
    return bispecials, increments


def return_word_oracle(text: str, w: str) -> set[str]:
    """Definitional oracle for structure.return_words on a long prefix: the
    words from each occurrence of w up to the next one, every occurrence
    (overlapping ones included) found by a lookahead regex."""
    occ = [m.start() for m in re.finditer(f"(?={w})", text)]
    return {text[i:j] for i, j in zip(occ, occ[1:])}


class PerPeriodFreeChecker:
    """Definitional oracle for repetition.IncrementalFreeChecker: the same
    push/pop API, testing every period up to i/beta letter by letter.

    Push/pop letters; push returns False when some repetition violating
    the bound ends at the new letter.

    Only suffix stretches ending at the appended position are examined, so a
    word built letter by letter with all pushes accepted is free.  Agreement
    with is_free is a tested invariant.
    """

    __slots__ = ("num", "den", "strict", "w", "_need")

    def __init__(self, bound: ExponentBound):
        self.num = bound.threshold.numerator
        self.den = bound.threshold.denominator
        self.strict = bound.strict
        self.w: list[str] = []
        self._need: list[int] = [0]  # _need[p]: match-run making period p violate

    def _extend_need(self, upto: int) -> None:
        need = self._need
        num, den = self.num, self.den
        for q in range(len(need), upto + 1):
            if self.strict:
                k = (q * (num - den)) // den + 1
            else:
                k = -((-q * (num - den)) // den)
            need.append(k if k > 1 else 1)

    def push(self, c: str) -> bool:
        w = self.w
        w.append(c)
        i = len(w) - 1
        if i == 0:
            return True
        need = self._need
        if len(need) <= i:
            self._extend_need(i)
        for p in range(1, i + 1):
            kneed = need[p]
            if kneed + p > i + 1:
                break  # kneed + p grows with p: no longer fits
            j = i - p
            if w[j] != c:
                continue
            k = 1
            while k < kneed and w[j - k] == w[i - k]:
                k += 1
            if k >= kneed:
                return False
        return True

    def pop(self) -> None:
        self.w.pop()

    def word(self) -> str:
        return "".join(self.w)
