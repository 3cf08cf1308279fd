"""Exact rational repetition exponents and freeness tests.

All decisions use integer/Fraction arithmetic; floats never touch a
freeness verdict (13/5 and 28/11 differ by 3/55, which is exactly the kind
of gap floats eventually blur).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import sys

from . import runs


@dataclass(frozen=True)
class ExponentBound:
    """threshold beta with strict=True meaning "beta+-free" (forbid > beta)
    and strict=False meaning "beta-free" (forbid >= beta)."""

    threshold: Fraction
    strict: bool = True
    # the threshold's numerator and denominator as plain ints, read once
    _num: int = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.threshold <= 1:
            raise ValueError("freeness threshold must exceed 1")
        object.__setattr__(self, "_num", self.threshold.numerator)
        object.__setattr__(self, "_den", self.threshold.denominator)

    @classmethod
    def parse(cls, text: str) -> "ExponentBound":
        """Accepts "28/11" (beta-free) or "28/11+" (beta+-free)."""
        text = text.strip()
        strict = text.endswith("+")
        if strict:
            text = text[:-1]
        return cls(Fraction(text), strict)

    def min_violating_length(self, period: int) -> int:
        """Shortest factor length that violates the bound at this period."""
        num, den = self._num, self._den
        if self.strict:
            return (period * num) // den + 1
        return -((-period * num) // den)

    def __str__(self):
        return f"{self.threshold}{'+' if self.strict else ''}"


@dataclass(frozen=True)
class Violation:
    factor: str
    period_word: str
    exponent: Fraction

    def __str__(self):
        return f"{self.factor} = ({self.period_word})^{self.exponent}"


def critical_exponent(w: str, with_witness: bool = False):
    """max over factors v of |v| / smallest period of v, as an exact Fraction.

    The witness is the stretch that runs.critical_stretch picks: highest
    ratio, then leftmost start, then shortest period.  The letters must be
    latin-1: one past U+00FF raises ValueError.
    """
    if not w:
        raise ValueError("critical exponent of the empty word")
    ln, p, st = runs.critical_stretch(w)
    e = Fraction(ln, p)
    if with_witness:
        return e, w[st:st + ln]
    return e


def is_free(w: str, bound: ExponentBound) -> Violation | None:
    """None when w satisfies the bound; otherwise the first violation in
    leftmost-end-then-shortest order.

    The letters must be latin-1 at every bound: one past U+00FF raises
    ValueError.  Bounds >= 2 take the earliest-ending violation among
    runs.violations, the runs scan sized by the bound (the runs.py
    docstring describes its two regimes).  Below 2 violating
    stretches are far more numerous than runs, so lower bounds feed w to an
    IncrementalFreeChecker, which stops at the first violation: its first
    refused letter is the leftmost violating end, and there the smallest
    fitting period gives the shortest violation, because
    min_violating_length(p) does not decrease in p.
    """
    need = bound.min_violating_length
    if bound.threshold >= 2:
        found = runs.violations(w, need)
        if not found:
            return None
        # a violating run holds at least need(p) letters, so its first
        # violation ends at st + need(p) - 1
        end, length, p = min((st + need(p) - 1, need(p), p) for _ln, p, st in found)
    else:
        w.encode("latin-1")  # refuses what the runs scan refuses
        chk = IncrementalFreeChecker(bound)
        chk.buf = w  # every push finds its letter in place, so nothing is copied
        for end, c in enumerate(w):
            if not chk.push(c):
                break
        else:
            return None
        for p in range(1, end + 1):
            length = need(p)
            if w[end + 1 - length:end + 1 - p] == w[end + 1 - length + p:end + 1]:
                break
    factor = w[end - length + 1:end + 1]
    return Violation(factor, factor[:p], Fraction(length, p))


_BAND = 4  # IncrementalFreeChecker scans the periods in bands [P, _BAND * P)
_SHORT = 8  # the periods below _SHORT are answered from the verdict table
# most verdicts each verdict table of a checker stores.  A key of the
# periods below _SHORT costs about 100 bytes, so that table stays under
# 6.5 MiB; the largest of a benchmark job holds 7,118 keys.  A key of
# push_block's table for q-letter blocks costs about span + 50 bytes, so
# that table stays under (span + 50) * 64 KiB, one per block length; the
# largest of a benchmark job, thm3h's, holds 108 keys of 332 letters
_SHORT_CAP = 1 << 16
# push_block tests a band once per block when the K = need[P] - q letters
# before a q-letter block number at least _WIDE, and per letter otherwise.
# On the transfer walks 8, 16 and 32 measured within a few per cent of each
# other, while 1 was 50 % slower on thm3h: a short K finds many candidates,
# and each costs up to q slice comparisons
_WIDE = 16


class IncrementalFreeChecker:
    """Push/pop letters; push returns False when some repetition violating
    the bound ends at the new letter.

    Only suffix stretches ending at the appended position are examined, so a
    word built letter by letter with all pushes accepted is free.  Agreement
    with is_free is a tested invariant.

    The word is a str buffer whose first n letters are live, so pop is O(1)
    and every test is a C-level str.find, slice comparison or dict lookup.
    A violation at period p ending at the new letter reads only the last
    min_violating_length(p) letters, and that length does not decrease in
    p, so for every period below _SHORT = 8 the verdict depends only on the
    last L = min_violating_length(_SHORT - 1) letters (the whole word while
    it is shorter).  Those letters key a table of verdicts; a miss is
    answered by one slice comparison per period and stored while the table
    holds fewer than _SHORT_CAP entries, so the answer stays exact once the
    table is full.  In the benchmark's backtracking searches 94 % of the
    lookups hit (85 % in the transfer checks); the seven slice tests on every
    push instead, with no table, measured 47 % slower there.

    The periods from 8 up are scanned in bands [P, 4P), P = 8, 32, 128, ...:
    any violation at a period p of the band repeats the last m = need[P]
    letters p letters earlier (need does not decrease in p), so one find
    over the band's window yields every candidate, and each is confirmed by
    one slice comparison.  That makes the test exact for every bound.  In a
    word that was free before the push, two occurrences of that suffix
    d <= P letters apart would already form a forbidden repetition of
    period d (need[d] <= m), so the candidates of a band lie more than P
    apart and number at most 3, and a push costs O(log n) Python steps.
    Wider bands mean fewer finds but more candidates; _BAND = 4 measured
    fastest.  Each band's constants are one row of _bands, added once when
    _need first covers the band, so _bands holds O(log n) rows and push
    only unpacks them.

    push_block(block) appends q = len(block) letters with one copy and
    calls push at each of them with the bands of m >= q + _WIDE left out.
    Each of those wider bands is tested once per block: the last m letters
    before any end in the block hold the K = m - q letters before the
    block, so one find of those K letters yields every candidate period of
    the band, and each candidate is confirmed by push's slice comparison at
    every end in the block.  The transfer walks push whole letter images
    this way.  Before the block table below, two other forms were measured
    (perfbench, 2 vCPUs): push as push_block of one letter made backtrack
    15 % slower (10 of 10 pairs); push_block with its own inlined copy of
    push's per-letter tests ran uniform_transfer in 0.225 s wall against
    0.256 s for per-letter push calls (5 of 5 pairs), at the cost of a
    second copy of the loop.

    The per-letter calls are mostly skipped, by one verdict table per block
    length q, built the way the table of the periods below _SHORT is.  Let
    Pw be the first band with m >= q + _WIDE, the first that push_block
    tests once per block.  A violation at a period p < Pw that ends at a
    letter of the block reads the min_violating_length(p) letters up to its
    end, at most L = min_violating_length(Pw - 1), and the earliest end is
    the block's first letter, so the last span = L + q - 1 letters of the
    word decide every period below Pw at every end in the block.  Once the
    word holds span letters, they key the table: a hit answers those
    periods for the whole block with one lookup, and a miss calls push at
    each letter and stores the verdict while the table holds fewer than
    _SHORT_CAP entries.  A shorter word is its own key, and a walk pushes
    it only once, so it skips the table.  The wide bands are tested once per
    block either way.  A synchronizing morphism leaves few image contexts:
    the 1,767 blocks of thm3h's walk end in 108 distinct 332-letter keys.
    """

    __slots__ = ("bound", "buf", "n", "_need", "_bands", "_span", "_short",
                 "_blocks")

    def __init__(self, bound: ExponentBound):
        self.bound = bound
        self.buf = ""  # buf[:n] is the word; letters past n await reuse
        self.n = 0
        self._need: list[int] = [0]  # _need[p]: match-run making period p violate
        # one row (m + P, m, P, _BAND * P + m - 1) per band [P, _BAND * P),
        # m = _need[P]: the band is reached once n >= m + P, and its window of
        # occurrences of the last m letters starts at n - (_BAND * P + m - 1)
        self._bands: list[tuple[int, int, int, int]] = []
        self._extend_tables(_SHORT - 1)
        # the last _span letters decide the periods below _SHORT; _short maps
        # them to True when none of those periods makes a violation
        self._span = bound.min_violating_length(_SHORT - 1)
        self._short: dict[str, bool] = {}
        # q -> (span, table) for push_block's q-letter blocks (_block_table)
        self._blocks: dict[int, tuple[int, dict[str, bool]]] = {}

    def _extend_tables(self, upto: int) -> None:
        """Extend _need to periods <= upto, and _bands to every band that
        starts there; the rows' reach grows with P, so push stops at the first
        row beyond the word."""
        need = self._need
        length = self.bound.min_violating_length
        # at least 1, since the threshold exceeds 1
        need.extend(length(q) - q for q in range(len(need), upto + 1))
        bands = self._bands
        P = _BAND * bands[-1][2] if bands else _SHORT
        while P <= upto:
            m = need[P]
            bands.append((m + P, m, P, _BAND * P + m - 1))
            P *= _BAND

    def _short_free(self, key: str) -> bool:
        """True when no period below _SHORT makes a violation end at the
        last letter of key, the word's last _span letters."""
        n = len(key)
        need = self._need
        for p in range(1, _SHORT):
            k = need[p]
            if k + p > n:
                break  # k + p grows with p
            if key[n - k - p:n - p] == key[n - k:]:
                return False
        return True

    def push(self, c: str, wide: int = sys.maxsize) -> bool:
        """Append c; False when a violation ends at it, given that the word
        before it was free.  The bands with need[P] >= wide are left to the
        caller: push_block tests them once per block."""
        n = self.n
        buf = self.buf
        if n == len(buf) or buf[n] != c:
            buf = self.buf = buf[:n] + c
        n = self.n = n + 1
        s = n - self._span
        key = buf[s if s > 0 else 0:n]
        short = self._short
        ok = short.get(key)
        if ok is None:
            ok = self._short_free(key)
            if len(short) < _SHORT_CAP:
                short[key] = ok
        if not ok:
            return False
        need = self._need
        if len(need) <= n:
            self._extend_tables(2 * n)
        find = buf.find
        for reach, m, P, back in self._bands:
            if reach > n or m >= wide:
                break
            suffix = buf[n - m:n]
            end = n - P
            s = n - back
            s = find(suffix, s if s > 0 else 0, end)
            while s >= 0:
                p = n - m - s
                k = need[p]
                if k == m or (k + p <= n and buf[n - k - p:n - p] == buf[n - k:n]):
                    return False
                s = find(suffix, s + 1, end)
        return True

    def _block_table(self, q: int) -> tuple[int, dict[str, bool]]:
        """The key span and the verdict table of q-letter blocks: push_block
        tests the bands from Pw up once per block, Pw the first with
        need[Pw] >= q + _WIDE, and the last span letters decide every period
        below Pw at every end in the block."""
        length = self.bound.min_violating_length
        P = _SHORT
        while length(P) - P < q + _WIDE:
            P *= _BAND
        entry = self._blocks[q] = (length(P - 1) + q - 1, {})
        return entry

    def push_block(self, block: str) -> bool:
        """Push every letter of block with one copy; False exactly when a
        violation ends at one of them, given that the word before block was
        free.  The block is pushed whole either way, so len(block) pops undo
        it."""
        n0 = self.n
        q = len(block)
        buf = self.buf
        if not buf.startswith(block, n0):
            buf = self.buf = buf[:n0] + block
        n = n0 + q
        wide = q + _WIDE  # the bands with m >= wide are tested once per block
        span, table = self._blocks.get(q) or self._block_table(q)
        key = buf[n - span:n] if n >= span else None
        ok = table.get(key)
        if ok is None:
            push = self.push
            for c in block:  # each letter is in place, so push copies nothing
                if not push(c, wide):
                    ok = False
                    break
            else:
                ok = True
            if key is not None and len(table) < _SHORT_CAP:
                table[key] = ok
        self.n = n
        if not ok:
            return False
        need = self._need
        if len(need) <= n:  # a hit pushed no letter, so nothing extended them
            self._extend_tables(2 * n)
        find = buf.find
        for reach, m, P, back in self._bands:
            if reach > n:
                break
            if m < wide:
                continue
            # the last m letters before any end in the block hold the
            # m - q letters before the block, so their occurrences p letters
            # earlier, P <= p < _BAND * P, are every candidate period
            before = buf[n0 + q - m:n0]
            end = n0 - P
            s = n - back
            s = find(before, s if s > 0 else 0, end)
            while s >= 0:
                p = n - m - s
                k = need[p]
                for e in range(max(n0 + 1, k + p), n + 1):
                    if buf[e - k - p:e - p] == buf[e - k:e]:
                        return False
                s = find(before, s + 1, end)
        return True

    def pop(self) -> None:
        self.n -= 1

    @property
    def w(self) -> str:
        """The current word, for callers that trace pushes."""
        return self.buf[:self.n]
