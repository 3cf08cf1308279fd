"""Runs (maximal stretches of exponent >= 2) by banded block sampling.

A stretch is a triple (length, period, start): a factor of that length all
of whose positions i satisfy w[i] == w[i+period], maximal on both sides.
iter_runs yields every stretch with length >= 2*period exactly once;
stretches of exponent < 2 are never reported, so callers treat a maximum
below 2 as "no run": repetition.critical_exponent then scans the word
quadratically, and repetition.is_free uses the incremental checker for
bounds below 2.

Periods are scanned in bands [P, 2P) with blocks w[i:i+h], h = max(1, P//2),
at every multiple i of h.  A run of length L >= 2p and period p in the band,
starting at s, holds both w[i:i+h] and its copy w[i+p:i+p+h] for every i in
[s, s + L - p - h]: at least p - h + 1 > h positions, so one of them is a
multiple of h.  One str.find of each block over the window p in [P, 2P)
yields every candidate period; a candidate whose block pair lies inside the
last stretch found at that period belongs to it and is skipped, and any
other is extended to its stretch by two longest-common-extension queries
(galloping slice comparisons, backwards ones on the reversed word).  This is
the line of Kolpakov and Kucherov (FOCS 1999); see also Bannai et al., "The
'Runs' Theorem", SIAM J. Comput. 2017.
"""

from __future__ import annotations


def _lce(s: str, a: int, b: int) -> int:
    """Length of the longest common prefix of s[a:] and s[b:], a != b."""
    k = 0
    step = 1
    while s[a + k:a + k + step] == s[b + k:b + k + step]:
        k += step
        step += step
    # the remaining extension is below step, a power of two: add its bits
    step >>= 1
    while step:
        if s[a + k:a + k + step] == s[b + k:b + k + step]:
            k += step
        step >>= 1
    return k


def iter_runs(w: str, min_period: int = 1):
    """Yield (length, period, start) for every maximal stretch with
    period >= min_period and length >= 2*period, each once."""
    n = len(w)
    rev = w[::-1]
    find = w.find
    P = 1 << (min_period.bit_length() - 1)
    while 2 * max(P, min_period) <= n:
        h = P // 2 or 1
        lo = max(P, min_period)
        span = 2 * P - 1 + h
        last = [0] * P  # last[p - P]: end of the last stretch found at period p
        for i in range(0, n - lo - h + 1, h):
            block = w[i:i + h]
            end = min(i + span, n)
            j = find(block, i + lo, end)
            while j >= 0:
                p = j - i
                if j + h > last[p - P]:
                    # most candidates extend by nothing: test one letter first
                    st = i
                    if i and w[i - 1] == w[j - 1]:
                        st -= _lce(rev, n - i, n - j)
                    stop = j + h
                    if stop < n and w[stop] == w[i + h]:
                        stop += _lce(w, i + h, stop)
                    last[p - P] = stop
                    if stop - st >= 2 * p:
                        yield stop - st, p, st
                j = find(block, j + 1, end)
        P += P


def max_stretch_ratio(w: str, min_period: int = 1):
    """(length, period, start) maximizing length/period over all maximal
    stretches with period >= min_period, ties going to the leftmost start,
    then the shortest period; exact whenever that maximum is >= 2, and
    (1, min_period, 0) when there is no run."""
    bl, bp, bs = 1, min_period, 0
    for ln, p, st in iter_runs(w, min_period):
        a, b = ln * bp, bl * p
        if a > b or (a == b and (st, p) < (bs, bp)):
            bl, bp, bs = ln, p, st
    return bl, bp, bs


def violations(w: str, need):
    """All maximal stretches (length, period, start) with
    length >= need(period), for need an ExponentBound's min_violating_length.
    Complete whenever the bound is >= 2."""
    return [r for r in iter_runs(w) if r[0] >= need(r[1])]
