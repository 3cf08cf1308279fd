"""Runs (maximal stretches): match masks for short periods, banded block
sampling, sized by the bound, for the rest.

A stretch is a triple (length, period, start): a factor of that length all
of whose positions i satisfy w[i] == w[i+period], maximal on both sides.
iter_runs(w, need) yields every stretch with length >= need(period)
exactly once, for any need with need(p) - p >= 1 not decreasing in p.
The word's letters must be latin-1, one byte each.

Periods below _MASKED are scanned one at a time by a match mask of the
whole word.  With B the big-endian integer of the word's latin-1 bytes,
x = ((B >> 8p) ^ B).to_bytes(n) has x[i] == 0 exactly when
w[i - p] == w[i] (i >= p; x[:p] is w[:p] and is never searched).  A stretch
of period p and length L is a maximal run of L - p zero bytes, so one
bytes.find of need(p) - p zero bytes gives the leftmost next stretch at
least need(p) long, already maximal on the left, and one
longest-common-extension query (galloping slice comparisons) extends it to
the right.  Each period costs O(n) C-level byte work whatever the bound,
plus one extension per stretch found.

Periods from _MASKED up are scanned in bands [P, 2P), with blocks w[i:i+h]
at every multiple i of h, h = max(1, (need(P) - P + 1) // 2).  A run of
period p in the band that starts at s and holds L >= need(p) letters holds
both w[i:i+h] and its copy w[i+p:i+p+h] for every i in [s, s + L - p - h]:
at least need(p) - p - h + 1 positions, which is at least h because
need(p) - p does not decrease in p, so one of them is a multiple of h.  For
need = 2p that is the classical h = P/2; for the bounds 5/2 and 28/11 the
blocks are about 1.5 times longer, so far fewer candidates are extended.
One str.find of each block over the window p in [P, 2P) yields every
candidate period; a candidate whose block pair lies inside the last stretch
found at that period belongs to it and is skipped, and any other is
extended to its stretch by two longest-common-extension queries (the
backward one on the reversed word).

The cost model behind _MASKED: a masked period costs about n bytes of
C-level shifts, XORs and conversion (about 0.1 ms at n = 5*10^4), plus the
stretches it finds.  A band [P, 2P) costs about 2n/P block finds, plus one
extension test per candidate, and a short block recurs many times within P
letters of a low-complexity word.  On a 5*10^4-letter prefix of nu_p (2
vCPUs, Python 3.11) band [32, 64) took 16 ms against 4 ms for its 32
masks, band [64, 128) 6 ms against 6 ms, and band [128, 256) under 1 ms
against 13 ms.  Both costs are linear in n, so the crossover does not move
with the word's length.

The bands run from the longest periods down, then the masked periods from
_MASKED - 1 down, and need is read again at each band, each period and each
candidate, so a caller may raise it while the scan runs: max_stretch_ratio
asks only for stretches at least as good as the best found so far, and the
long-period bands, scanned first, set a high bar early.  This is the line of
Kolpakov and Kucherov (FOCS 1999); see also Crochemore and Ilie, "Maximal
repetitions in strings", JCSS 74 (2008), and Bannai et al., "The 'Runs'
Theorem", SIAM J. Comput. 2017.
"""

from __future__ import annotations

# periods below this are scanned by match masks, the rest by banded blocks
# (cost model in the module docstring); a power of two, so the bands align
_MASKED = 64


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


def iter_runs(w: str, need):
    """Yield (length, period, start) for every maximal stretch with
    length >= need(period), each once.  need(p) - p must be at least 1 and
    must not decrease in p, and may rise between yields.  Raises ValueError
    before scanning when need(1) <= 1 or a letter of w is past U+00FF."""
    if need(1) <= 1:
        raise ValueError("iter_runs needs need(p) > p")
    B = int.from_bytes(w.encode("latin-1"), "big")
    n = len(w)
    rev = w[::-1]
    find = w.find
    bands = []
    P = _MASKED
    while need(P) <= n:
        bands.append(P)
        P += P
    for P in reversed(bands):
        m = need(P)
        if m > n:
            continue
        h = max(1, (m - P + 1) // 2)
        span = 2 * P - 1 + h
        last = [0] * P  # last[p - P]: end of the last stretch found at period p
        for i in range(0, n - P - h + 1, h):
            block = w[i:i + h]
            end = i + span  # str.find clips it to n
            j = find(block, i + P, end)
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
                    if stop - st >= need(p):
                        yield stop - st, p, st
                j = find(block, j + 1, end)
    for p in range(min(_MASKED, n) - 1, 0, -1):
        m = need(p)
        if m > n:
            continue
        # x[i] == 0 exactly when w[i - p] == w[i], for i >= p
        x = ((B >> 8 * p) ^ B).to_bytes(n, "big")
        i = x.find(bytes(m - p), p)
        while i >= 0:
            st = i - p
            stop = st + m
            stop += _lce(w, stop - p, stop)
            if stop - st >= need(p):
                yield stop - st, p, st
                m = need(p)
            # x[stop] is the mismatch that ends this stretch
            i = x.find(bytes(m - p), stop + 1)


def _best_stretch(w: str, bl: int, bp: int):
    """(length, period, start) maximizing length/period over the maximal
    stretches with length/period >= bl/bp, the floor that the rising bar
    starts from; ties go to the leftmost start, then the shortest period,
    and None means there is no such stretch."""
    n = len(w)
    bs = n  # the floor starts past every stretch, so a stretch that ties it wins

    def need(p):
        # no shorter than a tie with the best so far
        return -(-p * bl // bp)

    for ln, p, st in iter_runs(w, need):
        a, b = ln * bp, bl * p
        if a > b or (a == b and (st, p) < (bs, bp)):
            bl, bp, bs = ln, p, st
    return (bl, bp, bs) if bs < n else None


def max_stretch_ratio(w: str):
    """(length, period, start) maximizing length/period over all maximal
    stretches, ties going to the leftmost start, then the shortest period;
    exact whenever that maximum is >= 2, and (1, 1, 0) when there is no
    square."""
    return _best_stretch(w, 2, 1) or (1, 1, 0)


def critical_stretch(w: str):
    """(length, period, start) maximizing length/period over every maximal
    stretch of w, ties as in max_stretch_ratio, or (1, 1, 0) when no letter
    occurs twice.  Two passes: max_stretch_ratio looks among the squares,
    and only when w has none is it rescanned for every stretch longer than
    its period, under the same rising bar, need(p) = max(p + 1,
    ceil(p * best))."""
    ln, p, st = max_stretch_ratio(w)
    if ln >= 2 * p:
        return ln, p, st
    # ceil(p * (n + 2) / (n + 1)) = p + 1 at every period p <= n
    n = len(w)
    return _best_stretch(w, n + 2, n + 1) or (1, 1, 0)


def violations(w: str, need):
    """All maximal stretches (length, period, start) with
    length >= need(period), for need an ExponentBound's min_violating_length,
    found by blocks sized by that bound."""
    return list(iter_runs(w, need))
