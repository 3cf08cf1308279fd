import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (FACTOR_ORACLE_MAX, PerPeriodFreeChecker,
                      _first_violation_scan, brute_critical_exponent,
                      exponent_of, factor_critical_exponent, maximal_stretches,
                      smallest_period, violates)
from palfree import repetition, runs
from palfree.repetition import (ExponentBound, IncrementalFreeChecker,
                                critical_exponent, is_free)
from palfree.structure import named_stream

F = Fraction


def test_exponent_of_examples():
    assert exponent_of("01201") == (F(5, 3), "012")
    assert exponent_of("0101") == (F(2), "01")
    assert exponent_of("0110") == (F(4, 3), "011")


def test_critical_exponent_examples():
    assert critical_exponent("010") == F(3, 2)
    assert critical_exponent("000") == F(3)


def test_critical_exponent_monotone_under_factors():
    w = "01100101100110"
    e = critical_exponent(w)
    for i in range(len(w)):
        for j in range(i + 2, len(w) + 1):
            assert critical_exponent(w[i:j]) <= e


@given(st.text(alphabet="012", min_size=1, max_size=14))
def test_critical_exponent_against_oracle(w):
    assert critical_exponent(w) == brute_critical_exponent(w)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["0", "01", "012"]).flatmap(
    lambda a: st.text(alphabet=a, min_size=1, max_size=FACTOR_ORACLE_MAX)))
@example("0")
@example("01" * 30)
@example("".join(str(bin(i).count("1") % 2) for i in range(60)))  # Thue-Morse
def test_critical_exponent_oracles_agree(w):
    """The maximal-stretch oracle equals the factor-by-factor one on words
    of 1-60 letters over one, two and three letters."""
    assert brute_critical_exponent(w) == factor_critical_exponent(w)


def test_integer_powers():
    for u in ("01", "001", "0121"):
        for k in (1, 2, 3):
            e, per = exponent_of(u * k)
            assert e == k and per == u


def test_runs_match_exact_scan_exhaustive():
    for n in range(1, 13):
        for tup in product("01", repeat=n):
            s = "".join(tup)
            ln, p, st_ = runs.max_stretch_ratio(s)
            exact = brute_critical_exponent(s)
            got = F(ln, p)
            assert got <= exact
            if exact >= 2:
                assert got == exact, s
            assert s[st_:st_ + ln] == s[st_:st_ + ln]  # in range


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="01", min_size=80, max_size=250))
def test_runs_on_longer_random_words(w):
    ln, p, _ = runs.max_stretch_ratio(w)
    assert F(ln, p) == brute_critical_exponent(w)  # long random binary words have squares


def _flip(w, i):
    i %= len(w)
    return w[:i] + ("1" if w[i] == "0" else "0") + w[i + 1:]


# random words over 1-3 letters, and the periodic words that put the most
# candidates into each band of the run scan
run_scan_words = st.one_of(
    st.sampled_from(["0", "01", "012"]).flatmap(
        lambda a: st.text(alphabet=a, max_size=200)),
    st.integers(0, 150).map(lambda n: "0" * n),
    st.integers(0, 75).map(lambda n: "01" * n),
    st.tuples(st.integers(1, 60), st.integers(0, 179)).map(
        lambda t: _flip("001" * t[0], t[1])),
    # squares side by side: many runs of equal ratio, for the tie-breaks
    st.lists(st.sampled_from(["00", "11", "0101", "1010", "2", "22", "012012"]),
             max_size=30).map("".join),
)
bound_specs = st.sampled_from(["2", "2+", "7/3", "5/2+", "28/11+", "13/5", "3",
                               "10/3+"])


def _square(p):
    return 2 * p


@settings(max_examples=400, deadline=None)
@given(run_scan_words, bound_specs)
def test_iter_runs_match_maximal_stretch_oracle(w, spec):
    """The banded scan emits exactly the maximal stretches of length at
    least twice their period, once each, and max_stretch_ratio picks the
    highest ratio, then the leftmost start, then the shortest period."""
    expected = sorted(r for r in maximal_stretches(w) if r[0] >= 2 * r[1])
    got = list(runs.iter_runs(w, _square))
    assert sorted(got) == expected and len(set(got)) == len(got), w
    b = ExponentBound.parse(spec)
    assert sorted(runs.violations(w, b.min_violating_length)) == [
        r for r in expected if violates(b, F(r[0], r[1]))]
    if expected:
        best = max(expected, key=lambda r: (F(r[0], r[1]), -r[2], -r[1]))
        assert runs.max_stretch_ratio(w) == best, w
    else:
        assert runs.max_stretch_ratio(w) == (1, 1, 0)


@settings(max_examples=150, deadline=None)
@given(run_scan_words, st.sampled_from(["6/5+", "3/2", "5/3+", "7/4", "9/5+"]))
def test_iter_runs_below_two_match_maximal_stretch_oracle(w, spec):
    """The block length follows need(p) - p, so a bound below 2 gets short
    blocks, and the scan still yields every stretch that violates it, once
    each."""
    b = ExponentBound.parse(spec)
    got = list(runs.iter_runs(w, b.min_violating_length))
    assert sorted(got) == sorted(
        r for r in maximal_stretches(w) if violates(b, F(r[0], r[1]))), w


@st.composite
def crossover_words(draw):
    """Words over 1-3 letters made of one or two periodic pieces of period
    runs._MASKED - 1, runs._MASKED or runs._MASKED + 1, each up to three
    periods long, with up to two letters changed."""
    alphabet = draw(st.sampled_from(["0", "01", "012"]))
    w = ""
    for _ in range(draw(st.integers(1, 2))):
        p = runs._MASKED + draw(st.integers(-1, 1))
        u = draw(st.text(alphabet=alphabet, min_size=p, max_size=p))
        w += (u * 3)[:draw(st.integers(p, 3 * p))]
    for i in draw(st.lists(st.integers(0, len(w) - 1), max_size=2)):
        w = w[:i] + draw(st.sampled_from(alphabet)) + w[i + 1:]
    return w


@settings(max_examples=100, deadline=None)
@given(crossover_words(), st.sampled_from([None, "6/5+", "3/2", "5/2+", "28/11+"]))
def test_iter_runs_across_the_mask_crossover(w, spec):
    """Periods below runs._MASKED are scanned by match masks and the rest by
    banded blocks: around the crossover the scan still yields every stretch
    of the bound once, and max_stretch_ratio's rising need still finds the
    best ratio."""
    oracle = maximal_stretches(w)
    squares = [r for r in oracle if r[0] >= 2 * r[1]]
    if spec is None:
        need, expected = _square, squares
    else:
        b = ExponentBound.parse(spec)
        need = b.min_violating_length
        expected = [r for r in oracle if violates(b, F(r[0], r[1]))]
    got = list(runs.iter_runs(w, need))
    assert sorted(got) == sorted(expected) and len(set(got)) == len(got), w
    best = (max(squares, key=lambda r: (F(r[0], r[1]), -r[2], -r[1])) if squares
            else (1, 1, 0))
    assert runs.max_stretch_ratio(w) == best, w


_WIDE = "".join(map(chr, range(0x100, 0x100 + 257)))


@pytest.mark.parametrize("w", [
    "αβ" * 3, "aα" * 3 + "b", "αβγ" * 2 + "α", "\xff\u0100" * 4,
    "0" + "\x00" * 5 + "1", _WIDE[:40] * 2 + _WIDE + "ab" * 3,
    _WIDE[:70] * 2 + _WIDE[:5] + "\u4e00" * 3, "\xff0\xff" * 3 + "\x00",
])
def test_runs_scan_letters_past_one_byte(w):
    """Latin-1 letters, NUL and U+00FF included, get the oracle's answer;
    a letter past U+00FF is refused before scanning by the runs scan and
    by what calls it, critical_exponent and is_free, which refuses it below
    2 as well."""
    if max(w) > "\xff":
        with pytest.raises(ValueError):
            next(runs.iter_runs(w, _square))
        for spec in ("2", "5/2+", "3", "6/5+"):
            with pytest.raises(ValueError):
                is_free(w, ExponentBound.parse(spec))
        with pytest.raises(ValueError):
            critical_exponent(w)
        return
    expected = sorted(r for r in maximal_stretches(w) if r[0] >= 2 * r[1])
    assert sorted(runs.iter_runs(w, _square)) == expected
    for spec in ("2", "5/2+", "3", "6/5+"):
        b = ExponentBound.parse(spec)
        assert is_free(w, b) == _first_violation_scan(w, b), (w, spec)
    stretches = maximal_stretches(w) or [(1, 1, 0)]
    ln, p, st_ = max(stretches, key=lambda r: (F(r[0], r[1]), -r[2], -r[1]))
    assert critical_exponent(w, with_witness=True) == (F(ln, p), w[st_:st_ + ln])
    assert critical_exponent(w) == brute_critical_exponent(w)


@pytest.mark.parametrize("need", [lambda p: p, lambda p: 1], ids=["p", "one"])
def test_iter_runs_refuses_need_not_above_the_period(need):
    """need(1) <= 1 is refused before any stretch is yielded: need(p) = p
    would make a match mask search for an empty run of matching letters."""
    with pytest.raises(ValueError, match="need"):
        next(runs.iter_runs("0101010011", need))


@pytest.mark.parametrize("kind", ["nu_p", "mu_p"])
def test_violations_on_long_prefixes_match_filtered_square_scan(kind):
    """On 5*10^4 letters of the paper's words, the scan sized by the bound
    finds what the square scan filtered afterwards finds."""
    w = named_stream(kind).prefix(50000)
    squares = list(runs.iter_runs(w, _square))
    for spec in ("5/2", "5/2+", "28/11+"):
        need = ExponentBound.parse(spec).min_violating_length
        assert sorted(runs.violations(w, need)) == sorted(
            r for r in squares if r[0] >= need(r[1])), spec


@settings(max_examples=150, deadline=None)
@given(run_scan_words, bound_specs)
def test_is_free_run_scan_matches_per_position_scan(w, spec):
    """is_free goes through runs.violations."""
    b = ExponentBound.parse(spec)
    assert is_free(w, b) == _first_violation_scan(w, b), w


def _thue_word(n):
    """Prefix of the square-free ternary fixed point of 0->012, 1->02, 2->1."""
    w = "0"
    while len(w) < n:
        w = "".join({"0": "012", "1": "02", "2": "1"}[c] for c in w)
    return w[:n]


THUE = _thue_word(400)
thue_factors = st.tuples(st.integers(0, 399), st.integers(1, 80)).map(
    lambda t: THUE[t[0]:t[0] + t[1]])


def _flip_ternary(w, i, k):
    i %= len(w)
    return w[:i] + str((int(w[i]) + k) % 3) + w[i + 1:]


# random words over 2-4 letters, square-free ternary words, and square-free
# words with one letter flipped, which hold a few short repetitions
low_bound_words = st.one_of(
    st.sampled_from(["01", "012", "0123"]).flatmap(
        lambda a: st.text(alphabet=a, max_size=80)),
    thue_factors,
    st.tuples(thue_factors, st.integers(0, 79), st.integers(1, 2)).map(
        lambda t: _flip_ternary(*t)),
)


@settings(max_examples=400, deadline=None)
@given(low_bound_words, st.sampled_from(["6/5+", "7/5+", "3/2", "3/2+", "5/3+",
                                         "7/4", "7/4+", "9/5"]))
def test_is_free_below_two_matches_per_position_scan(w, spec):
    """Bounds below 2 are out of reach of the runs scan: is_free feeds the
    word to the incremental checker and picks the period at its first
    refused letter."""
    b = ExponentBound.parse(spec)
    assert is_free(w, b) == _first_violation_scan(w, b), w


@settings(max_examples=300, deadline=None)
@given(st.one_of(run_scan_words.filter(bool), thue_factors))
@example("01101122")  # 11, 011011 and 22 have exponent 2: 011011 starts first
@example("012101")  # square-free: 012101 (period 4) starts before 121
@example(THUE)
def test_critical_exponent_witness_tie_break(w):
    """The witness is the stretch of highest ratio, then leftmost start,
    then shortest period, on both sides of exponent 2."""
    stretches = maximal_stretches(w) or [(1, 1, 0)]
    ln, p, st_ = max(stretches, key=lambda r: (F(r[0], r[1]), -r[2], -r[1]))
    assert critical_exponent(w, with_witness=True) == (F(ln, p), w[st_:st_ + ln]), w


LONG_THUE = _thue_word(1400)


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(0, 400), st.integers(200, 1000)).map(
           lambda t: LONG_THUE[t[0]:t[0] + t[1]]),
       st.none() | st.tuples(st.integers(0, 999), st.integers(1, 2)))
# 63/32 twice: the longer period 64 starts first, then it starts second
@example(LONG_THUE[321:521], None)
@example(LONG_THUE[246:446], None)
def test_critical_exponent_on_long_square_free_words(w, flip):
    """Square-free words take the second pass of runs.critical_stretch, the
    rescan of every stretch longer than its period: on Thue factors of
    200-1000 letters, some with one letter changed, the exponent and the
    witness are the oracle's, and on their first 120 letters the exponent
    is the definitional one."""
    if flip is not None:
        w = _flip_ternary(w, *flip)
    ln, p, st_ = max(maximal_stretches(w), key=lambda r: (F(r[0], r[1]), -r[2], -r[1]))
    assert critical_exponent(w, with_witness=True) == (F(ln, p), w[st_:st_ + ln]), (w, flip)
    assert critical_exponent(w[:120]) == brute_critical_exponent(w[:120]), (w, flip)


def test_thue_word_is_square_free():
    assert all(ln < 2 * p for ln, p, _ in maximal_stretches(THUE))


def test_is_free_examples():
    assert is_free("010010", ExponentBound.parse("7/3+")) is None
    v = is_free("000", ExponentBound.parse("5/2+"))
    assert v is not None
    assert (v.factor, v.period_word, v.exponent) == ("000", "0", F(3))


def test_is_free_tiebreak_leftmost_then_shortest():
    # 0011011011: the square 00 ends first even though later violations exist
    b = ExponentBound(F(2), strict=False)
    v = is_free("0011011011", b)
    assert v.factor == "00"
    # equal end positions: shortest wins
    v2 = is_free("0110110", ExponentBound.parse("3/2"))
    assert v2 is not None
    assert v2.factor == "11"


def test_bound_semantics():
    sq = "0101"
    assert is_free(sq, ExponentBound(F(2), strict=True)) is None
    assert is_free(sq, ExponentBound(F(2), strict=False)) is not None


def test_bound_parse_and_str():
    b = ExponentBound.parse("28/11+")
    assert b.threshold == F(28, 11) and b.strict
    assert str(b) == "28/11+"
    # the cached numerator and denominator stay out of ==, hash and repr
    same = ExponentBound(F(28, 11))
    assert b == same and hash(b) == hash(same) and b != ExponentBound(F(28, 11), False)
    assert repr(b) == "ExponentBound(threshold=Fraction(28, 11), strict=True)"
    b2 = ExponentBound.parse("3")
    assert not b2.strict
    with pytest.raises(ValueError):
        ExponentBound(F(1))


def test_min_violating_length():
    b = ExponentBound.parse("5/2+")
    assert b.min_violating_length(2) == 6  # exponent 3 > 5/2
    assert b.min_violating_length(4) == 11
    nb = ExponentBound.parse("5/2")
    assert nb.min_violating_length(2) == 5


def test_freeness_implications():
    # beta-free implies beta+-free; beta+-free implies beta'+-free for beta' >= beta
    words = ["0110010", "01101001", "0010110011"]
    for w in words:
        for num, den in ((2, 1), (7, 3), (5, 2)):
            nonstrict = is_free(w, ExponentBound(F(num, den), False)) is None
            strict = is_free(w, ExponentBound(F(num, den), True)) is None
            if nonstrict:
                assert strict
            if strict:
                assert is_free(w, ExponentBound(F(num + 1, den), True)) is None


def _incremental_tree_agrees(bound, maxlen, alphabet="01"):
    """DFS over all words: accepted prefixes must be free, pruned extensions
    must violate the bound (checked with is_free)."""
    chk = IncrementalFreeChecker(bound)

    def rec(w):
        for c in alphabet:
            ok = chk.push(c)
            whole = is_free(w + c, bound) is None
            assert ok == whole, (w + c, ok, whole)
            if ok and len(w) + 1 < maxlen:
                rec(w + c)
            chk.pop()

    rec("")


def test_incremental_checker_agreement_exhaustive():
    for spec in ("7/3+", "2", "5/2+", "3", "13/5", "28/11+"):
        _incremental_tree_agrees(ExponentBound.parse(spec), 13)


def _accepts(chk, w):
    """Feed a whole word through push/pop; True iff every push passed."""
    ok = True
    n = 0
    for c in w:
        n += 1
        if not chk.push(c):
            ok = False
            break
    for _ in range(n):
        chk.pop()
    return ok


@settings(max_examples=40)
@given(st.text(alphabet="01", min_size=1, max_size=60),
       st.sampled_from(["7/3+", "2", "5/2+", "3", "28/11"]))
def test_incremental_accepts_iff_free(w, spec):
    b = ExponentBound.parse(spec)
    assert _accepts(IncrementalFreeChecker(b), w) == (is_free(w, b) is None)


def test_incremental_checker_band_table_stays_logarithmic():
    """2^14 letters of the Thue-Morse word, which is cube-free, are all
    accepted under the bound 3, and the checker's band table never holds
    more than ceil(log_4 n) + 1 rows."""
    chk = IncrementalFreeChecker(ExponentBound.parse("3"))
    rows = 1
    for n in range(1, (1 << 14) + 1):
        assert chk.push(str(bin(n - 1).count("1") % 2)), n
        if 4 ** (rows - 1) < n:
            rows += 1  # rows = ceil(log_4 n) + 1
        assert len(chk._bands) <= rows, n


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["7/3+", "2", "5/2+", "3", "13/5", "28/11+", "10/3+",
                        "3+", "7/4", "3/2+"]),
       st.sampled_from(["01", "012", "0123"]),
       st.booleans(),
       st.lists(st.integers(-1, 3), max_size=400))
def test_incremental_checker_matches_per_period_oracle(spec, alphabet,
                                                        undo_rejected, ops):
    """Random push/pop walks: -1 pops (when the word is non-empty), other
    values push a letter.  With undo_rejected a refused letter is popped at
    once, as the DFS callers do, so the words stay free and grow long;
    without it pushes also land on words that already repeat too much."""
    b = ExponentBound.parse(spec)
    fast, oracle = IncrementalFreeChecker(b), PerPeriodFreeChecker(b)
    for op in ops:
        if op < 0:
            if oracle.word():
                fast.pop()
                oracle.pop()
        else:
            c = alphabet[op % len(alphabet)]
            ok = fast.push(c)
            assert ok == oracle.push(c), (oracle.word(), spec)
            if undo_rejected and not ok:
                fast.pop()
                oracle.pop()
        assert fast.w == oracle.word()


@pytest.mark.parametrize("cap", [0, 3, repetition._SHORT_CAP])
@pytest.mark.parametrize("spec", ["7/3+", "2", "5/2+", "3", "28/11+", "10/3+",
                                  "7/4", "3/2+"])
def test_incremental_checker_verdict_table_matches_oracle(spec, cap, monkeypatch):
    """The verdict table for the periods below _SHORT, switched off (cap 0),
    full after three words (cap 3) or at its shipped size: random push/pop
    walks over one to four letters, some popping each refused letter and
    some pushing on past it, agree with the per-period oracle on every push,
    on words shorter than, as long as and longer than the table's key span
    L, and the table never holds more than cap verdicts."""
    monkeypatch.setattr(repetition, "_SHORT_CAP", cap)
    b = ExponentBound.parse(spec)
    span = b.min_violating_length(repetition._SHORT - 1)
    rng = random.Random(f"{spec} {cap}")
    lengths = set()
    for alphabet in ("0", "01", "012", "0123"):
        for undo_rejected in (True, False):
            fast, oracle = IncrementalFreeChecker(b), PerPeriodFreeChecker(b)
            for _ in range(1500):
                n = len(oracle.w)
                if n and (n > 3 * span or rng.random() < 0.35):
                    fast.pop()
                    oracle.pop()
                    continue
                c = rng.choice(alphabet)
                ok = fast.push(c)
                assert ok == oracle.push(c), (oracle.word(), spec, cap)
                assert len(fast._short) <= cap
                lengths.add(fast.n)
                if undo_rejected and not ok:
                    fast.pop()
                    oracle.pop()
            assert fast.w == oracle.word()
            if cap < 100 and len(alphabet) > 1:
                assert len(fast._short) == cap
    assert min(lengths) < span and span in lengths and max(lengths) > span


def _refused(chk, x, start):
    """The indices i >= start of the letters that chk, holding x[:start],
    refuses when x[start:] is pushed letter by letter; chk is then popped
    back to x[:start]."""
    bad = {i for i in range(start, len(x)) if not chk.push(x[i])}
    for _ in range(start, len(x)):
        chk.pop()
    return bad


def _continuations(w, need):
    """w continued at a period, until the period alone must violate the
    bound, for each period below len(w) among: 7 and 8, where the checker's
    verdict table hands over to its bands; 8 * 4^k - 1 and 8 * 4^k, the
    ends of the bands [P, 4P) from P = 8 up; and 4^k - 1 and 4^k, the band
    ends of a layout whose bands start at 1."""
    periods = {7, 8}
    for k in range(7):
        periods.update((8 * 4 ** k - 1, 8 * 4 ** k, 4 ** k - 1, 4 ** k))
    return [w + (w[-p:] * (need(p) // p + 1))[:need(p) - p]
            for p in sorted(periods) if 0 < p < len(w)]


def _violation_ends(x, bound, start=0):
    """The indices i >= start of the letters of x at which some violation
    ends, from the runs scan that is_free takes for bounds >= 2."""
    need = bound.min_violating_length
    return {i for ln, p, st in runs.violations(x, need)
            for i in range(max(st + need(p) - 1, start), st + ln)}


@pytest.mark.parametrize("spec", ["5/2", "5/2+", "28/11", "28/11+"])
@pytest.mark.parametrize("kind", ["nu_p", "mu_p"])
def test_incremental_checker_on_long_words_fills_the_widest_bands(kind, spec):
    """accepts against is_free letter by letter: on 5*10^3 letters of the
    paper's words, on the same prefix with one letter flipped near the end,
    and continued at periods up to 4096, which fill the widest bands, the
    checker refuses exactly the letters at which the runs scan ends a
    violation.  Pushes go on past a refusal."""
    b = ExponentBound.parse(spec)
    w = named_stream(kind).prefix(5000)
    n = len(w)
    cut = n - 40
    chk = IncrementalFreeChecker(b)
    bad = {i for i in range(cut) if not chk.push(w[i])}
    assert bad | _refused(chk, w, cut) == _violation_ends(w, b)
    for i in (n - 2, n - 40):
        x = w[:i] + "10"[int(w[i])] + w[i + 1:]
        assert _refused(chk, x, cut) == _violation_ends(x, b, cut), i
    for c in w[cut:]:
        chk.push(c)
    for x in _continuations(w, b.min_violating_length):
        assert _refused(chk, x, n) == _violation_ends(x, b, n), len(x)


@pytest.mark.parametrize("spec", ["7/4", "3/2+"])
def test_incremental_checker_on_long_square_free_words(spec):
    """Below 2 is_free runs the checker itself, so the oracle is the
    per-period checker: every push agrees on 10^3 letters of the Thue word
    and on its continuations at periods up to 512."""
    b = ExponentBound.parse(spec)
    fast, oracle = IncrementalFreeChecker(b), PerPeriodFreeChecker(b)
    w = _thue_word(1000)
    for c in w:
        assert fast.push(c) == oracle.push(c), (len(oracle.w), spec)
    for x in _continuations(w, b.min_violating_length):
        for c in x[len(w):]:
            assert fast.push(c) == oracle.push(c), (len(oracle.w), spec)
        for _ in x[len(w):]:
            fast.pop()
            oracle.pop()


@given(st.text(alphabet="0123", min_size=1, max_size=60))
def test_smallest_period_definition(w):
    p = smallest_period(w)
    assert 1 <= p <= len(w)
    assert all(w[i] == w[i + p] for i in range(len(w) - p))
    for q in range(1, p):
        assert any(w[i] != w[i + q] for i in range(len(w) - q))


THUE_MORSE = "".join(str(bin(i).count("1") % 2) for i in range(2048))


def _narrow_violation(x, lengths, start, stop):
    """True when a violation ends at one of the letters x[start:stop] at a
    period p below len(lengths), lengths[p] = min_violating_length(p)."""
    return any(x[e - k:e - p] == x[e - k + p:e]
               for e in range(start + 1, stop + 1)
               for p, k in enumerate(lengths) if 0 < p and k <= e)


@pytest.mark.parametrize("spec", ["7/3+", "5/2+", "3+"])
def test_push_block_matches_letter_pushes_in_the_wide_bands(spec):
    """push_block against all(push(c) for c in block) on words free before
    the block.  Each word is a factor of the Thue-Morse word, which is
    overlap-free and so free under all three bounds, continued letter by
    letter at a period p, 128 <= p < 290, until the checker refuses a
    letter; 128 starts a band.  Blocks of q = 1, 2, 3, 5 and 8 letters
    are pushed at every offset that ends just before the refused letter or
    holds it.  Some refusals have no violation at a period that push_block
    tests per letter, so only its once-per-block step finds them."""
    b = ExponentBound.parse(spec)
    rng = random.Random(spec)
    chk = IncrementalFreeChecker(b)
    refusals = wide_only = 0
    for p in range(128, 290, 2):
        a = rng.randrange(1024)
        x = THUE_MORSE[a:a + rng.randrange(p, 2 * p)]
        assert all(map(chk.push, x))
        while chk.push(x[-p]):
            x += x[-p]
        r = len(x)  # the refused letter is x[r]
        x += x[-p]
        for _ in range(8):
            x += x[-p]
        for _ in range(16):
            chk.pop()
        for q in (1, 2, 3, 5, 8):
            # the periods below the first band that push_block tests once
            # per block
            below = next(P for _reach, m, P, _back in chk._bands
                         if m >= q + repetition._WIDE)
            lengths = [b.min_violating_length(p) for p in range(below)]
            assert all(map(chk.push, x[r - 15:r - 2 * q + 1]))
            for start in range(r - 2 * q + 1, r + 1):
                block = x[start:start + q]
                got = chk.push_block(block)
                for _ in block:
                    chk.pop()
                pushed, want = 0, True
                for c in block:
                    pushed += 1
                    if not chk.push(c):
                        want = False
                        break
                for _ in range(pushed):
                    chk.pop()
                assert got == want, (spec, p, q, start - r)
                assert want == (start + q <= r)
                if not want:
                    refusals += 1
                    wide_only += not _narrow_violation(x, lengths, start, start + q)
                assert chk.push(x[start]) or start == r
            for _ in range(r - 15, r + 1):
                chk.pop()
        for _ in range(r - 15):
            chk.pop()
        assert chk.n == 0
    assert refusals == 81 * 19 and wide_only > 0


def _block_span(b, q):
    """The letters that decide push_block's verdict on the periods below
    Pw, the first band [P, 4P), P = 8, 32, ..., whose m = need[P] is at
    least q + _WIDE: the longest such violation, at period Pw - 1, ending
    at the block's first letter.  Returns (Pw, span)."""
    length = b.min_violating_length
    P = 8
    while length(P) - P < q + repetition._WIDE:
        P *= 4
    return P, length(P - 1) + q - 1


def _block_walk(b, blocks, rng, steps, undo_refused, tally):
    """A random walk of push_block and block pops over the given blocks,
    against the per-period oracle letter by letter: the verdict and the
    word agree after every step.  The walk stays within a few blocks past
    the longest span.  tally counts the pushes at or past span, the table
    hits and the refused hits."""
    fast, oracle = IncrementalFreeChecker(b), PerPeriodFreeChecker(b)
    top = max(_block_span(b, len(x))[1] + 3 * len(x) for x in blocks)
    pushed = []
    for _ in range(steps):
        n = len(oracle.w)
        if pushed and (n > top or rng.random() < 0.3):
            for _ in range(pushed.pop()):
                fast.pop()
                oracle.pop()
            assert fast.n == len(oracle.w)
            continue
        block = rng.choice(blocks)
        q = len(block)
        span, table = fast._blocks.get(q, (0, {}))
        hit = 0 < span <= n + q and (fast.w + block)[-span:] in table
        ok = fast.push_block(block)
        assert ok == all([oracle.push(c) for c in block]), (oracle.word(), block)
        assert fast.w == oracle.word()
        tally["past span"] += n + q >= _block_span(b, q)[1]
        tally["hits"] += hit
        tally["refused hits"] += hit and not ok
        if ok or not undo_refused:
            pushed.append(q)
        else:
            for _ in block:
                fast.pop()
                oracle.pop()
    assert all(len(t) <= repetition._SHORT_CAP for _span, t in fast._blocks.values())
    return fast


def _uniform_images(rng, q, square_free):
    """The letter images of a random q-uniform morphism on two or three
    letters: random q-letter factors of the square-free Thue word, whose
    walks run long without a refusal, or else random words over the
    morphism's own letters."""
    k = rng.choice((2, 3))
    if square_free:
        return [THUE[a:a + q] for a in rng.sample(range(len(THUE) - q), k)]
    return ["".join(rng.choice("012"[:k]) for _ in range(q)) for _ in range(k)]


@pytest.mark.parametrize("cap", [0, 3, repetition._SHORT_CAP])
@pytest.mark.parametrize("spec", ["7/3+", "5/2+", "3+", "2", "10/3+"])
def test_push_block_verdict_table_matches_oracle(spec, cap, monkeypatch):
    """push_block's verdict table against the per-period oracle, switched
    off (cap 0), full after three blocks (cap 3) or at its shipped size:
    random walks over the images of random q-uniform morphisms, q = 1, 2,
    3, 5, 8 and 36, go past the key span; some pop each refused block and
    some push on past it.  With a table, hits and refused hits occur, and a
    table never holds more than cap verdicts."""
    monkeypatch.setattr(repetition, "_SHORT_CAP", cap)
    b = ExponentBound.parse(spec)
    rng = random.Random(f"{spec} {cap}")
    tally = {"past span": 0, "hits": 0, "refused hits": 0}
    for q in (1, 2, 3, 5, 8, 36):
        for undo_refused in (True, False):
            images = _uniform_images(rng, q, undo_refused)
            _block_walk(b, images, rng, 900 // q + 40, undo_refused, tally)
    assert tally["past span"] > 0
    if cap:
        assert tally["hits"] > 0 and tally["refused hits"] > 0, tally
    else:
        assert tally["hits"] == 0


@pytest.mark.parametrize("spec", ["7/3+", "5/2+", "3+", "2", "10/3+"])
def test_push_block_verdict_table_reads_its_whole_span(spec):
    """Two contexts that agree on their last span - 1 letters and differ
    at letter n - span, pushed on one checker in both orders, get their
    own verdicts.  In A the last L - 1 letters, L = min_violating_length(
    Pw - 1), and the block's first letter have period Pw - 1, with Pw - 1
    distinct letters per period, after a square-free prefix: a violation of
    least length, at the widest period the table answers, ends at the
    block's first letter and no other violation does.  B changes A's first
    letter of that stretch to a fresh letter.  The block's other letters
    are fresh as well."""
    b = ExponentBound.parse(spec)
    for q in (1, 2, 3, 5, 8, 36):
        Pw, span = _block_span(b, q)
        p, L = Pw - 1, b.min_violating_length(Pw - 1)
        period = "".join(map(chr, range(0x100, 0x100 + p)))
        stretch = (period * (L // p + 1))[:L]
        A = THUE[:20] + stretch[:-1]
        n = len(A) + q
        B = A[:n - span] + "3" + A[n - span + 1:]
        assert A[n - span:] == stretch[:-1] and B[n - span + 1:] == A[n - span + 1:]
        block = stretch[-1] + "".join(map(chr, range(0x1000, 0x1000 + q - 1)))
        for order in ((A, B), (B, A)):
            chk = IncrementalFreeChecker(b)
            for context in order:
                assert all(map(chk.push, context))
                assert chk.push_block(block) == (context is B), (spec, q, order[0] is A)
                for _ in context + block:
                    chk.pop()
            assert len(chk._blocks[q][1]) == 2


@pytest.mark.parametrize("lengths", [(1, 2), (3, 5), (8, 36), (36, 5)])
@pytest.mark.parametrize("spec", ["7/3+", "5/2+", "2"])
def test_push_block_keeps_a_table_per_block_length(spec, lengths):
    """One checker fed the images of two uniform morphisms of different
    lengths: every verdict is the oracle's, and each length has its own
    table."""
    b = ExponentBound.parse(spec)
    rng = random.Random(f"{spec} {lengths}")
    tally = {"past span": 0, "hits": 0, "refused hits": 0}
    for undo_refused in (True, False):
        images = [x for q in lengths for x in _uniform_images(rng, q, undo_refused)]
        fast = _block_walk(b, images, rng, 400, undo_refused, tally)
        assert sorted(fast._blocks) == sorted(lengths)
    assert tally["hits"] > 0
