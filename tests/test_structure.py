import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import closed_form, return_word_oracle, special_factor_oracle
from palfree.cubic import as_complex, solve_sequence
from palfree.morphisms import Morphism, load_morphism
from palfree.runs import iter_runs
from palfree.structure import (SHORT_BISPECIAL_RATIOS, TARGET_RATIO,
                               _bispecials_in, _complexity_in,
                               bispecial_enumerate, critical_exponent_via_bispecials,
                               early_member_ratios, exact_family_ratios,
                               expected_shortest_return_length,
                               extension_profile, factor_complexity,
                               family_bispecial, family_members,
                               family_ratio_analysis, MorphicStream,
                               length_sequence, named_stream,
                               palindromes, return_words,
                               structural_exponent, tail_bound,
                               asymptotic_exponent)
from palfree.words import factors, palindrome_set

F = Fraction


def test_named_stream_prefixes_grow_and_shrink():
    """One stream object serves short, long and shorter prefixes, each equal
    to the outer image of a freshly generated fixed-point prefix."""
    phi = load_morphism("phi")
    outers = {"p": None, "nu_p": load_morphism("nu"), "mu_p": load_morphism("mu")}
    for name, outer in outers.items():
        stream = named_stream(name)
        for n in (10, 5000, 300, 200000):
            # images are non-empty, so n letters of phi's fixed point suffice
            base = phi.fixed_point_prefix("0", n)
            want = base if outer is None else outer.apply(base)[:n]
            assert stream.prefix(n) == want, (name, n)


def test_morphic_stream_refuses_non_prolongable_seed():
    phi = load_morphism("phi")
    with pytest.raises(ValueError):
        MorphicStream("bad", phi, "1")  # phi(1) = 21 does not start with 1
    with pytest.raises(ValueError):
        MorphicStream("bad", phi, "2")  # phi(2) = 0
    with pytest.raises(ValueError):
        MorphicStream("bad", load_morphism("nu"), "0")  # not an endomorphism


COVER_LENGTHS = (1, 2, 3, 17, 20, 78, 202, 500)


@pytest.mark.parametrize("name,lengths", [("p", COVER_LENGTHS), ("nu_p", COVER_LENGTHS),
                                          ("mu_p", COVER_LENGTHS), ("001011", (1, 2, 7, 40))])
def test_cover_holds_every_factor(name, lengths):
    """cover(n) is a prefix of the word with the same length-n factors as a
    4e5-letter prefix."""
    stream = named_stream(name)
    text = stream.prefix(400000)
    for n in lengths:
        cover = stream.cover(n)
        assert text.startswith(cover), (name, n)
        assert factors(cover, n) == factors(text, n), (name, n)


def test_cover_is_the_iterate_the_argument_names():
    """The cover is outer(phi^(j+k)(0)) with j and k the least the argument
    allows.  One iterate fewer of k still holds every factor of these words
    (the bound is sufficient, not tight), so only the lengths catch it."""
    got = {(name, n): len(named_stream(name).cover(n))
           for name in ("p", "nu_p", "mu_p") for n in (1, 78, 202, 500)}
    assert got == {("p", 1): 7, ("p", 78): 1081, ("p", 202): 3329, ("p", 500): 5842,
                   ("nu_p", 1): 13, ("nu_p", 78): 2048, ("nu_p", 202): 6307,
                   ("nu_p", 500): 11068, ("mu_p", 1): 26, ("mu_p", 78): 4231,
                   ("mu_p", 202): 13030, ("mu_p", 500): 22866}


def test_cover_refuses_blocks_that_stop_growing():
    """Under 0 -> 01, 1 -> 1 the block of 1 keeps one letter forever, so the
    argument gives no cover of length 3: cover refuses rather than iterate
    forever.  Length 2 needs one-letter blocks only and is served."""
    stream = MorphicStream("x", Morphism(("01", "1")), "0")
    assert stream.cover(2) == "011"
    with pytest.raises(ValueError, match="stops growing at length 1"):
        stream.cover(3)


@pytest.fixture(scope="module")
def p_stream():
    return named_stream("p")


@pytest.fixture(scope="module")
def nu_stream():
    return named_stream("nu_p")


@pytest.fixture(scope="module")
def mu_stream():
    return named_stream("mu_p")


def test_extension_profile_empty_word(p_stream):
    prof = extension_profile("", p_stream)
    assert prof.b == 5 - 3 - 3 + 1 == 0
    assert prof.kind == "ordinary"


def test_extension_profile_letter_one(p_stream):
    prof = extension_profile("1", p_stream)
    assert prof.left == {"0", "2"}
    assert prof.right == {"0", "2"}
    assert len(prof.left) >= 2 and len(prof.right) >= 2  # bispecial


def test_extension_profile_family_A(p_stream):
    # the three biextension pairs alternate with the parity of n; the even
    # members carry {0w0, 0w2, 2w0}, the odd ones {0w2, 2w0, 2w2}; either
    # way the factor is ordinary
    for n, expected in ((0, {("0", "0"), ("0", "2"), ("2", "0")}),
                        (1, {("0", "2"), ("2", "0"), ("2", "2")}),
                        (2, {("0", "0"), ("0", "2"), ("2", "0")})):
        w = family_bispecial("p", "A", n)
        prof = extension_profile(w, p_stream)
        assert prof.bi == expected, (n, prof.bi)
        assert prof.left == {"0", "2"} and prof.right == {"0", "2"}
        assert prof.b == 0


def test_extension_profile_missing_word(p_stream):
    with pytest.raises(ValueError):
        extension_profile("20", p_stream)


def test_bispecials_of_p_all_ordinary_and_classified(p_stream):
    profiles = bispecial_enumerate(p_stream, 100)
    assert profiles, "no bispecial factors found"
    closed = {}
    for fam in "ABCD":
        for n in range(6):
            w = family_bispecial("p", fam, n)
            if len(w) <= 100:
                closed[w] = (fam, n)
    for prof in profiles:
        assert prof.kind == "ordinary"
        assert prof.word in closed, prof.word
    # and conversely every closed-form word shows up
    found = {p.word for p in profiles}
    assert set(closed) == found


def test_bispecials_of_nu_include_01_10(nu_stream):
    profiles = bispecial_enumerate(nu_stream, 10)
    words = {p.word for p in profiles}
    assert {"01", "10"} <= words


def test_return_words_examples(p_stream, nu_stream):
    assert return_words("1", p_stream).returns == {"12", "102", "10"}
    assert return_words("10", p_stream).returns == {"10", "102", "1012"}
    assert return_words("1001", nu_stream).shortest() == "100"


def test_return_words_match_long_prefix_gaps(p_word, nu_word, mu_word):
    """On every bispecial factor, the return words read off the cover equal
    the gaps between consecutive occurrences in a 2e5-letter prefix."""
    for kind, text, max_len in (("p", p_word, 200), ("nu_p", nu_word, 150),
                                ("mu_p", mu_word, 150)):
        stream = named_stream(kind)
        for prof in bispecial_enumerate(stream, max_len):
            assert return_words(prof.word, stream).returns == \
                return_word_oracle(text, prof.word), (kind, prof.word)


def test_return_words_of_a_non_factor():
    with pytest.raises(ValueError, match="not a factor"):
        return_words("20", named_stream("p"))


def test_return_word_invariant(p_stream):
    w = "210"
    rws = return_words(w, p_stream)
    for r in rws.returns:
        rw = r + w
        # r.w has w as a prefix and as a suffix and nowhere in between
        assert rw.startswith(w) and rw.endswith(w)
        assert [i for i in range(len(rw)) if rw[i:i + len(w)] == w] == \
               [0, len(r)]
    assert rws.returns == {"210", "21010", "2101"}
    assert rws.shortest() == "210"
    assert all(r.startswith("210") for r in rws.returns)


def test_every_sampled_factor_of_p_has_three_returns(p_stream):
    text = p_stream.prefix(4000)
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 50):
        for i in range(0, 300, 7):
            w = text[i:i + n]
            assert len(return_words(w, p_stream).returns) == 3, w


def test_factor_complexity_p(p_stream):
    comp = factor_complexity(p_stream, 120)
    assert comp[0] == 1
    assert all(comp[n] == 2 * n + 1 for n in range(1, 121))
    # direct cross-check on small lengths
    text = p_stream.prefix(60000)
    for n in (1, 2, 3, 10, 25, 40):
        assert len({text[i:i + n] for i in range(len(text) - n)}) == 2 * n + 1


def test_factor_complexity_periodic_word():
    comp = factor_complexity(named_stream("001011"), 12)
    assert comp[6:] == [6] * 7


def test_palindromes_of_the_named_words(p_word, nu_word, mu_word):
    """The exact palindrome sets equal those of a 2e5-letter prefix, with
    counts 10, 20 and 18 (empty word included) and these per-length
    profiles, lengths 1 upwards."""
    profiles = {"p": (p_word, 10, [3, 0, 3, 0, 2, 0, 1]),
                "nu_p": (nu_word, 20, [2, 2, 2, 2, 1, 2, 1, 2, 1, 1, 1, 0, 1, 0, 1]),
                "mu_p": (mu_word, 18, [2, 2, 2, 2, 1, 3, 1, 3, 1])}
    for name, (text, count, profile) in profiles.items():
        pals = palindromes(named_stream(name))
        assert pals == palindrome_set(text), name
        assert len(pals) == count == 1 + sum(profile), name
        assert [sum(len(w) == n for w in pals)
                for n in range(1, len(profile) + 1)] == profile, name


def test_palindromes_of_periodic_words():
    """For every periodic word over {0,1,2} with period L <= 6: None exactly
    when the palindromes of 80L + 80 letters outnumber those of 40L + 40,
    otherwise the set of the shorter prefix."""
    for L in range(1, 7):
        for letters in product("012", repeat=L):
            stream = named_stream("".join(letters))
            short = palindrome_set(stream.prefix(40 * L + 40))
            grows = palindrome_set(stream.prefix(80 * L + 80)) != short
            assert palindromes(stream) == (None if grows else short), stream.name
    assert palindromes(named_stream("01")) is None
    assert palindromes(named_stream("0")) is None
    assert len(palindromes(named_stream("001011"))) == 9


def _walk_texts():
    texts = {}
    for kind in ("p", "nu_p", "mu_p"):
        text = named_stream(kind).prefix(300)
        for n in (1, 2, 7, 60, 300):
            texts[f"{kind}[:{n}]"] = text[:n]
        texts[f"reversed {kind}[:200]"] = text[:200][::-1]
    texts["(001011)^k"] = ("001011" * 20)[:110]
    texts["(01)^k"] = "01" * 25
    texts["0^k"] = "0" * 30
    rng = random.Random(20)
    for k in range(24):
        alphabet = "01" if k % 2 else "012"
        texts[f"random {k}"] = "".join(rng.choice(alphabet)
                                       for _ in range(rng.randrange(1, 150)))
    # "1" is right special only by its occurrence at position 0 (right
    # letter 0); after it, every "1" has the left letter 2 and right letter 2
    texts["position 0"] = "10" + "21" * 30
    return texts


WALK_TEXTS = _walk_texts()


@pytest.mark.parametrize("name", sorted(WALK_TEXTS))
def test_special_factor_walk_matches_oracle(name):
    """The bispecial profiles and complexity counts read off the right-special
    walk equal the extension sets taken from the factor sets, for max_len 1,
    2, 5 and the whole text (past its longest special factor)."""
    text = WALK_TEXTS[name]
    bispecials, increments = special_factor_oracle(text, max(len(text), 5))
    for max_len in (1, 2, 5, len(text)):
        got = [(x.word, x.left, x.right, x.bi) for x in _bispecials_in(text, max_len)]
        assert got == [b for b in bispecials if len(b[0]) <= max_len], (name, max_len)
        counts = [1, len(set(text))]
        for inc in increments[:max_len - 1]:
            counts.append(counts[-1] + inc)
        assert _complexity_in(text, max_len) == counts, (name, max_len)


def test_family_words_match_seed_lengths():
    nu = load_morphism("nu")
    mu = load_morphism("mu")
    phi = load_morphism("phi")
    for kind, outer in (("p", None), ("nu_p", nu), ("mu_p", mu)):
        for base in ("012", "01"):
            w = base
            for n in range(8):
                image = w if outer is None else outer.apply(w)
                assert len(image) == length_sequence(kind, base, 8)[n], (kind, base, n)
                w = phi.apply(w)


def test_length_sequences_satisfy_recurrence():
    for kind in ("p", "nu_p", "mu_p"):
        for base in ("012", "01"):
            seq = length_sequence(kind, base, 20)
            for n in range(3, 21):
                assert seq[n] == 2 * seq[n - 1] - seq[n - 2] + seq[n - 3]


def test_exact_family_ratios_examples():
    # the two worked ratio values, exact
    assert exact_family_ratios("nu_p", "C", 2)[1] == F(19, 13)
    assert exact_family_ratios("mu_p", "B", 1)[0] == F(17, 11)
    assert exact_family_ratios("nu_p", "C", 1)[0] == F(3, 2)
    assert exact_family_ratios("mu_p", "D", 1)[0] == F(23, 15)


def test_exact_family_ratios_match_closed_forms():
    """Each exact ratio is |member| / shortest return length of the member
    it stands for, so the numerator constants agree with the closed forms."""
    for kind in ("nu_p", "mu_p"):
        for fam in "ABCD":
            first = 1 if fam == "A" else 0  # A's closed-form return starts at n = 1
            for j, ratio in enumerate(exact_family_ratios(kind, fam, 5)):
                n = j + first
                want = F(len(family_bispecial(kind, fam, n)),
                         expected_shortest_return_length(kind, fam, n))
                assert ratio == want, (kind, fam, n)


def test_family_ratio_analysis_bounded():
    for kind in ("nu_p", "mu_p"):
        for fam in "ABCDF":
            rep = family_ratio_analysis(kind, fam)
            assert rep.bounded_by_target, (kind, fam)
            assert rep.sup <= TARGET_RATIO[kind]
            if fam != "F":
                assert rep.tail.holds
                assert rep.tail.precision <= 1e-12


def test_family_F_values():
    assert family_ratio_analysis("nu_p", "F").sup == 1
    assert family_ratio_analysis("mu_p", "F").sup == F(3, 2)


def test_tail_bound_reports_interval_sides():
    tb = tail_bound("mu_p", "D")
    assert tb.holds and tb.n0 >= 1


def paper_display_checks() -> dict[str, bool]:
    """The eight literal tail displays from the source analysis, evaluated
    in interval arithmetic (historical record; structure.tail_bound
    is what the verdicts rest on).  One display (mu families, D) is known
    not to hold numerically even though its family is bounded."""
    c1, c2, c3, c4 = (solve_sequence(tuple(length_sequence(kind, base, 2)),
                                     Fraction(1, 10 ** 13))
                      for kind in ("nu_p", "mu_p") for base in ("012", "01"))
    beta = c1.beta
    b2 = beta * beta
    lam = c1.lam()
    la = lam.abs()
    lam2 = lam * lam
    one_m_l2 = as_complex(1) - lam2
    a1ml2 = one_m_l2.abs()
    A1, B1 = c1.A, c1.B.abs()
    A2, B2c = c2.A, c2.B
    B2 = B2c.abs()
    A3, B3 = c3.A, c3.B.abs()
    A4, B4c = c4.A, c4.B
    B4 = B4c.abs()
    la2 = la * la
    la4 = la2 * la2
    checks = {
        "nu-pre": (2 / (b2 - 1)).certainly_leq(1),
        "nu-A": (8 + 8 * B1 * la / a1ml2).certainly_leq(
            2 * A1 * beta / (b2 - 1) - 2 * B1 * la),
        "nu-B": (2 + 8 * B1 / a1ml2).certainly_leq(
            2 * A1 / (b2 - 1) - 2 * B1),
        "nu-C": (4 + 4 * (B2c / one_m_l2).re + 4 * B2 * la4 / a1ml2).certainly_leq(
            2 * A2 / (b2 - 1) - 2 * B2 * la4),
        "nu-D": (4 + 8 * B2 * la / a1ml2).certainly_leq(
            2 * A2 * beta / (b2 - 1) - 2 * B2 * la),
        "mu-pre": (11 / (b2 - 1)).certainly_leq(6),
        "mu-A": (66 + 44 * B3 * la / a1ml2).certainly_leq(
            11 * A3 * beta / (b2 - 1) - 12 * B3 * la),
        "mu-B": (66 + 22 * B3 * (1 + la2) / a1ml2).certainly_leq(
            11 * A3 / (b2 - 1) + A3 * b2 * (6 - 11 / (b2 - 1)) - 12 * B3 * la2),
        "mu-C": (22 * B4 * (1 + la2) / a1ml2).certainly_leq(
            11 * A4 / (b2 - 1) + A4 * b2 * (6 - 11 / (b2 - 1)) - 12 * B4 * la2),
        "mu-D": (88 + 22 * (B4c * lam / one_m_l2).re + 22 * B4 * la / a1ml2).certainly_leq(
            11 * A4 * beta / (b2 - 1) - 12 * B4 * la),
    }
    return checks


def test_paper_display_checks():
    checks = paper_display_checks()
    failing = sorted(k for k, ok in checks.items() if not ok)
    # one display is numerically false; everything else verifies
    assert failing == ["mu-D"]


def test_structural_exponents():
    nu = structural_exponent("nu_p")
    assert nu.exponent == F(5, 2)
    assert nu.witness_ratio == F(3, 2)
    assert nu.witness_word == "100110"
    mu = structural_exponent("mu_p")
    assert mu.exponent == F(28, 11)
    assert mu.witness_ratio == F(17, 11)
    assert mu.witness_word == "01100101001011001"


def test_bispecial_exponent_rejects_periodic():
    with pytest.raises(ValueError):
        critical_exponent_via_bispecials(named_stream("001011"), 500)


def test_bispecial_exponent_rejects_eventually_periodic():
    # 0 -> 01, 1 -> 11 fixes 0 1^w: a morphic stream with two 16-letter factors
    stream = MorphicStream("01^w", Morphism(("01", "11")), "0")
    with pytest.raises(ValueError, match="eventually periodic"):
        critical_exponent_via_bispecials(stream, 500)


def test_return_words_reject_a_stream_that_is_not_uniformly_recurrent():
    # 0 occurs once in 0 1^w: the gap after it is unbounded, so the doubling
    # of the window would never end
    stream = MorphicStream("01^w", Morphism(("01", "11")), "0")
    assert not stream.primitive()
    with pytest.raises(ValueError, match="not primitive"):
        return_words("0", stream)
    assert all(named_stream(k).primitive() for k in ("p", "nu_p", "mu_p"))
    assert MorphicStream("t", Morphism(("01", "10")), "0").primitive()


def test_enumerated_bispecials_match_family_forms(nu_stream, mu_stream):
    for kind, stream, extras in (
            ("nu_p", nu_stream, {"0", "1", "01", "10"}),
            ("mu_p", mu_stream, {"0", "1", "01", "10", "010", "1001",
                                 "011001", "01100101"})):
        closed = set()
        for fam in "ABCD":
            for n in range(6):
                try:
                    w = family_bispecial(kind, fam, n)
                except ValueError:
                    continue
                if len(w) <= 150:
                    closed.add(w)
        profiles = bispecial_enumerate(stream, 150)
        enumerated = {p.word for p in profiles}
        assert enumerated == closed | {w for w in extras}, kind


def test_shortest_return_lengths_match_parikh_forms(p_stream, nu_stream, mu_stream):
    """Every member from n = 0 on, family A's member 0 (return power -1)
    included."""
    streams = {"p": p_stream, "nu_p": nu_stream, "mu_p": mu_stream}
    for kind in ("p", "nu_p", "mu_p"):
        for fam in "ABCD":
            for n in range(4):
                w = family_bispecial(kind, fam, n)
                if len(w) > 250:
                    continue
                got = len(return_words(w, streams[kind]).shortest())
                assert got == expected_shortest_return_length(kind, fam, n), \
                    (kind, fam, n)


def test_family_A_member_0_is_a_ratio_candidate(nu_stream, mu_stream):
    """A's member 0 comes before ratio 0; its candidate is |w| / |shortest
    return| as return_words measures it.  No other family has such a member."""
    for kind, stream, want in (("nu_p", nu_stream, ("1001", F(4, 3))),
                               ("mu_p", mu_stream, ("100101", F(6, 5)))):
        assert early_member_ratios(kind, "A") == [want]
        w, ratio = want
        assert ratio == F(len(w), len(return_words(w, stream).shortest()))
        assert all(early_member_ratios(kind, fam) == [] for fam in "BCD")


def test_short_bispecials_lie_outside_the_families():
    """mu_p's 100101 is family A's member 0, tagged as such, and no word of
    SHORT_BISPECIAL_RATIOS is a family member."""
    assert family_members("mu_p", 10)["100101"] == ("A", 0)
    for kind, short in SHORT_BISPECIAL_RATIOS.items():
        assert not set(short) & set(family_members(kind, 150)), kind


@pytest.mark.parametrize("fam, n", [("A", 0), ("A", 1), ("B", 0)])
def test_shortest_return_length_rejects_unknown_kind(fam, n):
    with pytest.raises(ValueError, match="kind must be p, nu_p or mu_p"):
        expected_shortest_return_length("xyz", fam, n)


def test_sequence_solver_interface():
    """solve_sequence keeps the seeds of nu_p's length sequence over 012, and
    its closed form contains the integer terms length_sequence gives."""
    ints = length_sequence("nu_p", "012", 12)
    cc = solve_sequence(tuple(ints[:3]))
    assert cc.seeds == (6, 10, 17)
    for n in (0, 5, 12):
        assert closed_form(cc, n).contains(ints[n])


def test_asymptotic_exponent_shared():
    vals = [asymptotic_exponent(k) for k in ("p", "nu_p", "mu_p")]
    assert all(abs(v.mid - vals[0].mid) == 0 for v in vals)
    assert abs(vals[0].mid - F("2.48")) < F(1, 200)
    assert vals[0].width <= F(1, 10 ** 10)
    with pytest.raises(ValueError):
        asymptotic_exponent("fibonacci")


def test_empirical_asymptotic_trend():
    """The largest exponent among repetitions of period >= 50 in a long
    prefix is close to the asymptotic exponent."""
    squares = iter_runs(named_stream("p").prefix(200000), lambda p: 2 * p)
    ln, p, _ = max((r for r in squares if r[1] >= 50), key=lambda r: F(r[0], r[1]))
    ref = asymptotic_exponent("p")
    assert abs(F(ln, p) - ref.mid) < F(2, 100)
