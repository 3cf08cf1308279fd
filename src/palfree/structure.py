"""Special-factor and return-word analysis of the ternary fixed point and
its two binary images, with exact critical exponents.

The exponent of a uniformly recurrent aperiodic word is 1 + sup |w|/|r|
over bispecial factors w with shortest return word r.  Enumeration handles
every bispecial factor up to a cutoff; closed-form length sequences plus
interval-certified tail bounds dispose of the infinitely many beyond it.

FAMILY_TABLE is the one definition of the four bispecial families A-D of
p = phi^w(0), phi: 0 -> 01, 1 -> 21, 2 -> 0.  Member n of the family with
offsets (a, b) has the core

    phi^a(1) phi^(a+2)(1) ... phi^(a+2n)(1) . phi^(b+2n)(0) ... phi^b(0)

(negative powers left out); in nu_p and mu_p it is a (prefix, suffix) wrap
around the image of the core under OUTER's morphism.  Its shortest return
word has length s_(2n+r) = |outer(phi^(2n+r)(base))|.  The closed forms,
the return lengths, the length sequences' seeds, the ratio indices and the
ratios' numerator constants all derive from the table.

Every structure claim reads one exact prefix, cover(n), which holds every
factor of length <= n (Allouche and Shallit, Automatic Sequences, ch. 7).
For x = phi^w(seed), all of whose letters grow, and its image outer(x):
* the 2-factors of phi(w) are a function of those of w (|w| >= 2), so the
  first phi^j(seed) whose 2-factors equal the next iterate's holds L_2(x);
* x is a concatenation of blocks phi^k(c); once each has n' - 1 letters or
  more, every factor of length n' lies in some phi^k(ab), ab in L_2(x);
* a factor of length n of outer(x) lies in outer(u), u a factor of x of
  length n' = ceil((n - 1) / m) + 1, m the length of the shortest outer(c).
So cover(n) = outer(phi^(j+k)(seed)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import cubic
from .cubic import Interval, as_complex, solve_sequence
from .morphisms import Morphism, load_morphism
from .words import factors, palindrome_cut_index, palindrome_set


class MorphicStream:
    """Fixed point of an endomorphism, optionally pushed through an outer
    morphism (images of prefixes are prefixes of the image word).

    prefix(n) applies inner to the seed until the outer image of the
    iterate has n letters; each builder reads one prefix of a stream.
    """

    periodic = False

    def __init__(self, name: str, inner: Morphism, seed: str,
                 outer: Morphism | None = None):
        self.name = name
        self.inner = inner
        self.outer = outer
        # fixed_point_prefix refuses a seed the fixed point does not grow from
        self.seed = inner.fixed_point_prefix(seed, len(seed))

    def _image(self, w: str) -> str:
        return w if self.outer is None else self.outer.apply(w)

    def prefix(self, n: int) -> str:
        w = self.seed
        while len(word := self._image(w)) < n:
            w = self.inner.apply(w)
        return word[:n]

    def primitive(self) -> bool:
        """Whether inner is primitive on the letters A of its fixed point:
        every letter's image under inner^k holds every letter of A, for
        k = (|A| - 1)^2 + 1, Wielandt's bound on the exponent of a
        primitive |A| x |A| matrix.  The fixed point of a primitive
        morphism, and so its outer image, is uniformly recurrent."""
        images = [set(img) for img in self.inner.images]
        letters = set(self.seed)
        while (grown := letters.union(*(images[int(c)] for c in letters))) != letters:
            letters = grown
        for c in letters:
            reach = {c}
            for _ in range((len(letters) - 1) ** 2 + 1):
                reach = set().union(*(images[int(d)] for d in reach))
            if reach != letters:
                return False
        return True

    def cover(self, n: int) -> str:
        """outer(inner^(j+k)(seed)), j and k as in the module docstring.

        Raises ValueError when the shortest block phi^k(c) stops growing
        below the length needed.  Block lengths never shrink, so once the
        shortest has stayed the same for as many steps as there are
        letters, some letter c has |phi^i(c)| equal over more iterates than
        there are letters.  Each letter of phi^i(c) then has a one-letter
        image, and the letters at each position pass through more iterates
        than there are letters, so they cycle through one-letter images:
        phi^i(c) keeps its length forever.
        """
        w = self.seed
        while len(w) < 2 or factors(w, 2) != factors(self.inner.apply(w), 2):
            w = self.inner.apply(w)
        letters = set(w)
        m = 1 if self.outer is None else min(len(self.outer.images[int(c)]) for c in letters)
        blocks = dict.fromkeys(letters, 1)
        least = stalled = 0
        while (shortest := min(blocks.values())) < -(-(n - 1) // m):  # n' - 1
            stalled = stalled + 1 if shortest == least else 0
            if stalled == len(letters):
                raise ValueError(f"the shortest block of {self.name} stops growing at "
                                 f"length {shortest}: no cover of length {n}")
            least = shortest
            blocks = {c: sum(blocks[d] for d in self.inner.images[int(c)]) for c in letters}
            w = self.inner.apply(w)
        return self._image(w)


class PeriodicStream:
    periodic = True

    def __init__(self, period_word: str):
        self.period_word = period_word
        self.name = f"({period_word})^w"

    def prefix(self, n: int) -> str:
        reps = n // len(self.period_word) + 1
        return (self.period_word * reps)[:n]

    def cover(self, n: int) -> str:
        # every factor of length n starts at one of the first |period| letters
        return self.prefix(len(self.period_word) + n - 1)


# an infinite word, read through prefix(n) and cover(n)
Stream = MorphicStream | PeriodicStream


# the named words: the fixed point p of phi and its images under nu and mu
OUTER = {"p": None, "nu_p": "nu", "mu_p": "mu"}


def named_stream(name: str) -> Stream:
    if name in OUTER:
        outer = None if OUTER[name] is None else load_morphism(OUTER[name])
        return MorphicStream(name, load_morphism("phi"), "0", outer)
    if set(name) <= set("0123") and name:
        return PeriodicStream(name)
    raise ValueError(f"unknown stream {name!r}")


def occurrences(text: str, w: str) -> list[int]:
    out = []
    i = text.find(w)
    while i != -1:
        out.append(i)
        i = text.find(w, i + 1)
    return out


@dataclass
class ExtensionProfile:
    word: str
    left: frozenset[str]
    right: frozenset[str]
    bi: frozenset[tuple[str, str]]

    @property
    def b(self) -> int:
        return len(self.bi) - len(self.left) - len(self.right) + 1

    @property
    def kind(self) -> str:
        return "ordinary" if self.b == 0 else ("weak" if self.b < 0 else "strong")


def extension_profile(w: str, stream: Stream) -> ExtensionProfile:
    """Extensions of w from all its occurrences in cover(|w| + 2), which
    holds every factor a.w.b."""
    text = stream.cover(len(w) + 2)
    L, n = len(text), len(w)
    occ = occurrences(text, w)  # the empty word occurs at 0..L
    if not occ:
        raise ValueError(f"{w!r} is not a factor of {stream.name}")
    left = {text[s - 1] for s in occ if s >= 1}
    right = {text[s + n] for s in occ if s + n < L}
    bi = {(text[s - 1], text[s + n]) for s in occ if s >= 1 and s + n < L}
    return ExtensionProfile(w, frozenset(left), frozenset(right), frozenset(bi))


@dataclass
class ReturnWordSet:
    word: str
    returns: frozenset[str]

    def shortest(self) -> str:
        return min(sorted(self.returns), key=len)


def return_words(w: str, stream: Stream) -> ReturnWordSet:
    """The gaps between consecutive occurrences of w in cover(m + 1), m
    doubling from 2|w| + 2 until every length-m window there contains w.
    Then every complete return word r.w has at most m + 1 letters, so it is
    a gap there.  Some m passes on a uniformly recurrent word; a morphic
    stream whose inner morphism is not primitive raises ValueError first,
    since a gap there may be unbounded (0 in 01^w of 0 -> 01, 1 -> 11)."""
    if isinstance(stream, MorphicStream) and not stream.primitive():
        raise ValueError(f"the morphism of {stream.name} is not primitive: "
                         "its return words need not be bounded")
    m = 2 * len(w) + 2
    while True:
        text = stream.cover(m + 1)
        occ = occurrences(text, w)
        if not occ:
            raise ValueError(f"{w!r} is not a factor of {stream.name}")
        bounds = [-1, *occ, len(text) - len(w) + 1]
        if all(b - a <= m - len(w) + 1 for a, b in zip(bounds, bounds[1:])):
            return ReturnWordSet(w, frozenset(text[a:b] for a, b in zip(occ, occ[1:])))
        m *= 2


def _right_special_levels(text: str, max_len: int):
    """The right-special factors of text, level by level for lengths 1 to
    max_len.  Each level maps a factor w to (right, by_left): its right
    letters and, for each left letter a, the end positions (start + |a.w|,
    ascending) of a.w's occurrences with a.w's right letters.

    Every suffix of a right-special factor is right special, so level n + 1
    is the right-special a.w in the by_left maps of level n, starting from
    the empty word, which ends everywhere.  When w has one left letter a,
    a.w ends where w does, bar an occurrence of w at position 0, so w's ends
    and right letters pass on unchanged; only a bispecial factor's ends are
    split by left letter."""
    L = len(text)

    def rights(ends):
        return {text[e] for e in ends if e < L}

    def left_extensions(ends, n, right):
        if ends[0] == n:  # an occurrence at position 0 has no left letter
            ends = ends[1:]
            right = rights(ends)
        left = {text[e - n - 1] for e in ends}
        if len(left) == 1:
            return {left.pop(): (ends, right)}
        by_left = {a: [] for a in left}
        for e in ends:
            by_left[text[e - n - 1]].append(e)
        return {a: (ea, rights(ea)) for a, ea in by_left.items()}

    level = {"": (None, left_extensions(range(L + 1), 0, None))}
    for n in range(1, max_len + 1):
        level = {a + w: (right, left_extensions(ends, n, right))
                 for w, (_, by_left) in level.items()
                 for a, (ends, right) in by_left.items() if len(right) >= 2}
        if not level:
            break
        yield level


def _bispecials_in(text: str, max_len: int) -> list[ExtensionProfile]:
    out = []
    for level in _right_special_levels(text, max_len):
        for w in sorted(level):
            right, by_left = level[w]
            if len(by_left) >= 2:
                bi = {(a, b) for a, (_, rb) in by_left.items() for b in rb}
                out.append(ExtensionProfile(w, frozenset(by_left), frozenset(right),
                                            frozenset(bi)))
    return out


def bispecial_enumerate(stream: Stream, max_len: int) -> list[ExtensionProfile]:
    """All non-empty bispecial factors of length <= max_len, read off
    cover(max_len + 2), which holds every factor a.w.b."""
    return _bispecials_in(stream.cover(max_len + 2), max_len)


def _complexity_in(text: str, max_n: int) -> list[int]:
    counts = [1, len(set(text))]
    for level in _right_special_levels(text, max_n - 1):
        counts.append(counts[-1] + sum(len(right) - 1 for right, _ in level.values()))
    while len(counts) < max_n + 1:  # no special factors left: periodic tail
        counts.append(counts[-1])
    return counts[:max_n + 1]


def factor_complexity(stream: Stream, max_n: int) -> list[int]:
    """C(n) for n = 0..max_n via right-special extension counts
    (C(n+1) - C(n) = sum over right-special length-n factors of
    (#right extensions - 1)), read off cover(max_n)."""
    return _complexity_in(stream.cover(max_n), max_n)


def palindromes(stream: Stream) -> set[str] | None:
    """Every palindromic factor of the word, the empty word included, or
    None when there are infinitely many.  K doubles from 2 until the cut
    rule fires on the palindromes of cover(K):
    * cover(K) holds every factor of length <= K;
    * a palindrome longer than k has a central palindrome of length k - 1
      or k, so once both lengths are empty no longer palindromes exist;
    * in a purely periodic word a palindrome at least one period long
      extends by one letter on each side, forever, so once K exceeds the
      period and no cut fired the set is infinite.
    A morphic stream with infinitely many palindromes would loop; the named
    words p, nu_p and mu_p stop at K = 16, 32 and 16."""
    K = 2
    while True:
        pals = palindrome_set(stream.cover(K))
        if palindrome_cut_index(pals, K) is not None:
            return pals
        if stream.periodic and K > len(stream.period_word):
            return None
        K *= 2


# ---------------------------------------------------------------------------
# closed-form bispecial families

def _phi_pow(w: str, k: int) -> str:
    phi = load_morphism("phi")
    for _ in range(k):
        w = phi.apply(w)
    return w


def _image(kind: str, w: str) -> str:
    """outer(w) for the word of this kind (w itself for p)."""
    if kind not in OUTER:
        raise ValueError(f"kind must be p, nu_p or mu_p, not {kind!r}")
    return w if OUTER[kind] is None else load_morphism(OUTER[kind]).apply(w)


@dataclass
class Family:
    """One row of FAMILY_TABLE (see the module docstring): the core offsets
    a, b; the return word's base and power offset r; the (prefix, suffix)
    wrap per image kind."""
    a: int
    b: int
    base: str
    r: int
    wraps: dict[str, tuple[str, str]]

    @property
    def m0(self) -> int:
        """The least return power 2n + r >= 0: ratio j is member
        n = j + n0, over the sequence term s_{m0+2j}."""
        return self.r % 2

    @property
    def n0(self) -> int:
        """The member of ratio 0; members before it (A's member 0, return
        power -1) are ratio candidates by word."""
        return (self.m0 - self.r) // 2


FAMILY_TABLE = {
    "A": Family(0, -1, "012", -1, {"nu_p": ("1", "01"), "mu_p": ("", "01")}),
    "B": Family(1, 0, "012", 0, {"nu_p": ("", "0"), "mu_p": ("011001", "")}),
    "C": Family(0, 0, "01", 0, {"nu_p": ("1", "0"), "mu_p": ("", "")}),
    "D": Family(1, 1, "01", 1, {"nu_p": ("", "01"), "mu_p": ("011001", "01")}),
}


def family_bispecial(kind: str, fam: str, n: int) -> str:
    """Member n of a bispecial family of p or of one of its images: the wrap
    around outer(core) of the family's row in FAMILY_TABLE."""
    if fam not in FAMILY_TABLE:
        raise ValueError(f"family must be one of A B C D, not {fam!r}")
    f = FAMILY_TABLE[fam]
    ones = [_phi_pow("1", f.a + 2 * k) for k in range(n + 1)]
    zeros = [_phi_pow("0", f.b + 2 * k) for k in range(n, -1, -1) if f.b + 2 * k >= 0]
    prefix, suffix = f.wraps.get(kind, ("", ""))
    return prefix + _image(kind, "".join(ones + zeros)) + suffix


def family_members(kind: str, max_len: int) -> dict[str, tuple[str, int]]:
    """Every family word of at most max_len letters -> (family, n)."""
    members = {}
    for fam in FAMILY_TABLE:
        n = 0
        while len(w := family_bispecial(kind, fam, n)) <= max_len:
            members[w] = (fam, n)
            n += 1
    return members


def expected_shortest_return_length(kind: str, fam: str, n: int) -> int:
    """Shortest-return-word lengths implied by the Parikh-equivalent forms:
    term m = 2n + r of the family's length sequence.  Family A's member 0
    has m = -1, one step of the recurrence back: s_-1 = s_2 - 2 s_1 + s_0."""
    f = FAMILY_TABLE[fam]
    m = 2 * n + f.r
    s = length_sequence(kind, f.base, m)
    return s[m] if m >= 0 else s[2] - 2 * s[1] + s[0]


def length_sequence(kind: str, base: str, upto: int) -> list[int]:
    """s_m = |outer(phi^m(base))| for m = 0..max(upto, 2): the first three
    terms by applying the morphisms, the rest by the recurrence
    s_{m+1} = 2 s_m - s_{m-1} + s_{m-2} of phi's characteristic polynomial."""
    s = [len(_image(kind, _phi_pow(base, m))) for m in range(3)]
    while len(s) <= upto:
        s.append(2 * s[-1] - s[-2] + s[-3])
    return s


def numerator_constant(kind: str, fam: str) -> int:
    """K in ratio j = (K + s_m0 + s_(m0+2) + ... + s_(m0+2j)) / s_(m0+2j):
    ratio 0 is |member n0| / s_m0, so K = |member n0| - s_m0."""
    f = FAMILY_TABLE[fam]
    s = length_sequence(kind, f.base, f.m0)
    return len(family_bispecial(kind, fam, f.n0)) - s[f.m0]


def early_member_ratios(kind: str, fam: str) -> list[tuple[str, Fraction]]:
    """(member, |member| / shortest return length) for the members before
    the family's ratio 0: family A's member 0."""
    out = []
    for n in range(FAMILY_TABLE[fam].n0):
        w = family_bispecial(kind, fam, n)
        out.append((w, Fraction(len(w), expected_shortest_return_length(kind, fam, n))))
    return out


TARGET_RATIO = {"nu_p": Fraction(3, 2), "mu_p": Fraction(17, 11)}

# ratios of the short bispecial factors outside all four families
SHORT_BISPECIAL_RATIOS = {
    "nu_p": {"0": Fraction(1), "1": Fraction(1), "01": Fraction(2, 3),
             "10": Fraction(1)},
    "mu_p": {"0": Fraction(1), "1": Fraction(1), "01": Fraction(1),
             "10": Fraction(1), "010": Fraction(3, 2), "1001": Fraction(1),
             "011001": Fraction(3, 2), "01100101": Fraction(4, 3)},
}


def exact_family_ratios(kind: str, fam: str, N: int) -> list[Fraction]:
    """|v^(j)| / |shortest return|, exactly, for j = 0..N-1."""
    m0 = FAMILY_TABLE[fam].m0
    seq = length_sequence(kind, FAMILY_TABLE[fam].base, m0 + 2 * N)
    out = []
    total = numerator_constant(kind, fam)
    for j in range(N):
        idx = m0 + 2 * j
        total += seq[idx]
        out.append(Fraction(total, seq[idx]))
    return out


@dataclass
class TailBound:
    n0: int
    holds: bool
    precision: float


TAIL_WIDTH = Fraction(1, 10 ** 16)


def tail_bound(kind: str, fam: str) -> TailBound:
    """Interval proof that family ratios stay <= the target for all j >= n0.

    With s_m = A b^m + 2 Re(B l^m), the claim (K + sum_{k<=j} s_{m0+2k})
    / s_{m0+2j} <= tn/td reduces to C0 <= A b^{m0+2j} (tn - td - td/(b^2-1))
    where C0 collects the constant and oscillating parts; the right side
    grows with j, so checking j = n0 settles every larger j.
    """
    const = numerator_constant(kind, fam)
    m0 = FAMILY_TABLE[fam].m0
    T = TARGET_RATIO[kind]
    tn, td = T.numerator, T.denominator
    consts = solve_sequence(tuple(length_sequence(kind, FAMILY_TABLE[fam].base, 2)),
                            TAIL_WIDTH)
    beta, A, B = consts.beta, consts.A, consts.B
    b2 = beta * beta
    lam = consts.lam()
    lam_abs = lam.abs()
    lam2 = lam * lam
    abs_1ml2 = (as_complex(1) - lam2).abs()
    Babs = B.abs()
    coeff = (tn - td) - td / (b2 - 1)
    if not Interval(0).certainly_lt(coeff):
        return TailBound(-1, False, float(TAIL_WIDTH))

    def pw(iv, k):
        out = Interval(1)
        for _ in range(k):
            out = out * iv
        return out

    for n0 in range(1, 9):
        lam_m0 = pw(lam_abs, m0)
        lam_2n0 = pw(lam_abs, 2 * n0)
        lhs = (td * const
               - td * A * pw(beta, m0) / (b2 - 1)
               + 2 * td * Babs * lam_m0 * (1 + lam_2n0) / abs_1ml2
               + 2 * (tn - td) * Babs * lam_m0 * lam_2n0)
        rhs = A * pw(beta, m0 + 2 * n0) * coeff
        if lhs.certainly_leq(rhs):
            return TailBound(n0, True, float(max(lhs.width, rhs.width)))
    return TailBound(-1, False, float(max(lhs.width, rhs.width)))


@dataclass
class FamilyRatioReport:
    sup: Fraction
    sup_index: int | str
    bounded_by_target: bool
    tail: TailBound | None


# family members from ratio 0 on whose ratios are computed exactly
EXACT_MEMBERS = 30


def family_ratio_analysis(kind: str, family: str) -> FamilyRatioReport:
    """Exact ratios for the first EXACT_MEMBERS family members from ratio 0
    on, plus the members before it and the interval tail verdict; family "F"
    covers the short bispecial factors."""
    T = TARGET_RATIO[kind]
    if family == "F":
        ratios = SHORT_BISPECIAL_RATIOS[kind]
        sup = max(ratios.values())
        witness = min(w for w, r in ratios.items() if r == sup)
        return FamilyRatioReport(sup, witness, sup <= T, None)
    tail = tail_bound(kind, family)
    exact = exact_family_ratios(kind, family, max(EXACT_MEMBERS, tail.n0))
    candidates = list(enumerate(exact)) + early_member_ratios(kind, family)
    sup_index, sup = max(candidates, key=lambda t: t[1])
    ok = sup <= T and tail.holds and all(r <= T for r in exact)
    return FamilyRatioReport(sup, sup_index, ok, tail)


@dataclass
class StructuralExponent:
    exponent: Fraction
    witness_word: str
    witness_ratio: Fraction
    families: dict[str, FamilyRatioReport]


def critical_exponent_via_bispecials(stream: Stream, max_bs_len: int) -> Fraction:
    """1 + max |w|/|shortest return| over the bispecial factors of at most
    max_bs_len letters.  Requires an aperiodic uniformly recurrent
    stream (periodic streams are rejected)."""
    if stream.periodic:
        raise ValueError("bispecial exponent formula needs an aperiodic word")
    if len(factors(stream.cover(16), 16)) <= 16:  # C(n) <= n: Morse-Hedlund
        raise ValueError("stream is eventually periodic")
    best = Fraction(0)
    for prof in bispecial_enumerate(stream, max_bs_len):
        rw = return_words(prof.word, stream)
        best = max(best, Fraction(len(prof.word), len(rw.shortest())))
    return 1 + best


def structural_exponent(kind: str) -> StructuralExponent:
    """Assemble the exact critical exponent of one of the two binary images
    from the family analysis, cross-checked against enumeration."""
    if kind not in TARGET_RATIO:
        raise ValueError("structural exponent is computed for nu_p and mu_p")
    reports = {fam: family_ratio_analysis(kind, fam)
               for fam in [*FAMILY_TABLE, "F"]}
    if not all(r.bounded_by_target for r in reports.values()):
        bad = [f for f, r in reports.items() if not r.bounded_by_target]
        raise ArithmeticError(f"tail bounds undecided for families {bad}")
    sup = max(r.sup for r in reports.values())
    best_fam = min(f for f, r in reports.items() if r.sup == sup)
    rep = reports[best_fam]
    if isinstance(rep.sup_index, int):
        witness = family_bispecial(kind, best_fam, rep.sup_index + FAMILY_TABLE[best_fam].n0)
    else:
        witness = rep.sup_index
    stream = named_stream(kind)
    E = critical_exponent_via_bispecials(stream, len(witness) + 50)
    exponent = 1 + sup
    if E != exponent:
        raise ArithmeticError(f"enumeration ({E}) disagrees with families ({exponent})")
    return StructuralExponent(exponent, witness, sup, reports)


def asymptotic_exponent(kind: str) -> Interval:
    """1 + b^2/(b^2-1) for the Perron root b; the three words share it
    (the images are injective-morphic with synchronization points)."""
    if kind not in OUTER:
        raise ValueError("asymptotic exponent known for p, nu_p, mu_p only")
    return cubic.asymptotic_exponent_value()

