"""Uniform-morphism freeness transfer and palindrome budgets.

A synchronizing q-uniform morphism maps every a-free source word to a
b-free image once that holds for all source words up to the threshold
t = max(2b/(b-a), 2(q-1)(2b-1)/(q(b-1))); the check is one search.walk
over the a-free source tree with an incremental freeness test on the image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

from .morphisms import Morphism, load_morphism
from .repetition import ExponentBound, IncrementalFreeChecker, is_free
from .search import walk
from .words import ALPHABETS, palindrome_cut_index, palindrome_set

PAL_WINDOW_CAP = 64


@dataclass(frozen=True)
class TransferInstance:
    """A q-uniform synchronizing morphism h, source bound a and target bound
    b with 1 < a < b, or ValueError; q and the threshold t follow."""

    name: str
    h: Morphism
    source_bound: ExponentBound
    target_bound: ExponentBound
    claimed_palindromes: int
    q: int = field(init=False)
    threshold: Fraction = field(init=False)

    def __post_init__(self):
        a, b = self.source_bound.threshold, self.target_bound.threshold
        if not (1 < a < b):
            raise ValueError(f"{self.name}: need 1 < a < b, got a={a}, b={b}")
        if (q := self.h.is_uniform()) is None:
            raise ValueError(f"{self.name}: morphism is not uniform")
        sync = self.h.is_synchronizing()
        if sync is not True:
            raise ValueError(f"{self.name}: morphism not synchronizing: {sync}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "threshold", mrs_threshold(a, b, q))


# the eight shipped instances: (source bound, target bound, claimed
# distinct-palindrome budget of the image language, eps included); the
# source alphabet is that of the morphism
_SHIPPED = {
    "thm3a": ("7/3+", "10/3+", 11),
    "thm3b": ("7/3+", "23/7+", 12),
    "thm3c": ("7/3+", "3+", 13),
    "thm3d": ("7/3+", "8/3+", 15),
    "thm3e": ("7/3+", "13/5+", 18),
    "thm3f": ("7/3+", "28/11+", 19),
    "thm3g": ("7/3+", "5/2+", 21),
    "thm3h": ("2", "7/3+", 25),
}


def shipped_instances() -> list[str]:
    return sorted(_SHIPPED)


def load_instance(name: str) -> TransferInstance:
    try:
        src, tgt, budget = _SHIPPED[name]
    except KeyError:
        raise ValueError(f"unknown transfer instance {name!r}") from None
    return TransferInstance(name, load_morphism(name), ExponentBound.parse(src),
                            ExponentBound.parse(tgt), budget)


def mrs_threshold(a: Fraction, b: Fraction, q: int) -> Fraction:
    """max(2b/(b-a), 2(q-1)(2b-1)/(q(b-1))) as an exact rational."""
    if not 1 < a < b:
        raise ValueError("threshold formula needs 1 < a < b")
    if q < 1:
        raise ValueError("uniformity q must be >= 1")
    first = 2 * b / (b - a)
    second = Fraction(2 * (q - 1), q) * (2 * b - 1) / (b - 1)
    return max(first, second)


class ImageState:
    """Push/pop state of the transfer walk over the source words of inst,
    which pushes their images onto target, an IncrementalFreeChecker.

    A letter the source bound accepts pushes its image onto target with
    one push_block call, whose answer got keeps: False when a violation
    ends in the image.  push_block pushes the whole image either way, so
    pop drops its q letters in one step.  A refused source letter pushes
    nothing, and the flag refused makes the pop that follows it pop the
    source letter only, as in search.ConstraintState."""

    def __init__(self, inst: TransferInstance, target: IncrementalFreeChecker):
        self.source = IncrementalFreeChecker(inst.source_bound)
        self.target = target
        self.images = inst.h.images
        self.q = inst.q
        self.got = False
        self.refused = False  # the last push was refused by the source bound

    def push(self, c: str) -> bool:
        if not self.source.push(c):
            self.refused = True
            return False
        self.got = self.target.push_block(self.images[int(c)])
        return True

    def pop(self) -> None:
        if self.refused:
            self.refused = False
        else:
            self.target.n -= self.q
        self.source.pop()


@dataclass
class TransferResult:
    depth: int
    words_checked: int
    passed: bool
    violation_source: str | None = None
    violation: str | None = None


def verify_transfer(inst: TransferInstance, depth: int | None = None) -> TransferResult:
    """Check that images of all source-bound-free words of length
    <= ceil(threshold) satisfy the target bound."""
    tdepth = ceil(inst.threshold) if depth is None else depth
    state = ImageState(inst, IncrementalFreeChecker(inst.target_bound))
    checked = 0
    violation_source = None

    def visit(word: str) -> bool:
        nonlocal checked, violation_source
        checked += 1
        if state.got:
            return False
        violation_source = word
        return True

    walk(state, ALPHABETS[inst.h.source_size], tdepth, visit, [""])
    passed = violation_source is None
    result = TransferResult(tdepth, checked, passed)
    if not passed:
        result.violation_source = violation_source
        result.violation = str(is_free(inst.h.apply(violation_source),
                                       inst.target_bound))
    return result


@dataclass
class PalindromeBudgetResult:
    window: int
    count: int
    within_budget: bool
    cut_index: int | None
    palindromes: list[str]
    stabilized: bool

    @property
    def conclusive(self) -> bool:
        return self.cut_index is not None

    @property
    def passed(self) -> bool:
        return self.within_budget and self.conclusive


def _palindromes_of_image_language(inst: TransferInstance, window: int) -> dict[str, int]:
    """Distinct non-empty palindromic factors of h(w) over all source-free
    words w with |w| <= window (a superset of the limit language's set),
    each labelled with the length of the shortest such w.

    Each visit labels the palindromes of its word's image, keeping the
    least label, so the palindromes of any window k <= window are exactly
    those labelled <= k: one walk answers every smaller window, and a
    deeper walk only adds palindromes labelled above window.  The walk
    covers every image palindrome of length <= (window - 1) * q: a factor
    of length L of a q-uniform image spans at most ceil((L - 1) / q) + 1
    letter images, so it lies in h(u) for a free factor u of at most window
    letters."""
    found: dict[str, int] = {}

    def visit(word: str) -> None:
        d = len(word)
        for pal in palindrome_set(inst.h.apply(word)):
            if pal and found.get(pal, d) >= d:
                found[pal] = d

    walk(IncrementalFreeChecker(inst.source_bound), ALPHABETS[inst.h.source_size],
         window, visit, [""])
    return found


def verify_palindrome_budget(inst: TransferInstance,
                             window: int | None = None) -> PalindromeBudgetResult:
    """Stabilized distinct-palindrome count of the image language (empty word
    included) compared against the claimed budget.

    The window w grows by 2 until the cut condition holds; the count is
    stabilized when the walk shows no palindrome labelled above w.  Both
    tests read the shortest-source labels of one walk, and the labels choose
    its depth d.  A walk to d covers every palindrome up to the horizon
    (d - 1) * q, so a cut within it is genuine: no longer palindrome exists
    at any depth, every palindrome is labelled and every label is final, and
    each window w reads {pal : label <= w} with no further walk.  While no
    cut shows, the walk deepens to the least d whose horizon reaches the
    longest palindrome seen + 2 (the first place a cut can show), but never
    past w + 2, whose walk answers window w + 2 as well when w has no cut."""
    q = inst.q
    w = window if window is not None else ceil(inst.threshold) + 2
    depth, labels, complete = 0, {}, False
    while True:
        if not complete and depth < w:
            longest = max(map(len, labels), default=0)
            depth = min(w + 2 if w + 2 <= PAL_WINDOW_CAP else w,
                        ceil((longest + 2) / q) + 1)
            labels = _palindromes_of_image_language(inst, depth)
            complete = palindrome_cut_index(set(labels), (depth - 1) * q) is not None
            continue
        pals = {pal for pal, d in labels.items() if d <= w}
        cut = palindrome_cut_index(pals, (w - 1) * q)
        if cut is not None or w >= PAL_WINDOW_CAP:
            break
        w += 2
    # a cut leaves no palindrome labelled above w; without one the walk
    # stopped at w, the cap
    stabilized = all(d <= w for d in labels.values())
    count = len(pals) + 1  # the empty word
    return PalindromeBudgetResult(
        window=w, count=count, within_budget=count <= inst.claimed_palindromes,
        cut_index=cut, palindromes=sorted(pals, key=lambda p: (len(p), p)),
        stabilized=stabilized)
