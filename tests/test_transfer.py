from fractions import Fraction
from itertools import product

import pytest

import palfree.transfer as T
from conftest import palindrome_set_scan
from palfree.morphisms import Morphism
from palfree.repetition import ExponentBound, IncrementalFreeChecker, is_free
from palfree.search import walk
from palfree.transfer import (ImageState, TransferInstance,
                              _palindromes_of_image_language, load_instance,
                              mrs_threshold, palindrome_cut_index,
                              shipped_instances, verify_palindrome_budget,
                              verify_transfer)
from palfree.words import ALPHABETS

F = Fraction


def enumerate_free_words(alphabet_size: int, bound: ExponentBound, max_len: int):
    """Every bound-free word of length <= max_len over 0..d-1, the empty
    word first, within each length in lexicographic order."""
    out = [""]
    walk(IncrementalFreeChecker(bound), ALPHABETS[alphabet_size], max_len,
         out.append, [""])
    return sorted(out, key=lambda w: (len(w), w))


def test_mrs_threshold_values():
    assert mrs_threshold(F(7, 3), F(8, 3), 3) == 16
    assert mrs_threshold(F(7, 3), F(13, 5), 72) == F(39, 2)
    assert mrs_threshold(F(2), F(4), 1) == 4


def test_mrs_threshold_monotone_in_gap():
    # widening b - a with a, q fixed never increases the threshold
    a, q = F(7, 3), 10
    prev = None
    for b in (F(5, 2), F(8, 3), F(3), F(7, 2), F(4)):
        t = mrs_threshold(a, b, q)
        if prev is not None:
            assert t <= prev
        prev = t


def test_mrs_threshold_preconditions():
    with pytest.raises(ValueError):
        mrs_threshold(F(3), F(3), 4)
    with pytest.raises(ValueError):
        mrs_threshold(F(1), F(2), 0)


def test_enumerate_free_words_examples():
    words = enumerate_free_words(2, ExponentBound.parse("7/3+"), 3)
    len3 = [w for w in words if len(w) == 3]
    assert len3 == sorted(set("".join(t) for t in
                              __import__("itertools").product("01", repeat=3))
                          - {"000", "111"})
    sq2 = [w for w in enumerate_free_words(3, ExponentBound.parse("2"), 2)
           if len(w) == 2]
    assert sq2 == ["01", "02", "10", "12", "20", "21"]
    assert enumerate_free_words(2, ExponentBound.parse("7/3+"), 0) == [""]
    for size, spec, max_len, total in ((2, "7/3+", 12, 433), (3, "2", 8, 250)):
        bound = ExponentBound.parse(spec)
        brute = [w for k in range(max_len + 1)
                 for w in map("".join, product("012"[:size], repeat=k))
                 if is_free(w, bound) is None]
        assert enumerate_free_words(size, bound, max_len) == brute
        assert len(brute) == total


def test_image_state_pushes_and_pops_images():
    # thm3d: 0 -> 001, 1 -> 101, source bound 7/3+; the whole image is
    # pushed, also past a letter the target refuses
    inst = load_instance("thm3d")
    target = IncrementalFreeChecker(ExponentBound.parse("2"))
    state = ImageState(inst, target)
    assert state.push("1") and state.got is True
    assert state.push("0") and state.got is False
    assert target.w == "101001"
    state.pop()
    assert (state.source.w, target.w) == ("1", "101")
    # a refused source letter pushes nothing, and its pop pops no target letter
    assert state.push("1") and not state.push("1") and target.w == "101101"
    state.pop()
    assert (state.source.w, target.w) == ("11", "101101")
    state.pop()
    state.pop()
    assert (state.source.w, target.w) == ("", "")


def test_instance_validation():
    inst = load_instance("thm3d")
    with pytest.raises(ValueError):
        TransferInstance("bad-order", inst.h, ExponentBound.parse("8/3+"),
                         ExponentBound.parse("7/3+"), 15)
    with pytest.raises(ValueError):
        TransferInstance("equal-bounds", inst.h, ExponentBound.parse("8/3+"),
                         ExponentBound.parse("8/3+"), 15)
    nonuniform = Morphism(("01", "0"))
    with pytest.raises(ValueError):
        TransferInstance("nonuniform", nonuniform, ExponentBound.parse("7/3+"),
                         ExponentBound.parse("8/3+"), 9)
    nonsync = Morphism(("01", "01"))
    with pytest.raises(ValueError):
        TransferInstance("nonsync", nonsync, ExponentBound.parse("7/3+"),
                         ExponentBound.parse("8/3+"), 9)


def test_verify_transfer_small_instance():
    inst = load_instance("thm3d")
    res = verify_transfer(inst)
    assert res.passed
    assert inst.q == 3
    assert inst.threshold == 16
    assert res.depth == 16
    assert res.words_checked > 1000


def test_verify_transfer_walks_the_morphism_source_alphabet():
    """thm3h maps ternary square-free words, so its walk covers every one
    of them up to the threshold, not only the binary ones."""
    inst = load_instance("thm3h")
    res = verify_transfer(inst)
    assert res.passed and res.depth == 14
    free = enumerate_free_words(3, inst.source_bound, 14)
    assert res.words_checked == len(free) - 1 == 1767  # the empty word is not visited


class PerLetterImageState:
    """Oracle for ImageState over an IncrementalFreeChecker target: the q
    image letters are pushed one at a time, and got is True when the target
    accepted every one of them."""

    def __init__(self, inst):
        self.source = IncrementalFreeChecker(inst.source_bound)
        self.target = IncrementalFreeChecker(inst.target_bound)
        self.images = inst.h.images
        self.sizes = []  # target letters pushed for each source letter
        self.got = None

    def push(self, c):
        if not self.source.push(c):
            self.sizes.append(0)
            return False
        image = self.images[int(c)]
        self.got = all([self.target.push(x) for x in image])
        self.sizes.append(len(image))
        return True

    def pop(self):
        for _ in range(self.sizes.pop()):
            self.target.pop()
        self.source.pop()


def _transfer_oracle(inst, depth):
    """(words_checked, violation_source, passed) of verify_transfer, from a
    walk over PerLetterImageState."""
    state = PerLetterImageState(inst)
    checked, bad = 0, None

    def visit(word):
        nonlocal checked, bad
        checked += 1
        if state.got:
            return False
        bad = word
        return True

    walk(state, ALPHABETS[inst.h.source_size], depth, visit, [""])
    return checked, bad, bad is None


@pytest.mark.parametrize("name", ["thm3a", "thm3b", "thm3c", "thm3d", "thm3g", "thm3h"])
def test_verify_transfer_matches_per_letter_pushes(name):
    """Whole walks at target bounds between the source bound and 8/3, most
    of which fail, and at depths 6, 10 and 14: the block pushes of
    verify_transfer check the same words and find the same first violating
    source word as per-letter pushes."""
    inst = load_instance(name)
    walks = 0
    for spec in ("9/4+", "11/5+", "7/3", "12/5+", "5/2", "5/2+", "8/3"):
        bound = ExponentBound.parse(spec)
        if bound.threshold <= inst.source_bound.threshold:
            continue
        tight = TransferInstance(name, inst.h, inst.source_bound, bound, 0)
        for depth in (6, 10, 14):
            res = verify_transfer(tight, depth)
            assert ((res.words_checked, res.violation_source, res.passed)
                    == _transfer_oracle(tight, depth)), (spec, depth)
            walks += 1
    assert walks == (21 if name == "thm3h" else 12)


def test_verify_transfer_detects_violation():
    # target bound tighter than the images can satisfy
    inst = load_instance("thm3d")
    broken = TransferInstance("broken", inst.h, ExponentBound.parse("7/3+"),
                              ExponentBound.parse("5/2+"), 15)
    res = verify_transfer(broken, depth=6)
    assert not res.passed
    assert res.words_checked == 5
    assert res.violation_source == "00100"
    assert res.violation == "01001001 = (010)^8/3"


def test_palindrome_budget_small_instance():
    res = verify_palindrome_budget(load_instance("thm3c"))
    assert res.passed and res.stabilized
    assert res.count == 13
    assert res.cut_index is not None
    assert "" not in res.palindromes  # the empty word is counted, not listed
    assert res.count == len(res.palindromes) + 1
    assert res.palindromes == sorted(res.palindromes, key=lambda p: (len(p), p))


IDENTITY = TransferInstance("identity", Morphism(("0", "1")),
                            ExponentBound.parse("7/3+"),
                            ExponentBound.parse("8/3+"), 5)
# its palindromes of length 16 = 4q first show at source length 5, past the
# horizon (4 - 1) * q of a walk to 4: a horizon of d * q would cut at 16
TIGHT = TransferInstance("tight", Morphism(("0001", "1110")),
                         ExponentBound.parse("5/2+"),
                         ExponentBound.parse("4+"), 31)


def _instance(name):
    return {"identity": IDENTITY, "tight": TIGHT}.get(name) or load_instance(name)


def test_palindrome_budget_inconclusive_for_identity():
    old = T.PAL_WINDOW_CAP
    T.PAL_WINDOW_CAP = 6
    try:
        res = verify_palindrome_budget(IDENTITY, window=4)
    finally:
        T.PAL_WINDOW_CAP = old
    assert res.cut_index is None
    assert not res.conclusive


def _image_palindromes(inst, window):
    """Definitional oracle: entry k is the set of non-empty palindromic
    factors of h(u) over the source-free words u with |u| <= k."""
    by_length = [set() for _ in range(window + 1)]
    for u in enumerate_free_words(inst.h.source_size, inst.source_bound, window):
        by_length[len(u)] |= palindrome_set_scan(inst.h.apply(u))
    out, found = [], set()
    for pals in by_length:
        found |= pals
        out.append(found - {""})
    return out


def _budget_oracle(inst, window):
    """verify_palindrome_budget's window, count, cut, palindromes and
    stabilization from the oracle, one window at a time."""
    q = inst.h.is_uniform()
    w = window
    while True:
        pals = _image_palindromes(inst, w)[w]
        cut = palindrome_cut_index(pals, (w - 1) * q)
        if cut is not None or w >= T.PAL_WINDOW_CAP:
            break
        w += 2
    stabilized = (cut is None or w + 2 > T.PAL_WINDOW_CAP
                  or _image_palindromes(inst, w + 2)[w + 2] == pals)
    return w, len(pals) + 1, cut, sorted(pals, key=lambda p: (len(p), p)), stabilized


LABEL_WINDOWS = {
    # the default window + 2, ceil(threshold) + 4
    "thm3a": 11, "thm3b": 11, "thm3c": 13, "thm3d": 20,
    "thm3e": 10, "thm3f": 10, "thm3g": 10,
    "thm3h": 10,  # the only ternary source
}


@pytest.mark.parametrize("name,window", LABEL_WINDOWS.items(), ids=list(LABEL_WINDOWS))
def test_labelled_palindrome_walk_matches_oracle(name, window):
    """One walk labels each palindrome with its shortest source length;
    every smaller window reads its set off the labels."""
    inst = load_instance(name)
    labels = _palindromes_of_image_language(inst, window)
    oracle = _image_palindromes(inst, window)
    for w in range(window + 1):
        assert {p for p, d in labels.items() if d <= w} == oracle[w], (name, w)


@pytest.mark.parametrize("name,window,cap", [
    (name, window, None) for name in ("thm3a", "thm3b", "thm3c", "thm3d")
    for window in (3, 5)] + [
    ("thm3d", 7, 8),  # window PAL_WINDOW_CAP - 1: no room for the w + 2 walk
    ("identity", 3, 8),  # never cut: the window grows past the cap
    ("identity", 7, 8),
    ("thm3h", 2, None),  # ternary source, cut at the first walk
    ("thm3h", 4, None),
    ("thm3d", 18, None),  # the default window: the first walk shows no cut
    ("tight", 2, None),
])
def test_palindrome_budget_matches_window_by_window_oracle(name, window, cap,
                                                           monkeypatch):
    if cap is not None:
        monkeypatch.setattr(T, "PAL_WINDOW_CAP", cap)
    inst = _instance(name)
    res = verify_palindrome_budget(inst, window)
    assert (res.window, res.count, res.cut_index, res.palindromes,
            res.stabilized) == _budget_oracle(inst, window)


@pytest.mark.parametrize("name,window,cap,walks", [
    # no cut within the horizon 3 of the walk to 2; the walk to 4 shows one,
    # and its labels answer windows 3 and 5
    ("thm3d", 3, None, [2, 4]),
    # never cut: each walk goes as deep as the longest palindrome seen + 2
    # needs, but not past w + 2, until the cap stops the w + 2 walk
    ("identity", 3, 12, [3, 6, 9, 11, 13]),
    # the cut shows at the first walk, which answers every window
    ("thm3h", 4, None, [2]),
])
def test_palindrome_budget_walks_once_per_two_windows(name, window, cap, walks,
                                                      monkeypatch):
    if cap is not None:
        monkeypatch.setattr(T, "PAL_WINDOW_CAP", cap)
    inst = _instance(name)
    depths = []

    def counted(inst, depth):
        depths.append(depth)
        return _palindromes_of_image_language(inst, depth)

    monkeypatch.setattr(T, "_palindromes_of_image_language", counted)
    res = verify_palindrome_budget(inst, window)
    assert depths == walks
    assert (res.window, res.count, res.cut_index, res.palindromes,
            res.stabilized) == _budget_oracle(inst, window)
    if name == "thm3d":
        assert (res.window, res.count, res.cut_index, res.stabilized) == (5, 15, 9, True)


def test_cut_index_logic():
    assert palindrome_cut_index(set(), horizon=10) == 2
    assert palindrome_cut_index({"0", "1", "00"}, horizon=100) == 4
    # palindromes at every length up to the horizon: no cut may be claimed
    assert palindrome_cut_index({"0", "00", "000", "0000"}, horizon=4) is None
    # with a wider (complete) horizon the two missing lengths do cut
    assert palindrome_cut_index({"0", "00", "000", "0000"}, horizon=9) == 6


def test_shipped_instance_registry():
    names = shipped_instances()
    assert len(names) == 8
    budgets = [load_instance(n).claimed_palindromes for n in names]
    assert budgets == [11, 12, 13, 15, 18, 19, 21, 25]
