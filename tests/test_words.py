import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import palindrome_set_scan
from palfree.eertree import Eertree
from palfree.structure import named_stream
from palfree.words import (_FEW, ALPHABETS, complement, factors, palindrome_count,
                           palindrome_set, reverse)

binary = st.text(alphabet="01", max_size=60)
quaternary = st.text(alphabet="0123", max_size=50)


def test_factors_basic():
    assert factors("001011", 2) == {"00", "01", "10", "11"}
    assert factors("anything-long", 0) == {""}
    assert factors("01", 5) == set()


def test_factors_of_p_prefix(p_word):
    assert factors(p_word[:35], 2) == {"01", "12", "21", "02", "10"}


@given(quaternary, st.integers(0, 12))
def test_factor_count_bound(w, n):
    f = factors(w, n)
    if n > len(w):
        assert f == set()
    else:
        assert len(f) <= min(len(w) - n + 1, 4 ** n)


def test_palindrome_set_small():
    assert palindrome_set("0") == {"", "0"}
    assert palindrome_count("0") == 2


@given(quaternary)
def test_palindrome_scan_agreement(w):
    assert palindrome_set(w) == palindrome_set_scan(w)


def _assert_agrees(w):
    want = palindrome_set_scan(w)
    assert palindrome_set(w) == want, w
    assert palindrome_count(w) == len(want), w


def _canonical_words(max_len, letters=4):
    """Every word of at most max_len letters whose letters first occur in
    the order 0, 1, 2, 3: one word for each class of words equal up to a
    renaming of the letters, which maps palindromic factors one to one."""
    level = [""]
    for _ in range(max_len + 1):
        yield from level
        level = [w + c for w in level
                 for c in ALPHABETS[min(len(set(w)) + 1, letters)]]


def _stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def test_palindromes_of_every_short_word():
    """Every word over 1-4 letters of at most 10 letters, the empty word
    included, up to a renaming of its letters."""
    count = 0
    for w in _canonical_words(10):
        _assert_agrees(w)
        count += 1
    assert count == 1 + sum(sum(_stirling2(n, k) for k in range(1, 5))
                            for n in range(1, 11))


def test_palindromes_of_random_words():
    rng = random.Random(32)
    for letters in ("0", "01", "012", "0123", "13", "302"):
        for _ in range(300):
            _assert_agrees("".join(rng.choice(letters)
                                   for _ in range(rng.randint(0, 80))))


def test_palindromes_across_the_closure_limit():
    """Words on both sides of _FEW palindromes: (01)^k has 2k + 1 with the
    empty word, so it crosses _FEW at k = _FEW / 2, and 0^k has k + 1, so it
    crosses at k = _FEW; random binary words of 300 letters lie far above."""
    for k in range(_FEW // 2 - 3, _FEW + 4):
        for w in ("01" * k, "0" * k, "0" * k + "1"):
            _assert_agrees(w)
    assert palindrome_count("01" * (_FEW // 2)) == _FEW + 1
    assert palindrome_count("0" * (_FEW - 1)) == _FEW
    assert palindrome_count("0" * _FEW) == _FEW + 1
    rng = random.Random(300)
    for _ in range(20):
        _assert_agrees("".join(rng.choice("01") for _ in range(300)))


@pytest.mark.parametrize("name,count", [("001011", 9), ("mu_p", 18),
                                        ("nu_p", 20), ("p", 10)])
def test_palindromes_of_long_prefixes(name, count):
    w = named_stream(name).prefix(100000)
    assert len(w) == 100000
    assert palindrome_count(w) == count
    assert palindrome_set(w) == palindrome_set_scan(w)


def test_closure_builds_no_tree_below_the_limit(monkeypatch):
    """A word with at most _FEW palindromes is answered without one eertree
    push; (01)^200, with 401, goes through the tree."""
    pushes = []
    push = Eertree.push

    def counted(tree, c):
        pushes.append(c)
        return push(tree, c)

    monkeypatch.setattr(Eertree, "push", counted)
    w = ("001011" * 2000)[:10000]
    assert palindrome_count(w) == 9 and len(palindrome_set(w)) == 9
    assert pushes == []
    w = "01" * 200
    assert palindrome_count(w) == 401
    assert len(pushes) == 400
    assert palindrome_set(w) == palindrome_set_scan(w)
    assert len(pushes) == 800


@given(binary)
def test_palindromes_closed_under_reversal(w):
    for x in palindrome_set(w):
        assert x == reverse(x)


def test_palindrome_count_monotone(nu_word):
    counts = [palindrome_count(nu_word[:L]) for L in (10, 100, 1000, 5000)]
    assert counts == sorted(counts)


@given(binary)
def test_reverse_complement_involutions(w):
    assert reverse(reverse(w)) == w
    assert complement(complement(w)) == w


def test_complement_requires_binary():
    with pytest.raises(ValueError):
        complement("012")
    assert complement("001011") == "110100"
    assert reverse("011") == "110"


def test_eertree_undo_random():
    """Random push/pop walks agree with the definitional scan after every
    step, including pops made straight after a push that made a palindrome
    alive."""
    for letters in ("01", "012"):
        rng = random.Random(99)
        tree = Eertree()
        stack = []
        undone_nodes = 0
        for _ in range(3000):
            if stack and rng.random() < 0.45:
                tree.pop()
                stack.pop()
            else:
                c = rng.choice(letters)
                created = tree.push(c)
                stack.append(c)
                if created is not None and rng.random() < 0.25:
                    tree.pop()
                    stack.pop()
                    undone_nodes += 1
            pals = palindrome_set_scan("".join(stack)) - {""}
            assert len(tree) == len(stack)
            assert tree.count() == len(pals)
            assert sorted(tree.alive_words()) == sorted(pals)
        assert undone_nodes > 100


def _observed(tree):
    """What an Eertree shows of its word: the word, its palindrome count and
    its live palindromes."""
    return "".join(tree.s[1:len(tree) + 1]), tree.count(), sorted(tree.alive_words())


@pytest.mark.parametrize("budget", range(13))
def test_capped_eertree_matches_uncapped(budget):
    """Random push/pop walks on an Eertree capped at budget - 1 non-empty
    palindromes, as a search with that palindrome budget caps it: a push
    refused by the cap returns False and leaves the word, its count and its
    live palindromes as they were (so it is not popped), an accepted push
    names the palindrome that an uncapped tree fed the same letters names,
    and the live palindromes are those of the definitional scan."""
    for letters in ("01", "012"):
        rng = random.Random(budget * 10 + len(letters))
        capped, free = Eertree(budget - 1), Eertree()
        word = ""
        refused = 0
        for _ in range(600):
            if word and rng.random() < 0.4:
                capped.pop()
                free.pop()
                word = word[:-1]
                continue
            c = rng.choice(letters)
            before = _observed(capped)
            got, want = capped.push(c), free.push(c)
            if got is False:
                refused += 1
                assert _observed(capped) == before
                # the uncapped tree made a palindrome alive past the cap
                assert want and free.count() == max(budget, 1)
                free.pop()
            else:
                word += c
                if got is None:
                    assert want is None
                else:
                    assert want and capped.node_word(got) == free.node_word(want)
                    assert word.endswith(capped.node_word(got))
            pals = palindrome_set_scan(word) - {""}
            assert len(pals) <= max(budget - 1, 0)
            assert _observed(capped) == _observed(free) == (word, len(pals), sorted(pals))
            assert len(capped) == len(word)
        assert refused > 0


def _longest_palindromic_suffix(w):
    return next(w[i:] for i in range(len(w) + 1) if w[i:] == w[i:][::-1])


@pytest.mark.parametrize("cap", range(13))
def test_eertree_nodes_outlive_their_words(cap):
    """Random walks that pop deep and then push a letter other than the one
    popped at that position leave many built palindromes out of the word,
    and bring some back; after every step the live ones are exactly the
    scan's, and the tree has built no more nodes than the distinct
    palindromes its pushes offered as the word's new longest palindromic
    suffix."""
    for letters in ("01", "012"):
        rng = random.Random(cap * 10 + len(letters))
        tree = Eertree(cap)
        word, avoid = "", None
        offered = set()
        most_dead = revived = 0
        for _ in range(500):
            if word and rng.random() < 0.3:
                keep = rng.randrange(len(word))
                for _ in range(len(word) - keep):
                    tree.pop()
                word, avoid = word[:keep], word[keep]
            else:
                c = rng.choice([x for x in letters if x != avoid])
                avoid = None
                suffix = _longest_palindromic_suffix(word + c)
                again = suffix in offered
                offered.add(suffix)
                got = tree.push(c)
                if got is not False:
                    word += c
                    revived += bool(got and again)
            pals = palindrome_set_scan(word) - {""}
            assert len(tree) == len(word)
            assert sorted(tree.alive_words()) == sorted(pals)
            assert tree.count() == len(pals) <= cap
            built = len(tree.lens) - 2
            assert built <= len(offered)
            most_dead = max(most_dead, built - len(pals))
        assert most_dead > 2 * cap and (revived or cap == 0), (letters, most_dead)


def test_factor_set_wrapper(p_word):
    text = p_word[:1000]
    assert len(factors(text, 2)) == 5
    assert "02" in text
    assert "20" not in text
    # factorial closure: subfactors of factors are factors
    for w in factors(text, 6):
        assert w[1:] in text and w[:-1] in text
