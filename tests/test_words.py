import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import palindrome_set_scan
from palfree.eertree import Eertree
from palfree.words import (complement, factors, palindrome_count, palindrome_set,
                           reverse)

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


def test_palindrome_set_periodic_baseline():
    w = ("001011" * 20000)[:100000]
    assert palindrome_count(w) == 9


@given(quaternary)
def test_palindrome_scan_agreement(w):
    assert palindrome_set(w) == palindrome_set_scan(w)


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
    step, including pops made straight after a push that created a node."""
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


def _slots(tree):
    """Every slot of an Eertree, copied."""
    return (list(tree.s), list(tree.lens), list(tree.link),
            [dict(edges) for edges in tree.to], list(tree.end),
            list(tree.parent), tree.last, list(tree.trail), tree.cap)


@pytest.mark.parametrize("budget", range(13))
def test_capped_eertree_matches_uncapped(budget):
    """Random push/pop walks on an Eertree capped at budget + 1 nodes: a
    push refused by the cap returns False and leaves every slot as it was
    (so it is not popped), an accepted push returns the node id of an
    uncapped tree fed the same letters, and the live palindromes are those
    of the definitional scan."""
    for letters in ("01", "012"):
        rng = random.Random(budget * 10 + len(letters))
        capped, free = Eertree(budget + 1), Eertree()
        word = ""
        refused = 0
        for _ in range(600):
            if word and rng.random() < 0.4:
                capped.pop()
                free.pop()
                word = word[:-1]
                continue
            c = rng.choice(letters)
            before = _slots(capped)
            got, want = capped.push(c), free.push(c)
            if got is False:
                refused += 1
                assert _slots(capped) == before
                # the uncapped tree made a node past the cap
                assert want is not None and want >= budget + 1
                free.pop()
            else:
                assert got == want
                word += c
            pals = palindrome_set_scan(word) - {""}
            assert len(pals) <= max(budget, 0)
            assert len(capped) == len(word)
            assert sorted(capped.alive_words()) == sorted(pals)
        assert refused > 0


def test_factor_set_wrapper(p_word):
    text = p_word[:1000]
    assert len(factors(text, 2)) == 5
    assert "02" in text
    assert "20" not in text
    # factorial closure: subfactors of factors are factors
    for w in factors(text, 6):
        assert w[1:] in text and w[:-1] in text
