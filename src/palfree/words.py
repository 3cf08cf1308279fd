"""Finite words over small alphabets: factors and palindromes.

Words are plain strings of ASCII digits ("0".."3").  Strings are immutable,
hashable, compare lexicographically (letters are ordered 0 < 1 < 2 < 3),
and substring search runs in C, which is what the search modules lean on.

Palindromic factors come from the centre closure, which builds them from
the letters outward with one substring test per palindrome and letter, so
a word with at most _FEW palindromes costs a few dozen C-level searches,
not one Python step per letter.  The palindromic tree (eertree.Eertree)
keeps two roles: the palindrome budgets of the backtracking searches,
where the word grows and shrinks while each palindrome's node, once built,
persists and born marks the ones the word holds, and the fallback for a
word with more than _FEW palindromes, whose count it finds in O(|w|) with
one direct-link lookup per letter.
"""

from __future__ import annotations

from .eertree import Eertree

MAX_ALPHABET = 4
ALPHABETS = {d: "".join(chr(ord("0") + i) for i in range(d))
             for d in range(1, MAX_ALPHABET + 1)}


def check_word(w: str, alphabet_size: int = MAX_ALPHABET) -> str:
    """Validate letters; returns w unchanged."""
    allowed = ALPHABETS[alphabet_size]
    for c in w:
        if c not in allowed:
            raise ValueError(f"letter {c!r} outside alphabet of size {alphabet_size}")
    return w


def factors(w: str, n: int) -> set[str]:
    """All distinct length-n factors of w; empty set when n > |w|."""
    if n < 0:
        raise ValueError("factor length must be >= 0")
    if n == 0:
        return {""}
    return {w[i:i + n] for i in range(len(w) - n + 1)}


def reverse(w: str) -> str:
    return w[::-1]


_COMPLEMENT = str.maketrans("01", "10")


def complement(w: str) -> str:
    """Bit complement; only defined on binary words."""
    check_word(w, 2)
    return w.translate(_COMPLEMENT)


# The centre closure gives up once it holds more palindromes than this (the
# empty word included).  Every word the paper studies stays below it: 9 for
# 001011, 10 for p, 18 for mu_p, 20 for nu_p and at most 25 for the image
# languages of the transfer instances (thm3h's budget).
_FEW = 32


def _centre_closure(w: str) -> set[str] | None:
    """The palindromic factors of w, the empty word included, or None once
    there are more than _FEW of them.

    A palindrome of length >= 2 is cPc for exactly one letter c and one
    palindrome P, its centre, and P is a factor wherever cPc is.  So the
    palindromic factors are the closure of the empty word and the letters
    of w under P -> cPc, taking cPc only when it is a factor.  The closure
    grows one length step (two letters) at a time; each palindrome is tested
    once with each letter of w, so it makes |A|.|S| substring tests, each
    one C-level str search, for alphabet A and palindrome set S."""
    letters = set(w)
    pals = {""} | letters
    level = list(pals)
    while level and len(pals) <= _FEW:
        level = [q for p in level for c in letters if (q := c + p + c) in w]
        pals.update(level)
    return pals if len(pals) <= _FEW else None


def _tree(w: str) -> Eertree:
    tree = Eertree()
    for c in w:
        tree.push(c)
    return tree


def palindrome_set(w: str) -> set[str]:
    """All distinct palindromic factors of w, always including the empty word.

    The centre closure answers a word with at most _FEW palindromes in
    |A|.|S| substring tests; a palindrome-rich word goes through the
    palindromic tree in O(|w|) pushes.  Agreement with the direct scanner
    is a tested invariant (see palindrome_set_scan in tests/conftest.py)."""
    pals = _centre_closure(w)
    if pals is None:
        pals = set(_tree(w).alive_words())
        pals.add("")
    return pals


def palindrome_count(w: str) -> int:
    """Number of distinct palindromic factors, the empty word included:
    the centre closure's size, or past _FEW the palindromic tree's count."""
    pals = _centre_closure(w)
    return len(pals) if pals is not None else _tree(w).count() + 1


def palindrome_cut_index(pals: set[str], horizon: int) -> int | None:
    """Smallest k >= 2, within the horizon, with no palindromes of lengths
    k-1 and k.  The horizon is the length up to which pals holds every
    palindrome of the language: (d - 1) * q for the images of the free
    source words of length <= d under a q-uniform morphism, because a
    factor of length L of an image spans at most ceil((L - 1) / q) + 1
    letter images.  Any longer palindrome contains a central palindromic
    factor of length k-1 or k (peel two letters at a time), so none exist
    beyond a genuine cut, and pals is then the language's whole set."""
    bylen = set(len(p) for p in pals)
    maxlen = max(bylen, default=0)
    for k in range(2, min(maxlen + 2, horizon) + 1):
        if (k - 1) not in bylen and k not in bylen:
            return k
    return None
