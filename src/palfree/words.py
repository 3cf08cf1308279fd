"""Finite words over small alphabets: factors and palindromes.

Words are plain strings of ASCII digits ("0".."3").  Strings are immutable,
hashable, compare lexicographically (letters are ordered 0 < 1 < 2 < 3),
and substring search runs in C, which is what the search modules lean on.
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


def palindrome_set(w: str) -> set[str]:
    """All distinct palindromic factors of w, always including the empty word.

    Backed by the palindromic tree; agreement with the direct scanner is a
    tested invariant (see palindrome_set_scan in tests/conftest.py).
    """
    tree = Eertree()
    for c in w:
        tree.push(c)
    out = set(tree.alive_words())
    out.add("")
    return out


def palindrome_count(w: str) -> int:
    """Number of distinct palindromic factors, the empty word included."""
    tree = Eertree()
    for c in w:
        tree.push(c)
    return tree.count() + 1


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
