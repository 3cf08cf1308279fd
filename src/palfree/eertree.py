"""Palindromic tree (eertree) with persistent nodes, for backtracking searches.

A node is a palindrome.  Its length, edges and direct links depend on the
palindrome alone, so a node, once built, stays valid for every word the
tree holds later and is never deleted; a search that pushes and pops the
same few palindromes builds each of them once.  Which nodes the current
word holds is kept apart, in born.  Node 0 is the imaginary root of length
-1, node 1 the empty word.  See Rubinchik and Shur, "EERTREE: an efficient
data structure for processing palindromes in strings" (Eur. J. Comb.
2018), for the tree and its direct links.
"""

from __future__ import annotations

import sys


class Eertree:
    """The word is s[1..n], and lasts[k] is the longest palindromic suffix
    of its first k letters.  born[v] is the end position of the first
    occurrence of v in the word, or 0 when the word does not hold v.  A
    push writes s and lasts at n + 1 over what a popped branch left there,
    so nothing is logged for undo.  The only palindrome whose first
    occurrence can end at n is lasts[n], so pop clears born[lasts[n]] when
    it equals n and lowers n.

    direct[v][c] is the longest proper palindromic suffix of v that is
    preceded by c inside v; a missing entry stands for the imaginary root,
    which every letter extends.  One lookup finds the suffix that a pushed
    letter extends, and the suffix link of a new node, where suffix links
    would loop.  A new node's table is its suffix link's with one entry
    set.

    With a cap, a push that would make a palindrome alive while count()
    is at the cap is refused: it returns False and leaves the word as it
    was, so a refused push is not popped.  It may still build the node."""

    __slots__ = ("s", "n", "lasts", "lens", "to", "direct", "born", "alive", "cap")

    def __init__(self, cap: int | None = None):
        # s[0] is a sentinel equal to no letter, so the letter before a
        # suffix as long as the word differs from every pushed letter
        self.s: list[str] = [""]
        self.n = 0
        self.lasts = [1]
        self.lens = [-1, 0]
        self.to: list[dict] = [{}, {}]
        self.direct: list[dict] = [{}, {}]
        self.born = [0, 0]
        self.alive = 0  # nodes with born > 0
        self.cap = cap if cap is not None else sys.maxsize

    def push(self, c: str) -> int | None | bool:
        """Append letter c; return the node that the new longest
        palindromic suffix makes alive, None if the word already held it,
        or False, with nothing appended, if it did not and count() is at
        the cap."""
        s, lasts = self.s, self.lasts
        i = self.n + 1
        if i < len(s):
            s[i] = c
        else:
            s.append(c)
            lasts.append(1)
        v = lasts[i - 1]
        if s[i - 1 - self.lens[v]] != c:
            v = self.direct[v].get(c, 0)
        node = self.to[v].get(c)
        if node is None:
            node = self._build(v, c, i)
        lasts[i] = node  # past the word until n = i
        born = self.born
        if born[node]:
            self.n = i
            return None
        if self.alive >= self.cap:
            return False
        born[node] = i
        self.alive += 1
        self.n = i
        return node

    def _build(self, v: int, c: str, i: int) -> int:
        """The node of cvc, whose occurrence ends at s[i]."""
        lens = self.lens
        if v:
            # cuc for the longest proper suffix u of v preceded by c; it
            # occurs earlier in the word, so its node exists
            lnk = self.to[self.direct[v].get(c, 0)][c]
        else:
            lnk = 1  # a single letter's longest proper palindromic suffix is empty
        table = dict(self.direct[lnk])
        table[self.s[i - lens[lnk]]] = lnk
        node = len(lens)
        self.to[v][c] = node
        lens.append(lens[v] + 2)
        self.to.append({})
        self.direct.append(table)
        self.born.append(0)
        return node

    def pop(self) -> None:
        n = self.n
        node = self.lasts[n]
        if self.born[node] == n:
            self.born[node] = 0
            self.alive -= 1
        self.n = n - 1

    def count(self) -> int:
        """Distinct non-empty palindromic factors of the current word."""
        return self.alive

    def node_word(self, node: int) -> str:
        """The palindrome of an alive node."""
        end = self.born[node] + 1
        return "".join(self.s[end - self.lens[node]:end])

    def alive_words(self) -> list[str]:
        return [self.node_word(v) for v in range(2, len(self.lens)) if self.born[v]]

    def __len__(self) -> int:
        return self.n
