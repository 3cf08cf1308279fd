"""Palindromic tree (eertree) with O(1) undo, for backtracking searches.

Each push appends one letter and creates at most one node (the longest new
palindromic suffix); pop reverses exactly one accepted push.  Node 0 is the
imaginary root of length -1, node 1 the empty word.  See Rubinchik and
Shur, "EERTREE: an efficient data structure for processing palindromes in
strings" (Eur. J. Comb. 2018).
"""

from __future__ import annotations

import sys


class Eertree:
    """The undo log holds one int per push, the longest palindromic suffix
    before it.  Nodes are created in push order and each ends at the
    position of the push that made it, so the newest node was made by the
    push being undone exactly when it ends at the popped position; pop then
    deletes it and the edge from its parent.

    With a cap, a push that would create a node while the tree already
    holds cap nodes (both roots included) is refused: it returns False and
    leaves the tree as it was, so a refused push is not popped."""

    __slots__ = ("s", "lens", "link", "to", "end", "parent", "last", "trail", "cap")

    def __init__(self, cap: int | None = None):
        # s[0] is a sentinel equal to no letter, so the suffix-link walks need
        # no bounds test; letter i of the word is s[i + 1]
        self.s: list[str] = [""]
        self.lens = [-1, 0]
        self.link = [0, 0]
        self.to: list[dict] = [{}, {}]
        self.end = [-1, -1]  # index in s of the node's first occurrence's last letter
        self.parent = [0, 0]
        self.last = 1
        self.trail: list[int] = []
        self.cap = cap if cap is not None else sys.maxsize

    def push(self, c: str) -> int | None | bool:
        """Append letter c; return the new node id, None if the longest
        palindromic suffix was already known, or False, with nothing
        appended, if a new node would pass the cap."""
        s, lens, link = self.s, self.lens, self.link
        i = len(s)
        s.append(c)
        v = last = self.last
        while s[i - lens[v] - 1] != c:
            v = link[v]
        to_v = self.to[v]
        node = to_v.get(c)
        if node is not None:
            self.trail.append(last)
            self.last = node
            return None
        node = len(lens)
        if node >= self.cap:
            s.pop()
            return False
        if v:
            u = link[v]
            while s[i - lens[u] - 1] != c:
                u = link[u]
            lnk = self.to[u][c]
        else:
            lnk = 1  # a single letter's longest proper palindromic suffix is empty
        self.trail.append(last)
        self.last = to_v[c] = node
        lens.append(lens[v] + 2)
        link.append(lnk)
        self.to.append({})
        self.end.append(i)
        self.parent.append(v)
        return node

    def pop(self) -> None:
        s = self.s
        i = len(s) - 1
        node = len(self.lens) - 1
        if self.end[node] == i:
            del self.to[self.parent[node]][s[i]]
            self.lens.pop()
            self.link.pop()
            self.to.pop()
            self.end.pop()
            self.parent.pop()
        self.last = self.trail.pop()
        s.pop()

    def count(self) -> int:
        """Distinct non-empty palindromic factors of the current word."""
        return len(self.lens) - 2

    def node_word(self, node: int) -> str:
        end = self.end[node] + 1
        return "".join(self.s[end - self.lens[node]:end])

    def alive_words(self) -> list[str]:
        return [self.node_word(v) for v in range(2, len(self.lens))]

    def __len__(self) -> int:
        return len(self.s) - 1
