"""Rauzy graphs of factorial languages and the constrained-survivor
construction: enumerate length-l windows that sit in the middle of a valid
context, build the graph on (l-1)-factors, and split it into components.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .search import SearchConstraints, extendable_middles
from .words import complement, reverse


@dataclass
class RauzyGraph:
    order: int
    vertices: frozenset[str]
    arcs: frozenset[str]

    @classmethod
    def from_arcs(cls, arcs) -> "RauzyGraph":
        arcs = frozenset(arcs)
        if not arcs:
            return cls(0, frozenset(), arcs)
        lengths = {len(w) for w in arcs}
        if len(lengths) != 1:
            raise ValueError(f"arc words of mixed lengths: {sorted(lengths)}")
        (ell,) = lengths
        if ell < 1:
            raise ValueError("arcs must be non-empty words")
        verts = frozenset(w[:-1] for w in arcs) | frozenset(w[1:] for w in arcs)
        return cls(ell, verts, arcs)

    @classmethod
    def of_word(cls, text: str, ell: int) -> "RauzyGraph":
        return cls.from_arcs(text[i:i + ell] for i in range(len(text) - ell + 1))

    def least_arc(self) -> str:
        return min(self.arcs)

    def avoids(self, factor: str) -> bool:
        return all(factor not in w for w in self.arcs)

    def __len__(self):
        return len(self.arcs)


def build_rauzy(words) -> RauzyGraph:
    return RauzyGraph.from_arcs(words)


def survivor_set(bound, pal_budget: int, ell: int, margin: int | None = None,
                 symmetry: bool = True, node_budget: int | None = None):
    """Length-ell binary words v admitting a valid context p v s with
    |p| = |s| = margin: the context must satisfy the exponent bound and the
    distinct-palindrome budget (empty word included).

    margin defaults to ell, the narrowest context the component arguments
    use; larger margins weed out windows with no long-range extension.
    Returns (set of words, stats dict).
    """
    if ell < 2:
        raise ValueError("survivor windows need ell >= 2")
    if margin is None:
        margin = ell
    c = SearchConstraints(alphabet_size=2, exponent=bound,
                          palindrome_budget=pal_budget)
    middles, stats = extendable_middles(c, ell, margin, node_budget=node_budget,
                                        symmetry=symmetry)
    stats = dict(stats, margin=margin, symmetry=symmetry)
    return middles, stats


def trim_to_essential(arcs) -> frozenset[str]:
    """Largest sub-collection in which every arc extends on both sides
    (its head has an out-arc, its tail an in-arc).  Factors of bi-infinite
    words always survive, so trimming never loses realizable arcs."""
    arcs = set(arcs)
    while True:
        heads = {w[:-1] for w in arcs}
        tails = {w[1:] for w in arcs}
        keep = {w for w in arcs if w[1:] in heads and w[:-1] in tails}
        if keep == arcs:
            return frozenset(arcs)
        arcs = keep


def components(g: RauzyGraph, mode: str) -> list[RauzyGraph]:
    """Arc sets of the strongly connected components (arcs whose endpoints
    share an SCC), by Tarjan's pass; components without internal arcs are
    dropped.  In weak mode every arc also counts reversed, so the SCCs of
    that symmetric graph are the weakly connected components and every arc
    falls in one.  Sorted by lexicographically least arc."""
    if mode not in ("weak", "strong"):
        raise ValueError(f"mode must be 'weak' or 'strong', not {mode!r}")
    adj: dict[str, list[str]] = {}
    verts: set[str] = set()
    for w in g.arcs:
        u, v = w[:-1], w[1:]
        verts.add(u)
        verts.add(v)
        adj.setdefault(u, []).append(v)
        if mode == "weak":
            adj.setdefault(v, []).append(u)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    onstack: set[str] = set()
    stack: list[str] = []
    comp_of: dict[str, int] = {}
    counter = 0
    ncomp = 0

    for root in sorted(verts):
        if root in index:
            continue
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(adj.get(w, ()))))
                    advanced = True
                    break
                if w in onstack and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                if low[v] < low[pv]:
                    low[pv] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp_of[w] = ncomp
                    if w == v:
                        break
                ncomp += 1

    groups: dict[int, list[str]] = {}
    for w in sorted(g.arcs):
        u, v = w[:-1], w[1:]
        if comp_of[u] == comp_of[v]:
            groups.setdefault(comp_of[u], []).append(w)
    comps = [RauzyGraph.from_arcs(arcs) for arcs in groups.values()]
    return sorted(comps, key=RauzyGraph.least_arc)


@dataclass
class OrbitStructure:
    reversal_map: dict[int, int]
    complement_map: dict[int, int]
    orbits: list[list[int]] = field(default_factory=list)


def symmetry_orbits(comps: list[RauzyGraph]) -> OrbitStructure:
    """Match each component with its image under arc-wise reversal and
    complement; comps must be closed under both symmetries."""
    arcsets = [c.arcs for c in comps]

    def locate(arcs, tag):
        try:
            return arcsets.index(frozenset(arcs))
        except ValueError:
            raise ValueError(f"components not closed under {tag}") from None

    rev = {i: locate({reverse(w) for w in c.arcs}, "reversal")
           for i, c in enumerate(comps)}
    comp = {i: locate({complement(w) for w in c.arcs}, "complement")
            for i, c in enumerate(comps)}
    seen: set[int] = set()
    orbits = []
    for i in range(len(comps)):
        if i in seen:
            continue
        orbit = {i}
        frontier = {i}
        while frontier:
            nxt = {rev[j] for j in frontier} | {comp[j] for j in frontier}
            frontier = nxt - orbit
            orbit |= nxt
        orbits.append(sorted(orbit))
        seen |= orbit
    return OrbitStructure(rev, comp, orbits)
