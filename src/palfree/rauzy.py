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
    Returns (set of words, {nodes, margin, symmetry}), nodes the pushes of
    the walk.
    """
    if ell < 2:
        raise ValueError("survivor windows need ell >= 2")
    if margin is None:
        margin = ell
    c = SearchConstraints(alphabet_size=2, exponent=bound,
                          palindrome_budget=pal_budget)
    middles, nodes = extendable_middles(c, ell, margin, node_budget=node_budget,
                                        symmetry=symmetry)
    return middles, {"nodes": nodes, "margin": margin, "symmetry": symmetry}


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
    share an SCC), by Kosaraju's two passes (Sharir 1981); components
    without internal arcs are dropped.  In weak mode every arc also counts
    reversed, so the SCCs of that symmetric graph are the weakly connected
    components and every arc falls in one.  Sorted by lexicographically
    least arc."""
    if mode not in ("weak", "strong"):
        raise ValueError(f"mode must be 'weak' or 'strong', not {mode!r}")
    arcs = sorted(g.arcs)  # a fixed visiting order, and groups by least arc
    pairs = [(w[:-1], w[1:]) for w in arcs]
    if mode == "weak":
        pairs += [(v, u) for u, v in pairs]
    out: dict[str, list[str]] = {}
    into: dict[str, list[str]] = {}
    for u, v in pairs:
        out.setdefault(u, []).append(v)
        into.setdefault(v, []).append(u)

    # first pass: depth-first over out-arcs, vertices in finishing order;
    # a vertex without out-arcs is reached from the tail of its in-arc
    finished: list[str] = []
    seen: set[str] = set()
    for root in out:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(out[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in seen:
                    seen.add(w)
                    work.append((w, iter(out.get(w, ()))))
                    break
            else:
                work.pop()
                finished.append(v)

    # second pass: what the in-arcs reach from the latest finisher not yet
    # placed is its SCC, named by that finisher
    comp_of: dict[str, str] = {}
    for root in reversed(finished):
        if root in comp_of:
            continue
        comp_of[root] = root
        stack = [root]
        while stack:
            for u in into.get(stack.pop(), ()):
                if u not in comp_of:
                    comp_of[u] = root
                    stack.append(u)

    groups: dict[str, list[str]] = {}
    for w in arcs:
        if comp_of[w[:-1]] == comp_of[w[1:]]:
            groups.setdefault(comp_of[w[1:]], []).append(w)
    return [RauzyGraph.from_arcs(group) for group in groups.values()]


@dataclass
class OrbitStructure:
    reversal_map: dict[int, int]
    complement_map: dict[int, int]
    orbits: list[list[int]] = field(default_factory=list)


def symmetry_orbits(comps: list[RauzyGraph]) -> OrbitStructure:
    """Match each component with its image under arc-wise reversal and
    complement; comps must be closed under both symmetries.  The two maps
    are commuting involutions, so the orbit of i is {i, rev i, comp i,
    rev comp i}; orbits are sorted by least member."""
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
    orbits = {tuple(sorted({i, rev[i], comp[i], rev[comp[i]]})) for i in rev}
    return OrbitStructure(rev, comp, [list(o) for o in sorted(orbits)])
