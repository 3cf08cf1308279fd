import random
from itertools import product

import pytest

from palfree.rauzy import (RauzyGraph, build_rauzy, components, survivor_set,
                           symmetry_orbits, trim_to_essential)
from palfree.repetition import ExponentBound
from palfree.words import complement, reverse


def test_build_rauzy_complete():
    g = build_rauzy({"00", "01", "10", "11"})
    assert g.order == 2
    assert g.vertices == {"0", "1"}
    assert len(g.arcs) == 4


def test_build_rauzy_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        build_rauzy({"00", "010"})


def test_vertices_are_prefixes_and_suffixes():
    g = RauzyGraph.of_word("0110010110", 4)
    assert g.vertices == {w[:-1] for w in g.arcs} | {w[1:] for w in g.arcs}


def test_components_modes():
    # two cycles joined by a one-way bridge: weakly one piece, strongly two
    arcs = {"00", "01", "10", "11"} - {"10"}
    g = build_rauzy(arcs)
    weak = components(g, "weak")
    strong = components(g, "strong")
    assert len(weak) == 1
    assert len(strong) == 2  # the self-loops 00 and 11; 01 is a bridge
    assert {a for c in strong for a in c.arcs} == {"00", "11"}
    with pytest.raises(ValueError):
        components(g, "both")


def test_strong_refines_weak():
    # the second graph: cycles on 001 and 011 joined by the one-way bridge
    # 0011, and a loop on 222 apart from both
    two_pieces = (RauzyGraph.of_word("001" * 3, 4).arcs
                  | RauzyGraph.of_word("011" * 3, 4).arcs | {"0011", "2222"})
    for g, n_weak, n_strong in ((RauzyGraph.of_word("001011001100101100110" * 3, 5), 1, 1),
                                (build_rauzy(two_pieces), 2, 3)):
        weak_comps = components(g, "weak")
        assert len(weak_comps) == n_weak
        # the weak components' arcs partition the arcs ...
        assert sum(len(c) for c in weak_comps) == len(g.arcs)
        assert frozenset().union(*(c.arcs for c in weak_comps)) == g.arcs
        # ... and their vertex sets are pairwise disjoint
        for i, c in enumerate(weak_comps):
            for d in weak_comps[i + 1:]:
                assert not c.vertices & d.vertices
        weak = {a: i for i, c in enumerate(weak_comps) for a in c.arcs}
        strong = components(g, "strong")
        assert len(strong) == n_strong
        for comp in strong:
            ids = {weak[a] for a in comp.arcs}
            assert len(ids) == 1
    # random Rauzy graphs against the definition, in both modes
    rng = random.Random(2023)
    for _ in range(300):
        letters, ell = rng.choice(("01", "012")), rng.randint(3, 5)
        density = rng.random()
        arcs = {"".join(w) for w in product(letters, repeat=ell) if rng.random() < density}
        if arcs:
            g = build_rauzy(arcs)
            for mode in ("weak", "strong"):
                assert [set(c.arcs) for c in components(g, mode)] == \
                    _classes_by_reachability(arcs, mode), (sorted(arcs), mode)


def _classes_by_reachability(arcs, mode):
    """The definition: two vertices share a class iff each reaches the
    other (over arcs taken both ways in weak mode).  Returns the arcs whose
    ends share a class, grouped by class and sorted by least arc."""
    succ = {}
    for w in arcs:
        succ.setdefault(w[:-1], set()).add(w[1:])
        if mode == "weak":
            succ.setdefault(w[1:], set()).add(w[:-1])

    def reach(u):
        seen, todo = {u}, [u]
        while todo:
            for v in succ.get(todo.pop(), ()):
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        return seen

    reached = {v: reach(v) for w in arcs for v in (w[:-1], w[1:])}
    groups = {}
    for w in arcs:
        u, v = w[:-1], w[1:]
        if u in reached[v]:
            cls = frozenset(x for x in reached[u] if u in reached[x])
            groups.setdefault(cls, set()).add(w)
    return sorted(groups.values(), key=min)


def test_survivor_set_binary_squarefree_is_empty():
    s, stats = survivor_set(ExponentBound.parse("2"), None, 4)
    assert s == set()


def test_survivor_set_requires_window():
    with pytest.raises(ValueError):
        survivor_set(ExponentBound.parse("2"), None, 1)


def test_trim_keeps_biinfinite_walks():
    arcs = {"00", "01", "10", "11"}
    assert trim_to_essential(arcs) == arcs
    # a dead-end path trims away (iteratively), the cycle stays
    arcs2 = {"00", "01", "12"}
    assert trim_to_essential(arcs2) == {"00"}
    # a bridge between two cycles survives: it lies on a bi-infinite walk
    arcs3 = {"00", "01", "12", "22"}
    assert trim_to_essential(arcs3) == arcs3


def test_symmetry_orbit_singleton():
    g = build_rauzy({"00", "01", "10", "11"})
    orbits = symmetry_orbits([g])
    assert len(orbits.orbits) == 1
    assert orbits.reversal_map == {0: 0}
    assert orbits.complement_map == {0: 0}


def test_symmetry_orbit_failure_reported():
    g = build_rauzy({"001", "010", "100"})  # not complement-closed alone
    with pytest.raises(ValueError):
        symmetry_orbits([g])


def test_symmetry_orbits_match_closure():
    """On random binary graphs closed under reversal and complement, whose
    components are then closed under both too, the maps match the arc sets
    and each orbit is the closure of its least member under both maps."""
    rng = random.Random(2023)
    seen_sizes = set()
    for _ in range(200):
        ell = rng.randint(4, 6)
        density = rng.random() / 4
        arcs = {v for w in product("01", repeat=ell) if rng.random() < density
                for u in ("".join(w), complement("".join(w)))
                for v in (u, reverse(u))}
        for mode in ("weak", "strong"):
            comps = components(build_rauzy(arcs), mode)
            orb = symmetry_orbits(comps)
            arcsets = [c.arcs for c in comps]
            for i, c in enumerate(comps):
                assert arcsets[orb.reversal_map[i]] == {reverse(w) for w in c.arcs}
                assert arcsets[orb.complement_map[i]] == {complement(w) for w in c.arcs}
            closures = []
            for i in range(len(comps)):
                orbit, frontier = {i}, {i}
                while frontier:
                    frontier = {m[j] for j in frontier
                                for m in (orb.reversal_map, orb.complement_map)} - orbit
                    orbit |= frontier
                if min(orbit) == i:
                    closures.append(sorted(orbit))
            assert orb.orbits == closures
            seen_sizes |= {len(o) for o in closures}
    assert seen_sizes == {1, 2, 4}


def test_survivor_pipeline_small_instance(mu_word):
    bound = ExponentBound.parse("13/5")
    surv, stats = survivor_set(bound, 18, 20, margin=40)
    trimmed = trim_to_essential(surv)
    comps = components(build_rauzy(trimmed), "weak")
    assert len(comps) == 4
    assert {len(c) for c in comps} == {41}
    orb = symmetry_orbits(comps)
    assert len(orb.orbits) == 1 and len(orb.orbits[0]) == 4
    chosen = [c for c in comps if c.avoids("1101")]
    assert len(chosen) == 1
    ref = RauzyGraph.of_word(mu_word, 20)
    assert chosen[0] == ref
    assert chosen[0].vertices == {w for w in ref.vertices}
    # factors of a long constrained word stay inside one weak component
    arcs_of_prefix = {mu_word[i:i + 20] for i in range(1000 - 20)}
    homes = {i for i, c in enumerate(comps) if arcs_of_prefix & c.arcs}
    assert len(homes) == 1


def test_survivor_margin_recorded():
    s, stats = survivor_set(ExponentBound.parse("2"), None, 4, margin=7)
    assert stats["margin"] == 7
