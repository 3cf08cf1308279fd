import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (TimeLimitExceeded, _first_violation_scan,
                      palindrome_set_scan, time_limit)
from palfree.morphisms import load_morphism
from palfree.repetition import ExponentBound
from palfree.search import (IMAGE_FORBIDDEN, REFUTATION_ORDER,
                            TERNARY_FORBIDDEN, BudgetExceeded, ConstraintState,
                            ExhaustionCertificate, Inconclusive, Reached,
                            SearchConstraints, SymmetryError, Walk, count_words,
                            estimate_growth, extendable_middles,
                            prove_preimage_forbidden, replay_proof,
                            run_preimage_family, search)
from palfree.words import ALPHABETS, factors, palindrome_count

F = Fraction


def cubefree():
    return ExponentBound(F(3), strict=False)


def test_budget8_exhausts():
    c = SearchConstraints(2, None, 8)
    res = search(c, 400, symmetry=True)
    assert isinstance(res, ExhaustionCertificate)
    assert res.max_depth_reached == 8
    assert res.longest_words  # recorded witnesses of the deepest level
    assert all(len(w) == 8 for w in res.longest_words)


def test_cubefree_budget14_exhausts():
    c = SearchConstraints(2, cubefree(), 14)
    res = search(c, 400, symmetry=True)
    assert isinstance(res, ExhaustionCertificate)
    assert res.max_depth_reached == 52


def test_search_reaches_witness():
    c = SearchConstraints(2, ExponentBound.parse("5/2+"), 20)
    res = search(c, 120, symmetry=False)
    assert isinstance(res, Reached)
    assert len(res.witness) == 120
    # the witness is the lexicographically least valid word of that length:
    # no sibling branch left of it can be valid
    assert res.witness[0] == "0"


def test_search_determinism():
    c = SearchConstraints(2, cubefree(), 12)
    a = search(c, 300, symmetry=True)
    b = search(c, 300, symmetry=True)
    assert (a.max_depth_reached, a.nodes_visited, a.longest_words) == \
           (b.max_depth_reached, b.nodes_visited, b.longest_words)


def test_search_resume_equivalence():
    c = SearchConstraints(2, cubefree(), 13)
    full = search(c, 300, symmetry=True)
    part = search(c, 300, node_budget=500, symmetry=True)
    assert isinstance(part, Inconclusive)
    assert part.frontier
    rest = search(c, 300, frontier=part.frontier)
    assert isinstance(rest, ExhaustionCertificate)
    assert max(part.max_depth_reached, rest.max_depth_reached) == full.max_depth_reached


def test_count_words_unconstrained():
    counts = count_words(SearchConstraints(2), 10, symmetry=True)
    assert counts == [2 ** n if n else 1 for n in range(11)]


def test_count_words_depth_zero():
    assert count_words(SearchConstraints(2), 0) == [1]
    assert count_words(SearchConstraints(3), 0, symmetry=False) == [1]
    with pytest.raises(ValueError):
        count_words(SearchConstraints(2), -1)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3),
       st.sampled_from([None, "3/2", "5/3+", "7/4", "2", "2+", "7/3+", "5/2", "3"]),
       st.one_of(st.none(), st.integers(1, 9)),
       st.lists(st.text(alphabet="012", min_size=1, max_size=3), max_size=3),
       st.integers(1, 8))
def test_count_words_matches_brute_force(size, spec, budget, forbidden, n):
    letters = ALPHABETS[size]
    forbidden = tuple(f for f in forbidden if set(f) <= set(letters))
    bound = ExponentBound.parse(spec) if spec else None
    want = [0] * (n + 1)
    for k in range(n + 1):
        for w in map("".join, product(letters, repeat=k)):
            if bound is not None and _first_violation_scan(w, bound) is not None:
                continue
            if budget is not None and palindrome_count(w) > budget:
                continue
            if not any(f in w for f in forbidden):
                want[k] += 1
    c = SearchConstraints(size, bound, budget, forbidden)
    assert count_words(c, n, symmetry=False) == want


@pytest.mark.parametrize("use_bound", [False, True])
@pytest.mark.parametrize("use_budget", [False, True])
@pytest.mark.parametrize("use_forbidden", [False, True])
@settings(max_examples=100, deadline=None)
@given(size=st.integers(2, 3),
       spec=st.sampled_from(["3/2", "7/4", "2", "2+", "7/3+", "3"]),
       budget=st.integers(1, 12),
       forbidden=st.lists(st.text(alphabet="012", min_size=2, max_size=4),
                          min_size=1, max_size=3),
       steps=st.lists(st.tuples(st.booleans(), st.integers(0, 2)), max_size=80))
def test_constraint_state_matches_definitions(use_bound, use_budget, use_forbidden,
                                              size, spec, budget, forbidden, steps):
    """Every verdict of a random push/pop sequence equals the definitions on
    the live word; a refused letter is popped before the next push, as in
    Walk."""
    letters = ALPHABETS[size]
    bound = ExponentBound.parse(spec) if use_bound else None
    budget = budget if use_budget else None
    forbidden = tuple(f for f in forbidden if set(f) <= set(letters)) if use_forbidden else ()
    state = ConstraintState(SearchConstraints(size, bound, budget, forbidden))
    word = ""
    for grow, k in steps:
        if word and not grow:
            state.pop()
            word = word[:-1]
            continue
        ch = letters[k % size]
        longer = word + ch
        want = ((bound is None or _first_violation_scan(longer, bound) is None)
                and (budget is None or len(palindrome_set_scan(longer)) <= budget)
                and not any(f in longer for f in forbidden))
        assert state.push(ch) == want, (word, ch)
        if want:
            word = longer
        else:
            state.pop()


def test_count_words_monotone_under_tightening():
    loose = count_words(SearchConstraints(2, None, 10), 25)
    tight = count_words(SearchConstraints(2, None, 9), 25)
    tighter = count_words(SearchConstraints(2, cubefree(), 9), 25)
    assert all(a >= b for a, b in zip(loose, tight))
    assert all(a >= b for a, b in zip(tight, tighter))


def test_count_words_against_search_depths():
    c = SearchConstraints(2, cubefree(), 14)
    counts = count_words(c, 60)
    assert counts[52] > 0
    assert all(x == 0 for x in counts[53:])
    # count at the deepest level matches the exhaustion certificate
    res = search(c, 400, symmetry=True)
    assert res.longest_count * 2 == counts[52]


def test_forbidden_factor_constraint():
    c = SearchConstraints(2, None, None, ("00", "11"))
    res = search(c, 64, symmetry=False)
    assert isinstance(res, Reached)
    assert res.witness == "01" * 32
    counts = count_words(c, 12, symmetry=True)
    assert counts[12] == 2  # (01)^6 and (10)^6
    # with an exponent bound the factors are tested on the checker's buffer
    cube = SearchConstraints(2, ExponentBound(F(3), strict=False), None, ("00", "11"))
    assert count_words(cube, 7, symmetry=False) == [1, 2, 2, 2, 2, 2, 0, 0]
    assert search(cube, 6).max_depth_reached == 5


def test_permutation_invariance_of_forbidden_sets():
    assert SearchConstraints(2, cubefree(), 8).permutation_invariant()
    assert SearchConstraints(2, None, None, ("00", "11")).permutation_invariant()
    assert not SearchConstraints(2, None, None, ("0",)).permutation_invariant()
    # closed under the swap 0<->1 but not under permutations moving letter 2
    assert not SearchConstraints(3, None, None, ("01", "10")).permutation_invariant()


def test_search_rejects_symmetry_on_asymmetric_constraints():
    c = SearchConstraints(2, None, None, ("0",))
    with pytest.raises(SymmetryError):
        search(c, 5, symmetry=True)
    assert isinstance(search(c, 5, symmetry=False), Reached)  # 11111


def test_count_words_rejects_symmetry_on_asymmetric_constraints():
    c = SearchConstraints(2, None, None, ("0",))
    with pytest.raises(SymmetryError):
        count_words(c, 4, symmetry=True)
    assert count_words(c, 4, symmetry=False) == [1, 1, 1, 1, 1]


def test_extendable_middles_symmetry_guard_and_closure():
    with pytest.raises(SymmetryError):
        extendable_middles(SearchConstraints(2, None, None, ("0",)), 3, 1,
                           symmetry=True)
    # ternary: the reduced walk must be closed under every letter permutation
    c = SearchConstraints(3, ExponentBound(F(2), strict=False))
    full, _ = extendable_middles(c, 3, 1)
    reduced, _ = extendable_middles(c, 3, 1, symmetry=True)
    assert reduced == full and full


def test_extendable_middles_budget_counts_the_refused_attempt():
    c = SearchConstraints(2, ExponentBound.parse("13/5"), 18)
    with pytest.raises(BudgetExceeded) as exc:
        extendable_middles(c, 20, 40, node_budget=5000, symmetry=True)
    assert exc.value.stats == {"nodes": 5001, "leaves": 2}


class _Balance:
    """An all-accepting push/pop state that counts its unpopped pushes."""

    def __init__(self):
        self.depth = 0

    def push(self, ch):
        self.depth += 1
        return True

    def pop(self):
        self.depth -= 1


def test_walk_depth_is_not_bounded_by_the_recursion_limit():
    state = _Balance()
    seen = []
    walk = Walk(state, "01", 5000, lambda w: seen.append(w) or len(w) == 5000)
    assert walk.run([""]) is None
    assert seen == ["0" * k for k in range(1, 5001)]
    assert walk.nodes == 5000 and state.depth == 0


def test_walk_branch_memory_is_linear_in_depth():
    """An all-accepting walk 5,000 letters deep keeps its branch as one
    str: it peaks under 1 MiB, where one str per level would hold about
    d^2 / 2 = 12.5 million letters."""
    state = _Balance()
    walk = Walk(state, "01", 5000, lambda w: len(w) == 5000)
    tracemalloc.start()
    try:
        assert walk.run([""]) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert walk.nodes == 5000 and state.depth == 0


def test_time_limit_stops_a_runaway_walk_by_name():
    """The per-test time limit interrupts a walk that would not end within
    it and names the test."""
    walk = Walk(_Balance(), "01", 10 ** 9, lambda w: False)
    with pytest.raises(TimeLimitExceeded, match="runaway ran past its 0.2 s"):
        with time_limit("runaway", 0.2):
            walk.run([""])


def _walk(c, depth, roots, budget=None, stop_at=None):
    """Visits, nodes, frontier and final state of one Walk on a fresh state;
    with stop_at the stop_at-th visit stops the walk."""
    state = ConstraintState(c)
    seen = []

    def visit(word):
        seen.append(word)
        return len(seen) == stop_at

    walk = Walk(state, ALPHABETS[c.alphabet_size], depth, visit, budget)
    rest = walk.run(roots)
    return seen, walk.nodes, rest, state


@pytest.mark.parametrize("c, depth", [
    (SearchConstraints(2, cubefree(), 9), 12),
    (SearchConstraints(3, ExponentBound.parse("2"), 6, ("12",)), 9),
])
def test_walk_budget_frontier_and_stop_are_exact(c, depth):
    """A budgeted walk resumed from its frontier makes the full walk's
    visits and nodes; a stop at any visit leaves the state empty."""
    full, total, rest, _ = _walk(c, depth, [""])
    assert rest is None and total > 50
    for b in range(total + 1):
        seen, nodes, frontier, _ = _walk(c, depth, [""], budget=b)
        assert nodes == b
        frontier = frontier or []
        more, resumed, rest, _ = _walk(c, depth, frontier)
        assert rest is None
        assert seen + more == full, b
        assert b + resumed + len(frontier) == total, b
    for k in range(1, len(full) + 1):
        seen, _, rest, state = _walk(c, depth, [""], stop_at=k)
        assert seen == full[:k] and rest is None
        assert len(state.tree) == 0 and state.text.n == 0, k


def test_estimate_growth_exact_geometric():
    counts = [1] + [2 * 3 ** n for n in range(20)]
    assert abs(estimate_growth(counts) - 3) < 1e-9
    with pytest.raises(ValueError):
        estimate_growth([1])


def test_growth_budget11():
    counts = count_words(SearchConstraints(2, None, 11), 60)
    est = estimate_growth(counts)
    assert abs(est - 1.1127756842787) <= 0.01


def test_budget8_finite_language():
    counts = count_words(SearchConstraints(2, None, 8), 30)
    assert counts[9:] == [0] * 22


def test_preimage_families_complete():
    for name in ("mu", "nu"):
        logs, failed = run_preimage_family(name)
        assert failed is None
        assert [log.target for log in logs] == list(REFUTATION_ORDER[name])
        m = load_morphism(name)
        for log in logs:
            assert replay_proof(log, m, IMAGE_FORBIDDEN[name])


def test_preimage_examples_from_proofs():
    mu = load_morphism("mu")
    # the first case needs no prior knowledge: all right extensions die
    log = prove_preimage_forbidden(mu, "22", IMAGE_FORBIDDEN["mu"], ())
    assert log is not None and log.depth == 1
    txt = log.text()
    assert "220" in txt and "221" in txt and "222" in txt
    nu = load_morphism("nu")
    log2 = prove_preimage_forbidden(nu, "22", IMAGE_FORBIDDEN["nu"], ())
    assert log2 is not None
    assert "0101" in log2.text()  # nu(22) = 0101 is forbidden directly


def test_preimage_order_matters():
    nu = load_morphism("nu")
    # the deep chain cannot be closed without the earlier members
    log = prove_preimage_forbidden(nu, "21021012102", IMAGE_FORBIDDEN["nu"], (),
                                   max_depth=8, node_budget=60000)
    assert log is None


def test_preimage_replay_detects_tampering():
    nu = load_morphism("nu")
    # the very first refutation rests on an image-forbidden hit
    log = prove_preimage_forbidden(nu, "00", IMAGE_FORBIDDEN["nu"], ())
    assert log is not None
    assert replay_proof(log, nu, IMAGE_FORBIDDEN["nu"])
    assert not replay_proof(log, nu, ("1111111",))  # wrong forbidden set


def test_preimage_requires_injective():
    from palfree.morphisms import Morphism
    with pytest.raises(ValueError):
        prove_preimage_forbidden(Morphism(("01", "01")), "00", ("0",), ())


def test_factor_equivalence_trivial():
    middles, _stats = extendable_middles(SearchConstraints(2, None, None, ("00", "11")),
                                         5, 5)
    assert middles == factors("01" * 50, 5) == {"01010", "10101"}


def test_ternary_family_registry():
    assert len(TERNARY_FORBIDDEN) == 10
    assert set(REFUTATION_ORDER["mu"]) == set(TERNARY_FORBIDDEN)
    assert set(REFUTATION_ORDER["nu"]) == set(TERNARY_FORBIDDEN)
    assert len(IMAGE_FORBIDDEN["mu"]) == 7
    assert len(IMAGE_FORBIDDEN["nu"]) == 4
    assert max(len(f) for f in IMAGE_FORBIDDEN["mu"]) == 19
    assert max(len(f) for f in IMAGE_FORBIDDEN["nu"]) == 16


def test_factor_equivalence_image_languages():
    from palfree.structure import named_stream
    for kind, key in (("mu_p", "mu"), ("nu_p", "nu")):
        c = SearchConstraints(2, ExponentBound.parse("3"), None,
                              IMAGE_FORBIDDEN[key])
        ref = factors(named_stream(kind).prefix(200000), 30)
        middles, _stats = extendable_middles(c, 30, 30)
        assert middles == ref, (kind, sorted(middles - ref)[:3], sorted(ref - middles)[:3])
        assert len(ref) > 50
