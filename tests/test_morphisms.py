import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palfree.morphisms import (Morphism, characteristic_polynomial,
                               load_morphism, parse_morphism,
                               shipped_morphisms, synchronization_points)
from palfree.transfer import load_instance, shipped_instances
from palfree.words import factors, parikh

PHI = load_morphism("phi")
MU = load_morphism("mu")
NU = load_morphism("nu")


def test_apply_examples():
    assert PHI.apply("0") == "01"
    assert MU.apply("100") == "1001011001011001"
    assert NU.apply("2101012") == "0100110011001"


def test_apply_is_homomorphism():
    rng = random.Random(5)
    for _ in range(200):
        u = "".join(rng.choice("012") for _ in range(rng.randint(0, 12)))
        v = "".join(rng.choice("012") for _ in range(rng.randint(0, 12)))
        assert PHI.apply(u + v) == PHI.apply(u) + PHI.apply(v)


def test_apply_letter_out_of_range():
    with pytest.raises(ValueError):
        NU.apply("013")
    with pytest.raises(ValueError):
        NU.apply("01x2")  # not a digit
    thue_morse = Morphism(("01", "10"))
    assert thue_morse.apply("0110") == "01101001"
    with pytest.raises(ValueError):
        thue_morse.apply("0102")  # one past the binary source alphabet


def test_fixed_point_prefixes():
    assert PHI.fixed_point_prefix("0", 35) == "01210210102101210102101210210121010"
    assert PHI.fixed_point_prefix("0", 2) == "01"
    p33 = PHI.fixed_point_prefix("0", 33)
    assert NU.apply(p33)[:33] == "011001001101001100110100110010011"


def test_fixed_point_prefix_monotone():
    long = PHI.fixed_point_prefix("0", 4000)
    for n in (0, 1, 17, 100, 3999):
        assert PHI.fixed_point_prefix("0", n) == long[:n]


def test_fixed_point_requires_prolongable_seed():
    with pytest.raises(ValueError):
        PHI.fixed_point_prefix("1", 10)  # image 21 does not start with 1
    with pytest.raises(ValueError):
        MU.fixed_point_prefix("2", 10)  # image has length 1
    for seed in ("", "5"):  # empty, and outside the alphabet
        with pytest.raises(ValueError):
            PHI.fixed_point_prefix(seed, 10)
    # phi(01) = 0121 starts with 01, so 01 grows into the same fixed point
    assert PHI.fixed_point_prefix("01", 35) == PHI.fixed_point_prefix("0", 35)


def test_incidence_matrix():
    m = PHI.incidence_matrix()
    assert m == [[1, 0, 1], [1, 1, 0], [0, 1, 0]]
    ident = Morphism(("0", "1"))
    assert ident.incidence_matrix() == [[1, 0], [0, 1]]


def test_characteristic_polynomial():
    assert characteristic_polynomial(PHI.incidence_matrix()) == [1, -2, 1, -1]
    assert characteristic_polynomial([[1, 0], [0, 1]]) == [1, -2, 1]


@settings(max_examples=200)
@given(st.text(alphabet="012", max_size=25))
def test_parikh_identity(u):
    m = PHI.incidence_matrix()
    pu = parikh(u, 3)
    img = parikh(PHI.apply(u), 3)
    assert img == tuple(sum(m[k][j] * pu[j] for j in range(3)) for k in range(3))


def test_length_recurrence():
    # |phi^{n+3}(w)| = 2|phi^{n+2}(w)| - |phi^{n+1}(w)| + |phi^n(w)|
    for seed in ("0", "1", "2", "01", "012", "2101"):
        lens = []
        w = seed
        for _ in range(16):
            lens.append(len(w))
            w = PHI.apply(w)
        for n in range(13):
            assert lens[n + 3] == 2 * lens[n + 2] - lens[n + 1] + lens[n]


def test_uniformity():
    assert load_morphism("thm3d").is_uniform() == 3
    assert load_morphism("thm3e").is_uniform() == 72
    assert PHI.is_uniform() is None


def test_synchronizing():
    assert load_morphism("thm3d").is_synchronizing() is True
    bad = Morphism(("01", "01"))
    ce = bad.is_synchronizing()
    assert ce is not True
    a, b, c, u, v = ce
    img = bad.apply(a + b)
    assert img[len(u):len(img) - len(v)] == bad.images[int(c)]
    with pytest.raises(ValueError):
        PHI.is_synchronizing()  # not uniform


def test_all_shipped_transfer_morphisms_synchronizing():
    for name in shipped_instances():
        assert load_morphism(name).is_synchronizing() is True


def test_injectivity():
    assert PHI.is_injective() and MU.is_injective() and NU.is_injective()
    assert not Morphism(("01", "01")).is_injective()
    assert not Morphism(("0", "00")).is_injective()
    assert not Morphism(("01", "0", "10")).is_injective()  # 0.10 = 01.0


def test_morphism_text_roundtrip():
    text = "0 -> 011\n1 -> 0\n2 -> 01\n"
    m = parse_morphism(text)
    assert m == NU
    with pytest.raises(ValueError):
        parse_morphism("0 -> 01\n2 -> 0\n")  # hole in the alphabet


def test_shipped_listing():
    names = shipped_morphisms()
    assert {"phi", "mu", "nu"} <= set(names)
    assert len([n for n in names if n.startswith("thm3")]) == 8


def test_synchronization_points_phi(p_word):
    ctx = p_word[:20000]
    # every non-empty factor of the fixed point has a synchronization point
    for n in (1, 2, 3, 5, 9, 17, 30):
        for w in sorted(factors(p_word[:3000], n)):
            pts = synchronization_points(PHI, w, ctx)
            assert pts, (w, pts)


def test_synchronization_points_nu(nu_word, p_word):
    ctx = p_word[:20000]
    for n in (2, 3, 7, 16, 33):
        for w in sorted(factors(nu_word[:3000], n)):
            pts = synchronization_points(NU, w, ctx)
            assert pts, (w, n)
    # length-1 factors need not synchronize: 1 parses at distinct cuts
    assert synchronization_points(NU, "1", ctx) == []


def test_synchronization_points_mu(mu_word, p_word):
    ctx = p_word[:20000]
    for n in (6, 7, 11, 20):
        for w in sorted(factors(mu_word[:2500], n)):
            pts = synchronization_points(MU, w, ctx)
            assert pts, (w, n)
    # below the threshold some factor fails
    short = sorted(factors(mu_word[:2500], 4))
    assert any(synchronization_points(MU, w, ctx) == [] for w in short)
