import random
from fractions import Fraction

import pytest

from palfree.cubic import CUBIC
from palfree.morphisms import (Morphism, load_morphism, parse_morphism,
                               shipped_morphisms)
from palfree.transfer import load_instance, shipped_instances

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


def test_length_recurrence():
    """The image lengths of phi follow the recurrence of the polynomial whose
    root cubic.py isolates: t^3 = 2t^2 - t + 1 gives
    |phi^{n+3}(w)| = 2|phi^{n+2}(w)| - |phi^{n+1}(w)| + |phi^n(w)|."""
    one, c2, c1, c0 = CUBIC
    assert one == 1
    for seed in ("0", "1", "2", "01", "012", "2101"):
        lens = []
        w = seed
        for _ in range(16):
            lens.append(len(w))
            w = PHI.apply(w)
        for n in range(13):
            assert lens[n + 3] == -(c2 * lens[n + 2] + c1 * lens[n + 1] + c0 * lens[n])


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
