"""Morphisms between free monoids: application, fixed points, uniformity,
injectivity and the synchronizing property."""

from __future__ import annotations

from functools import cache
from importlib import resources
from itertools import product

from .words import ALPHABETS, check_word


class Morphism:
    """Letter-to-word map given as a tuple of images for letters 0..d-1."""

    def __init__(self, images):
        self.images = tuple(images)
        if not self.images:
            raise ValueError("morphism needs at least one image")
        if any(im == "" for im in self.images):
            raise ValueError("erasing morphisms are not supported")
        self.source_size = len(self.images)
        self.target_size = max(int(c) for im in self.images for c in im) + 1
        for im in self.images:
            check_word(im, self.target_size)
        self._table = {ord("0") + i: im for i, im in enumerate(self.images)}
        self._letters = frozenset(map(chr, self._table))

    def __repr__(self):
        body = ", ".join(f"{i}->{im}" for i, im in enumerate(self.images))
        return f"Morphism({body})"

    def __eq__(self, other):
        return isinstance(other, Morphism) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def apply(self, w: str) -> str:
        """The image of w: one str.translate by a table of the images of the
        letters 0..d-1.  A letter outside them raises ValueError."""
        if not self._letters.issuperset(w):
            raise ValueError(f"word {w!r} leaves the source alphabet")
        return w.translate(self._table)

    def is_prolongable_on(self, seed: str) -> bool:
        """True when f(seed) is seed followed by at least one letter."""
        im = self.apply(seed)
        return len(im) > len(seed) and im.startswith(seed)

    def fixed_point_prefix(self, seed: str, n: int) -> str:
        """Length-n prefix of the fixed point grown from a prolongable seed.

        seed, f(seed), f(f(seed)), ... are ever longer prefixes of the fixed
        point, so f is applied until the word has n letters.
        """
        if self.source_size != self.target_size:
            raise ValueError("fixed point needs an endomorphism")
        if not self.is_prolongable_on(seed):
            raise ValueError(f"morphism not prolongable on {seed!r}")
        w = seed
        while len(w) < n:
            w = self.apply(w)
        return w[:n]

    def is_uniform(self) -> int | None:
        q = len(self.images[0])
        return q if all(len(im) == q for im in self.images) else None

    def is_injective(self) -> bool:
        """Sardinas-Patterson codeness of the image set (plus distinctness)."""
        imgs = self.images
        if len(set(imgs)) < len(imgs):
            return False
        codes = set(imgs)
        # dangling suffixes
        pending = set()
        for a, b in product(codes, codes):
            if a != b and b.startswith(a):
                pending.add(b[len(a):])
        seen = set(pending)
        while pending:
            nxt = set()
            for d in pending:
                for c in codes:
                    if c.startswith(d):
                        tail = c[len(d):]
                        if tail == "":
                            return False
                        if tail not in seen:
                            nxt.add(tail)
                    if d.startswith(c):
                        tail = d[len(c):]
                        if tail == "":
                            return False
                        if tail not in seen:
                            nxt.add(tail)
            seen |= nxt
            pending = nxt
        return True

    def is_synchronizing(self):
        """For q-uniform morphisms: True, or a counterexample tuple
        (a, b, c, u, v) with images f(ab) = u f(c) v breaking the property."""
        q = self.is_uniform()
        if q is None:
            raise ValueError("synchronizing test requires a uniform morphism")
        letters = ALPHABETS[self.source_size]
        for a, b in product(letters, letters):
            fab = self.apply(a + b)
            for c in letters:
                fc = self.images[int(c)]
                for off in range(0, q + 1):
                    if fab[off:off + q] != fc:
                        continue
                    if (off == 0 and a == c) or (off == q and b == c):
                        continue
                    return (a, b, c, fab[:off], fab[off + q:])
        return True


def parse_morphism(text: str) -> Morphism:
    """Text format: one line per letter, "letter -> image"."""
    images = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        left, _, right = line.partition("->")
        letter = left.strip()
        image = right.strip()
        if not letter.isdigit() or not image:
            raise ValueError(f"bad morphism line: {line!r}")
        images[int(letter)] = image
    if sorted(images) != list(range(len(images))):
        raise ValueError("morphism must define letters 0..d-1 exactly once each")
    return Morphism(tuple(images[i] for i in range(len(images))))


@cache
def load_morphism(name: str) -> Morphism:
    """Load one of the shipped morphism data files (phi, mu, nu, thm3a..thm3h),
    once per name."""
    data = resources.files("palfree").joinpath(f"data/{name}.txt").read_text()
    return parse_morphism(data)


def shipped_morphisms() -> list[str]:
    data = resources.files("palfree").joinpath("data")
    return sorted(p.name[:-4] for p in data.iterdir() if p.name.endswith(".txt"))
