"""Backtracking over constrained binary/ternary word spaces.

One DFS engine, walk, drives nonexistence certificates, per-length
counting, witness search, the two-sided-extendable middle-window
enumeration the Rauzy construction consumes, and the freeness-transfer and
palindrome-budget checks of transfer.py.  Constraints are prefix-monotone
(a violating word has no valid extension), so pruning at the first bad
letter is sound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .eertree import Eertree
from .repetition import ExponentBound, IncrementalFreeChecker, is_free
from .words import ALPHABETS

LONGEST_KEPT = 16


def _letter_permutations(alphabet_size: int) -> list[dict]:
    """str.translate tables of every permutation of the alphabet's letters."""
    letters = ALPHABETS[alphabet_size]
    return [str.maketrans(letters, "".join(perm))
            for perm in itertools.permutations(letters)]


class SymmetryError(ValueError):
    """A symmetry reduction was asked for on constraints it does not preserve."""


@dataclass(frozen=True)
class SearchConstraints:
    alphabet_size: int = 2
    exponent: ExponentBound | None = None
    palindrome_budget: int | None = None  # distinct palindromes incl. empty
    forbidden_factors: tuple[str, ...] = ()

    def describe(self) -> str:
        parts = [f"alphabet={self.alphabet_size}"]
        parts.append(f"exponent={self.exponent if self.exponent else 'none'}")
        parts.append(f"palindromes<={self.palindrome_budget if self.palindrome_budget is not None else 'unlimited'}")
        if self.forbidden_factors:
            parts.append("forbidden=" + ",".join(self.forbidden_factors))
        return " ".join(parts)

    def permutation_invariant(self) -> bool:
        """True when every permutation of the alphabet's letters maps the
        forbidden set onto itself.  Exponent bounds and palindrome budgets
        are always invariant, so then the set of words satisfying the
        constraints is closed under the permutations, which every symmetry
        reduction assumes."""
        forbidden = set(self.forbidden_factors)
        return all(f.translate(t) in forbidden
                   for t in _letter_permutations(self.alphabet_size)
                   for f in forbidden)


def _require_invariant(c: SearchConstraints) -> None:
    if not c.permutation_invariant():
        raise SymmetryError("symmetry reduction needs forbidden factors closed "
                            "under letter permutations; "
                            f"{','.join(c.forbidden_factors)} are not")


class _Letters:
    """The str buffer of IncrementalFreeChecker without its exponent test:
    buf[:n] is the word, for forbidden factors without an exponent bound."""

    __slots__ = ("buf", "n")

    def __init__(self):
        self.buf = ""
        self.n = 0

    def push(self, c: str) -> bool:
        n = self.n
        buf = self.buf
        if n == len(buf) or buf[n] != c:
            self.buf = buf[:n] + c
        self.n = n + 1
        return True

    def pop(self) -> None:
        self.n -= 1


class ConstraintState:
    """Push/pop state for all constraint kinds at once.

    A push runs the layers cheapest first and stops at the first that
    refuses the letter: the palindrome budget (an Eertree capped at the
    budget), then the exponent bound (an IncrementalFreeChecker), then the
    forbidden factors, tested with str.endswith on text, the checker or,
    without an exponent bound, a bare letter buffer.  A letter the budget
    refuses is appended nowhere, and the flag refused makes the pop that
    follows it a no-op.  Every push, refused or not, is paired with one pop,
    that of a refused push before the next push, as walk does.  The callers
    keep the words they walk."""

    __slots__ = ("tree", "forbidden", "text", "refused")

    def __init__(self, c: SearchConstraints):
        budget = c.palindrome_budget
        # Eertree nodes allowed: both roots plus budget - 1 non-empty palindromes
        self.tree = Eertree(budget + 1) if budget is not None else None
        self.forbidden = tuple(c.forbidden_factors)
        if c.exponent:
            self.text = IncrementalFreeChecker(c.exponent)
        else:
            self.text = _Letters() if self.forbidden else None
        self.refused = False  # the last push was refused by the budget

    def push(self, ch: str) -> bool:
        """Append ch; False when the extension violates a constraint.
        Always pair with pop(), before the next push when refused."""
        tree = self.tree
        if tree is not None and tree.push(ch) is False:
            self.refused = True
            return False
        text = self.text
        if text is None:
            return True
        if not text.push(ch):
            return False
        forbidden = self.forbidden
        return not (forbidden and text.buf.endswith(forbidden, 0, text.n))

    def pop(self) -> None:
        if self.refused:
            self.refused = False
            return
        if self.text is not None:
            self.text.pop()
        if self.tree is not None:
            self.tree.pop()


@dataclass
class ExhaustionCertificate:
    max_depth_reached: int
    nodes_visited: int
    longest_words: list[str]
    longest_count: int


@dataclass
class Reached:
    witness: str
    nodes_visited: int


@dataclass
class Inconclusive:
    frontier: list[str]
    max_depth_reached: int
    nodes_visited: int


def walk(state, letters: str, depth: int, visit, roots: list[str],
         node_budget: int | None = None) -> tuple[int, list[str] | None]:
    """Depth-first walk, below each root in turn, over the words of at most
    depth letters that state.push accepts letter by letter, letters in order.

    state is any push/pop object (ConstraintState, IncrementalFreeChecker,
    ImageState); every push is paired with a pop by the time walk returns.
    visit(word) runs on every accepted non-empty word; a true result stops
    the walk.  Returns (nodes, frontier): nodes counts the pushes made below
    the roots; once node_budget pushes are spent, frontier is the unexplored
    frontier in walk order (untried letters at each level, deepest first,
    then the remaining roots), otherwise None.  One loop over an explicit
    stack, so no recursion limit bounds the depth, and the branch is one
    str, so a walk d letters deep holds O(d) letters."""
    push, pop, budget = state.push, state.pop, node_budget
    width = len(letters)
    nodes = 0
    for r, root in enumerate(roots):
        if len(root) > depth:
            continue
        # the branch: word[:base + k] is its word at level k, the root at
        # 0, and tried[k] counts the letters tried below it; each letter
        # past the root holds one push, and a leaf is popped without
        # being stacked
        word, tried, base = root, [width], len(root)
        rest, stop = None, False
        pushed = 0  # the root's pushes
        for pushed, ch in enumerate(root, 1):
            if not push(ch):
                break
        else:
            if root and visit(root):
                stop = True
            elif base < depth:
                tried[0] = 0
        while True:
            i = tried[-1]
            if i == width:  # every letter tried below word
                if len(tried) == 1:
                    break
                del tried[-1]
                word = word[:-1]
                pop()
                continue
            if budget is not None and nodes >= budget:
                rest = [word[:base + k] + c for k in range(len(tried) - 1, -1, -1)
                        for c in letters[tried[k]:]] + roots[r + 1:]
                break
            tried[-1] = i + 1
            nodes += 1
            ch = letters[i]
            if push(ch):
                child = word + ch
                if visit(child):
                    pop()
                    stop = True
                    break
                if len(child) < depth:
                    word = child
                    tried.append(0)
                    continue
            pop()
        for _ in range(pushed + len(tried) - 1):
            pop()
        if stop or rest is not None:
            return nodes, rest
    return nodes, None


def search(c: SearchConstraints, depth_cap: int, node_budget: int | None = None,
           symmetry: bool = False, frontier: list[str] | None = None):
    """Exhausted(certificate) when no word of length depth_cap satisfies c
    (hence no infinite word does); Reached(witness) with the lexicographically
    least word of length depth_cap otherwise; Inconclusive on node budget."""
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    if symmetry:
        _require_invariant(c)
    letters = ALPHABETS[c.alphabet_size]
    longest: list[str] = []
    max_depth = longest_count = 0
    witness = None

    def visit(word: str) -> bool:
        nonlocal max_depth, longest_count, witness
        depth = len(word)
        if depth > max_depth:
            max_depth = depth
            longest.clear()
            longest_count = 0
        if depth == max_depth:
            longest_count += 1
            if len(longest) < LONGEST_KEPT:
                longest.append(word)
        if depth == depth_cap:
            witness = word
            return True
        return False

    if frontier is None:
        frontier = [letters[0]] if symmetry else list(letters)
    nodes, rest = walk(ConstraintState(c), letters, depth_cap, visit, frontier,
                       node_budget)
    if witness is not None:
        return Reached(witness, nodes)
    if rest is not None:
        return Inconclusive(rest, max_depth, nodes)
    return ExhaustionCertificate(max_depth, nodes, sorted(longest), longest_count)


def count_words(c: SearchConstraints, n: int, symmetry: bool = True) -> list[int]:
    """Exact number of words of each length 0..n satisfying c.

    With symmetry=True only words starting with letter 0 are walked and the
    counts multiplied by the alphabet size; it raises SymmetryError unless
    c.permutation_invariant()."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if symmetry:
        _require_invariant(c)
    letters = ALPHABETS[c.alphabet_size]
    counts = [0] * (n + 1)

    def visit(word: str) -> None:
        counts[len(word)] += 1

    walk(ConstraintState(c), letters, n, visit,
         [letters[0]] if symmetry else list(letters))
    counts[0] = 1
    if symmetry:
        # letter permutations map the enumerated words onto those starting
        # with any other letter
        factor = c.alphabet_size
        counts = [1] + [x * factor for x in counts[1:]]
    return counts


def estimate_growth(counts: list[int], window: int | None = None) -> float:
    """Least-squares slope of log(count) over the trailing window."""
    pts = [(n, math.log(x)) for n, x in enumerate(counts) if x > 0]
    if len(pts) < 2:
        raise ValueError("not enough nonzero counts")
    if window is None:
        window = min(15, len(pts) // 2)
    pts = pts[-max(window, 2):]
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    return math.exp(slope)


# ---------------------------------------------------------------------------
# pre-image refutation proofs


@dataclass
class ProofLeaf:
    word: str
    reason: str           # "image-forbidden", "image-exponent", "source-forbidden", "source-exponent"
    detail: str

    def lines(self, indent=0):
        yield "  " * indent + f"{self.word} : {self.reason} {self.detail}".rstrip()


@dataclass
class ProofNode:
    word: str
    side: str             # "left" | "right"
    children: list

    def lines(self, indent=0):
        yield "  " * indent + f"{self.word} : extend-{self.side}"
        for ch in self.children:
            yield from ch.lines(indent + 1)


@dataclass
class ProofLog:
    target: str
    known_forbidden: tuple[str, ...]
    root: ProofNode | ProofLeaf
    depth: int
    nodes_examined: int

    def text(self) -> str:
        return "\n".join(self.root.lines())

    def size(self) -> int:
        return sum(1 for _ in self.root.lines())  # one line per node


# both sides of a pre-image proof are cube-free
CUBE_FREE = ExponentBound(Fraction(3), strict=False)


def _image_refutation(m, w: str, image_forbidden):
    img = m.apply(w)
    for f in image_forbidden:
        if f in img:
            return ("image-forbidden", f"{f} in {img}")
    v = is_free(img, CUBE_FREE)
    if v is not None:
        return ("image-exponent", f"{img} contains {v}")
    return None


def _source_refutation(w: str, known_forbidden):
    for f in known_forbidden:
        if f in w:
            return ("source-forbidden", f)
    v = is_free(w, CUBE_FREE)
    if v is not None:
        return ("source-exponent", str(v))
    return None


def prove_preimage_forbidden(m, target: str, image_forbidden, known_forbidden,
                             max_depth: int = 16,
                             node_budget: int = 2_000_000) -> ProofLog | None:
    """Refute the hypothesis that target occurs in a bi-infinite source word
    whose image is cube-free and avoids image_forbidden.

    A word is refuted when its image violates the image constraints, or when
    on one side every one-letter extension is dead: it contains a cube,
    contains an already-refuted factor, or is refuted recursively.  Returns
    the proof tree, or None within the budget.
    """
    if not m.is_injective():
        raise ValueError("pre-image arguments need an injective morphism")
    image_forbidden = tuple(image_forbidden)
    known_forbidden = tuple(known_forbidden)
    examined = 0

    def prove(w: str, depth: int, memo) -> ProofNode | ProofLeaf | None:
        nonlocal examined
        if w in memo:
            return memo[w]
        examined += 1
        if examined > node_budget:
            return None
        r = _image_refutation(m, w, image_forbidden)
        if r is not None:
            leaf = ProofLeaf(w, *r)
            memo[w] = leaf
            return leaf
        if depth == 0:
            return None
        for side in ("right", "left"):
            kids = []
            all_dead = True
            for c in ALPHABETS[m.source_size]:
                w2 = w + c if side == "right" else c + w
                pr = _source_refutation(w2, known_forbidden)
                if pr is not None:
                    kids.append(ProofLeaf(w2, *pr))
                    continue
                sub = prove(w2, depth - 1, memo)
                if sub is None:
                    all_dead = False
                    break
                kids.append(sub)
            if all_dead:
                node = ProofNode(w, side, kids)
                memo[w] = node
                return node
        memo[w] = None
        return None

    for d in range(1, max_depth + 1):
        root = prove(target, d, {})
        if root is not None:
            return ProofLog(target, known_forbidden, root, d, examined)
    return None


def replay_proof(log: ProofLog, m, image_forbidden) -> bool:
    """Re-verify every node of a proof tree against the stated constraints."""

    def check(node) -> bool:
        if isinstance(node, ProofLeaf):
            if node.reason.startswith("image"):
                return _image_refutation(m, node.word, image_forbidden) is not None
            return _source_refutation(node.word, log.known_forbidden) is not None
        # internal node: children must be exactly the extensions on one side
        expect = {(c + node.word if node.side == "left" else node.word + c)
                  for c in ALPHABETS[m.source_size]}
        got = {ch.word for ch in node.children}
        if got != expect:
            return False
        return all(check(ch) for ch in node.children)

    return check(log.root)


# ---------------------------------------------------------------------------
# two-sided extendability and factor equivalence


def extendable_middles(c: SearchConstraints, length: int, margin: int,
                       node_budget: int | None = None, symmetry: bool = False):
    """All middle windows w[margin:margin+length] over words w of length
    length + 2*margin satisfying c.  With symmetry=True only words starting
    with letter 0 are walked and the result is closed under letter
    permutations; it raises SymmetryError unless c.permutation_invariant().

    Returns (middles, nodes), nodes the pushes the walk made, or raises
    BudgetExceeded.
    """
    if symmetry:
        _require_invariant(c)
    total = length + 2 * margin
    letters = ALPHABETS[c.alphabet_size]
    middles: set[str] = set()

    def visit(word: str) -> None:
        if len(word) == total:
            middles.add(word[margin:margin + length])

    # the symmetric walk starts below letter 0, whose push is not a node
    nodes, rest = walk(ConstraintState(c), letters, total, visit,
                       [letters[0]] if symmetry else [""], node_budget)
    if rest is not None:
        raise BudgetExceeded(nodes + 1)  # the refused attempt counts
    if symmetry:
        middles = {w.translate(t) for t in _letter_permutations(c.alphabet_size)
                   for w in middles}
    return middles, nodes


class BudgetExceeded(Exception):
    def __init__(self, nodes: int):
        super().__init__("node budget exceeded")
        self.nodes = nodes


# ---------------------------------------------------------------------------
# shipped pre-image data: the ternary forbidden family and the image-side
# forbidden sets for the two binary images, with the refutation orders the
# sequential arguments need

TERNARY_FORBIDDEN = ("00", "11", "22", "20", "212", "0101", "02102",
                     "121012", "01021010", "21021012102")

IMAGE_FORBIDDEN = {
    "mu": ("1101", "00100", "10101", "010011", "1011001011",
           "110010110011", "1011001010010110010"),
    "nu": ("0101", "1011", "010010", "1100110100110011"),
}

REFUTATION_ORDER = {
    "mu": ("22", "20", "00", "11", "212", "0101", "02102",
           "121012", "01021010", "21021012102"),
    "nu": TERNARY_FORBIDDEN,
}

FAMILY_NAMES = {"mu": "F18", "nu": "F20"}


def run_preimage_family(morphism_name: str):
    """Refute every member of the ternary forbidden family for one image
    morphism, in the shipped sequential order; returns the list of ProofLogs."""
    from .morphisms import load_morphism
    m = load_morphism(morphism_name)
    image_forbidden = IMAGE_FORBIDDEN[morphism_name]
    logs = []
    known: list[str] = []
    for target in REFUTATION_ORDER[morphism_name]:
        log = prove_preimage_forbidden(m, target, image_forbidden, tuple(known))
        if log is None:
            return logs, target
        logs.append(log)
        known.append(target)
    return logs, None
