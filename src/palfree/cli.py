"""Command-line front end: verifications as replayable certificates.

Exit codes: 0 every check passed, 1 some check failed, 2 inconclusive
(a resource cap hit, or a walk too shallow to prove its claim) with nothing
failing, or input refused: by the parser, by a builder raising ValueError,
or as a path that cannot be read (replay) or written (--out, --out-dir).
"""

from __future__ import annotations

import argparse
import functools
import os
import shlex
import sys
import time
from fractions import Fraction
from math import ceil, inf, isfinite

from . import rauzy as rauzy_mod
from . import search as search_mod
from . import structure as structure_mod
from . import transfer as transfer_mod
from .certificates import (FAIL, INCONCLUSIVE, PASS, Certificate,
                           compare_certificates, parse_certificate,
                           read_certificate)
from .repetition import ExponentBound, critical_exponent, is_free
from .words import palindrome_count, reverse


def _bound_from_args(exp: str | None, strict: str | None) -> ExponentBound | None:
    if exp in (None, "", "none", "inf"):
        return None
    b = ExponentBound.parse(exp)
    if strict is not None:
        b = ExponentBound(b.threshold, strict == "true")
    return b


# ---------------------------------------------------------------------------
# certificate builders
# Each returns its certificate with an empty command; _dispatch sets it.


def cert_verify_morphism(instance: str, window: int | None, depth: int | None) -> Certificate:
    cert = Certificate("", FAIL)
    inst = transfer_mod.load_instance(instance)
    tr = transfer_mod.verify_transfer(inst, depth)
    cert.put("q", inst.q)
    cert.put("synchronizing", "yes")
    cert.put("source-bound", inst.source_bound)
    cert.put("target-bound", inst.target_bound)
    cert.put("threshold", inst.threshold)
    cert.put("check-depth", tr.depth)
    cert.put("source-words-checked", tr.words_checked)
    cert.put("image-freeness", "pass" if tr.passed else "fail")
    if not tr.passed:
        cert.put("violating-source", tr.violation_source)
        cert.put("violation", tr.violation)
        return cert
    pal = transfer_mod.verify_palindrome_budget(inst, window)
    cert.put("palindrome-window", pal.window)
    cert.put("palindrome-count", pal.count)
    cert.put("claimed-budget", inst.claimed_palindromes)
    cert.put("cut-index", pal.cut_index if pal.cut_index is not None else "none")
    cert.put("stabilized", "yes" if pal.stabilized else "no")
    cert.lists["palindromes"] = ["(empty word)"] + pal.palindromes
    if pal.passed and pal.stabilized:
        # a walk that stops below ceil(threshold) proves no transfer
        cert.outcome = PASS if tr.depth >= ceil(inst.threshold) else INCONCLUSIVE
    elif not pal.conclusive:
        cert.outcome = INCONCLUSIVE
    return cert


def cert_optimality(alphabet: int, exp: str | None, strict: str | None, pal: int | None,
                    cap: int, nodes: int | None, symmetry: bool,
                    forbid: tuple[str, ...] = ()) -> Certificate:
    cert = Certificate("", FAIL)
    bound = _bound_from_args(exp, strict)
    c = search_mod.SearchConstraints(alphabet, bound, pal, tuple(forbid))
    cert.put("constraints", c.describe())
    cert.put("depth-cap", cap)
    cert.put("symmetry-reduced", "yes" if symmetry else "no")
    result = search_mod.search(c, cap, node_budget=nodes, symmetry=symmetry)
    if isinstance(result, search_mod.ExhaustionCertificate):
        cert.outcome = PASS
        cert.put("result", "exhausted")
        cert.put("max-depth-reached", result.max_depth_reached)
        cert.put("nodes-visited", result.nodes_visited)
        cert.put("longest-count", result.longest_count)
        cert.lists["longest-words"] = result.longest_words
    elif isinstance(result, search_mod.Reached):
        cert.outcome = FAIL
        cert.put("result", "reached")
        cert.put("nodes-visited", result.nodes_visited)
        cert.lists["witness"] = [result.witness]
    else:
        cert.outcome = INCONCLUSIVE
        cert.put("result", "inconclusive")
        cert.put("max-depth-reached", result.max_depth_reached)
        cert.put("nodes-visited", result.nodes_visited)
        cert.lists["frontier"] = result.frontier
    return cert


def cert_growth(pal: int, max_n: int, window: int | None, expect: float | None,
                tol: float) -> Certificate:
    cert = Certificate("", PASS)
    c = search_mod.SearchConstraints(2, None, pal)
    counts = search_mod.count_words(c, max_n, symmetry=True)
    est = search_mod.estimate_growth(counts, window)
    cert.put("palindrome-budget", pal)
    cert.put("max-n", max_n)
    cert.put("estimate", f"{est:.10f}")
    if expect is not None:
        cert.put("expected", f"{expect:.10f}")
        cert.put("difference", f"{abs(est - expect):.2e}")
        cert.outcome = PASS if abs(est - expect) <= tol else FAIL
    cert.lists["counts"] = [f"{n} {x}" for n, x in enumerate(counts)]
    return cert


def cert_preimage(morphism: str, family: str | None, target: str | None) -> Certificate:
    cert = Certificate("", FAIL)
    expected_family = search_mod.FAMILY_NAMES[morphism]
    if family and family != expected_family:
        raise ValueError(f"morphism {morphism} carries family {expected_family}")
    from .morphisms import load_morphism
    m = load_morphism(morphism)
    image_forbidden = search_mod.IMAGE_FORBIDDEN[morphism]
    if target is not None:
        order = search_mod.REFUTATION_ORDER[morphism]
        if target not in order:
            raise ValueError(f"{target} is not in the shipped forbidden family")
        known = order[:order.index(target)]
        log = search_mod.prove_preimage_forbidden(m, target, image_forbidden, known)
        logs = [log] if log else []
        failed = None if log else target
    else:
        logs, failed = search_mod.run_preimage_family(morphism)
    cert.put("morphism", morphism)
    cert.put("image-forbidden-family", expected_family)
    cert.put("members-refuted", len(logs))
    replays = 0
    for log in logs:
        ok = search_mod.replay_proof(log, m, image_forbidden)
        replays += 1 if ok else 0
        cert.put(f"refuted-{log.target}",
                 f"depth={log.depth} tree-size={log.size()} replay={'ok' if ok else 'FAIL'}")
        cert.lists[f"proof-{log.target}"] = log.text().splitlines()
    cert.put("replays-ok", replays)
    if failed is None and replays == len(logs) and logs:
        cert.outcome = PASS
    elif failed is not None:
        cert.put("first-unrefuted", failed)
        cert.outcome = INCONCLUSIVE
    return cert


def cert_rauzy(exp: str, strict: str | None, pal: int, ell: int, mode: str,
               margin: int | None, trim: bool, compare: str | None,
               select_avoiding: str | None, nodes: int | None,
               no_symmetry: bool) -> Certificate:
    cert = Certificate("", FAIL)
    bound = _bound_from_args(exp, strict)
    try:
        survivors, stats = rauzy_mod.survivor_set(bound, pal, ell, margin,
                                                  symmetry=not no_symmetry,
                                                  node_budget=nodes)
    except search_mod.BudgetExceeded as exc:
        cert.outcome = INCONCLUSIVE
        cert.put("result", "node budget exceeded")
        cert.put("nodes-visited", exc.nodes)
        return cert
    cert.put("exponent-bound", bound)
    cert.put("palindrome-budget", pal)
    cert.put("ell", ell)
    cert.put("margin", stats["margin"])
    cert.put("symmetry-reduced", "yes" if stats["symmetry"] else "no")
    cert.put("survivors", len(survivors))
    cert.put("search-nodes", stats["nodes"])
    arcs = rauzy_mod.trim_to_essential(survivors) if trim else frozenset(survivors)
    cert.put("trimmed", "yes" if trim else "no")
    cert.put("arcs", len(arcs))
    graph = rauzy_mod.build_rauzy(arcs)
    comps = rauzy_mod.components(graph, mode)
    cert.put("mode", mode)
    cert.put("components", len(comps))
    cert.put("component-sizes", " ".join(str(len(c)) for c in comps))
    ok = True
    try:
        orbits = rauzy_mod.symmetry_orbits(comps)
        cert.put("orbits", len(orbits.orbits))
        cert.put("orbit-sizes", " ".join(str(len(o)) for o in orbits.orbits))
    except ValueError as exc:
        cert.put("orbits", f"error: {exc}")
        ok = False
    if select_avoiding:
        chosen = [i for i, c in enumerate(comps) if c.avoids(select_avoiding)]
        cert.put("components-avoiding-" + select_avoiding,
                 " ".join(map(str, chosen)) if chosen else "none")
        if len(chosen) != 1:
            ok = False
    if compare:
        ref = rauzy_mod.RauzyGraph.of_word(structure_mod.named_stream(compare).cover(ell), ell)
        cert.put("reference", compare)
        # exact: the cover holds every ell-factor (line kept for the bytes)
        cert.put("reference-stabilized", "yes")
        forb = search_mod.IMAGE_FORBIDDEN.get(structure_mod.OUTER.get(compare), ())
        if select_avoiding and len(chosen) == 1:
            sel = comps[chosen[0]]
            same = sel == ref
            cert.put("selected-equals-reference", "yes" if same else "no")
            cert.put("reference-arcs", len(ref.arcs))
            cert.put("reference-vertices", len(ref.vertices))
            ok = ok and same and all(sel.avoids(f) for f in forb)
        else:
            ok = False
        if forb:
            longest = max(len(f) for f in forb)
            cert.put("bridge-check",
                     f"max-forbidden-length {longest} <= ell {ell}: "
                     + ("yes" if longest <= ell else "no"))
            ok = ok and longest <= ell
    if ok and len(comps) == 4:
        cert.outcome = PASS
    return cert


def cert_exponent(word: str, method: str, prefix: int, max_bs: int,
                  expect: str | None, bound: str | None) -> Certificate:
    if bound and (method != "empirical" or expect):
        # a flag the method would never read must not reach the command line
        raise ValueError("--bound is read only by --method empirical, without --expect")
    cert = Certificate("", FAIL)
    cert.put("word", word)
    cert.put("method", method)
    if method == "empirical":
        stream = structure_mod.named_stream(word)
        text = stream.prefix(prefix)
        cert.put("prefix-length", len(text))
        if bound:
            b = ExponentBound.parse(bound)
            v = is_free(text, b)
            cert.put("bound", b)
            cert.put("free", "yes" if v is None else f"no: {v}")
            cert.outcome = PASS if v is None else FAIL
        else:
            e, witness = critical_exponent(text, with_witness=True)
            cert.put("critical-exponent", e)
            period = len(witness) * e.denominator // e.numerator
            cert.put("witness-period", witness[:period])
            cert.put("witness-length", len(witness))
            if expect:
                cert.put("expected", expect)
                cert.outcome = PASS if e == Fraction(expect) else FAIL
            else:
                cert.outcome = PASS
    elif method == "bispecial":
        try:
            rep = structure_mod.structural_exponent(word)
        except ArithmeticError as exc:  # a family bound or the cross-check fails
            cert.put("error", str(exc))
            return cert
        cert.put("critical-exponent", rep.exponent)
        cert.put("maximizing-family",
                 min(f for f, r in rep.families.items() if r.sup == rep.witness_ratio))
        cert.put("maximizing-ratio", rep.witness_ratio)
        cert.put("witness", rep.witness_word)
        for fam, r in sorted(rep.families.items()):
            tailtxt = ""
            if r.tail is not None:
                tailtxt = f" tail-n0={r.tail.n0} tail-holds={'yes' if r.tail.holds else 'no'}"
            cert.put(f"family-{fam}",
                     f"sup={r.sup} at={r.sup_index} bounded={'yes' if r.bounded_by_target else 'no'}"
                     + tailtxt)
        ok = all(r.bounded_by_target for r in rep.families.values())
        if expect:
            cert.put("expected", expect)
            ok = ok and rep.exponent == Fraction(expect)
        cert.outcome = PASS if ok else FAIL
    elif method == "closed-form":
        iv = structure_mod.asymptotic_exponent(word)
        cert.put("asymptotic-exponent", f"{float(iv.mid):.12f}")
        cert.put("interval-width", f"{float(iv.width):.3e}")
        beta = structure_mod.cubic.perron_root()
        cert.put("perron-root", f"{float(beta.mid):.12f}")
        ok = iv.width <= Fraction(1, 10 ** 10)
        if expect:
            cert.put("expected", expect)
            near = abs(iv.mid - Fraction(expect)) < Fraction(1, 200)
            ok = ok and near
        cert.outcome = PASS if ok else FAIL
    else:
        raise ValueError(f"unknown method {method}")
    return cert


def cert_structure(word: str, max_bs: int, complexity_n: int) -> Certificate:
    cert = Certificate("", FAIL)
    stream = structure_mod.named_stream(word)
    ok = True
    if word == "p":
        comp = structure_mod.factor_complexity(stream, complexity_n)
        bad = [n for n in range(1, complexity_n + 1) if comp[n] != 2 * n + 1]
        cert.put("complexity-2n+1-upto", complexity_n)
        cert.put("complexity-ok", "yes" if not bad else f"fails at {bad[:5]}")
        ok = ok and not bad
        pairs = stream.cover(2)
        cert.put("has-02", "yes" if "02" in pairs else "no")
        cert.put("has-20", "yes" if "20" in pairs else "no")
        ok = ok and "02" in pairs and "20" not in pairs
    profiles = structure_mod.bispecial_enumerate(stream, max_bs)
    cert.put("bispecial-count", len(profiles))
    fam_words = {} if stream.periodic else structure_mod.family_members(word, max_bs)
    short = structure_mod.SHORT_BISPECIAL_RATIOS.get(word, {})
    lines = []
    all_ordinary = True
    all_classified = True
    returns_ok = True
    for prof in profiles:
        rw = structure_mod.return_words(prof.word, stream)
        shortest = len(rw.shortest())
        tag = fam_words.get(prof.word)
        if tag is None and prof.word not in short:
            all_classified = False
        if prof.b != 0:
            all_ordinary = False
        if tag is not None and word == "p":
            want = structure_mod.expected_shortest_return_length(word, *tag)
            if want != shortest:
                returns_ok = False
        nret = len(rw.returns)
        lines.append(f"{prof.word} b={prof.b} kind={prof.kind} "
                     f"family={tag[0] if tag else '-'} n={tag[1] if tag else '-'} "
                     f"shortest-return={shortest} returns={nret}")
        if word == "p" and nret != 3:
            returns_ok = False
    cert.lists["bispecials"] = lines
    cert.put("all-ordinary", "yes" if all_ordinary else "no")
    cert.put("all-classified", "yes" if all_classified else "no")
    if word == "p":
        cert.put("corollary-return-lengths", "yes" if returns_ok else "no")
        r1 = structure_mod.return_words("1", stream)
        r10 = structure_mod.return_words("10", stream)
        cert.put("returns-to-1", " ".join(sorted(r1.returns)))
        cert.put("returns-to-10", " ".join(sorted(r10.returns)))
        ok = ok and sorted(r1.returns) == ["10", "102", "12"] \
            and sorted(r10.returns) == ["10", "1012", "102"]
        ok = ok and all_ordinary and returns_ok
    ok = ok and all_classified
    cert.outcome = PASS if ok else FAIL
    return cert


def cert_palindromes(word: str, prefix: int, expect: int | None) -> Certificate:
    cert = Certificate("", FAIL)
    stream = structure_mod.named_stream(word)
    count = palindrome_count(stream.prefix(prefix))
    exact = structure_mod.palindromes(stream)
    ok = exact is not None and count == len(exact)
    cert.put("word", word)
    cert.put("prefix", prefix)
    cert.put("count", count)
    cert.put("stabilized", "yes" if ok else "no")
    if expect is not None:
        cert.put("expected", expect)
        ok = ok and count == expect
    cert.outcome = PASS if ok else FAIL
    return cert


def cert_splice(prefix: int, center: int) -> Certificate:
    """The glued word reverse(nu_p) . 010110 . nu_p: its central factor is
    5/2+-free, and the witness word separating it from nu_p's language is a
    prefix of 110 nu_p but no factor of nu_p or its reversal."""
    cert = Certificate("", FAIL)
    stream = structure_mod.named_stream("nu_p")
    text = stream.prefix(prefix)
    glue = "010110"
    half = (center - len(glue)) // 2
    central = reverse(text[:half]) + glue + text[:half]
    cert.put("central-length", len(central))
    b = ExponentBound.parse("5/2+")
    v = is_free(central, b)
    cert.put("central-free-5/2+", "yes" if v is None else f"no: {v}")
    marker = "110011001001101"
    cert.put("marker", marker)
    pref_ok = ("110" + text).startswith(marker)
    cert.put("marker-prefix-of-110nu", "yes" if pref_ok else "no")
    cover = stream.cover(len(marker))
    in_nu = marker in cover
    in_rev = reverse(marker) in cover
    cert.put("marker-in-nu", "yes" if in_nu else "no")
    cert.put("marker-in-reverse", "yes" if in_rev else "no")
    if v is None and pref_ok and not in_nu and not in_rev:
        cert.outcome = PASS
    return cert


# ---------------------------------------------------------------------------
# Table 1 cell classification

# cell (p, beta) is green when some shipped transfer instance has a budget
# <= p and a target bound <= beta
GREEN_ANCHORS = {inst.name: (inst.claimed_palindromes, inst.target_bound.threshold)
                 for inst in map(transfer_mod.load_instance,
                                 transfer_mod.shipped_instances())}

RED_CELLS = {
    (18, Fraction(28, 11)): "mu_p",
    (20, Fraction(5, 2)): "nu_p",
}

COLUMNS = [Fraction(2), Fraction(7, 3), Fraction(5, 2), Fraction(28, 11),
           Fraction(13, 5), Fraction(8, 3), Fraction(3), Fraction(23, 7),
           Fraction(10, 3), None]


def classify_cell(p: int, beta: Fraction | None) -> tuple[str, str | None]:
    """(classification, detail): green cells cite the dominating transfer
    instance, red cells the structured witness, empty cells nothing."""
    if (p, beta) in RED_CELLS:
        return "red", RED_CELLS[(p, beta)]
    for name, (p0, b0) in sorted(GREEN_ANCHORS.items()):
        if p >= p0 and (beta is None or beta >= b0):
            return "green", name
    if beta is None and p >= 9:
        return "red", "001011"
    return "empty", None


def cert_table1(p: int, beta: str, cap: int, nodes: int | None) -> Certificate:
    cert = Certificate("", FAIL)
    bfrac = None if beta in ("inf", "none") else Fraction(beta)
    if bfrac is not None and bfrac not in COLUMNS:
        cert.put("cell", f"p={p} beta={beta}")
        cert.put("classification", "unclassified")
        cert.outcome = INCONCLUSIVE
        return cert
    cls, detail = classify_cell(p, bfrac)
    cert.put("cell", f"p={p} beta={beta}+")
    cert.put("classification", cls)
    if cls == "green":
        cert.put("witness-instance", detail)
        sub = cert_verify_morphism(detail, None, None)
        cert.put("transfer-outcome", sub.outcome)
        budget = int(sub.evidence.get("palindrome-count", "99"))
        cert.put("palindromes-within-cell", "yes" if budget <= p else "no")
        cert.outcome = sub.outcome if budget <= p else FAIL
    elif cls == "red" and detail in ("mu_p", "nu_p"):
        cert.put("witness-word", detail)
        pal = cert_palindromes(detail, 100000, p)
        cert.put("palindrome-outcome", pal.outcome)
        # the bispecial families prove that no factor exceeds beta; a
        # prefix's critical exponent would only show that beta is reached
        exp = cert_exponent(detail, "bispecial", 0, 0, str(bfrac), None)
        cert.put("exponent-outcome", exp.outcome)
        cert.put("exponent-method", exp.evidence["method"])
        cert.put("palindromes", pal.evidence["count"])
        cert.put("critical-exponent", exp.evidence.get("critical-exponent", "none"))
        ok = pal.outcome == PASS and exp.outcome == PASS
        cert.outcome = PASS if ok else FAIL
    elif cls == "red":
        n = len(structure_mod.palindromes(structure_mod.named_stream(detail)))
        cert.put("witness-word", f"({detail})^w")
        cert.put("palindromes", n)
        cert.outcome = PASS if n <= p else FAIL
    else:
        bound = f"{beta}+" if bfrac is not None else None
        sub = cert_optimality(2, bound, None, p, cap, nodes, True)
        cert.put("nonexistence-search", sub.outcome)
        for k in ("max-depth-reached", "nodes-visited", "result"):
            if k in sub.evidence:
                cert.put(k, sub.evidence[k])
        cert.outcome = sub.outcome
    return cert


# ---------------------------------------------------------------------------
# the command table: each subcommand's help, builder and flags in canonical
# order.  The parser, the canonical command line and the dispatch all derive
# from it.

def _at_least(least, kind=int):
    """A flag type that reads kind (int or float) and refuses values below
    least, and a float that is not finite."""
    def parse(text: str):
        try:
            x = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if x < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {x}")
        if kind is float and not isfinite(x):
            raise argparse.ArgumentTypeError(f"must be finite, got {x}")
        return x
    return parse


def _checked(check, message: str, unchecked=("",)):
    """A flag type that returns its text unchanged when the text is in
    unchecked or check(text) raises no ValueError or ZeroDivisionError, and
    otherwise refuses it with message, formatted with the text and the
    exception.  '' is unchecked by default: --word '' is left for the
    builder to refuse, and --exp '' or --bound '' means no bound."""
    def parse(text: str) -> str:
        if text not in unchecked:
            try:
                check(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise argparse.ArgumentTypeError(message.format(text=text, exc=exc)) from None
        return text
    return parse


_BOUND = "not an exponent bound: {text!r} ({exc})"
_stream_name = _checked(structure_mod.named_stream, "{exc}")  # --word, --compare
_exp = _checked(ExponentBound.parse, _BOUND, ("", "none", "inf"))  # optimality, rauzy


def _flag(name: str, when=None, **kw):
    """A flag: its name, argparse dest and keywords, and an optional test
    of the parsed arguments that must hold for the flag to be rendered."""
    return name, name[2:].replace("-", "_"), kw, when


COMMANDS = {
    "verify-morphism": ("freeness transfer + palindrome budget", cert_verify_morphism, [
        _flag("--instance", required=True, choices=transfer_mod.shipped_instances()),
        _flag("--window", type=_at_least(0)),
        _flag("--depth", type=_at_least(0)),
    ]),
    "optimality": ("nonexistence search certificate", cert_optimality, [
        _flag("--alphabet", type=int, choices=range(1, 5), default=2),
        _flag("--exp", type=_exp),
        _flag("--strict", choices=("true", "false")),
        _flag("--pal", type=_at_least(1)),
        _flag("--cap", type=int, default=400),
        _flag("--nodes", type=_at_least(0)),
        _flag("--symmetry", action="store_true"),
        _flag("--forbid", action="append", default=[]),
    ]),
    "growth": ("exact counts and growth estimate", cert_growth, [
        _flag("--pal", type=_at_least(1), required=True),
        _flag("--max-n", type=_at_least(1), default=60),
        _flag("--window", type=_at_least(2)),
        _flag("--expect", type=_at_least(-inf, float)),
        _flag("--tol", when=lambda a: a.expect is not None, type=_at_least(0, float),
              default=0.01),
    ]),
    "preimage-prove": ("refute forbidden factors in pre-images", cert_preimage, [
        _flag("--morphism", required=True, choices=("mu", "nu")),
        _flag("--family", choices=("F18", "F20")),
        _flag("--target"),
    ]),
    "rauzy": ("survivor windows, components, comparison", cert_rauzy, [
        _flag("--exp", required=True, type=_exp),
        _flag("--strict", choices=("true", "false")),
        _flag("--pal", type=_at_least(1), required=True),
        _flag("--ell", type=_at_least(2), required=True),
        _flag("--mode", choices=("weak", "strong"), default="weak"),
        _flag("--margin", type=_at_least(0)),
        _flag("--trim", action="store_true"),
        _flag("--compare", type=_stream_name),
        _flag("--select-avoiding"),
        _flag("--nodes", type=_at_least(0)),
        _flag("--no-symmetry", action="store_true"),
    ]),
    "exponent": ("critical exponents three ways", cert_exponent, [
        _flag("--word", required=True, type=_stream_name),
        _flag("--method", choices=("empirical", "bispecial", "closed-form"),
              default="empirical"),
        _flag("--prefix", when=lambda a: a.method == "empirical", type=_at_least(1),
              default=100000),
        _flag("--max-bs", when=lambda a: a.method == "bispecial", type=int, default=500,
              help="ignored: the bispecial method uses its own limit"),
        _flag("--expect", type=_checked(Fraction, "not a fraction or decimal: {text!r}")),
        _flag("--bound", type=_checked(ExponentBound.parse, _BOUND)),
    ]),
    "structure": ("bispecial factors, families, return words", cert_structure, [
        _flag("--word", required=True, type=_stream_name),
        _flag("--max-bs", type=_at_least(1), default=200),
        _flag("--complexity-n", type=_at_least(1), default=500),
    ]),
    "palindromes": ("distinct-palindrome count, checked against the exact set", cert_palindromes, [
        _flag("--word", required=True, type=_stream_name),
        _flag("--prefix", type=_at_least(1), default=100000),
        _flag("--expect", type=int),
    ]),
    "splice": ("the glued word around 010110", cert_splice, [
        _flag("--prefix", type=_at_least(0), default=100000),
        _flag("--center", type=_at_least(6), default=200),
    ]),
    "table1": ("classify and verify one cell", cert_table1, [
        _flag("--p", type=_at_least(1), required=True),
        _flag("--beta", required=True,
              type=_checked(Fraction, "not a fraction, inf or none: {text!r}", ("inf", "none")),
              help="column bound like 8/3, or inf"),
        _flag("--cap", type=int, default=400),
        _flag("--nodes", type=_at_least(0)),
    ]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every call: parse_args leaves it as it was, and an
    append flag copies its default list before appending."""
    ap = argparse.ArgumentParser(prog="palfree",
                                 description="verification toolkit for "
                                             "palindrome-scarce repetition-free words")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd, (help_text, _builder, flags) in COMMANDS.items():
        s = sub.add_parser(cmd, help=help_text)
        for name, _dest, kw, _when in flags:
            s.add_argument(name, **kw)
        s.add_argument("--out", help="write the certificate to a file")

    s = sub.add_parser("replay", help="re-run a certificate and compare")
    s.add_argument("file")

    s = sub.add_parser("verify-all", help="run the built-in verification battery")
    s.add_argument("--jobs", type=_at_least(1), default=os.cpu_count() or 1)
    s.add_argument("--deep", action="store_true",
                   help="include the ell=78 strong-component run (minutes)")
    s.add_argument("--out-dir")
    return ap


def canonical_command(args) -> str:
    """The command line that re-runs args.  A flag appears, in table order,
    when it is required or its value is set (not None, False, "" or [];
    defaults included) and its `when` test holds; a store_true flag appears
    bare and an append flag once per value."""
    words = [args.cmd]
    for name, dest, kw, when in COMMANDS[args.cmd][2]:
        value = getattr(args, dest)
        unset = value is None or value is False or value in ("", [])
        if (unset and not kw.get("required")) or (when and not when(args)):
            continue
        for v in value if isinstance(value, list) else [value]:
            words += [name] if v is True else [name, str(v)]
    return " ".join(shlex.quote(w) for w in words)


def run_command(argv: list[str]) -> Certificate:
    return _dispatch(build_parser().parse_args(argv))


def _dispatch(args) -> Certificate:
    _help, builder, flags = COMMANDS[args.cmd]
    t0 = time.monotonic()
    cert = builder(**{dest: getattr(args, dest) for _name, dest, _kw, _when in flags})
    cert.wall_ms = int((time.monotonic() - t0) * 1000)
    cert.command = canonical_command(args)
    return cert


BATTERY = [(f"transfer-{name}", f"verify-morphism --instance {name}")
           for name in transfer_mod.shipped_instances()] + [
    ("palindromes-baseline", "palindromes --word 001011 --prefix 100000 --expect 9"),
    ("palindromes-mu", "palindromes --word mu_p --prefix 100000 --expect 18"),
    ("palindromes-nu", "palindromes --word nu_p --prefix 100000 --expect 20"),
    ("exponent-nu-empirical", "exponent --word nu_p --method empirical --prefix 100000 --expect 5/2"),
    ("exponent-mu-empirical", "exponent --word mu_p --method empirical --prefix 100000 --expect 28/11"),
    ("exponent-nu-structural", "exponent --word nu_p --method bispecial --expect 5/2"),
    ("exponent-mu-structural", "exponent --word mu_p --method bispecial --expect 28/11"),
    ("exponent-closed-form", "exponent --word p --method closed-form --expect 2.48"),
    ("structure-p", "structure --word p --max-bs 200 --complexity-n 500"),
    ("preimage-mu", "preimage-prove --morphism mu --family F18"),
    ("preimage-nu", "preimage-prove --morphism nu --family F20"),
    ("rauzy-mu", "rauzy --exp 13/5 --strict false --pal 18 --ell 20 --mode weak "
                 "--margin 40 --trim --compare mu_p --select-avoiding 1101"),
    ("optimality-pal8", "optimality --alphabet 2 --pal 8 --cap 400 --symmetry"),
    ("optimality-cubefree14", "optimality --alphabet 2 --exp 3 --strict false "
                              "--pal 14 --cap 400 --symmetry"),
    ("growth-pal11", "growth --pal 11 --max-n 60 --expect 1.1127756842787 --tol 0.01"),
    ("splice-x", "splice --prefix 100000 --center 200"),
]

DEEP_BATTERY = [
    ("rauzy-nu", "rauzy --exp 28/11 --strict false --pal 20 --ell 78 --mode strong "
                 "--margin 78 --compare nu_p --select-avoiding 1011"),
]


def _battery_job(item):
    name, cmd = item
    return name, run_command(shlex.split(cmd)).render()


def cmd_verify_all(args) -> int:
    jobs = BATTERY + (DEEP_BATTERY if args.deep else [])
    if args.out_dir:
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:  # a regular file in the way, or no permission
            print(f"palfree verify-all: error: cannot write {args.out_dir}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        # the pool starts every worker at once, so start no more than there are jobs
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(jobs))) as pool:
            results = dict(pool.map(_battery_job, jobs))
    else:
        results = dict(map(_battery_job, jobs))
    codes = []
    for name, _cmd in jobs:
        cert = parse_certificate(results[name])
        codes.append(cert.exit_code)
        mark = {0: "PASS", 1: "FAIL", 2: "INCONCLUSIVE"}[cert.exit_code]
        print(f"{mark:12s} {name}")
        if args.out_dir:
            try:
                with open(os.path.join(args.out_dir, name + ".cert"), "w") as fh:
                    fh.write(results[name])
            except OSError as exc:  # a directory in the way, or no permission
                print(f"palfree verify-all: error: cannot write {exc.filename}: {exc.strerror}",
                      file=sys.stderr)
                codes.append(2)
    return 1 if 1 in codes else 2 if 2 in codes else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.cmd == "verify-all":
        return cmd_verify_all(args)
    try:
        if args.cmd == "replay":
            try:
                old = read_certificate(args.file)
            except OSError as exc:  # a missing path or a directory
                raise ValueError(f"cannot read {args.file}: {exc.strerror}") from None
            new = run_command(shlex.split(old.command))
        else:
            cert = _dispatch(args)
            if args.out:
                try:
                    cert.write(args.out)
                except OSError as exc:  # a parent that is missing or a file, or a directory
                    raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    except ValueError as exc:  # input a builder refuses, SymmetryError included
        print(f"palfree {args.cmd}: error: {exc}", file=sys.stderr)
        return 2
    if args.cmd == "replay":
        report = compare_certificates(old, new)
        if report.matched:
            print(f"replay ok: {old.command}")
            return 0
        print(f"replay MISMATCH: {old.command}")
        for d in report.differences:
            print("  " + d)
        return 1
    sys.stdout.write(cert.render())
    return cert.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
