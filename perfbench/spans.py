"""Span tracer for one benchmark pass, installed from outside the package.

Each traced public name is replaced, in every palfree namespace that binds
it, by a wrapper that keeps a span stack so that self time = own span minus
child spans.  Coarse calls are recorded one span each (name, start, end,
parent, job); the per-letter methods are aggregated in memory per
(method, parent) because they run millions of times.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# layer -> traced names ("Class.method" for methods)
TRACED = {
    "repetition": ("IncrementalFreeChecker.push", "IncrementalFreeChecker.pop",
                   "is_free", "critical_exponent"),
    "runs": ("violations", "max_stretch_ratio"),
    "eertree": ("Eertree.push", "Eertree.pop"),
    "words": ("palindrome_count", "palindrome_set"),
    "morphisms": ("Morphism.fixed_point_prefix", "Morphism.apply"),
    "structure": ("MorphicStream.prefix", "bispecial_enumerate", "return_words",
                  "extension_profile", "factor_complexity", "structural_exponent"),
    "cubic": ("solve_sequence", "perron_root", "asymptotic_exponent_value"),
    "transfer": ("verify_transfer", "verify_palindrome_budget"),
    "search": ("ConstraintState.push", "ConstraintState.pop", "search", "count_words",
               "extendable_middles", "prove_preimage_forbidden", "replay_proof"),
    "rauzy": ("survivor_set", "trim_to_essential", "build_rauzy", "components",
              "symmetry_orbits", "RauzyGraph.of_word"),
    "certificates": ("Certificate.render", "parse_certificate"),
    "cli": ("run_command",),
}

PER_LETTER = {"repetition.IncrementalFreeChecker.push", "repetition.IncrementalFreeChecker.pop",
              "eertree.Eertree.push", "eertree.Eertree.pop",
              "search.ConstraintState.push", "search.ConstraintState.pop"}


def _first_len(args, result):
    return len(args[0])


def _result_len(args, result):
    return len(result)


# span name -> size recorded per call (letters, words, nodes or arcs)
SIZES = {
    "repetition.IncrementalFreeChecker.push": lambda args, result: len(args[0].w),
    "repetition.is_free": _first_len,
    "repetition.critical_exponent": _first_len,
    "runs.violations": _first_len,
    "runs.max_stretch_ratio": _first_len,
    "words.palindrome_count": _first_len,
    "words.palindrome_set": _first_len,
    "morphisms.Morphism.fixed_point_prefix": _result_len,
    "morphisms.Morphism.apply": _result_len,
    "structure.MorphicStream.prefix": _result_len,
    "transfer.verify_transfer": lambda args, result: result.words_checked,
    "search.prove_preimage_forbidden":
        lambda args, result: result.nodes_examined if result is not None else 0,
    "rauzy.build_rauzy": _result_len,
    "rauzy.RauzyGraph.of_word": _result_len,
}

SEARCH_ENGINES = ("search.search", "search.count_words", "search.extendable_middles")


class Tracer:
    """Owns the span stack, the coarse spans and the per-letter aggregates
    of one traced pass."""

    def __init__(self):
        self.job = None
        self.stack: list[list] = []   # [name, start, child_s, kid names, span index]
        self.spans: list = []         # (job, name, start, end, parent, self_s, size)
        self.agg: dict = {}           # (name, parent) -> [calls, truthy, size, total_s, self_s]

    # -- wrappers -----------------------------------------------------------

    def _per_letter(self, name, fn):
        stack, agg, size = self.stack, self.agg, SIZES.get(name)

        def traced(*args):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0, 0.0, None, None]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args)
            finally:
                dur = perf_counter() - t0
                stack.pop()
            if stack:
                stack[-1][2] += dur
            a = agg.get((name, parent))
            if a is None:
                a = agg[(name, parent)] = [0, 0, 0, 0.0, 0.0]
            a[0] += 1
            if result:
                a[1] += 1
            if size is not None:
                a[2] += size(args, result)
            a[3] += dur
            a[4] += dur - frame[2]
            return result

        return traced

    def _coarse(self, name, fn):
        stack, spans, size = self.stack, self.spans, SIZES.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            frame = [name, 0.0, 0.0, set(), index]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[2] += dur
                if parent[3] is not None:
                    parent[3].add(name)
            n = size(args, result) if size is not None else 0
            spans[index] = (self.job, name, t0, t1,
                            parent[4] if parent is not None else None,
                            dur - frame[2], n, sorted(frame[3]))
            return result

        return traced

    def install(self) -> None:
        """Replace every traced name in every loaded palfree namespace."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "palfree" or k.startswith("palfree.")]
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"palfree.{layer}")
            for attr in names:
                name = f"{layer}.{attr}"
                make = self._per_letter if name in PER_LETTER else self._coarse
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    if isinstance(orig, classmethod):
                        new = classmethod(make(name, orig.__func__))
                    else:
                        new = make(name, orig)
                    for key, value in list(vars(cls).items()):
                        if value is orig:
                            setattr(cls, key, new)
                else:
                    orig = getattr(mod, attr)
                    new = make(name, orig)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is orig:
                                setattr(m, key, new)

    # -- results ------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "per_letter": [[name, parent] + a for (name, parent), a in self.agg.items()],
        }

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of this pass, by name (units in BENCHMARK.json)."""
        calls: dict[str, int] = {}
        truthy: dict[str, int] = {}
        size: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, _parent), (n, t, sz, _tot, st) in self.agg.items():
            calls[name] = calls.get(name, 0) + n
            truthy[name] = truthy.get(name, 0) + t
            size[name] = size.get(name, 0) + sz
            self_s[name] = self_s.get(name, 0.0) + st
        engine_s = 0.0
        prefix_hits = 0
        for _job, name, t0, t1, _parent, st, sz, kids in self.spans:
            calls[name] = calls.get(name, 0) + 1
            size[name] = size.get(name, 0) + sz
            self_s[name] = self_s.get(name, 0.0) + st
            if name in SEARCH_ENGINES:
                engine_s += t1 - t0
            if name == "structure.MorphicStream.prefix" \
                    and "morphisms.Morphism.fixed_point_prefix" not in kids:
                prefix_hits += 1

        def c(name):
            return calls.get(name, 0)

        def layer_self(layer, only=None):
            names = only or [f"{layer}.{a}" for a in TRACED[layer]]
            return sum(self_s.get(n, 0.0) for n in names)

        def ratio(a, b):
            return a / b if b else 0.0

        push = "repetition.IncrementalFreeChecker.push"
        scans = ["repetition.is_free", "repetition.critical_exponent"]
        runs_names = ["runs.violations", "runs.max_stretch_ratio"]
        cpush = "search.ConstraintState.push"
        runs_letters = sum(size.get(n, 0) for n in runs_names)
        runs_s = layer_self("runs")
        return {
            "repetition.push_calls": c(push),
            "repetition.incremental_self_s": layer_self(
                "repetition", [push, "repetition.IncrementalFreeChecker.pop"]),
            "repetition.push_accept_ratio": ratio(truthy.get(push, 0), c(push)),
            "repetition.push_word_len_mean": ratio(size.get(push, 0), c(push)),
            "repetition.scan_calls": sum(c(n) for n in scans),
            "repetition.scan_letters": sum(size.get(n, 0) for n in scans),
            "repetition.scan_self_s": layer_self("repetition", scans),
            "runs.letters": runs_letters,
            "runs.self_s": runs_s,
            "runs.letters_per_s": ratio(runs_letters, runs_s),
            "eertree.push_calls": c("eertree.Eertree.push"),
            "eertree.self_s": layer_self("eertree"),
            "eertree.new_node_ratio": ratio(truthy.get("eertree.Eertree.push", 0),
                                            c("eertree.Eertree.push")),
            "words.palindrome_letters": size.get("words.palindrome_count", 0)
                                        + size.get("words.palindrome_set", 0),
            "words.self_s": layer_self("words"),
            "morphisms.prefix_letters": size.get("morphisms.Morphism.fixed_point_prefix", 0),
            "morphisms.apply_letters": size.get("morphisms.Morphism.apply", 0),
            "morphisms.self_s": layer_self("morphisms"),
            "structure.stream_prefix_calls": c("structure.MorphicStream.prefix"),
            "structure.stream_prefix_letters": size.get("structure.MorphicStream.prefix", 0),
            "structure.stream_cache_hit_ratio": ratio(prefix_hits,
                                                      c("structure.MorphicStream.prefix")),
            "structure.self_s": layer_self("structure"),
            "cubic.calls": sum(c(f"cubic.{a}") for a in TRACED["cubic"]),
            "cubic.self_s": layer_self("cubic"),
            "transfer.source_words": size.get("transfer.verify_transfer", 0),
            "transfer.self_s": layer_self("transfer"),
            "search.constraint_push_calls": c(cpush),
            "search.constraint_accept_ratio": ratio(truthy.get(cpush, 0), c(cpush)),
            "search.nodes_per_s": ratio(c(cpush), engine_s),
            "search.preimage_nodes": size.get("search.prove_preimage_forbidden", 0),
            "search.self_s": layer_self("search"),
            "rauzy.arcs": size.get("rauzy.build_rauzy", 0) + size.get("rauzy.RauzyGraph.of_word", 0),
            "rauzy.self_s": layer_self("rauzy"),
            "certificates.self_s": layer_self("certificates"),
            "cli.self_s": layer_self("cli"),
        }

