"""Span recorders around the public entry points of each ``jsbaf`` module.

Only the traced run installs them.  ``install`` replaces every reference to
a listed function in every loaded ``jsbaf`` module (and the enumerator
method on ``_Engine``), so callers that imported a function by name or
look it up inside a function body both reach the wrapper.

Each span adds its duration minus the time of the spans it encloses (its
self time) to the total of its bucket, which names a layer and one or more
functions.  Counts come from the arguments and
results of the wrapped calls.  Per-pair predicates (``defeats``,
``legally_in``, ``forced_in``, ...) are not wrapped: their counts are
derived from sizes, which keeps the tracing overhead small.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

from jsbaf.errors import ResourceLimitError


class Tracer:
    """Self times, call counts and counters of the recorded spans."""

    def __init__(self):
        self.stack: list[list[float]] = []  # child time of each open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def layer_calls(self, layer: str) -> int:
        return sum(n for key, n in self.calls.items() if key.split(".", 1)[0] == layer)


# --- counters, from the arguments and results of a call ---------------------------


def _limit_hit(layer):
    def on_error(counts, exc):
        if isinstance(exc, ResourceLimitError):
            counts[f"{layer}.limit_hits"] += 1

    return on_error


def _on_fi_set(counts, args, kwargs, result):
    counts["grounded.forced_in_calls"] += len(args[0].args)  # fi_set asks forced_in per argument


def _on_catalogue(counts, args, kwargs, result):
    counts["grounded.catalogue_labelings"] += len(result)


def _on_build(counts, args, kwargs, result):
    counts["arguments.built"] += len(result.arguments)
    counts["arguments.truncated"] += int(result.truncated)


def _on_translate(counts, args, kwargs, result):
    n = len(result.framework.args)
    counts["arguments.pairs_tested"] += n * n  # the defeat matrix tests every ordered pair
    counts["arguments.attacks_found"] += len(result.framework.attacks)


def _on_parse(counts, args, kwargs, result):
    counts["textio.bytes_parsed"] += len(args[0].encode())


def _on_truth_table(counts, args, kwargs, result):
    formulas = list(args[0])
    if len(args) > 1:
        formulas.append(args[1])
    names = frozenset().union(*(f.atom_set for f in formulas))
    counts["formulas.truth_table_rows"] += 1 << len(names)


def _on_non_interference(counts, args, kwargs, result):
    counts["postulates.inconclusive"] += int(result.verdict == "inconclusive")


# (module, function, bucket, counter on return, counter on error); the
# bucket's first component is the layer
ENTRY_POINTS = (
    ("framework", "enumerate_admissible", "framework.enumerate_admissible", None, _limit_hit("framework")),
    ("framework", "enumerate_preferred", "framework.enumerate_preferred", None, None),
    ("framework", "validate_jsbaf", "framework.validate", None, None),
    ("framework", "validate_structure", "framework.validate", None, None),
    ("framework", "sim_labeling", "framework.sim", None, None),
    ("grounded", "grounded_construction", "grounded.construction", None, None),
    ("grounded", "grounded_labeling", "grounded.construction", None, None),
    ("grounded", "sim_labeling", "grounded.construction", None, None),
    ("grounded", "fi_set", "grounded.fi_set", _on_fi_set, None),
    ("grounded", "enumerate_ground_complete", "grounded.ground_complete", None, None),
    ("arguments", "build_arguments", "arguments.build", _on_build, None),
    ("arguments", "framework_from_system", "arguments.translate", _on_translate, None),
    ("textio", "parse_system_text", "textio.parse", _on_parse, None),
    ("textio", "parse_framework_text", "textio.parse", _on_parse, None),
    ("textio", "format_system", "textio.format", None, None),
    ("textio", "format_framework", "textio.format", None, None),
    ("textio", "format_labeling", "textio.format", None, None),
    ("textio", "format_labelings", "textio.format", None, None),
    ("system", "validate_system", "system.validate", None, None),
    ("system", "union_systems", "system.union", None, None),
    ("formulas", "entails", "formulas.entails", _on_truth_table, None),
    ("formulas", "satisfiable", "formulas.entails", _on_truth_table, None),
    ("postulates", "check_non_interference", "postulates.non_interference", _on_non_interference, None),
    ("postulates", "check_closure", "postulates.checks", None, None),
    ("postulates", "check_direct_consistency", "postulates.checks", None, None),
    ("postulates", "check_indirect_consistency", "postulates.checks", None, None),
    ("generate", "generate_system", "generate.generate", None, None),
    ("generate", "generate_disjoint_pair", "generate.generate", None, None),
    ("generate", "generate_ground_framework", "generate.generate", None, None),
    ("generate", "cross_closure_rules", "generate.cross_rules", None, None),
)


def _wrap(tracer: Tracer, fn, bucket: str, on_return, on_error):
    stack, self_s, calls, counts = tracer.stack, tracer.self_s, tracer.calls, tracer.counts

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = [0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if on_error is not None:
                on_error(counts, exc)
            raise
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            self_s[bucket] += elapsed - frame[0]
            calls[bucket] += 1
            if stack:
                stack[-1][0] += elapsed
        if on_return is not None:
            on_return(counts, args, kwargs, result)
        return result

    return traced


def _wrap_enumerator(tracer: Tracer, method):
    """The 2**k IN-set scan shared by ``enumerate_admissible`` and the
    grounded catalogue.  The span runs from the first candidate to
    exhaustion; the consumer between two yields calls no wrapped function."""
    stack, self_s, calls, counts = tracer.stack, tracer.self_s, tracer.calls, tracer.counts

    @functools.wraps(method)
    def traced(engine):
        frame = [0.0]
        stack.append(frame)
        start = perf_counter()
        found = 0
        try:
            for masks in method(engine):
                found += 1
                yield masks
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            self_s["framework.enumerate"] += elapsed - frame[0]
            calls["framework.enumerate"] += 1
            if stack:
                stack[-1][0] += elapsed
            counts["framework.search_space"] += 1 << (engine.n - engine.strict_mask.bit_count())
            counts["framework.admissible_found"] += found

    return traced


def _wrap_catalogue(tracer: Tracer, fn):
    """Every ``forced_in`` call that inspects a support asks for the
    catalogue; only the call that computes it (the framework has none
    cached yet) is a span, so the cached look-ups cost no tracing."""
    traced_fn = _wrap(tracer, fn, "grounded.catalogue", _on_catalogue, _limit_hit("grounded"))

    @functools.wraps(fn)
    def traced(g, *args, **kwargs):
        if getattr(g, "_catalogue_cache", None) is not None:
            return fn(g, *args, **kwargs)
        return traced_fn(g, *args, **kwargs)

    return traced


class Installation:
    """The patched references; ``restore`` puts the originals back and
    ``apply`` the wrappers again, so that work outside the verdict spans
    (output digests, checks) is not recorded."""

    def __init__(self):
        self.patched: list[tuple[object, str, object, object]] = []

    def apply(self):
        for owner, name, _, wrapper in self.patched:
            setattr(owner, name, wrapper)

    def restore(self):
        for owner, name, original, _ in reversed(self.patched):
            setattr(owner, name, original)


def _jsbaf_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "jsbaf" or name.startswith("jsbaf.")]


def install(tracer: Tracer) -> Installation:
    """Wrap the entry points, recording into ``tracer``; returns the applied
    installation."""
    import jsbaf.framework
    import jsbaf.grounded

    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in _jsbaf_modules()}
    wrappers = {}
    for module, name, bucket, on_return, on_error in ENTRY_POINTS:
        original = getattr(modules[module], name)
        wrappers[id(original)] = (original, _wrap(tracer, original, bucket, on_return, on_error))
    catalogue = jsbaf.grounded.admissible_catalogue
    wrappers[id(catalogue)] = (catalogue, _wrap_catalogue(tracer, catalogue))

    installation = Installation()
    for module in _jsbaf_modules():
        for attr, value in vars(module).items():
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                installation.patched.append((module, attr, value, entry[1]))
    engine = jsbaf.framework._Engine
    method = engine.enumerate_admissible_masks
    installation.patched.append(
        (engine, "enumerate_admissible_masks", method, _wrap_enumerator(tracer, method))
    )
    installation.apply()
    return installation


# --- per-layer metrics ------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(verdict: Tracer, setup: Tracer) -> dict[str, tuple[float, str]]:
    """Name -> (value, unit) over one pass of the verdict path;
    ``generate.s`` is the corpus generation of the set-up alone."""
    s, calls, counts = verdict.self_s, verdict.calls, verdict.counts
    metrics = {
        "framework.enumerate_s": (s["framework.enumerate"] + s["framework.enumerate_admissible"], "s"),
        "framework.enumerate_calls": (calls["framework.enumerate"], "count"),
        "framework.search_space": (counts["framework.search_space"], "count"),
        "framework.admissible_found": (counts["framework.admissible_found"], "count"),
        "framework.admissible_yield": (
            _ratio(counts["framework.admissible_found"], counts["framework.search_space"]),
            "ratio",
        ),
        "framework.preferred_filter_s": (s["framework.enumerate_preferred"], "s"),
        "framework.limit_hits": (counts["framework.limit_hits"], "count"),
        "framework.validate_s": (s["framework.validate"], "s"),
        "framework.sim_s": (s["framework.sim"], "s"),
        "grounded.construction_s": (s["grounded.construction"], "s"),
        "grounded.fi_set_s": (s["grounded.fi_set"], "s"),
        "grounded.fi_set_calls": (calls["grounded.fi_set"], "count"),
        "grounded.forced_in_calls": (counts["grounded.forced_in_calls"], "count"),
        "grounded.catalogue_s": (s["grounded.catalogue"], "s"),
        "grounded.catalogue_labelings": (counts["grounded.catalogue_labelings"], "count"),
        "grounded.ground_complete_s": (s["grounded.ground_complete"], "s"),
        "grounded.limit_hits": (counts["grounded.limit_hits"], "count"),
        "arguments.build_s": (s["arguments.build"], "s"),
        "arguments.build_calls": (calls["arguments.build"], "count"),
        "arguments.built": (counts["arguments.built"], "count"),
        "arguments.truncated": (counts["arguments.truncated"], "count"),
        "arguments.translate_s": (s["arguments.translate"], "s"),
        "arguments.pairs_tested": (counts["arguments.pairs_tested"], "count"),
        "arguments.attacks_found": (counts["arguments.attacks_found"], "count"),
        "arguments.attack_yield": (
            _ratio(counts["arguments.attacks_found"], counts["arguments.pairs_tested"]),
            "ratio",
        ),
        "textio.parse_s": (s["textio.parse"], "s"),
        "textio.format_s": (s["textio.format"], "s"),
        "textio.bytes_parsed": (counts["textio.bytes_parsed"], "bytes"),
        "system.validate_s": (s["system.validate"], "s"),
        "system.union_s": (s["system.union"], "s"),
        "formulas.entails_s": (s["formulas.entails"], "s"),
        "formulas.entails_calls": (calls["formulas.entails"], "count"),
        "formulas.truth_table_rows": (counts["formulas.truth_table_rows"], "count"),
        "postulates.non_interference_s": (s["postulates.non_interference"], "s"),
        "postulates.checks_s": (s["postulates.checks"], "s"),
        "postulates.checks": (calls["postulates.checks"], "count"),
        "postulates.inconclusive": (counts["postulates.inconclusive"], "count"),
        "generate.s": (setup.self_s["generate.generate"] + setup.self_s["generate.cross_rules"], "s"),
        "generate.cross_rules_s": (s["generate.cross_rules"], "s"),
    }
    return metrics


# Layers that must record calls in the verdict path of each workload;
# generate runs in the set-up.  A refactor that silently stops a layer
# from being reached fails the traced run.
EXPECTED_LAYERS = {
    "non-interference": ("framework", "arguments", "textio", "system", "postulates", "generate"),
    "grounded-oracle": ("framework", "grounded", "textio", "generate"),
    "translate": ("arguments", "textio", "system", "formulas", "generate"),
    "postulate-fuzz": ("framework", "arguments", "textio", "postulates", "generate"),
}


def dead_layers(workload: str, verdict: Tracer, setup: Tracer) -> list[str]:
    def calls(layer):
        return setup.layer_calls(layer) if layer == "generate" else verdict.layer_calls(layer)

    return [layer for layer in EXPECTED_LAYERS[workload] if calls(layer) == 0]
