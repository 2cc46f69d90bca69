"""The names the benchmark under ``bench/`` calls still exist.

Installing the traced run's span recorders looks up every wrapped entry
point, and importing the workloads binds the profiles and budgets they
use; a refactor that deletes or renames one of them fails here instead
of breaking the benchmark.
"""

import importlib.util
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_span_recorders_install_and_restore():
    import jsbaf.framework
    import jsbaf.generate  # noqa: F401  (install wraps entry points of every module)
    import jsbaf.postulates  # noqa: F401
    import jsbaf.textio  # noqa: F401

    spans = _load("spans")
    method = jsbaf.framework._Engine.enumerate_admissible_masks
    installation = spans.install(spans.Tracer())
    try:
        assert jsbaf.framework._Engine.enumerate_admissible_masks is not method
    finally:
        installation.restore()
    assert jsbaf.framework._Engine.enumerate_admissible_masks is method


def test_workloads_import():
    workloads = _load("workloads")
    assert set(workloads.WORKLOADS) == {
        "non-interference", "grounded-oracle", "translate", "postulate-fuzz",
    }


def test_grounded_workload_reads_labelings():
    # the grounded-oracle corpus estimate reads catalogue labelings by name
    # (in_set, out_set, label), and its check compares labelings (vector)
    import random

    from jsbaf import generate, textio

    workloads = _load("workloads")
    rng = random.Random("bench-contract-grounded")
    for index in range(6):
        g = generate.generate_ground_framework(rng=rng, max_args=9)
        assert workloads._ground_work(g) > workloads.GROUND_WORK_WEIGHTS[0]
        text = textio.format_framework(workloads._plain(g))
        labeling = workloads.solve_grounded(text)
        assert workloads.check_grounded("contract", index, text, labeling) is None


def test_preferred_searches_enter_through_the_traced_enumerator():
    # bench/spans.py wraps _Engine.enumerate_admissible_masks as a generator
    # of the engine alone and adds 2**(arguments - strict arguments) per
    # call as framework.search_space, which bench/selftest.py pins on the
    # criterion-7 corpus; the bench's non-interference corpus counts
    # admissible masks through the same name
    import jsbaf.framework
    from jsbaf import postulates

    from test_framework import _first_criterion_7_pairs, _union_frameworks

    spans = _load("spans")
    pairs = list(_first_criterion_7_pairs())
    unions = _union_frameworks(pairs)
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        for s1, s2, merge, cross_rules in pairs:
            postulates.check_non_interference(s1, s2, merge=merge, cross_rules=cross_rules)
        assert tracer.calls["framework.enumerate"] == 30  # one per preferred search
        assert tracer.counts["framework.search_space"] == 107_243
        found = tracer.counts["framework.admissible_found"]
        admissible = sum(
            len(list(jsbaf.framework._engine(union).enumerate_admissible_masks())) for union in unions
        )
    finally:
        installation.restore()
    assert admissible == tracer.counts["framework.admissible_found"] - found == 1_439
