"""Acceptance suite.

Each test covers one numbered criterion, enforces its time budget, and
prints a single ``criterion N: PASS`` / ``FAIL`` line.  The heavy
criteria share seeded corpora; every run of this module regenerates them
from the same seeds, and the determinism criterion re-runs the lot and
compares canonical serialisations byte for byte.
"""

import json
import random
import subprocess
import sys
import time
from functools import lru_cache

import pytest

import jsbaf.grounded as gr
from jsbaf import arguments as ar
from jsbaf import formulas as fm
from jsbaf import framework as fw
from jsbaf import generate as gen
from jsbaf import naive
from jsbaf import postulates as po
from jsbaf import textio
from jsbaf.framework import Labeling

from conftest import INSTANCES, non_triviality_witness, random_labeling

SEED5 = "acceptance-grounded"
SEED6 = "acceptance-postulates"
SEED7 = "acceptance-non-interference"


def _finish(number, ok, started, limit):
    elapsed = time.time() - started
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget ({elapsed:.2f}s)"


def _labeling(framework, in_set, out_set):
    return Labeling.from_sets(framework.args, in_set, out_set)


# --- shared corpora ---------------------------------------------------------


@lru_cache(maxsize=None)
def corpus5():
    frameworks = []
    for i in range(100):
        rng = random.Random(f"{SEED5}-{i}")
        frameworks.append(gen.generate_ground_framework(rng=rng, max_args=8))
    return tuple(frameworks)


@lru_cache(maxsize=None)
def corpus6():
    systems = []
    for i in range(200):
        rng = random.Random(f"{SEED6}-{i}")
        while True:
            system = gen.generate_system(gen.FuzzProfile(), rng=rng)
            build = ar.build_arguments(system)
            if not build.truncated and len(build.arguments) <= 10:
                systems.append(system)
                break
    return tuple(systems)


@lru_cache(maxsize=None)
def corpus7():
    profile = gen.FuzzProfile(
        atom_count=(1, 3),
        defeasible_count=(1, 2),
        axiom_count=(0, 1),
        conjunction_probability=0.0,
    )
    pairs = []
    for i in range(50):
        rng = random.Random(f"{SEED7}-{i}")
        pairs.append(gen.generate_disjoint_pair(profile, rng=rng))
    return tuple(pairs)


# --- criteria ----------------------------------------------------------------


def run_criterion_1():
    j1 = textio.parse_instance(str(INSTANCES / "j1.jsbaf"))
    l1 = _labeling(j1, {"a", "b", "d"}, {"bbar"})
    l2 = _labeling(j1, {"a", "b", "c", "d"}, {"bbar", "e"})
    l3 = _labeling(j1, {"a", "b", "d", "e"}, {"bbar", "c"})
    admissible = fw.enumerate_admissible(j1)
    preferred = fw.enumerate_preferred(j1)
    ok = admissible == sorted([l1, l2, l3], key=Labeling.vector)
    ok = ok and preferred == sorted([l2, l3], key=Labeling.vector)
    report = "admissible:\n" + textio.format_labelings(admissible)
    report += "preferred:\n" + textio.format_labelings(preferred)
    return ok, report


def test_criterion_1_example_framework():
    started = time.time()
    ok, _ = run_criterion_1()
    _finish(1, ok, started, limit=1.0)


def run_criterion_2():
    j1 = textio.parse_instance(str(INSTANCES / "j1.jsbaf"))
    sim = fw.sim_labeling(j1)
    ok = sim == _labeling(j1, {"a", "b", "d"}, {"bbar"})
    return ok, textio.format_labeling(sim)


def test_criterion_2_sim_labeling():
    started = time.time()
    ok, _ = run_criterion_2()
    _finish(2, ok, started, limit=1.0)


def run_criterion_3():
    as1 = textio.parse_instance(str(INSTANCES / "as1.as"))
    j1 = textio.parse_instance(str(INSTANCES / "j1.jsbaf"))
    translation = ar.framework_from_system(as1)
    by_conclusion = {
        str(argument.conclusion): aid for aid, argument in translation.argument_of.items()
    }
    to_j1 = {
        by_conclusion["alpha"]: "a",
        by_conclusion["!(gamma & delta & epsilon)"]: "b",
        by_conclusion["gamma & delta & epsilon"]: "bbar",
        by_conclusion["gamma"]: "c",
        by_conclusion["delta"]: "d",
        by_conclusion["epsilon"]: "e",
    }
    ok = len(to_j1) == 6
    ok = ok and {(to_j1[a], to_j1[b]) for a, b in translation.framework.attacks} == j1.attacks
    ok = ok and {
        to_j1[head]: frozenset(to_j1[t] for t in tail)
        for head, tail in translation.framework.supports.items()
    } == j1.supports
    for x in translation.framework.args:
        for y in translation.framework.args:
            ours = translation.framework.rank[x] <= translation.framework.rank[y]
            ok = ok and ours == (j1.rank[to_j1[x]] <= j1.rank[to_j1[y]])
    families = {
        frozenset(str(f) for f in fam) for fam in ar.preferred_conclusions(as1)
    }
    expected = {
        frozenset({"alpha", "!(gamma & delta & epsilon)", "gamma", "delta"}),
        frozenset({"alpha", "!(gamma & delta & epsilon)", "delta", "epsilon"}),
    }
    ok = ok and families == expected
    report = textio.format_framework(translation.framework)
    report += "".join(sorted("{" + ", ".join(sorted(f)) + "}\n" for f in families))
    return ok, report


def test_criterion_3_pipeline_reproduction():
    started = time.time()
    ok, _ = run_criterion_3()
    _finish(3, ok, started, limit=2.0)


def run_criterion_4():
    j2 = gr.from_jsbaf(textio.parse_instance(str(INSTANCES / "j2.jsbaf")))
    j3 = gr.from_jsbaf(textio.parse_instance(str(INSTANCES / "j3.jsbaf")))
    got2 = gr.grounded_labeling(j2, oracle=True)
    got3 = gr.grounded_labeling(j3, oracle=True)
    sim3 = gr.sim_labeling(j3)
    ok = got2 == Labeling.from_sets(j2.args)
    ok = ok and got3 == Labeling.from_sets(j3.args, {"Bbar", "A2"}, {"A1", "B"})
    ok = ok and sim3 == Labeling.from_sets(j3.args, {"Bbar"}, {"B"})
    report = "".join(textio.format_labeling(lab) for lab in (got2, got3, sim3))
    return ok, report


def test_criterion_4_grounded_reproduction():
    started = time.time()
    ok, _ = run_criterion_4()
    _finish(4, ok, started, limit=5.0)


def run_criterion_5():
    mismatches = 0
    lines = []
    for index, g in enumerate(corpus5()):
        constructed = gr.grounded_construction(g)
        complete = gr.enumerate_ground_complete(g)
        minimal = [
            lab for lab in complete if not any(o.in_set < lab.in_set for o in complete)
        ]
        if len(minimal) != 1 or minimal[0] != constructed:
            mismatches += 1
            lines.append(f"instance {index}: minimality mismatch")
            continue
        for k in range(2):
            pick_rng = random.Random(f"{SEED5}-pick-{index}-{k}")
            shuffled = gr.grounded_construction(g, pick=lambda c: pick_rng.choice(c))
            if shuffled != constructed:
                mismatches += 1
                lines.append(f"instance {index}: pick-order mismatch")
        lines.append(f"instance {index}: {constructed.vector()}")
    return mismatches == 0, "\n".join(lines) + "\n"


def test_criterion_5_grounded_uniqueness_fuzz():
    started = time.time()
    ok, _ = run_criterion_5()
    _finish(5, ok, started, limit=300.0)


def run_criterion_6():
    failures = 0
    lines = []
    for index, system in enumerate(corpus6()):
        families = ar.preferred_conclusions(system)
        digest = po.system_digest(system)
        for family in families:
            reports = (
                po.check_closure(system, family),
                po.check_direct_consistency(family, instance_digest=digest),
                po.check_indirect_consistency(system, family),
            )
            for report in reports:
                if not report.passed:
                    failures += 1
                    lines.append(f"instance {index}: {report.postulate} {report.witness}")
        lines.append(
            f"instance {index}: {len(families)} extension families, all postulates pass"
        )
    return failures == 0, "\n".join(lines) + "\n"


def test_criterion_6_postulate_fuzz():
    started = time.time()
    ok, _ = run_criterion_6()
    _finish(6, ok, started, limit=600.0)


def run_criterion_7():
    failures = inconclusive = 0
    lines = []
    for index, (s1, s2) in enumerate(corpus7()):
        report = po.check_non_interference(
            s1,
            s2,
            merge="raw" if index % 2 == 0 else "interleave",
            cross_rules=gen.cross_closure_rules(s1, s2),
        )
        if report.verdict == po.FAIL:
            failures += 1
        elif report.verdict == po.INCONCLUSIVE:
            inconclusive += 1
        lines.append(f"pair {index}: {report.verdict}")
    lines.append(f"inconclusive rate: {inconclusive}/50")
    print(f"criterion 7 inconclusive rate: {inconclusive}/50")
    return failures == 0, "\n".join(lines) + "\n"


def test_criterion_7_non_interference_fuzz():
    started = time.time()
    ok, _ = run_criterion_7()
    _finish(7, ok, started, limit=1200.0)


def run_criterion_8():
    ok = True
    lines = []
    for size in (1, 2, 3):
        names = [f"w{i}" for i in range(size)]
        asserting, circular = non_triviality_witness(names)
        left = po.restrict_conclusions(ar.preferred_conclusions(asserting), names)
        right = po.restrict_conclusions(ar.preferred_conclusions(circular), names)
        ok = ok and left != right
        lines.append(
            f"size {size}: "
            + json.dumps(sorted(sorted(str(f) for f in fam) for fam in left))
            + " vs "
            + json.dumps(sorted(sorted(str(f) for f in fam) for fam in right))
        )
    return ok, "\n".join(lines) + "\n"


def test_criterion_8_non_triviality():
    started = time.time()
    ok, _ = run_criterion_8()
    _finish(8, ok, started, limit=60.0)


def test_criterion_9_property_suites():
    started = time.time()
    violations = []
    rng = random.Random("acceptance-properties")

    # grounded corpus: SIM admissibility and legality-oracle agreement
    for index, g in enumerate(corpus5()):
        sim = gr.sim_labeling(g)
        if not fw.is_admissible(g, sim):
            violations.append(f"corpus5[{index}]: SIM not admissible")
        plain = fw.Jsbaf(args=g.args, attacks=g.attacks, supports=dict(g.supports))
        for _ in range(4):
            labeling = random_labeling(g, rng)
            if fw.is_admissible(g, labeling) != naive.naive_is_admissible(plain, labeling, use_ranks=False):
                violations.append(f"corpus5[{index}]: admissibility oracle disagrees")
            for arg in g.args:
                if gr.legally_in(g, labeling, arg) != naive.naive_legally_in(
                    plain, labeling, arg, use_ranks=False
                ):
                    violations.append(f"corpus5[{index}]: legally_in oracle disagrees")

    # system corpora: translation validity, SIM, preferred non-emptiness,
    # sub-argument closure, entailment oracles, legality oracles
    systems = list(corpus6()) + [side for pair in corpus7() for side in pair]
    for index, system in enumerate(systems):
        translation = ar.framework_from_system(system)
        framework = translation.framework
        if not fw.validate_jsbaf(framework).ok:
            violations.append(f"system[{index}]: translation fails validation")
            continue
        sim = fw.sim_labeling(framework)
        if not fw.is_admissible(framework, sim):
            violations.append(f"system[{index}]: SIM not admissible")
        preferred = fw.enumerate_preferred(framework, max_args=20)
        if not preferred:
            violations.append(f"system[{index}]: no preferred labeling")
        for lab in preferred:
            accepted = {translation.argument_of[a] for a in lab.in_set}
            for argument in accepted:
                if not ar.sub_args(argument) <= accepted:
                    violations.append(f"system[{index}]: sub-argument closure broken")
            parts = (lab.in_set, lab.out_set, lab.undec_set)
            if sum(map(len, parts)) != len(framework.args):
                violations.append(f"system[{index}]: labeling does not partition")
        for argument in ar.build_arguments(system).arguments:
            premises = [x.conclusion for x in naive.ad_sub(argument)]
            if not all(
                fm.entails(premises, psi)
                for psi in {x.conclusion for x in ar.sub_args(argument)}
            ):
                violations.append(f"system[{index}]: ADSub entailment broken")
            if not fm.entails(
                [x.conclusion for x in naive.c_sub(argument)], argument.conclusion
            ):
                violations.append(f"system[{index}]: CSub entailment broken")
        for _ in range(2):
            labeling = random_labeling(framework, rng)
            if fw.is_admissible(framework, labeling) != naive.naive_is_admissible(framework, labeling):
                violations.append(f"system[{index}]: admissibility oracle disagrees")
            for arg in framework.args:
                if fw.legally_in(framework, labeling, arg) != naive.naive_legally_in(
                    framework, labeling, arg
                ):
                    violations.append(f"system[{index}]: legally_in oracle disagrees")

    for line in violations[:10]:
        print(line)
    _finish(9, not violations, started, limit=1200.0)


def test_criterion_10_determinism():
    started = time.time()
    reports_first = [run() for run in (
        run_criterion_1, run_criterion_2, run_criterion_3, run_criterion_4,
        run_criterion_5, run_criterion_6, run_criterion_7, run_criterion_8,
    )]
    corpus5.cache_clear()
    corpus6.cache_clear()
    corpus7.cache_clear()
    reports_second = [run() for run in (
        run_criterion_1, run_criterion_2, run_criterion_3, run_criterion_4,
        run_criterion_5, run_criterion_6, run_criterion_7, run_criterion_8,
    )]
    ok = all(a == b for a, b in zip(reports_first, reports_second))

    # the CLI path must be byte-identical across processes as well
    argv = [sys.executable, "-m", "jsbaf.cli", "solve", str(INSTANCES / "j1.jsbaf"),
            "--semantics", "admissible"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    ok = ok and first.stdout == second.stdout and first.returncode == second.returncode == 0
    _finish(10, ok, started, limit=2400.0)
