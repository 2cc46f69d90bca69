"""Seeded corpora, verdict paths and verdict checks of the four workloads.

Every instance is instance text (``.as`` or ``.jsbaf``), as on the command
line.  The verdict path parses that text into fresh objects on every call,
so no ``_engine_cache`` or ``_catalogue_cache`` survives from one timed
instance to the next.

The package is reached through its module objects (``textio.parse_...``),
never through names bound at import time, so that the traced run's
wrappers are the functions the verdict path calls.

The corpora are stratified by the size that drives their cost: each
stratum (a size range) gets a fixed count of instances, filled with the
first seeded draws that fall into it.  The seed then changes which
instances run but not how much work they need, which keeps the figures
of different seeds comparable.  Without it, a few rare instances decided
most of a run's time: a non-interference pair whose union has 21
non-strict arguments takes about 4 s against 11 ms at 12, and 1% of the
grounded frameworks took 39% of the grounded time.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from jsbaf import arguments, framework, generate, grounded, naive, postulates, system, textio

# the profiles of the acceptance corpora of criteria 7 and 6, and of the
# larger saturated systems of the translate workload
NON_INTERFERENCE_PROFILE = generate.FuzzProfile(
    atom_count=(1, 3), defeasible_count=(1, 2), axiom_count=(0, 1), conjunction_probability=0.0
)
POSTULATE_PROFILE = generate.FuzzProfile()
TRANSLATE_PROFILE = generate.FuzzProfile(
    atom_count=(4, 6),
    defeasible_count=(6, 10),
    antecedent_count=(0, 2),
    conjunction_intro=True,
    build_args=2000,
)
NI_BUDGET = postulates.NonInterferenceBudget()

# Strata: (smallest size, largest size or None, instances in the default
# corpus).  The counts follow each size band's share of the profile's own
# distribution (``python3 bench/shares.py`` measures it; bench/README.md has
# the figures).  Costlier bands, whose few instances would decide a run's
# time, get a count below their share or are not drawn.
NI_STRATA = (  # size: non-strict arguments of the union; the enumerator scans 2**size IN-sets
    (0, 5, 107),
    (6, 7, 82),
    (8, 8, 28),
    (9, 9, 30),
    (10, 10, 25),
    (11, 11, 34),
    (12, 12, 17),
    (14, 14, 10),  # 13-16: natural share 12%, kept small; 17-21 (5%, up to 6 s each) not drawn
    (15, 15, 4),
    (16, 16, 5),
    (NI_BUDGET.max_nonstrict + 1, None, 7),  # over the budget: INCONCLUSIVE after construction
)
# From 14 non-strict arguments on, a union with thousands of admissible
# labelings also costs the preferred filter's pairwise subset tests and their
# memory (9,281 labelings: 1.1 s and 20 MB), so such rare pairs would decide
# a seed's time and peak memory.  Those strata take only unions with at most
# this many admissible labelings.
NI_LARGE_NONSTRICT = 14
NI_MAX_ADMISSIBLE = 256
TRANSLATE_STRATA = (  # size: arguments; the defeat matrix tests every ordered pair
    (0, 9, 16),
    (10, 19, 25),
    (20, 24, 15),
    (25, 29, 8),
    (30, 34, 14),
    (35, 39, 4),
    (40, 44, 13),
    (45, 49, 3),
    (50, 59, 13),
    (60, 69, 7),
    (70, 79, 6),
    (80, 89, 5),
    (90, 99, 3),
    (100, 129, 7),
    (130, 159, 4),
    (160, 199, 2),
    (200, 330, 2),  # above 330 (1%, up to 10 s each) not drawn
)
POSTULATE_STRATA = (  # size: non-strict arguments, always even here; all sizes drawn
    (0, 0, 451),
    (2, 2, 1092),
    (4, 4, 788),
    (6, 6, 485),
    (8, 8, 169),
    (10, 10, 15),
)
MAX_DRAWS_PER_INSTANCE = 200


@dataclass(frozen=True)
class Outcome:
    """One verdict: its canonical output, and whether it is inconclusive."""

    output: str
    inconclusive: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # distinct instances in the default corpus
    corpus: Callable[[str, int], list]
    solve: Callable  # the timed verdict path: instance -> verdict object
    outcome: Callable  # verdict -> Outcome, outside the timed span
    check: Callable  # (seed, index, instance, verdict) -> failure text or None


def _rng(seed: str, index: int) -> random.Random:
    return random.Random(f"{seed}-{index}")


def _spread(groups: list[list]) -> list:
    """Interleave the groups evenly, so that every prefix of the corpus has
    close to the corpus' shares."""
    keyed = [
        ((position + 0.5) / len(members), g, item)
        for g, members in enumerate(groups)
        for position, item in enumerate(members)
    ]
    keyed.sort(key=lambda entry: entry[:2])
    return [item for _, _, item in keyed]


def _corpus_size(strata) -> int:
    return sum(count for *_, count in strata)


def _stratified(seed: str, size: int, strata, draw, admit=None) -> list:
    """``draw(rng)`` returns (size, candidate) or None for a rejected draw;
    ``admit(size, candidate)``, if given, is asked only for a candidate whose
    stratum still has room."""
    total = _corpus_size(strata)
    wanted = [max(1, round(size * count / total)) for *_, count in strata]
    found: list[list] = [[] for _ in strata]
    index = 0
    while any(len(f) < w for f, w in zip(found, wanted)):
        if index > MAX_DRAWS_PER_INSTANCE * sum(wanted):
            raise RuntimeError(f"strata {strata} not filled after {index} draws")
        drawn = draw(_rng(seed, index))
        index += 1
        if drawn is None:
            continue
        measured, candidate = drawn
        for f, w, (low, high, _) in zip(found, wanted, strata):
            if low <= measured and (high is None or measured <= high) and len(f) < w:
                if admit is None or admit(measured, candidate):
                    f.append(candidate)
                break
    return _spread(found)


# --- non-interference ---------------------------------------------------------


def non_interference_pairs(seed: str, count: int) -> list[tuple]:
    """The criterion-7 corpus: ``count`` disjoint pairs, unfiltered."""
    return [
        generate.generate_disjoint_pair(NON_INTERFERENCE_PROFILE, rng=_rng(seed, i))
        for i in range(count)
    ]


def _draw_pair(rng):
    s1, s2 = generate.generate_disjoint_pair(NON_INTERFERENCE_PROFILE, rng=rng)
    union = system.union_systems(s1, s2, cross_rules=generate.cross_closure_rules(s1, s2))
    build = arguments.build_arguments(union, max_args=NI_BUDGET.max_args, max_depth=NI_BUDGET.max_depth)
    if build.truncated:
        return math.inf, (s1, s2)
    return sum(1 for a in build.arguments if not arguments.is_strict(a)), (s1, s2)


def _admit_pair(size, pair) -> bool:
    if not NI_LARGE_NONSTRICT <= size <= NI_BUDGET.max_nonstrict:
        return True
    s1, s2 = pair
    union = system.union_systems(s1, s2, cross_rules=generate.cross_closure_rules(s1, s2))
    # counts admissible IN-sets up to the cap, without building the labelings
    masks = framework._engine(arguments.framework_from_system(union).framework).enumerate_admissible_masks()
    return sum(1 for _ in itertools.islice(masks, NI_MAX_ADMISSIBLE + 1)) <= NI_MAX_ADMISSIBLE


def non_interference_corpus(seed: str, size: int) -> list[tuple]:
    pairs = _stratified(seed, size, NI_STRATA, _draw_pair, _admit_pair)
    return [
        ("raw" if i % 2 == 0 else "interleave", textio.format_system(s1), textio.format_system(s2))
        for i, (s1, s2) in enumerate(pairs)
    ]


def solve_non_interference(instance):
    merge, left, right = instance
    s1 = textio.parse_system_text(left)
    s2 = textio.parse_system_text(right)
    return postulates.check_non_interference(
        s1, s2, merge=merge, cross_rules=generate.cross_closure_rules(s1, s2)
    )


def non_interference_outcome(report) -> Outcome:
    return Outcome(report.to_json(), report.verdict == postulates.INCONCLUSIVE)


def check_non_interference(seed, index, instance, report):
    if report.verdict not in (postulates.PASS, postulates.INCONCLUSIVE):
        return f"non-interference verdict {report.verdict}: {report.witness}"
    return None


# --- grounded-oracle ------------------------------------------------------------


# The oracle's cost varies tenfold among frameworks with the same number of
# admissible labelings, so the grounded corpus is stratified by an estimate
# of the verdict path's work instead.  ``_ground_work`` counts the loops the
# oracle runs at the benchmark's first commit, from the framework's
# semantics alone (its catalogue and which arguments are legally IN), and
# weighs them with a fit to the function calls of that commit (residual
# 0.15 in log).  The estimate is computed by the benchmark, not by the code
# under test, so a later commit gets the same corpus however it solves it.
# constant, and per IN-set scanned, forced-IN test, extension test and base tried
GROUND_WORK_WEIGHTS = (250.0, 1.6, 17.0, 3.2, 31.0)
# Twenty slices of equal share of the natural distribution of
# ``_ground_work`` over frameworks with at least 11 arguments (20000 draws of
# seed ``natural``), up to its 94th percentile; each slice gets the same
# count, and ``python3 bench/shares.py grounded-oracle 20000`` shows each
# slice's share.  The median and the p95 tail then fall on slice
# edges, where every seed's corpus has the same work.  The costliest 6%
# (up to 12 s each) are not drawn.
GROUNDED_WORK_EDGES = (
    0, 913, 1219, 1583, 1989, 2365, 2782, 3329, 3885, 4336, 4952,
    5716, 6719, 7613, 8661, 10040, 12501, 15084, 21298, 30233, 51425,
)
GROUNDED_STRATA = tuple((low, high, 15) for low, high in zip(GROUNDED_WORK_EDGES, GROUNDED_WORK_EDGES[1:]))


def _ground_work(g, cap: float = math.inf) -> float:
    """Estimated work of ``grounded_labeling(g, oracle=True)``; stops
    counting, and returns infinity, once past ``cap``."""
    constant, w_scan, w_test, w_extend, w_base = GROUND_WORK_WEIGHTS
    catalogue = grounded.admissible_catalogue(g)
    index = {a: i for i, a in enumerate(g.args)}
    attackers = dict.fromkeys(g.args, 0)
    for source, target in g.attacks:
        attackers[target] |= 1 << index[source]
    heads = []  # (head, tail, attackers along the support's chains), in the oracle's order
    for head in sorted(g.supports):
        reach = 0
        for h in {head} | grounded.support_children(g, head):
            reach |= attackers[h]
        heads.append((index[head], g.supports[head], reach))
    masks = [(_mask(index, lab.in_set), _mask(index, lab.out_set)) for lab in catalogue]
    labels = [[lab.label(a) for a in g.args] for lab in catalogue]
    legal: dict[tuple[int, str], bool] = {}
    scanned = 1 << (len(g.args) - len(framework.strict_args(_plain(g))))
    work = constant + w_scan * scanned + w_test * len(catalogue) * len(g.args)
    for (in_mask, out_mask), lab in zip(masks, labels):
        for arg in g.args:  # forced_in(g, lab, arg)
            if attackers[arg] & ~out_mask:
                continue
            for h, tail, reach in heads:
                here = lab[h]
                if arg not in tail or here == framework.IN or not reach & ~out_mask:
                    continue  # not in the support, head IN, or a safe support
                forced = True
                for (base_in, base_out), base in zip(masks, labels):
                    if not grounded.more_informative(base[h], here):
                        continue
                    work += w_base
                    forced = False
                    for c, ((cand_in, cand_out), cand) in enumerate(zip(masks, labels)):
                        work += w_extend
                        if base_in & ~cand_in or base_out & ~cand_out or cand[h] != base[h]:
                            continue
                        if (c, arg) not in legal:
                            legal[c, arg] = grounded.legally_in(g, catalogue[c], arg)
                        if legal[c, arg]:
                            forced = True
                            break
                    if not forced:
                        break
                if work > cap:
                    return math.inf
                if not forced:
                    break
    return work


def _mask(index, names) -> int:
    return sum(1 << index[a] for a in names)


def _plain(g) -> framework.Jsbaf:
    return framework.Jsbaf(args=g.args, attacks=g.attacks, supports=dict(g.supports))


def _draw_ground(rng):
    g = generate.generate_ground_framework(rng=rng, max_args=12)
    if len(g.args) < 11:
        return None
    return _ground_work(g, cap=GROUNDED_WORK_EDGES[-1]), g


def grounded_corpus(seed: str, size: int) -> list[str]:
    return [
        textio.format_framework(_plain(g))
        for g in _stratified(seed, size, GROUNDED_STRATA, _draw_ground)
    ]


def _ground(text: str):
    return grounded.from_jsbaf(textio.parse_framework_text(text))


def solve_grounded(text):
    return grounded.grounded_labeling(_ground(text), oracle=True)


def grounded_outcome(labeling) -> Outcome:
    return Outcome(textio.format_labeling(labeling))


def check_grounded(seed, index, text, labeling):
    """The oracle inside the verdict path already compared the construction
    with every ground-complete labeling; here two seeded pick orders must
    reach the same labeling, and the naive definitions must find it
    admissible."""
    for k in range(2):
        pick_rng = random.Random(f"{seed}-pick-{index}-{k}")
        again = grounded.grounded_construction(_ground(text), pick=pick_rng.choice)
        if again != labeling:
            return f"pick order {k} gives {again.vector()}, not {labeling.vector()}"
    plain = textio.parse_framework_text(text)
    if not naive.naive_is_admissible(plain, labeling, use_ranks=False):
        return "grounded labeling is not admissible under the naive definitions"
    return None


# --- translate ------------------------------------------------------------------


def _draw_system(rng):
    candidate = generate.generate_system(TRANSLATE_PROFILE, rng=rng)
    build = arguments.build_arguments(candidate)  # the bounds framework_from_system uses
    if build.truncated:
        return None
    return len(build.arguments), candidate


def translate_corpus(seed: str, size: int) -> list[str]:
    return [textio.format_system(s) for s in _stratified(seed, size, TRANSLATE_STRATA, _draw_system)]


@dataclass(frozen=True)
class TranslateVerdict:
    valid: bool
    translation: object
    text: str


def solve_translate(text):
    parsed = textio.parse_system_text(text)
    report = system.validate_system(parsed)
    translation = arguments.framework_from_system(parsed)
    return TranslateVerdict(report.ok, translation, textio.format_framework(translation.framework))


def translate_outcome(verdict) -> Outcome:
    return Outcome(verdict.text, verdict.translation.truncated)


def check_translate(seed, index, text, verdict):
    if not verdict.valid:
        return "generated system fails validate_system"
    translated = verdict.translation.framework
    if not framework.validate_jsbaf(translated).ok:
        return "translated framework fails validate_jsbaf"
    if not naive.naive_is_admissible(translated, framework.sim_labeling(translated)):
        return "SIM labeling is not admissible under the naive definitions"
    return None


# --- postulate-fuzz -------------------------------------------------------------


def _draw_postulate_system(rng):
    """A criterion-6 system of at most 10 arguments, as text: 3000 system
    objects held through set-up would add 14 MB to ``peak_rss_mb``."""
    candidate = generate.generate_system(POSTULATE_PROFILE, rng=rng)
    build = arguments.build_arguments(candidate)
    if build.truncated or len(build.arguments) > 10:
        return None
    return sum(1 for a in build.arguments if not arguments.is_strict(a)), textio.format_system(candidate)


def postulate_corpus(seed: str, size: int) -> list[str]:
    return _stratified(seed, size, POSTULATE_STRATA, _draw_postulate_system)


def solve_postulates(text):
    parsed = textio.parse_system_text(text)
    families = arguments.preferred_conclusions(parsed)
    digest = postulates.system_digest(parsed)
    reports = []
    for family in families:
        reports.append(postulates.check_closure(parsed, family))
        reports.append(postulates.check_direct_consistency(family, instance_digest=digest))
        reports.append(postulates.check_indirect_consistency(parsed, family))
    return reports


def postulate_outcome(reports) -> Outcome:
    return Outcome("\n".join(report.to_json() for report in reports))


def check_postulates(seed, index, text, reports):
    failing = [report.postulate for report in reports if not report.passed]
    if failing:
        return f"postulate reports not PASS: {failing}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "non-interference",
            _corpus_size(NI_STRATA),
            non_interference_corpus,
            solve_non_interference,
            non_interference_outcome,
            check_non_interference,
        ),
        Workload(
            "grounded-oracle",
            _corpus_size(GROUNDED_STRATA),
            grounded_corpus,
            solve_grounded,
            grounded_outcome,
            check_grounded,
        ),
        Workload(
            "translate",
            _corpus_size(TRANSLATE_STRATA),
            translate_corpus,
            solve_translate,
            translate_outcome,
            check_translate,
        ),
        Workload(
            "postulate-fuzz",
            _corpus_size(POSTULATE_STRATA),
            postulate_corpus,
            solve_postulates,
            postulate_outcome,
            check_postulates,
        ),
    )
}
